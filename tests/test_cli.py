"""Command-line front end: outputs, exit codes and reproducibility."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ristruct import cli
from ristruct.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_VERIFY, main
from ristruct.config import builtin_rule_config


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, *argv):
    code, out, _err = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture
def small_cfg(tmp_path):
    cfg = {
        "rule": "numeric2d",
        "grid": {"sizes": [32, 32]},
        "noise": {"kind": "smooth", "scale": 0.7},
        "seed": 7,
        "eps": "1/100",
        "basePoints": [[10, 7]],
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_sector_gen(capsys):
    code, doc = out_json(capsys, "sector", "gen", "pam3d")
    assert code == 0
    assert [b["tree"] for b in doc["basis"]] == [
        "(O())", "(O() K(O()))",
        "(O() K(O()) K(O()))", "(O() K(O() K(O())))"]
    assert doc["basis"][1]["degree"] == "-1"
    assert doc["mB"] == 5


def test_coproduct_threshold(capsys):
    code, doc = out_json(capsys, "coproduct", "(O() K(H()))", "--p", "7")
    assert code == 0
    assert len(doc["terms"]) == 2
    code, doc = out_json(capsys, "coproduct", "(O() K(H()))", "--p", "5")
    assert code == 0
    assert len(doc["terms"]) == 5


def test_coproduct_graphical_agrees(capsys):
    _c, a = out_json(capsys, "coproduct", "(O() K(O()) K(H()))",
                     "--p", "5", "--eps", "1/100")
    _c, b = out_json(capsys, "coproduct", "(O() K(O()) K(H()))",
                     "--p", "5", "--eps", "1/100", "--graphical")
    assert a["terms"] == b["terms"]


def test_coproduct_echoes_p_canonically(capsys):
    """Two spellings of one 1/p print the same bytes."""
    for spelt, canonical in (("5.0", "5"), ("infinity", "inf")):
        _c, out, _e = run(capsys, "coproduct", "(O() K(H()))", "--eps", "0",
                          "--p", spelt)
        assert out == run(capsys, "coproduct", "(O() K(H()))", "--eps", "0",
                          "--p", canonical)[1]
        assert json.loads(out)["p"] == canonical


def test_coproduct_genericity_exit(capsys):
    code, _out, err = run(capsys, "coproduct", "(O() K(H()))", "--p", "6")
    assert code == EXIT_CONFIG
    assert "error" in json.loads(err)


def test_phase(capsys):
    code, doc = out_json(capsys, "phase", "numeric2d")
    assert code == 0
    assert doc["I_eps"] == ["25/4", "25/2"]
    assert doc["epsilon0"] == "7/20"
    code, doc = out_json(capsys, "phase", "pam3d", "--eps", "1/100")
    assert code == 0
    assert doc["epsilon0"] is None
    assert "epsilon0_error" in doc


def test_prep_verify(capsys, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps({"(O() K(O()))": "-1/3"}))
    code, doc = out_json(capsys, "prep", "verify", str(path),
                         "--rule", "numeric2d")
    assert code == 0
    assert doc["ok"] is True


def test_verify_hopf_and_triangularity(capsys):
    code, doc = out_json(capsys, "verify", "hopf", "numeric2d",
                         "--eps", "1/100", "--p", "5")
    assert code == 0 and doc["ok"] is True
    code, doc = out_json(capsys, "verify", "triangularity", "numeric2d",
                         "--eps", "1/100")
    assert code == 0 and doc["ok"] is True


def test_verify_comparison(capsys, small_cfg):
    code, doc = out_json(capsys, "verify", "comparison", small_cfg)
    assert code == 0
    assert doc["ok"] is True
    assert doc["max_error"] < 1e-9


def test_verify_comparison_tolerance_exit(capsys, small_cfg, tmp_path):
    cfg = json.loads(open(small_cfg).read())
    cfg["tolerance"] = 1e-300
    path = tmp_path / "tight.json"
    path.write_text(json.dumps(cfg))
    code, _doc = out_json(capsys, "verify", "comparison", str(path))
    assert code == EXIT_VERIFY


def test_verify_dpidd(capsys, small_cfg):
    code, doc = out_json(capsys, "verify", "dpidd", small_cfg)
    assert code == 0
    assert doc["ok"] is True


def test_model_build(capsys, small_cfg):
    code, doc = out_json(capsys, "model", "build", small_cfg)
    assert code == 0
    assert doc["route_equivalence_error"] < 1e-10
    assert "(O() K(O()))" in doc["trees"]


def strict_json(text):
    """Parse JSON, refusing the NaN and Infinity that json.dumps writes
    for non-finite floats."""
    def refuse(name):
        raise ValueError(f"not strict JSON: {name}")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("command, check", [
    ("comparison", "check_comparison"),
    ("dpidd", "check_derivative_identity"),
])
def test_verify_nan_error_fails(capsys, monkeypatch, small_cfg, command,
                                check):
    """max(0.0, nan) is 0.0: a check that breaks down must not read as a
    pass."""
    monkeypatch.setattr(f"ristruct.analytic.checks.{check}",
                        lambda *a, **k: math.nan)
    code, out, _err = run(capsys, "verify", command, small_cfg)
    doc = strict_json(out)
    assert code == EXIT_VERIFY
    assert doc["ok"] is False
    assert doc["max_error"] is None
    assert doc["results"]
    assert all(r["error"] is None for r in doc["results"])


def test_model_build_nan_route_error(capsys, monkeypatch, small_cfg):
    monkeypatch.setattr("ristruct.analytic.checks.check_route_equivalence",
                        lambda *a, **k: math.nan)
    code, out, _err = run(capsys, "model", "build", small_cfg)
    doc = strict_json(out)
    assert code == 0
    assert doc["route_equivalence_error"] is None


def test_bphz_solve(capsys, tmp_path):
    cfg = {"rule": "numeric2d", "grid": {"sizes": [32, 32]},
           "noise": {"kind": "white", "mollify": 3}, "seed": 3,
           "mollify": 3, "samples": 16}
    path = tmp_path / "bphz.json"
    path.write_text(json.dumps(cfg))
    code, doc = out_json(capsys, "bphz", "solve", str(path))
    assert code == 0
    assert "(O() K(O()))" in doc["counterterms"]
    assert doc["estimates"]["(O() K(O()))"]["stderr"] > 0


def test_scaling_fit(capsys, tmp_path):
    cfg = {"rule": "numeric2d", "grid": {"sizes": [32, 32]},
           "noise": {"kind": "white", "mollify": 3}, "seed": 3,
           "mollify": 4, "samples": 8,
           "tGrid": [2.0 ** (-j) for j in range(8, 2, -1)],
           "basePoints": [[0, 0]]}
    path = tmp_path / "scaling.json"
    path.write_text(json.dumps(cfg))
    code, doc = out_json(capsys, "scaling", "fit", str(path), "()")
    assert code == 0
    assert doc["tree"] == "()"
    assert abs(doc["slope"]) < 1e-12  # constant tree: flat series
    code, doc = out_json(capsys, "scaling", "fit", str(path), "(O())")
    assert code == 0
    assert doc["ci"][0] <= doc["slope"] <= doc["ci"][1]


def test_repeated_runs_identical(capsys, small_cfg):
    _c, out1, _e = run(capsys, "verify", "comparison", small_cfg)
    _c, out2, _e = run(capsys, "verify", "comparison", small_cfg)
    assert out1 == out2



@pytest.mark.parametrize("p, command, most", [
    ("inf", ("model", "build"), (23, 18)),
    ("inf", ("verify", "comparison"), (24, 10)),
    ("2", ("model", "build"), (26, 30)),
    ("2", ("verify", "comparison"), (24, 10))],
    ids=["model-inf", "comparison-inf", "model-p2", "comparison-p2"])
def test_numeric_commands_transform_each_field_once(capsys, monkeypatch,
                                                    tmp_path, p, command,
                                                    most):
    """model build and verify comparison visit the base points outermost,
    so the model's per-point caches serve every tree at a point and no
    field is transformed twice: on the pam3d 16^3 config at two base
    points they make at most the rfftn and irfftn calls counted when
    every point's caches were kept."""
    import numpy as np

    cfg = tmp_path / "pam3d.json"
    cfg.write_text(json.dumps({
        "rule": "pam3d", "grid": {"sizes": [16, 16, 16]},
        "noise": {"kind": "smooth", "scale": 0.7}, "seed": 7, "p": p,
        "basePoints": [[0, 0, 0], [5, 9, 3]]}))
    calls = {"rfftn": 0, "irfftn": 0}
    for name in calls:
        original = getattr(np.fft, name)

        def counted(*a, _f=original, _name=name, **k):
            calls[_name] += 1
            return _f(*a, **k)
        monkeypatch.setattr(np.fft, name, counted)
    code, _out, _err = run(capsys, *command, str(cfg))
    assert code == 0
    assert calls["rfftn"] <= most[0] and calls["irfftn"] <= most[1]


# Trees hash by identity, so a set of trees iterates in address order.
# The second interpreter first keeps a number of objects of the sizes
# that trees and their tuples take, so that later objects sit elsewhere.
_FRESH_RUN = """
import sys
junk = [(i,) * (i % 8) for i in range(int(sys.argv[1]))]
junk += [object() for _ in range(int(sys.argv[1]) // 3)]
from ristruct.cli import main
sys.exit(main(sys.argv[2:]))
"""


def _fresh_run(junk: int, *argv):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", _FRESH_RUN, str(junk), *argv],
        capture_output=True, env=env, timeout=300)
    return done.returncode, done.stdout


def test_output_does_not_depend_on_addresses(tmp_path):
    """The symbolic commands print the same bytes and exit alike in two
    fresh interpreters whose trees lie at different addresses."""
    cfg = builtin_rule_config("pam3d")
    cfg.update(maxEdges=7, maxOmega=5)
    rule = tmp_path / "pam3d_7_5.json"
    rule.write_text(json.dumps(cfg))
    runs = {"gen": (("sector", "gen", str(rule)), 0),
            "tri": (("verify", "triangularity", str(rule)), EXIT_VERIFY),
            "cop": (("coproduct", "(O() K(O() K(O())))", "--eps", "1/100"),
                    0)}
    docs = {}
    for name, (argv, want) in runs.items():
        code, out = _fresh_run(0, *argv)
        assert code == want, name
        assert _fresh_run(10007, *argv) == (code, out), name
        docs[name] = json.loads(out)
    assert docs["gen"]["basis"] and docs["gen"]["dot_basis"]
    assert docs["tri"]["failures"]
    assert docs["cop"]["terms"]


_SYMBOLIC_RUN = """
import contextlib, io, json, sys
from ristruct.cli import main
loaded = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    loaded.append([argv, code, "numpy" in sys.modules])
print(json.dumps(loaded))
"""


def test_symbolic_commands_never_load_numpy(tmp_path):
    """The symbolic commands, run one after another in a fresh
    interpreter, never import numpy, not even for the numeric error
    types that cli.main catches."""
    ct = tmp_path / "ct.json"
    ct.write_text(json.dumps({"(O() K(O()))": "-1/3"}))
    runs = [["sector", "gen", "pam3d"],
            ["coproduct", "(O() K(H()))", "--p", "7"],
            ["phase", "pam3d"],
            ["verify", "hopf", "pam3d"],
            ["verify", "triangularity", "pam3d"],
            ["prep", "verify", str(ct), "--rule", "numeric2d"]]
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(
        [sys.executable, "-c", _SYMBOLIC_RUN, json.dumps(runs)],
        capture_output=True, env=env, timeout=300, check=True)
    assert json.loads(done.stdout) == [[argv, 0, False] for argv in runs]


def test_out_manifest(capsys, small_cfg, tmp_path):
    outdir = tmp_path / "run"
    code, out, _e = run(capsys, "--out", str(outdir), "sector", "gen",
                        "numeric2d")
    assert code == 0
    assert json.loads((outdir / "output.json").read_text()) \
        == json.loads(out)
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["command"] == "sector"
    assert len(manifest["parameter_hash"]) == 64


def test_out_manifest_identifies_run(capsys, small_cfg, tmp_path):
    """A config that differs only in its seed changes the manifest's
    seed and hash; the same config run into two directories, named in
    either form of --out, does not."""
    cfg = json.loads(open(small_cfg).read())
    runs = {}
    for seed, name in ((1, "a"), (2, "b"), (2, "c")):
        cfg["seed"] = seed
        open(small_cfg, "w").write(json.dumps(cfg))
        outdir = tmp_path / name
        out = (["--out", str(outdir)] if name != "c"
               else [f"--out={outdir}"])
        code, _o, _e = run(capsys, *out, "model", "build", small_cfg)
        assert code == 0
        runs[name] = ((outdir / "manifest.json").read_text(),
                      (outdir / "output.json").read_text())
    a, b = (json.loads(runs[n][0]) for n in "ab")
    assert (a["seed"], b["seed"]) == (1, 2)
    assert a["parameter_hash"] != b["parameter_hash"]
    assert runs["a"][1] != runs["b"][1]
    assert runs["b"] == runs["c"]


def test_bad_config_exit(capsys, tmp_path):
    code, _o, err = run(capsys, "sector", "gen", "no-such-rule.json")
    assert code == EXIT_CONFIG
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _o, _e = run(capsys, "sector", "gen", str(bad))
    assert code == EXIT_CONFIG
    # a fractional count is refused, not truncated
    bad.write_text(json.dumps(dict(builtin_rule_config("pam3d"),
                                   maxEdges=7.5)))
    code, out, err = run(capsys, "sector", "gen", str(bad))
    assert code == EXIT_CONFIG
    assert out == ""
    assert "maxEdges" in json.loads(err)["error"]
    # a counterterm file must be a JSON object mapping trees to values
    bad.write_text(json.dumps([["(O() K(O()))", "-1/3"]]))
    code, out, err = run(capsys, "prep", "verify", str(bad),
                         "--rule", "numeric2d")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "counterterms" in json.loads(err)["error"]
    # so must each value be a rational: a "1/0" names its tree
    bad.write_text(json.dumps({"(O() K(O()))": "1/0"}))
    code, out, err = run(capsys, "prep", "verify", str(bad),
                         "--rule", "numeric2d")
    assert code == EXIT_CONFIG
    assert out == ""
    assert "(O() K(O()))" in json.loads(err)["error"]


@pytest.mark.parametrize("argv, named", [
    (("verify", "hopf", "numeric2d", "--eps", "1/0"), "--eps"),
    (("verify", "hopf", "numeric2d", "--eps=-1"), "eps must be at least 0"),
    (("verify", "hopf", "numeric2d", "--p", "1/0"), "p must"),
    (("verify", "triangularity", "numeric2d", "--eps=-1"), "eps"),
    (("coproduct", "(O() K(H()))", "--eps=-1/100"), "eps"),
    (("coproduct", "(O() K(H()))", "--p", "infinit"), "p must"),
    (("phase", "numeric2d", "--eps=-1"), "eps"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_bad_plane_point_exit(capsys, argv, named):
    """An (eps, p) off the plane eps >= 0, p in [2, inf], or not a
    rational, exits 1 with a JSON error naming it, not a traceback."""
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert named in json.loads(err)["error"]


def test_json_float_reads_as_its_decimal(capsys, tmp_path):
    """A rule file's JSON float is the decimal it is written as: -1.05
    is -21/20, not the nearest binary fraction."""
    cfg = builtin_rule_config("numeric2d")
    outs = []
    for r0, beta0 in (("-21/20", "19/10"), (-1.05, 1.9)):
        cfg["params"] = dict(cfg["params"], r0=r0, beta0=beta0)
        path = tmp_path / "rule.json"
        path.write_text(json.dumps(cfg))
        code, out, _err = run(capsys, "sector", "gen", str(path))
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_usage_error_exit(capsys):
    """Usage errors are configuration errors, not verification failures;
    --help still exits 0."""
    for argv in (["verify"], ["no-such-command"],
                 ["coproduct", "(O())", "--p"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_unknown_quad_key_exit(capsys, small_cfg, tmp_path):
    cfg = json.loads(open(small_cfg).read())
    for quad, named in (({"nodes": 3}, "nodes"), ([1], "quad")):
        cfg["quad"] = quad
        path = tmp_path / "quad.json"
        path.write_text(json.dumps(cfg))
        code, _o, err = run(capsys, "model", "build", str(path))
        assert code == EXIT_CONFIG
        assert named in json.loads(err)["error"]


@pytest.mark.parametrize("argv", [
    ("model", "build"), ("verify", "comparison"), ("verify", "dpidd"),
    ("bphz", "solve"), ("scaling", "fit")], ids=" ".join)
def test_unknown_top_level_key_exit(capsys, small_cfg, tmp_path, argv):
    """Every numeric command refuses a top-level key that none of them
    reads, such as a misspelt "samples", which would otherwise leave the
    default in force, and a config that is not a JSON object."""
    extra = ("(O())",) if argv[0] == "scaling" else ()
    cfg = json.loads(open(small_cfg).read())
    for bad, named in ((dict(cfg, sampels=2), "sampels"),
                       ([cfg], "config")):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, *argv, str(path), *extra)
        assert code == EXIT_CONFIG
        assert out == ""
        assert named in json.loads(err)["error"]


@pytest.mark.parametrize("change, named, command", [
    ({"noise": {"kind": "blue"}}, "noise kind", "model"),
    ({"basePoints": [[40, 1]]}, "basePoints", "model"),
    ({"grid": {"sizes": ["32", "32"]}}, "grid.sizes", "model"),
    ({"quad": {"tol": "1e-10"}}, "quad.tol", "model"),
    ({"basePoints": [[1, 2, 3]]}, "base point", "model"),
    ({"grid": {"sizes": [32, 32], "period": [6.28, -1.0]}}, "grid.period",
     "model"),
    ({"grid": {"size": [32, 32]}}, "size", "model"),
    ({"operator": {"cutoffWidth": "1"}}, "cutoffWidth", "model"),
    ({"operator": {"symbol": [[[2, 0], "x"]]}}, "coefficient", "model"),
    ({"noise": {"kind": "smooth", "scale": 0}}, "noise.scale", "model"),
    ({"noise": {"kind": "white", "mollify": 2.5}}, "noise.mollify",
     "model"),
    ({"seed": -1}, "seed", "model"),
    ({"seed": True}, "seed", "model"),
    ({"rule": 5}, "rule", "model"),
    ({"tolerance": "1e-9"}, "tolerance", "model"),
    ({"samples": 0}, "samples", "bphz"),
    ({"mollify": "4"}, "mollify", "bphz"),
    ({"stderrThreshold": 0}, "stderrThreshold", "bphz"),
    ({"samples": 0}, "samples", "scaling"),
    ({"mollify": "4"}, "mollify", "scaling"),
    ({"tGrid": [0.25]}, "tGrid", "scaling"),
    ({"tGrid": [0.25, 0.25]}, "tGrid", "scaling"),
    ({"eps": "1/0"}, "eps", "model"),
    ({"eps": [1]}, "eps", "model"),
    ({"eps": "-3"}, "eps", "model"),
    ({"p": "1/0"}, "p must", "model"),
    ({"p": None}, "p must", "model"),
])
def test_bad_numeric_config_exit(capsys, small_cfg, tmp_path, change, named,
                                 command):
    """Every numeric config field is converted and checked before any
    numeric work: a bad value exits 1 with a JSON error naming it."""
    cfg = json.loads(open(small_cfg).read())
    cfg.update(change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    argv = {"model": ("model", "build", str(path)),
            "bphz": ("bphz", "solve", str(path)),
            "scaling": ("scaling", "fit", str(path), "(O())")}[command]
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CONFIG
    assert out == ""
    assert named in json.loads(err)["error"]


def test_explicit_numeric_config_matches_defaults(capsys, small_cfg,
                                                 tmp_path):
    """Spelling out the defaults, the operator symbol included, gives
    the same document as leaving them out."""
    code, base, _e = run(capsys, "model", "build", small_cfg)
    assert code == 0
    cfg = json.loads(open(small_cfg).read())
    cfg.update({
        "grid": {"sizes": [32, 32], "period": [2 * math.pi] * 2},
        "operator": {"symbol": [[[2, 0], 1], [[0, 2], "1"]], "ell": 2,
                     "cutoffWidth": 1.0},
        "quad": {"nodes_per_block": 12, "extra_depth": 2,
                 "check_nodes": 18, "tol": 1e-10},
        "p": "inf"})
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps(cfg))
    code, out, _e = run(capsys, "model", "build", str(path))
    assert code == 0
    assert out == base


def test_operator_symbol_takes_ell_from_rule(capsys, small_cfg, tmp_path):
    """An operator symbol without ``ell`` takes the rule's order, and a
    command ignores the fields only other commands read."""
    code, base, _e = run(capsys, "model", "build", small_cfg)
    assert code == 0
    cfg = json.loads(open(small_cfg).read())
    cfg.update({"operator": {"symbol": [[[2, 0], 1], [[0, 2], 1]]},
                "tGrid": [0.25], "samples": 0})
    path = tmp_path / "symbol.json"
    path.write_text(json.dumps(cfg))
    code, out, _e = run(capsys, "model", "build", str(path))
    assert code == 0
    assert out == base


def test_quadrature_failure_exit(capsys, small_cfg, tmp_path):
    cfg = json.loads(open(small_cfg).read())
    cfg["quad"] = {"nodes_per_block": 2, "extra_depth": 0,
                   "check_nodes": 3, "tol": 1e-12}
    path = tmp_path / "coarse.json"
    path.write_text(json.dumps(cfg))
    code, _o, err = run(capsys, "model", "build", str(path))
    assert code == EXIT_NUMERIC
    assert "quadrature" in json.loads(err)["error"]


def test_bphz_convergence_exit(capsys, tmp_path):
    cfg = {"rule": "numeric2d", "grid": {"sizes": [32, 32]},
           "noise": {"kind": "white", "mollify": 3}, "seed": 3,
           "mollify": 3, "samples": 8, "stderrThreshold": 1e-12}
    path = tmp_path / "bphz.json"
    path.write_text(json.dumps(cfg))
    code, _o, err = run(capsys, "bphz", "solve", str(path))
    assert code == EXIT_NUMERIC
    assert "did not converge" in json.loads(err)["error"]


def test_internal_runtime_error_is_not_an_exit_code(capsys, monkeypatch):
    """Only the numeric non-convergence errors exit 3; any other
    RuntimeError is a bug and surfaces as a traceback."""
    def broken(args):
        raise RuntimeError("internal bug")
    monkeypatch.setattr(cli, "cmd_sector_gen", broken)
    with pytest.raises(RuntimeError, match="internal bug"):
        main(["sector", "gen", "pam3d"])
