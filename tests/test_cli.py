"""Command-line front end: outputs, exit codes and reproducibility."""

import json

import pytest

from ristruct import cli
from ristruct.cli import EXIT_CONFIG, EXIT_NUMERIC, EXIT_VERIFY, main


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
