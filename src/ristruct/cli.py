"""Batch command-line front end for the symbolic and numeric pipelines.

Every command prints a single JSON document to stdout (keys sorted, so
identical runs are byte-identical) and can also write it to a directory
together with a run manifest.  Exit codes: 0 success, 1 configuration
or usage error, 2 verification failure, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

from . import __version__
from .config import (builtin_rule_config, json_array, json_integer,
                     json_object, json_rational)
from .grading import (GenericityError, degree, degree_consts, degree_form,
                      epsilon0_from_forms, from_invp, phase_sets, to_invp)
from .hopf import Hopf
from .renorm import CounterTerms, RcMap, verify_preparation
from .sector import (HOPF_CHECKS, HOPF_TREE_SETS, check_differentiable,
                     check_triangular, key_of, load_sector)
from .trees import format_tree, parse

EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3


def _worst(errors):
    """The largest check error, or None (JSON null) when one is not
    finite: the check broke down, and ``max`` would skip a NaN that
    follows a number and report it as passed."""
    if all(math.isfinite(err) for err in errors):
        return max([0.0, *errors])
    return None


def _error(err):
    """A check error for the JSON output: null when it is not finite,
    so that the output stays strict JSON."""
    return err if math.isfinite(err) else None


def _load_json_or_name(spec):
    if isinstance(spec, dict):
        return spec
    try:
        return builtin_rule_config(spec)
    except KeyError:
        pass
    with open(spec) as fh:
        return json.load(fh)


def _load_sector(args, spec):
    cfg = args.inputs["rule"] = _load_json_or_name(spec)
    sector = load_sector(cfg)
    return sector, Hopf(sector.params)


def _emit(args, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2, default=str)
    print(text)
    if getattr(args, "out", None):
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "output.json").write_text(text + "\n")
        # the output directory is not a run parameter: drop it, in any
        # form argparse accepts, so equal parameter sets yield
        # byte-identical manifests
        argv = list(args._argv)
        for i, a in enumerate(argv):
            opt = a.split("=", 1)[0]
            if len(opt) > 2 and "--out".startswith(opt):
                del argv[i:i + 1 + ("=" not in a)]
                break
        # the hash covers what the run read, not only how it was named
        manifest = {
            "command": args.command,
            "argv": argv,
            "seed": args.seed,
            "version": __version__,
            "parameter_hash": hashlib.sha256(
                json.dumps({"argv": argv, "inputs": args.inputs},
                           sort_keys=True).encode()).hexdigest(),
        }
        (out / "manifest.json").write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n")


# symbolic commands ------------------------------------------------------

def cmd_sector_gen(args):
    sector, _hopf = _load_sector(args, args.rule)
    params = sector.params
    listing = []
    for i, t in enumerate(sector.basis_o):
        k = key_of(t, params)
        listing.append({
            "index": i + 1,
            "tree": format_tree(t),
            "omega": k[0], "edges": k[1], "degree": str(k[2]),
            "derivatives": [format_tree(s)
                            for s in sector.dot_basis_by_index[i]],
        })
    doc = {
        "polynomials": [format_tree(t) for t in sector.polys],
        "basis": listing,
        "dot_basis": [format_tree(t) for t in sector.dot_basis],
        "mB": sector.mB,
    }
    _emit(args, doc)
    return 0


def cmd_coproduct(args):
    invp = to_invp(args.p)
    eps = json_rational(args.eps, "--eps")
    sector, hopf = _load_sector(args, args.rule or "pam3d")
    t = parse(args.tree, dim=sector.params.d)
    cop = (hopf.coproduct_graphical(t, eps, invp) if args.graphical
           else hopf.coproduct(t, eps, invp))
    terms = [{"left": format_tree(a), "right": format_tree(b),
              "coeff": str(c)}
             for (a, b), c in sorted(cop, key=lambda kv: (
                 kv[0][0]._enc, kv[0][1]._enc))]
    _emit(args, {"tree": format_tree(t), "eps": str(eps),
                 "p": str(from_invp(invp)), "terms": terms})
    return 0


def cmd_phase(args):
    sector, _hopf = _load_sector(args, args.rule)
    params = sector.params
    eps = json_rational(args.eps, "--eps")
    invp = to_invp(args.p)
    gens = sector.w_plus_generators(Fraction(0), Fraction(1, 2))
    i_eps, j_p = phase_sets(gens, params, eps, invp)
    doc = {"I_eps": [str(q) for q in i_eps], "J_p": [str(e) for e in j_p]}
    try:
        doc["epsilon0"] = str(epsilon0_from_forms(
            [degree_form(g, params) for g in gens], params))
    except GenericityError as exc:
        doc["epsilon0"] = None
        doc["epsilon0_error"] = str(exc)
    _emit(args, doc)
    return 0


def cmd_prep_verify(args):
    sector, hopf = _load_sector(args, args.rule)
    with open(args.counterterms) as fh:
        raw = args.inputs["counterterms"] = json.load(fh)
    values = {parse(k, dim=sector.params.d):
              json_rational(v, f"counterterm of {k}")
              for k, v in json_object(raw, "counterterms").items()}
    R = RcMap(CounterTerms(values), hopf, sector)
    report = verify_preparation(R, sector, hopf)
    doc = {"ok": report.ok,
           "failures": [{"axiom": f["check"], "tree": format_tree(f["tree"]),
                         "detail": f["detail"]} for f in report.failures]}
    _emit(args, doc)
    return 0 if report.ok else EXIT_VERIFY


def cmd_verify_hopf(args):
    sector, hopf = _load_sector(args, args.rule)
    eps = json_rational(args.eps, "--eps")
    invp = to_invp(args.p)
    failures = []  # tree by tree, each tree's checks in table order
    for tree_set, trees in HOPF_TREE_SETS.items():
        checks = [(name, holds) for name, s, holds in HOPF_CHECKS
                  if s == tree_set]
        for t in trees(sector, eps, invp):
            failures += [{"check": name, "tree": format_tree(t)}
                         for name, holds in checks
                         if not holds(hopf, t, eps, invp)]
    _emit(args, {"ok": not failures, "failures": failures})
    return 0 if not failures else EXIT_VERIFY


def cmd_verify_triangularity(args):
    sector, hopf = _load_sector(args, args.rule)
    eps = json_rational(args.eps, "--eps")
    invp = to_invp(args.p)
    r1 = check_differentiable(sector, hopf, eps, invp)
    r2 = check_triangular(sector, hopf, eps, invp)
    failures = [{"property": f["check"], "tree": format_tree(f["tree"]),
                 "detail": f["detail"]} for f in r1.failures + r2.failures]
    _emit(args, {"ok": not failures, "failures": failures})
    return 0 if not failures else EXIT_VERIFY


# numeric commands -------------------------------------------------------

# the top-level keys some numeric command reads: one set for all of
# them, so that one config serves every numeric command
_NUMERIC_KEYS = ("rule", "grid", "operator", "quad", "noise", "seed",
                "basePoints", "tolerance", "eps", "p", "mollify", "samples",
                "stderrThreshold", "tGrid")


def _object(obj, name: str, keys) -> dict:
    """A JSON object, refusing keys outside ``keys``."""
    unknown = sorted(set(json_object(obj, name)) - set(keys))
    if unknown:
        raise ValueError(f"unknown {name} key(s): {', '.join(unknown)}")
    return obj


def _section(cfg: dict, name: str, keys) -> dict:
    """A config sub-object, refusing keys outside ``keys``."""
    return _object(cfg.get(name, {}), name, keys)


def _positive(value, name: str) -> float:
    """A finite positive JSON number."""
    if type(value) not in (int, float) or not 0 < value < float("inf"):
        raise ValueError(f"{name} must be a positive number, not {value!r}")
    return float(value)


def _coefficient(value, name: str) -> complex:
    """An operator coefficient: a JSON number, or a string such as
    "0.5j" for a complex one."""
    try:
        c = complex(value) if type(value) in (int, float, str) else None
    except ValueError:
        c = None
    if c is None or not cmath.isfinite(c):
        raise ValueError(f"{name} must be a finite number, not {value!r}")
    return c


def _numeric_setup(args, cfg: dict):
    """Load the fields every numeric command shares, converting and
    checking each before any numeric work; a bad value, or a top-level
    key no numeric command reads, is a ValueError (exit 1).  The noise
    fields are built by ``_noise_fields``."""
    import numpy as np

    from .analytic.grid import (GridSpec, OperatorContext, OperatorSpec,
                                QuadratureSpec, fourth_order_op,
                                second_order_op)

    _object(cfg, "config", _NUMERIC_KEYS)
    rule = cfg.get("rule", "numeric2d")
    if not isinstance(rule, (str, dict)):
        raise ValueError(f"rule must be a name, a path or a JSON object, "
                         f"not {rule!r}")
    sector, hopf = _load_sector(args, rule)
    params = sector.params
    d = params.d
    gcfg = _section(cfg, "grid", ("sizes", "period"))
    sizes = tuple(json_integer(n, "grid.sizes entry") for n in json_array(
        gcfg.get("sizes", [32] * d), "grid.sizes", d))
    period = tuple(_positive(p, "grid.period entry") for p in json_array(
        gcfg.get("period", [2.0 * np.pi] * d), "grid.period", d))
    ocfg = _section(cfg, "operator", ("symbol", "ell", "cutoffWidth"))
    width = _positive(ocfg.get("cutoffWidth", 1.0), "operator.cutoffWidth")
    least = {"nodes_per_block": 1, "extra_depth": 0, "check_nodes": 1}
    qcfg = _section(cfg, "quad", tuple(least) + ("tol",))
    quad = QuadratureSpec(**{
        key: (_positive(v, "quad.tol") if key == "tol"
              else json_integer(v, f"quad.{key}", least[key]))
        for key, v in qcfg.items()})
    ncfg = _section(cfg, "noise", ("kind", "scale", "mollify"))
    kind = ncfg.get("kind", "smooth")
    if kind not in ("smooth", "white"):
        raise ValueError(f"unknown noise kind {kind!r} "
                         "(expected \"smooth\" or \"white\")")
    scale = _positive(ncfg.get("scale", 0.7), "noise.scale")
    level = json_integer(ncfg.get("mollify", 4), "noise.mollify")
    seed = args.seed = json_integer(cfg.get("seed", 0), "seed", 0, 2 ** 64)
    points = [tuple(json_integer(xj, "basePoints entry", 0, n)
                    for xj, n in zip(json_array(x, "base point", d), sizes))
              for x in json_array(cfg.get("basePoints",
                                          [[n // 3 for n in sizes]]),
                                  "basePoints")]
    tol = _positive(cfg.get("tolerance", 1e-9), "tolerance")
    eps = json_rational(cfg.get("eps", "1/100"), "eps")
    invp = to_invp(cfg.get("p", "inf"))
    degree_consts(params, eps, invp)  # the range check

    grid = GridSpec(sizes, period, tuple(float(s) for s in params.scaling))
    if "symbol" in ocfg:
        symbol = tuple(
            (tuple(json_integer(kj, "operator.symbol index")
                   for kj in json_array(k, "operator.symbol index", d)),
             _coefficient(c, "operator.symbol coefficient"))
            for k, c in (json_array(term, "operator.symbol term", 2)
                         for term in json_array(ocfg["symbol"],
                                                "operator.symbol")))
        ell = (_positive(ocfg["ell"], "operator.ell") if "ell" in ocfg
               else float(params.ell))
        op = OperatorSpec(symbol=symbol, ell=ell, cutoff_width=width)
    elif "ell" in ocfg:
        raise ValueError("operator.ell needs operator.symbol")
    else:
        op = (fourth_order_op if params.ell == 4 else second_order_op)(
            d, width)
    return SimpleNamespace(
        sector=sector, hopf=hopf, ctx=OperatorContext(grid, op, quad),
        noise=(kind, scale, level), seed=seed, points=points, tol=tol,
        eps=eps, invp=invp)


def _noise_fields(num):
    """The noise field xi and its derivative direction h of a config."""
    from .analytic.noise import smooth_field, white_noise

    kind, scale, level = num.noise
    grid = num.ctx.grid
    if kind == "smooth":
        return tuple(smooth_field(grid, num.seed, i, scale) for i in (0, 1))
    return tuple(num.ctx.mollify(white_noise(grid, num.seed, i), level)
                 for i in (0, 1))


def _load_cfg(args) -> dict:
    with open(args.config) as fh:
        cfg = args.inputs["config"] = json.load(fh)
    return cfg


def _emit_verdict(args, worst, tol, results) -> int:
    """Print a numeric check's verdict; a broken-down check fails."""
    ok = worst is not None and worst <= tol
    _emit(args, {"ok": ok, "max_error": worst, "results": results})
    return 0 if ok else EXIT_VERIFY


def cmd_model_build(args):
    from .analytic.checks import check_route_equivalence
    from .analytic.model import Model

    num = _numeric_setup(args, _load_cfg(args))
    invp = num.invp
    model = Model(num.sector, num.hopf, num.ctx, *_noise_fields(num),
                  eps=num.eps)
    members = num.sector.members()

    def entry(t, x):
        f = model.pi_x(t, x, invp)
        return ({"min": float(f.min()), "max": float(f.max()),
                 "mean": float(f.mean())},
                check_route_equivalence(model, t, x, invp))
    # point-major, so that the model's per-point caches serve every tree
    # at a base point before they move on; emitted tree-major
    rows = [[entry(t, x) for t in members] for x in num.points]
    trees, errors = {}, []
    for i, t in enumerate(members):
        per_point = trees[format_tree(t)] = {}
        for x, row in zip(num.points, rows):
            per_point[str(x)], err = row[i]
            errors.append(err)
    _emit(args, {"trees": trees,
                 "route_equivalence_error": _worst(errors),
                 "eps": str(num.eps), "p": str(from_invp(invp))})
    return 0


def cmd_verify_comparison(args):
    from .analytic.model import Model
    from .analytic.checks import check_comparison

    num = _numeric_setup(args, _load_cfg(args))
    model = Model(num.sector, num.hopf, num.ctx, *_noise_fields(num),
                  eps=num.eps)
    bounds = [Fraction(1, 2)] + sorted(
        (to_invp(p) for p in model.phase_points()), reverse=True) \
        + [Fraction(0)]
    cells = [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
    # point-major, as in model build; each base point keeps the
    # (tree, 1/p) order, so the first 1/p asked in each truncation cell
    # is the one the tree-major order asked first
    pairs = [(t, invp) for t in num.sector.dot_basis for invp in cells]
    rows = [[check_comparison(model, t, x, invp) for t, invp in pairs]
            for x in num.points]
    errors, results = [], []
    for i, (t, invp) in enumerate(pairs):
        for row in rows:
            errors.append(row[i])
            results.append({"tree": format_tree(t),
                            "p": str(from_invp(invp)),
                            "error": _error(row[i])})
    return _emit_verdict(args, _worst(errors), num.tol, results)


def cmd_verify_dpidd(args):
    from .analytic.checks import check_derivative_identity

    num = _numeric_setup(args, _load_cfg(args))
    xi, h = _noise_fields(num)
    errors, results = [], []
    for t in num.sector.basis_o:
        err = check_derivative_identity(num.sector, num.hopf, num.ctx, xi,
                                        h, t, num.points[0], num.eps)
        errors.append(err)
        results.append({"tree": format_tree(t), "error": _error(err)})
    return _emit_verdict(args, _worst(errors), num.tol, results)


def cmd_bphz_solve(args):
    from .analytic import mc

    cfg = _load_cfg(args)
    num = _numeric_setup(args, cfg)
    level = json_integer(cfg.get("mollify", 4), "mollify")
    samples = json_integer(cfg.get("samples", 64), "samples", 1)
    threshold = cfg.get("stderrThreshold")
    if threshold is not None:
        threshold = _positive(threshold, "stderrThreshold")
    c, info = mc.solve_bphz_c(
        num.sector, num.hopf, num.ctx, level, samples, num.seed,
        mode=args.mode, stderr_threshold=threshold)
    doc = {"mode": args.mode, "mollify": level, "samples": samples,
           "counterterms": {format_tree(t): float(v)
                            for t, v in c.values.items()},
           "estimates": {format_tree(t): v for t, v in info.items()}}
    _emit(args, doc)
    return 0


def cmd_scaling_fit(args):
    from .analytic import mc

    cfg = _load_cfg(args)
    num = _numeric_setup(args, cfg)
    level = json_integer(cfg.get("mollify", 8), "mollify")
    samples = json_integer(cfg.get("samples", 16), "samples", 1)
    t_grid = [_positive(v, "tGrid entry") for v in json_array(
        cfg.get("tGrid", [2.0 ** (-j) for j in range(10, 1, -1)]),
        "tGrid")]
    if len(set(t_grid)) < 2:
        raise ValueError("tGrid needs two distinct times for a slope")
    params = num.sector.params
    t = parse(args.tree, dim=params.d)
    series = mc.scaling_ensemble(num.sector, num.hopf, num.ctx, t, level,
                                 samples, num.seed, t_grid, num.points,
                                 invp=num.invp, eps=num.eps)
    slope, lo, hi = mc.scaling_fit(t_grid, series, seed=num.seed)
    r = degree(t, params, num.eps, num.invp)
    doc = {"tree": format_tree(t), "slope": slope, "ci": [lo, hi],
           "expected": float(r / params.ell),
           "tGrid": t_grid,
           "series_mean": [float(sum(col) / len(col))
                           for col in zip(*series)]}
    _emit(args, doc)
    return 0


# argument parsing -------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors exit EXIT_CONFIG; argparse's own code 2 would read as
    a verification failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="ristruct",
        description="Decorated-tree Hopf algebra and periodic-grid "
                    "model pipelines")
    ap.add_argument("--out", help="directory for output.json + manifest")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sector", help="sector operations")
    ssub = p.add_subparsers(dest="subcommand", required=True)
    sp = ssub.add_parser("gen", help="generate and list a sector")
    sp.add_argument("rule", help="rule JSON path or builtin name")
    sp.set_defaults(func=cmd_sector_gen)

    p = sub.add_parser("coproduct", help="truncated coproduct of a tree")
    p.add_argument("tree")
    p.add_argument("--eps", default="0")
    p.add_argument("--p", default="inf")
    p.add_argument("--rule", default=None)
    p.add_argument("--graphical", action="store_true")
    p.set_defaults(func=cmd_coproduct)

    p = sub.add_parser("phase", help="phase-transition sets and epsilon0")
    p.add_argument("rule")
    p.add_argument("--eps", default="1/100")
    p.add_argument("--p", default="inf")
    p.set_defaults(func=cmd_phase)

    p = sub.add_parser("prep", help="preparation maps")
    psub = p.add_subparsers(dest="subcommand", required=True)
    pp = psub.add_parser("verify", help="verify the axioms for R_c")
    pp.add_argument("counterterms", help="JSON map tree -> rational")
    pp.add_argument("--rule", required=True)
    pp.set_defaults(func=cmd_prep_verify)

    p = sub.add_parser("model", help="numeric models")
    msub = p.add_subparsers(dest="subcommand", required=True)
    mp = msub.add_parser("build", help="build a model from a config")
    mp.add_argument("config")
    mp.set_defaults(func=cmd_model_build)

    p = sub.add_parser("verify", help="verification suites")
    vsub = p.add_subparsers(dest="subcommand", required=True)
    vp = vsub.add_parser("hopf")
    vp.add_argument("rule")
    vp.add_argument("--eps", default="1/100")
    vp.add_argument("--p", default="inf")
    vp.set_defaults(func=cmd_verify_hopf)
    vp = vsub.add_parser("triangularity")
    vp.add_argument("rule")
    vp.add_argument("--eps", default="1/100")
    vp.add_argument("--p", default="inf")
    vp.set_defaults(func=cmd_verify_triangularity)
    vp = vsub.add_parser("comparison")
    vp.add_argument("config")
    vp.set_defaults(func=cmd_verify_comparison)
    vp = vsub.add_parser("dpidd")
    vp.add_argument("config")
    vp.set_defaults(func=cmd_verify_dpidd)

    p = sub.add_parser("bphz", help="renormalization constants")
    bsub = p.add_subparsers(dest="subcommand", required=True)
    bp = bsub.add_parser("solve")
    bp.add_argument("config")
    bp.add_argument("--mode", choices=("qbar", "pointwise"),
                    default="qbar")
    bp.set_defaults(func=cmd_bphz_solve)

    p = sub.add_parser("scaling", help="scaling-exponent fits")
    scsub = p.add_subparsers(dest="subcommand", required=True)
    scp = scsub.add_parser("fit")
    scp.add_argument("config")
    scp.add_argument("tree")
    scp.set_defaults(func=cmd_scaling_fit)
    return ap


def _numeric_errors():
    """The errors that mean numeric non-convergence; imported only once
    something has been raised, so symbolic commands never load numpy."""
    from .analytic.grid import QuadratureError
    from .analytic.mc import ConvergenceError
    return QuadratureError, ConvergenceError


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    args._argv = argv
    args.inputs, args.seed = {}, None  # filled in by the loaders
    try:
        return args.func(args)
    except (GenericityError, ValueError, KeyError, OSError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except _numeric_errors() as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
