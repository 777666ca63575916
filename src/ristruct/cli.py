"""Batch command-line front end for the symbolic and numeric pipelines.

Every command prints a single JSON document to stdout (keys sorted, so
identical runs are byte-identical) and can also write it to a directory
together with a run manifest.  Exit codes: 0 success, 1 configuration
error, 2 verification failure, 3 numeric non-convergence.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .config import builtin_rule_config
from .grading import (GenericityError, INF, degree, from_invp, phase_sets,
                      to_invp)
from .hopf import Hopf
from .renorm import CounterTerms, RcMap, SectorEscape, verify_preparation
from .sector import (check_differentiable, check_triangular, epsilon0,
                     key_of, load_sector)
from .trees import ParseError, format_tree, parse

EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3


def _frac_str(x) -> str:
    return str(Fraction(x))


def _parse_p(text: str) -> Fraction:
    return to_invp(INF if text in ("inf", "infinity") else Fraction(text))


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
            "omega": k[0], "edges": k[1], "degree": _frac_str(k[2]),
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
    invp = _parse_p(args.p)
    eps = Fraction(args.eps)
    sector, hopf = _load_sector(args, args.rule or "pam3d")
    t = parse(args.tree, dim=sector.params.d)
    cop = (hopf.coproduct_graphical(t, eps, invp) if args.graphical
           else hopf.coproduct(t, eps, invp))
    terms = [{"left": format_tree(a), "right": format_tree(b),
              "coeff": _frac_str(c)}
             for (a, b), c in sorted(cop, key=lambda kv: (
                 kv[0][0]._enc, kv[0][1]._enc))]
    _emit(args, {"tree": format_tree(t), "eps": _frac_str(eps),
                 "p": args.p, "terms": terms})
    return 0


def cmd_phase(args):
    sector, _hopf = _load_sector(args, args.rule)
    eps = Fraction(args.eps)
    invp = _parse_p(args.p)
    gens = [g for g in sector.w_plus_generators(Fraction(0), Fraction(1, 2))
            if not g.is_poly()]
    i_eps, j_p, _floor = phase_sets(gens, sector.params, eps, invp)
    doc = {"I_eps": [_frac_str(q) for q in i_eps],
           "J_p": [_frac_str(e) for e in j_p]}
    try:
        doc["epsilon0"] = _frac_str(epsilon0(sector))
    except GenericityError as exc:
        doc["epsilon0"] = None
        doc["epsilon0_error"] = str(exc)
    _emit(args, doc)
    return 0


def cmd_prep_verify(args):
    sector, hopf = _load_sector(args, args.rule)
    with open(args.counterterms) as fh:
        raw = args.inputs["counterterms"] = json.load(fh)
    values = {parse(k, dim=sector.params.d): Fraction(str(v))
              for k, v in raw.items()}
    R = RcMap(CounterTerms(values), hopf, sector)
    report = verify_preparation(R, sector, hopf)
    doc = {"ok": report.ok,
           "failures": [{"axiom": f["axiom"], "tree": format_tree(f["tree"]),
                         "detail": f["detail"]} for f in report.failures]}
    _emit(args, doc)
    return 0 if report.ok else EXIT_VERIFY


def cmd_verify_hopf(args):
    sector, hopf = _load_sector(args, args.rule)
    eps = Fraction(args.eps)
    invp = _parse_p(args.p)
    failures = []
    for t in sector.members():
        if hopf.coproduct(t, eps, invp) != hopf.coproduct_graphical(
                t, eps, invp):
            failures.append({"check": "oracle", "tree": format_tree(t)})
        if not hopf.comodule_check(t, eps, invp):
            failures.append({"check": "comodule", "tree": format_tree(t)})
    for g in sector.w_plus_generators(eps, invp):
        if not hopf.coassociativity_plus_check(g, eps, invp):
            failures.append({"check": "coassociativity",
                             "tree": format_tree(g)})
        if not hopf.convolution_check(g, eps, invp):
            failures.append({"check": "antipode-convolution",
                             "tree": format_tree(g)})
    _emit(args, {"ok": not failures, "failures": failures})
    return 0 if not failures else EXIT_VERIFY


def cmd_verify_triangularity(args):
    sector, hopf = _load_sector(args, args.rule)
    eps = Fraction(args.eps)
    invp = _parse_p(args.p)
    r1 = check_differentiable(sector, hopf, eps, invp)
    r2 = check_triangular(sector, hopf, eps, invp)
    failures = [{"property": f["property"], "tree": format_tree(f["tree"]),
                 "detail": f["detail"]} for f in r1.failures]
    failures += [{"property": f["property"], "tree": format_tree(f["tree"]),
                  "detail": f["detail"]} for f in r2.failures]
    _emit(args, {"ok": not failures, "failures": failures})
    return 0 if not failures else EXIT_VERIFY


# numeric commands -------------------------------------------------------

def _numeric_setup(args, cfg: dict):
    import numpy as np

    from .analytic.grid import (GridSpec, OperatorContext, OperatorSpec,
                                QuadratureSpec, fourth_order_op,
                                second_order_op)
    from .analytic.noise import smooth_field, white_noise

    sector, hopf = _load_sector(args, cfg.get("rule", "numeric2d"))
    params = sector.params
    gcfg = cfg.get("grid", {})
    sizes = tuple(gcfg.get("sizes", (32,) * params.d))
    period = tuple(gcfg.get("period", (2.0 * float(np.pi),) * params.d))
    grid = GridSpec(sizes, period,
                    tuple(float(s) for s in params.scaling))
    ocfg = cfg.get("operator", {})
    if "symbol" in ocfg:
        op = OperatorSpec(
            symbol=tuple((tuple(k), c) for k, c in ocfg["symbol"]),
            ell=float(ocfg.get("ell", params.ell)),
            cutoff_width=float(ocfg.get("cutoffWidth", 1.0)))
    elif params.ell == 4:
        op = fourth_order_op(params.d,
                             float(ocfg.get("cutoffWidth", 1.0)))
    else:
        op = second_order_op(params.d,
                             float(ocfg.get("cutoffWidth", 1.0)))
    qcfg = cfg.get("quad", {})
    ctx = OperatorContext(grid, op, QuadratureSpec(**qcfg))
    seed = args.seed = int(cfg.get("seed", 0))
    ncfg = cfg.get("noise", {"kind": "smooth"})
    if ncfg.get("kind", "smooth") == "smooth":
        scale = float(ncfg.get("scale", 0.7))
        xi = smooth_field(grid, seed, 0, scale)
        h = smooth_field(grid, seed, 1, scale)
    else:
        level = int(ncfg.get("mollify", 4))
        xi = ctx.mollify(white_noise(grid, seed, 0), level)
        h = ctx.mollify(white_noise(grid, seed, 1), level)
    base_points = [tuple(x) for x in cfg.get(
        "basePoints", [tuple(n // 3 for n in sizes)])]
    eps = Fraction(str(cfg.get("eps", "1/100")))
    invp = _parse_p(str(cfg.get("p", "inf")))
    return sector, hopf, ctx, xi, h, base_points, eps, invp, seed


def _load_cfg(args) -> dict:
    with open(args.config) as fh:
        cfg = args.inputs["config"] = json.load(fh)
    return cfg


def cmd_model_build(args):
    from .analytic.checks import check_route_equivalence
    from .analytic.model import Model

    cfg = _load_cfg(args)
    sector, hopf, ctx, xi, h, pts, eps, invp, _seed = \
        _numeric_setup(args, cfg)
    model = Model(sector, hopf, ctx, xi, h, eps=eps)
    trees = {}
    worst = 0.0
    for t in sector.members():
        per_point = {}
        for x in pts:
            f = model.pi_x(t, x, invp)
            per_point[str(x)] = {
                "min": float(f.min()), "max": float(f.max()),
                "mean": float(f.mean())}
            worst = max(worst, check_route_equivalence(model, t, x, invp))
        trees[format_tree(t)] = per_point
    _emit(args, {"trees": trees, "route_equivalence_error": worst,
                 "eps": _frac_str(eps), "p": str(from_invp(invp))})
    return 0


def cmd_verify_comparison(args):
    from .analytic.model import Model
    from .analytic.checks import check_comparison

    cfg = _load_cfg(args)
    sector, hopf, ctx, xi, h, pts, eps, _invp, _seed = \
        _numeric_setup(args, cfg)
    model = Model(sector, hopf, ctx, xi, h, eps=eps)
    bounds = [Fraction(1, 2)] + sorted(
        (to_invp(p) for p in model.phase_points()), reverse=True) \
        + [Fraction(0)]
    cells = [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
    tol = float(cfg.get("tolerance", 1e-9))
    worst, results = 0.0, []
    for t in sector.dot_basis:
        for invp in cells:
            for x in pts:
                err = check_comparison(model, t, x, invp)
                worst = max(worst, err)
                results.append({"tree": format_tree(t),
                                "p": str(from_invp(invp)), "error": err})
    doc = {"ok": worst <= tol, "max_error": worst, "results": results}
    _emit(args, doc)
    return 0 if worst <= tol else EXIT_VERIFY


def cmd_verify_dpidd(args):
    from .analytic.checks import check_derivative_identity

    cfg = _load_cfg(args)
    sector, hopf, ctx, xi, h, pts, eps, _invp, _seed = \
        _numeric_setup(args, cfg)
    tol = float(cfg.get("tolerance", 1e-9))
    worst, results = 0.0, []
    for t in sector.basis_o:
        err = check_derivative_identity(sector, hopf, ctx, xi, h, t,
                                        pts[0], eps)
        worst = max(worst, err)
        results.append({"tree": format_tree(t), "error": err})
    _emit(args, {"ok": worst <= tol, "max_error": worst,
                 "results": results})
    return 0 if worst <= tol else EXIT_VERIFY


def cmd_bphz_solve(args):
    from .analytic import mc

    cfg = _load_cfg(args)
    sector, hopf, ctx, _xi, _h, _pts, _eps, _invp, seed = \
        _numeric_setup(args, cfg)
    level = int(cfg.get("mollify", 4))
    samples = int(cfg.get("samples", 64))
    threshold = cfg.get("stderrThreshold")
    c, info = mc.solve_bphz_c(
        sector, hopf, ctx, level, samples, seed, mode=args.mode,
        stderr_threshold=(float(threshold) if threshold else None))
    doc = {"mode": args.mode, "mollify": level, "samples": samples,
           "counterterms": {format_tree(t): float(v)
                            for t, v in c.values.items()},
           "estimates": {format_tree(t): v for t, v in info.items()}}
    _emit(args, doc)
    return 0


def cmd_scaling_fit(args):
    from .analytic import mc

    cfg = _load_cfg(args)
    sector, hopf, ctx, _xi, _h, pts, eps, invp, seed = \
        _numeric_setup(args, cfg)
    t = parse(args.tree, dim=sector.params.d)
    level = int(cfg.get("mollify", 8))
    samples = int(cfg.get("samples", 16))
    t_values = [float(v) for v in cfg.get(
        "tGrid", [2.0 ** (-j) for j in range(10, 1, -1)])]
    series = mc.scaling_ensemble(sector, hopf, ctx, t, level, samples,
                                 seed, t_values, pts, invp=invp, eps=eps)
    slope, lo, hi = mc.scaling_fit(t_values, series, seed=seed)
    r = degree(t, sector.params, eps, invp)
    doc = {"tree": format_tree(t), "slope": slope, "ci": [lo, hi],
           "expected": float(r / sector.params.ell),
           "tGrid": t_values,
           "series_mean": [float(sum(col) / len(col))
                           for col in zip(*series)]}
    _emit(args, doc)
    return 0


# argument parsing -------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
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
    except (GenericityError, ParseError, SectorEscape, ValueError,
            KeyError, OSError, json.JSONDecodeError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_CONFIG
    except _numeric_errors() as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
