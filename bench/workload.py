"""One run of one benchmark workload, in a fresh interpreter.

``run.py`` starts this file once per run, so the global ``Tree._intern``
table and the per-``Hopf`` memos start empty every time, as they do for
a command-line user.  The workload reaches the package only through its
public functions (the calls the README commands make), times every
checked operation (op) and prints one JSON object as its last line.

    python3 bench/workload.py --workload hopf-pam3d --seed 1 \
        --t0 <time.monotonic() of the parent just before the start>

``--trace FILE`` wraps the layer functions (see tracing.py), writes the
spans to FILE and adds the per-layer metrics to the result.
``--smoke`` runs the smallest sizes.  ``--curve E,O`` runs only the
pam3d Hopf suite at maxEdges E / maxOmega O, traced, for the
sector-size curve.  ``--record-digests`` rewrites digests.json from the
current code; run it only on the commit the digests belong to.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import random
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
WORKLOADS = ("hopf-pam3d", "spectral-mc", "recenter-3d")
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 50.0)
EPS = Fraction(1, 100)
PROBE_EVERY_S = 0.25  # workload time between two speed probes
PROBE_LOOPS = 1500    # one probe: about 4 ms of Fraction arithmetic, or
PROBE_FFTS = 12       # half the loop and 12 FFT round trips on 64 x 64
PROBE_REF_S = 0.004   # the probe time that defines the reference speed


def derived_seed(seed: int, stream: str) -> int:
    """A 56-bit noise key per (workload seed, purpose)."""
    digest = hashlib.sha256(f"{seed}:{stream}".encode()).digest()
    return int.from_bytes(digest[:7], "big")


# op recording ---------------------------------------------------------------

class SpeedProbe:
    """Tracks the speed of the host core while the workload runs.

    On a shared host the speed of a core drifts by 10-20 % over minutes,
    which repeating the workload inside one run does not average out.
    Between ops, never inside one, the probe times a fixed piece of work
    at most every PROBE_EVERY_S: a loop of Fraction additions, and for
    workloads that use numpy half that loop plus small FFTs, so that the
    probe slows down with the kind of work the workload does.  The mean
    probe time (like wall time, it integrates the slowdown over the run)
    over PROBE_REF_S is the run's slowdown factor; reported times are
    divided by it, so they read as seconds at the reference speed.  Time
    spent probing is left out of every timing."""

    def __init__(self, tracer=None):
        self.times = []
        self.spent = 0.0
        self.last = time.perf_counter()
        # traced, the probe is a span of its own, so that its time is
        # not counted as the self time of the call it interrupts
        self.span = tracer.root if tracer else lambda _name: nullcontext()
        self.loops, self.fft, self.field = PROBE_LOOPS, None, None
        if "numpy" in sys.modules:
            import numpy
            self.loops //= 2
            self.fft = numpy.fft
            self.field = numpy.random.default_rng(0).standard_normal(
                (64, 64))

    def poll(self, force: bool = False) -> None:
        start = time.perf_counter()
        if not force and start - self.last < PROBE_EVERY_S:
            return
        with self.span("bench.probe"):
            start = time.perf_counter()
            acc = Fraction(0)
            for j in range(self.loops):
                acc += Fraction(j % 5 + 1, j % 7 + 1)
            if self.fft is not None:
                for _ in range(PROBE_FFTS):
                    self.fft.ifftn(self.fft.fftn(self.field))
            self.last = time.perf_counter()
        self.times.append(self.last - start)
        self.spent += self.last - start

    def factor(self) -> float:
        return statistics.fmean(self.times) / PROBE_REF_S


class Batch:
    """Samples run inside one library call; see Recorder.batch."""

    def __init__(self, label: str, n: int):
        self.label = label
        self.n = n
        self.failed = False


class Recorder:
    """Times ops and counts the ones that fail.

    An op fails when it raises or returns anything but True.  Monte
    Carlo samples run inside a single library call; their boundaries
    are taken from the calls to ``mc.white_noise`` that start every
    sample (``sample_marks``), and a failed statistical check fails
    every sample it was computed from."""

    def __init__(self, probe: SpeedProbe, tracer=None):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.starts = []
        self.ends = []
        self.probe = probe
        self.tracer = tracer

    def _span(self, kind: str):
        if self.tracer is None:
            return nullcontext()
        return self.tracer.root("bench.op." + kind)

    def _fail(self, label: str, detail: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append({"op": label, "detail": detail})

    def op(self, kind: str, label: str, fn) -> None:
        self.attempted += 1
        with self._span(kind):
            start = time.perf_counter()
            try:
                ok = fn()
                detail = "returned False"
            except Exception as exc:  # a raising op is a failed op
                ok, detail = False, f"{type(exc).__name__}: {exc}"
            self.latencies.append(time.perf_counter() - start)
        if ok is not True:
            self._fail(label, detail)
        self.probe.poll()

    def sample_marks(self, mc_module) -> None:
        """Stamp the clock each time a Monte Carlo sample starts."""
        original = mc_module.white_noise
        starts, ends, probe = self.starts, self.ends, self.probe

        def marked(*a, **k):
            ends.append(time.perf_counter())  # the previous sample ends
            probe.poll()
            starts.append(time.perf_counter())
            return original(*a, **k)
        mc_module.white_noise = marked

    def batch(self, label: str, n: int, fn):
        """Run ``fn`` (one library call of n samples); returns its value."""
        handle = Batch(label, n)
        self.attempted += n
        self.starts.clear()
        self.ends.clear()
        with self._span("batch"):
            try:
                value = fn()
            except Exception as exc:
                self.fail(handle, f"{type(exc).__name__}: {exc}")
                return handle, None
            self.ends.append(time.perf_counter())
        if len(self.starts) != n:
            self.fail(handle, f"{len(self.starts)} samples seen, {n} "
                      "expected")
        self.latencies.extend(
            b - a for a, b in zip(self.starts, self.ends[1:]))
        return handle, value

    def fail(self, handle: Batch, detail: str) -> None:
        if not handle.failed:
            handle.failed = True
            self._fail(handle.label, detail, handle.n)

    def check(self, handles, ok: bool, detail: str) -> None:
        if not ok:
            for h in handles:
                self.fail(h, detail)

    def latency_summary(self, factor: float) -> dict:
        lat = sorted(x / factor for x in self.latencies)
        n = len(lat)

        def rank(p):  # nearest-rank percentile, 1-based
            return max(1, math.ceil(round(p * n / 100, 9)))
        pct = next((p for p in TAIL_LADDER if n - rank(p) >= 10), 50.0)

        def at(p):
            return lat[rank(p) - 1] * 1e3
        return {"op_p50_ms": at(50.0), "op_tail_ms": at(pct),
                "tail_pct": pct, "timed_ops": n}


# hopf-pam3d -----------------------------------------------------------------

def _rule_config(d: int, max_edges: int, max_omega: int, params: dict):
    z = [0] * d
    return {"K": [[["O", z], ["K", z], ["K", z]]], "maxOmega": max_omega,
            "L": "2", "maxEdges": max_edges, "params": params}


def _load(cfg: dict):
    """What ``ristruct verify hopf RULE.json`` does before its checks."""
    from ristruct.hopf import Hopf
    from ristruct.sector import generate_from_rule, load_rule_config

    rule, max_omega, L, params, max_edges = load_rule_config(cfg)
    sector = generate_from_rule(rule, max_omega, L, params,
                                max_edges=max_edges)
    return sector, Hopf(params)


def _hopf_suite(max_edges: int, max_omega: int, invp: Fraction):
    from ristruct.config import PAM3D

    sector, hopf = _load(_rule_config(3, max_edges, max_omega, PAM3D))
    return {"key": f"pam3d-e{max_edges}o{max_omega}-eps{EPS}-invp{invp}",
            "sector": sector, "hopf": hopf, "invp": invp,
            "gens": sector.w_plus_generators(EPS, invp)}


def sector_digest(sector) -> str:
    """sha256 of the ``sector gen`` listing of a sector."""
    from ristruct.sector import key_of
    from ristruct.trees import format_tree

    params = sector.params
    basis = []
    for i, t in enumerate(sector.basis_o):
        k = key_of(t, params)
        basis.append({"index": i + 1, "tree": format_tree(t),
                      "omega": k[0], "edges": k[1], "degree": str(k[2]),
                      "derivatives": [format_tree(s) for s in
                                      sector.dot_basis_by_index[i]]})
    doc = {"polynomials": [format_tree(t) for t in sector.polys],
           "basis": basis,
           "dot_basis": [format_tree(t) for t in sector.dot_basis],
           "mB": sector.mB}
    text = json.dumps(doc, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def delta_digest(sector, hopf, invp) -> str:
    """sha256 of the sorted Delta tables of every sector member."""
    from ristruct.trees import format_tree

    lines = []
    for t in sector.members():
        rows = sorted(f"{format_tree(a)} | {format_tree(b)} | {c}"
                      for (a, b), c in hopf.coproduct(t, EPS, invp))
        lines.append(format_tree(t) + " :: " + " ; ".join(rows))
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def _suite_ops(rec: Recorder, suite: dict, digests: dict | None) -> None:
    from ristruct.trees import format_tree

    sector, hopf, invp = suite["sector"], suite["hopf"], suite["invp"]
    for t in sector.members():
        name = format_tree(t)
        rec.op("oracle", "oracle " + name,
               lambda: hopf.coproduct(t, EPS, invp)
               == hopf.coproduct_graphical(t, EPS, invp))
        rec.op("comodule", "comodule " + name,
               lambda: hopf.comodule_check(t, EPS, invp))
    for g in suite["gens"]:
        name = format_tree(g)
        rec.op("coassociativity", "coassociativity " + name,
               lambda: hopf.coassociativity_plus_check(g, EPS, invp))
        rec.op("antipode", "antipode-convolution " + name,
               lambda: hopf.convolution_check(g, EPS, invp))
    if digests is not None:
        want = digests.get(suite["key"], {})
        rec.op("digest", "sector digest " + suite["key"],
               lambda: sector_digest(sector) == want.get("sector"))
        rec.op("digest", "delta digest " + suite["key"],
               lambda: delta_digest(sector, hopf, invp) == want.get("delta"))


def _suites(smoke: bool):
    sizes = ([(5, 4, Fraction(0)), (5, 4, Fraction(1, 5))] if smoke
             else [(9, 6, Fraction(0)), (7, 5, Fraction(1, 5))])
    return [_hopf_suite(e, o, invp) for e, o, invp in sizes]


def setup_hopf_pam3d(seed: int, smoke: bool) -> dict:
    from ristruct.config import NUMERIC2D
    from ristruct.renorm import negative_basis

    suites = _suites(smoke)
    prep_sector, prep_hopf = _load(_rule_config(
        2, 3 if smoke else 9, 3 if smoke else 6, NUMERIC2D))
    rng = random.Random(seed)
    counterterms = [{t: Fraction(rng.randint(-50, 50), rng.randint(1, 20))
                     for t in negative_basis(prep_sector)}
                    for _ in range(2 if smoke else 20)]
    return {"suites": suites, "prep": (prep_sector, prep_hopf),
            "counterterms": counterterms,
            "digests": json.loads(DIGESTS.read_text())}


def run_hopf_pam3d(rec: Recorder, state: dict) -> dict:
    from ristruct.renorm import CounterTerms, RcMap, verify_preparation

    for suite in state["suites"]:
        _suite_ops(rec, suite, state["digests"])
    sector, hopf = state["prep"]
    for i, values in enumerate(state["counterterms"]):
        # strict_sector=False as in the preparation-axiom acceptance test:
        # the pam_rule(2) sector is not closed under extraction at 9/6
        rec.op("prep", f"verify_preparation set {i}",
               lambda: verify_preparation(
                   RcMap(CounterTerms(values), hopf, sector,
                         strict_sector=False), sector, hopf).ok)
    return {}


def run_curve(rec: Recorder, state: dict) -> dict:
    _suite_ops(rec, state["suite"], None)
    return {}


# spectral-mc ----------------------------------------------------------------

def setup_spectral_mc(seed: int, smoke: bool) -> dict:
    import numpy as np

    from ristruct.analytic import mc
    from ristruct.analytic.grid import (GridSpec, OperatorContext,
                                        QuadratureSpec, second_order_op)
    from ristruct.config import builtin_rule_config
    from ristruct.renorm import negative_basis
    from ristruct.trees import noise, parse

    sector, hopf = _load(builtin_rule_config("numeric2d"))

    def context(n):
        ctx = OperatorContext(GridSpec((n, n), (2 * np.pi,) * 2, (1.0, 1.0)),
                              second_order_op(2), QuadratureSpec())
        ctx.time_integral()  # the quadrature self-check
        return ctx
    small, large = (32, 32) if smoke else (128, 256)
    return {"mc": mc, "np": np, "sector": sector, "hopf": hopf,
            "ctx": context(small), "ctx_fit": context(large),
            "tau2": parse("(O() K(O()))", dim=2), "noise": noise(2),
            "targets": len(negative_basis(sector)),
            "samples": (4, 4, 4) if smoke else (96, 256, 64),
            "gate": not smoke, "seeds": {
                k: derived_seed(seed, k)
                for k in ("levels", "solve", "fresh", "scaling")}}


def run_spectral_mc(rec: Recorder, s: dict) -> dict:
    from ristruct.renorm import CounterTerms, IdentityMap, RcMap

    mc, np, seeds = s["mc"], s["np"], s["seeds"]
    sector, hopf, ctx, tau2 = s["sector"], s["hopf"], s["ctx"], s["tau2"]
    n_level, n_solve, n_fit = s["samples"]
    rec.sample_marks(mc)
    gate = s["gate"]
    notes = {"misses": []}

    def chance_check(name, handles, margin, allowed):
        """A check that a correct program misses by chance on some seeds.

        ``margin <= allowed`` is the acceptance test's bound, a 3-sigma
        style test (the slope one is missed on about 3 % of seeds at
        64 samples), so a miss there is only reported.  A margin beyond
        twice the bound, which chance does not produce (under 1e-5 per
        seed), fails the samples the check was computed from."""
        if margin > allowed:
            notes["misses"].append(name)
        rec.check(handles, not gate or margin <= 2 * allowed,
                  f"{name}: {margin} beyond 2 x {allowed}")

    # criterion-10-style level differences of the naive 2-noise constant
    levels, per_level = [], {}
    for n in (2, 3, 4, 5):
        h, per_level[n] = rec.batch(f"constant_samples level {n}", n_level,
                                    lambda: mc.constant_samples(
                                        sector, hopf, ctx, IdentityMap(),
                                        tau2, n, n_level, seeds["levels"]))
        levels.append(h)
    if all(v is not None for v in per_level.values()):
        (d4, se4), (d5, se5) = (mc.mean_stderr(per_level[n] - per_level[n - 1])
                                for n in (4, 5))
        notes["level_diffs"] = {"d4": d4, "se4": se4, "d5": d5, "se5": se5}
        chance_check("level differences stabilize", levels, abs(d5 - d4),
                     3 * (se4 + se5))
        rec.check(levels, not gate or abs(d5) > 3 * se5,
                  "no divergence across levels")

    # BPHZ constant and a fresh re-estimate with it subtracted
    solve, solved = rec.batch("solve_bphz_c", n_solve * s["targets"],
                              lambda: mc.solve_bphz_c(
                                  sector, hopf, ctx, 4, n_solve,
                                  seeds["solve"]))
    if solved is not None:
        c, info = solved
        prep = RcMap(CounterTerms(dict(c.values)), hopf, sector)
        fresh, samples = rec.batch("fresh re-estimate", n_solve,
                                   lambda: mc.constant_samples(
                                       sector, hopf, ctx, prep, tau2, 4,
                                       n_solve, seeds["fresh"]))
        if samples is not None:
            mean, stderr = mc.mean_stderr(samples)
            combined = float(np.hypot(stderr, info[tau2]["stderr"]))
            notes["renormalized"] = {"mean": mean, "combined_stderr":
                                     combined}
            chance_check("renormalized mean", [solve, fresh], abs(mean),
                         3 * combined)

    # scaling exponent of the heat-smoothed noise norm
    t_values = [2.0 ** (-j) for j in range(10, 1, -1)]
    fit, series = rec.batch("scaling_ensemble", n_fit,
                            lambda: mc.scaling_ensemble(
                                sector, hopf, s["ctx_fit"], s["noise"], 8,
                                n_fit, seeds["scaling"], t_values,
                                [(0, 0)]))
    if series is not None:
        slope, lo, hi = mc.scaling_fit(t_values, series,
                                       seed=seeds["scaling"])
        expected = float(sector.params.r0 / sector.params.ell)
        notes["slope"] = {"slope": slope, "ci": [lo, hi],
                          "expected": expected}
        rec.check([fit], not gate or lo <= slope <= hi,
                  f"slope {slope} outside its CI [{lo}, {hi}]")
        chance_check("slope", [fit], abs(slope - expected), 0.1)
    return notes


# recenter-3d ----------------------------------------------------------------

def setup_recenter_3d(seed: int, smoke: bool) -> dict:
    import numpy as np

    from ristruct.analytic.grid import (GridSpec, OperatorContext,
                                        QuadratureSpec, fourth_order_op)
    from ristruct.analytic.model import Model
    from ristruct.analytic.noise import smooth_field
    from ristruct.config import builtin_rule_config
    from ristruct.grading import to_invp

    sector, hopf = _load(builtin_rule_config("pam3d"))
    n = 16 if smoke else 32
    grid = GridSpec((n,) * 3, (2 * np.pi,) * 3, (1.0,) * 3)
    ctx = OperatorContext(grid, fourth_order_op(3), QuadratureSpec())
    ctx.time_integral()  # the quadrature self-check
    noise_seed = derived_seed(seed, "noise")
    xi = smooth_field(grid, noise_seed, 0, 0.7)
    h = smooth_field(grid, noise_seed, 1, 0.7)
    rng = random.Random(seed)
    points = [tuple(rng.randrange(n) for _ in range(3))
              for _ in range(1 if smoke else 4)]
    model = Model(sector, hopf, ctx, xi, h, eps=EPS)
    bounds = ([Fraction(1, 2)]
              + sorted((to_invp(p) for p in model.phase_points()),
                       reverse=True) + [Fraction(0)])
    return {"sector": sector, "hopf": hopf, "ctx": ctx, "xi": xi, "h": h,
            "points": points, "model": model,
            "cells": [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]}


def run_recenter_3d(rec: Recorder, s: dict) -> dict:
    from ristruct.analytic.checks import (check_comparison,
                                          check_derivative_identity,
                                          check_route_equivalence)
    from ristruct.trees import format_tree

    sector, model = s["sector"], s["model"]
    worst = {"route": 0.0, "comparison": 0.0, "dpidd": 0.0}

    def within(kind, err, tol):
        worst[kind] = max(worst[kind], err)
        return err <= tol
    for x in s["points"]:
        for t in sector.members():
            for invp in (Fraction(0), Fraction(1, 5), Fraction(1, 2)):
                rec.op("route", f"route {format_tree(t)} {x} {invp}",
                       lambda: within("route", check_route_equivalence(
                           model, t, x, invp), 1e-10))
    for x in s["points"]:
        for t in sector.dot_basis:
            for invp in s["cells"]:
                rec.op("comparison", f"comparison {format_tree(t)} {x} "
                       f"{invp}", lambda: within(
                           "comparison", check_comparison(model, t, x, invp),
                           1e-9))
    for x in s["points"]:
        for t in sector.basis_o:
            rec.op("dpidd", f"dpidd {format_tree(t)} {x}",
                   lambda: within("dpidd", check_derivative_identity(
                       sector, s["hopf"], s["ctx"], s["xi"], s["h"], t, x,
                       EPS), 1e-9))
    return {"worst_error": worst}


SETUP = {"hopf-pam3d": setup_hopf_pam3d, "spectral-mc": setup_spectral_mc,
         "recenter-3d": setup_recenter_3d}
RUN = {"hopf-pam3d": run_hopf_pam3d, "spectral-mc": run_spectral_mc,
       "recenter-3d": run_recenter_3d}
# modules each workload imports before set-up begins, so that the traced
# run can wrap them; the hopf-only workload never imports numpy
IMPORTS = {
    "hopf-pam3d": ("ristruct.config", "ristruct.hopf", "ristruct.renorm"),
    "spectral-mc": ("ristruct.config", "ristruct.analytic.mc",
                    "ristruct.analytic.checks"),
    "recenter-3d": ("ristruct.config", "ristruct.analytic.model",
                    "ristruct.analytic.checks"),
}


def record_digests() -> None:
    out = {}
    for smoke in (False, True):
        for suite in _suites(smoke):
            out[suite["key"]] = {
                "sector": sector_digest(suite["sector"]),
                "delta": delta_digest(suite["sector"], suite["hopf"],
                                      suite["invp"])}
    DIGESTS.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--t0", type=float, default=None)
    ap.add_argument("--trace", default=None, metavar="FILE")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--curve", default=None, metavar="E,O")
    ap.add_argument("--record-digests", action="store_true")
    args = ap.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0
    if args.record_digests:
        record_digests()
        return 0
    workload = "hopf-pam3d" if args.curve else args.workload
    if workload is None:
        ap.error("--workload or --curve is required")
    for name in IMPORTS[workload]:
        importlib.import_module(name)
    import ristruct
    src = Path(ristruct.__file__).resolve().parent.parent
    if src != HERE.parent / "src":
        raise SystemExit(f"ristruct imported from {src}, not this checkout")

    tracer = None
    if args.trace or args.curve:
        sys.path.insert(0, str(HERE))
        from tracing import Tracer
        tracer = Tracer(f"{workload}-seed{args.seed}-{int(t0 * 1e6)}")
        tracer.install()
    root = tracer.root("bench.workload") if tracer else nullcontext()
    with root:
        with tracer.root("bench.setup") if tracer else nullcontext():
            if args.curve:
                e, o = (int(v) for v in args.curve.split(","))
                state = {"suite": _hopf_suite(e, o, Fraction(0))}
            else:
                state = SETUP[workload](args.seed, args.smoke)
        setup_raw = time.monotonic() - t0
        probe = SpeedProbe(tracer)
        rec = Recorder(probe, tracer)
        probe.poll(force=True)
        notes = (run_curve if args.curve else RUN[workload])(rec, state)
        probe.poll(force=True)
    wall_raw = time.monotonic() - t0 - probe.spent
    factor = probe.factor()

    result = {"workload": workload, "seed": args.seed, "smoke": args.smoke,
              "ops": rec.attempted, "failed": rec.failed,
              "failures": rec.failures,
              "setup_s": setup_raw / factor, "wall_s": wall_raw / factor,
              "raw": {"setup_s": setup_raw, "wall_s": wall_raw,
                      **rec.latency_summary(1.0)},
              "speed": {"factor": factor, "probes": len(probe.times),
                        "probe_s": probe.spent},
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "notes": notes, **rec.latency_summary(factor)}
    if tracer is not None:
        result["layers"] = tracer.metrics()
        # shares of the traced time, probes left out
        probes = tracer.stats["bench.probe"].total_s
        total = tracer.stats["bench.workload"].total_s - probes
        shares = {k + ".self_frac": v / total
                  for k, v in tracer.layer_self().items()}
        shares["bench.self_frac"] = sum(
            st.self_s for name, st in tracer.stats.items()
            if name.startswith("bench.") and name != "bench.probe") / total
        result["layers"].update(shares)
        if args.trace:
            Path(args.trace).write_text(json.dumps(
                {"run": tracer.run_id, "spans": tracer.span_records()}))
    print(json.dumps(result, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
