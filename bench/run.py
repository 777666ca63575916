"""Benchmark of the ristruct package, one workload per invocation.

    python3 bench/run.py --workload hopf-pam3d --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a source checkout; it imports the package
from the checkout's ``src/``.  Each run of the workload happens in a
fresh interpreter (workload.py), one at a time, with the BLAS/OpenMP
thread counts pinned to 1.

``--trace 0`` repeats the workload for about ``--seconds`` seconds (at
least two runs) and reports the end-to-end metrics as medians over the
runs.  ``--trace 1`` makes one untraced and one traced run of the
workload, plus traced runs of the pam3d Hopf suite at three sector
sizes, and reports the per-layer metrics; ``--seconds`` does not apply.
Every printed line before the last is for people; the last is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record, with the environment, goes to
``bench/out/``.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("hopf-pam3d", "spectral-mc", "recenter-3d")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
BUDGET_S = 165.0  # every run of one invocation ends within this
CURVE = ((5, 4), (7, 5), (9, 6))  # (maxEdges, maxOmega); 11/7 takes > 20 s

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("ops_per_s", "1/s"),
              ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
              ("peak_rss_mb", "MB"))

LAYER_METRICS = (
    "trees.intern_size", "trees.tree_product.calls",
    "grading.degree_form.calls", "grading.degree_form.self_s",
    "hopf.planted_degree.calls", "hopf.planted_degree.self_s",
    "hopf.coproduct.calls", "hopf.coproduct.self_s",
    "hopf.coproduct.hit_ratio", "hopf.coproduct.terms",
    "hopf.coproduct_graphical.self_s",
    "hopf.coproduct_plus.calls", "hopf.coproduct_plus.self_s",
    "hopf.coproduct_plus.hit_ratio",
    "hopf.antipode.calls", "hopf.antipode.self_s",
    "hopf.identity_checks.self_s",
    "sector.generate_from_rule.self_s", "sector.w_plus_generators.self_s",
    "sector.members", "sector.w_plus_gens",
    "renorm.rcmap_apply.calls", "renorm.rcmap_apply.self_s",
    "renorm.verify_preparation.self_s",
    "analytic.grid.setup_s", "analytic.grid.apply_multiplier.calls",
    "analytic.grid.apply_multiplier.self_s",
    "analytic.grid.apply_multiplier.points",
    "analytic.grid.apply_multiplier.bytes_computed",
    "analytic.noise.calls", "analytic.noise.self_s",
    "analytic.model.instances",
    "analytic.model.pi_x.calls", "analytic.model.pi_x.self_s",
    "analytic.model.pi_x.hit_ratio",
    "analytic.model.pi_x_hat.calls", "analytic.model.pi_x_hat.self_s",
    "analytic.model.pi_x_hat.hit_ratio",
    "analytic.checks.route.self_s", "analytic.checks.comparison.self_s",
    "analytic.checks.dpidd.self_s", "analytic.checks.qnorm_series.self_s",
    "analytic.mc.constant_samples.self_s",
    "analytic.mc.scaling_ensemble.self_s", "analytic.mc.scaling_fit.self_s",
    "analytic.mc.sample_ms",
    "trees.self_frac", "grading.self_frac", "hopf.self_frac",
    "sector.self_frac", "renorm.self_frac", "analytic.grid.self_frac",
    "analytic.noise.self_frac", "analytic.model.self_frac",
    "analytic.checks.self_frac", "analytic.mc.self_frac", "bench.self_frac",
)
CURVE_COUNTS = ("trees.intern_size", "trees.tree_product.calls",
                "grading.degree_form.calls", "hopf.planted_degree.calls",
                "hopf.coproduct.calls", "hopf.coproduct.terms",
                "hopf.coproduct_plus.calls", "hopf.antipode.calls")
TRACE_METRICS = ("trace.wall_s", "trace.overhead_s", "trace.overhead_frac")


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("hit_ratio", "_frac")):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


def per_layer_names() -> list:
    curve = [f"curve.e{e}o{o}.{c}" for e, o in CURVE for c in CURVE_COUNTS]
    return list(LAYER_METRICS) + list(TRACE_METRICS) + curve


# environment ------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "fft_backend": "numpy.fft (pocketfft)"
        if hasattr(numpy.fft, "_pocketfft") else "numpy.fft",
        "threads": {v: "1" for v in THREAD_VARS},
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
    }


# running the workload -----------------------------------------------------

class Runner:
    """Starts workload.py in fresh interpreters, one at a time."""

    def __init__(self, seed: int, smoke: bool, deadline: float):
        self.seed = seed
        self.smoke = smoke
        self.deadline = deadline
        self.errors = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                        **{v: "1" for v in THREAD_VARS})

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, *extra):
        """One fresh-interpreter run; its result dict, or None."""
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "workload.py"),
               "--seed", str(self.seed), "--t0", repr(t0), *extra]
        if self.smoke:
            cmd.append("--smoke")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.errors.append(f"{' '.join(extra)}: timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            self.errors.append(f"{' '.join(extra)}: exit {proc.returncode}: "
                               f"{proc.stderr.strip()[-1500:]}")
            return None
        return json.loads(lines[-1])


def _spread(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def measured(args, runner: Runner):
    """End-to-end metrics: medians over repeated fresh runs."""
    start = time.monotonic()
    runs = []
    while True:
        res = runner.run("--workload", args.workload)
        if res is None:
            break
        runs.append(res)
        elapsed = time.monotonic() - start
        per_run = elapsed / len(runs)
        if len(runs) >= 2 and elapsed + per_run > args.seconds:
            break
        if runner.remaining() < 2 * per_run:
            break
    for r in runs:
        r["ops_per_s"] = r["ops"] / (r["wall_s"] - r["setup_s"])
    summary = {}
    if runs and not runner.errors:
        for name, unit in END_TO_END:
            values = [r[name] for r in runs]
            q1, q3 = _spread(values)
            summary[name] = {"value": statistics.median(values),
                             "unit": unit, "q1": q1, "q3": q3,
                             "runs": len(values)}
    return runs, summary


def traced(args, runner: Runner):
    """Per-layer metrics from one traced run, plus the size curve."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    plain = runner.run("--workload", args.workload)
    traced_run = runner.run("--workload", args.workload,
                            "--trace", str(spans))
    sizes = CURVE[:1] if args.smoke else CURVE
    curve = [runner.run("--curve", f"{e},{o}") for e, o in sizes]
    runs = [r for r in [plain, traced_run, *curve] if r]
    if runner.errors:
        return runs, {}
    layers = traced_run["layers"]
    values = {name: layers[name] for name in LAYER_METRICS}
    # reference-speed seconds, as wall_s: the two runs may see different
    # host speeds, which raw seconds would count as overhead
    traced_wall, plain_wall = traced_run["wall_s"], plain["wall_s"]
    values["trace.wall_s"] = traced_wall
    values["trace.overhead_s"] = traced_wall - plain_wall
    values["trace.overhead_frac"] = values["trace.overhead_s"] / plain_wall
    for (e, o), res in zip(sizes, curve):
        for c in CURVE_COUNTS:
            values[f"curve.e{e}o{o}.{c}"] = res["layers"][c]
    summary = {name: {"value": values[name], "unit": unit_of(name)}
               for name in per_layer_names() if name in values}
    return runs, summary


# report -------------------------------------------------------------------

def report(args, env, runs, summary, errors) -> dict:
    attempted = sum(r["ops"] for r in runs) + len(errors)
    failed = sum(r["failed"] for r in runs) + len(errors)
    op_counts = sorted({r["ops"] for r in runs})
    correct = bool(summary) and not errors and failed == 0
    if not args.trace and len(op_counts) > 1:
        correct = False
        errors.append(f"op counts differ between runs: {op_counts}")

    print(f"ristruct benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}")
    print("environment: " + json.dumps(env, sort_keys=True))
    for e in errors:
        print("error: " + e)
    for r in runs:
        for f in r["failures"]:
            print(f"failed op: {f['op']}: {f['detail']}")
    if not args.trace and summary:
        r0 = runs[0]
        print(f"runs: {len(runs)} fresh interpreters; ops per run: "
              f"{r0['ops']}; failed_frac: {failed / max(attempted, 1):g} "
              f"({failed} of {attempted})")
        print(f"op_tail_ms is the p{r0['tail_pct']:g} latency of "
              f"{r0['timed_ops']} timed ops per run")
        for name, s in summary.items():
            print(f"  {name:<12} {s['value']:14.6g} {s['unit']:<4} median "
                  f"of {s['runs']}, quartiles {s['q1']:.6g} .. "
                  f"{s['q3']:.6g}")
        print("times above are at the reference speed (see NOTES.md); "
              "host slowdown factor per run: " + ", ".join(
                  f"{r['speed']['factor']:.3f}" for r in runs))
        print("raw medians: " + ", ".join(
            f"{k} {statistics.median(r['raw'][k] for r in runs):.6g}"
            for k in ("wall_s", "setup_s", "op_p50_ms", "op_tail_ms")))
        print("checks: " + json.dumps(r0["notes"], sort_keys=True))
    elif summary:
        print(f"runs: untraced, traced, and the sector-size curve; "
              f"failed_frac {failed / max(attempted, 1):g} ({failed} of "
              f"{attempted})")
        for name, s in summary.items():
            v = s["value"]
            print(f"  {name:<48} {v:14.6g} {s['unit']}")
    return {"correct": correct, "attempted": max(attempted, 1),
            "failed": failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in summary.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest sizes, for the harness smoke test")
    args = ap.parse_args(argv)
    # a terminated benchmark still kills and reaps its running child:
    # subprocess.run does that for any exception raised while it waits
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "ristruct" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'ristruct'}",
              file=sys.stderr)
        return 2
    runner = Runner(args.seed, args.smoke, time.monotonic() + BUDGET_S)
    env = environment(args)
    runs, summary = (traced if args.trace else measured)(args, runner)
    result = report(args, env, runs, summary, runner.errors)
    OUT.mkdir(exist_ok=True)
    record = OUT / (f"result-{args.workload}-seed{args.seed}"
                    f"-trace{args.trace}.json")
    record.write_text(json.dumps(
        {"environment": env, "result": result, "summary": summary,
         "runs": runs, "errors": runner.errors}, indent=1, default=str))
    print(json.dumps(result))
    return 0 if summary else 1


if __name__ == "__main__":
    sys.exit(main())
