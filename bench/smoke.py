"""Smoke test of the benchmark harness at its smallest sizes.

    python3 bench/smoke.py

Runs every workload untraced and traced through run.py with
``--smoke`` (pam3d 5/4, 32x32 grids, 4 Monte Carlo samples, a 16^3
grid with one base point) and checks that each run is correct and
reports exactly the metrics BENCHMARK.json declares.  The statistical
checks of spectral-mc are computed but not gated at 4 samples.  Takes
about ten seconds; it is not part of the tier-1 test suite.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# run.py --smoke traces only the smallest size of the sector-size curve
SKIPPED_IN_SMOKE = ("curve.e7o5.", "curve.e9o6.")


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit "
                         f"{proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]
                 if not m["name"].startswith(SKIPPED_IN_SMOKE)}
    problems = []
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace, want in ((0, end_to_end), (1, per_layer)):
            res = run(w, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w} trace={trace}: not correct: {res}")
            if got != want:
                problems.append(
                    f"{w} trace={trace}: metrics differ from BENCHMARK.json:"
                    f" missing {sorted(set(want) - set(got))}, extra "
                    f"{sorted(set(got) - set(want))}, units "
                    f"{[k for k in got if k in want and got[k] != want[k]]}")
            print(f"{w} trace={trace}: attempted {res['attempted']}, "
                  f"failed {res['failed']}, {len(got)} metrics")
    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
