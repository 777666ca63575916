"""Digests of the recenter-3d check values of the benchmark.

    python3 scripts/check_digests.py [SEED ...] > check_digests.json

Sets up and runs the recenter-3d workload of ``bench/workload.py`` (its
``setup_recenter_3d`` and ``run_recenter_3d``, imported as they are) at
each seed, 5, 7 and 9 by default, and records the value every route,
comparison and derivative check returns, in the order the workload asks
for them.  Prints one JSON object mapping each seed to, per check kind,
the number of values and the sha256 of the values packed as
little-endian doubles.  Two checkouts, or two hash seeds, print the same
object exactly when every check value is the same, bit for bit.
Standard library and numpy (through the package) only.
"""

import hashlib
import json
import struct
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import workload  # noqa: E402
from ristruct.analytic import checks  # noqa: E402

KINDS = {"route": "check_route_equivalence",
         "comparison": "check_comparison",
         "dpidd": "check_derivative_identity"}


class _Runner:
    """The one method of the workload's recorder that its run calls:
    each op is run once, untimed, and an exception ends the script."""

    def op(self, kind, label, fn):
        fn()


def seed_values(seed: int) -> dict:
    """The check values of one recenter-3d run, by check kind."""
    values = {kind: [] for kind in KINDS}
    originals = {kind: getattr(checks, name) for kind, name in KINDS.items()}

    def recorded(kind):
        def check(*args):
            out = originals[kind](*args)
            values[kind].append(out)
            return out
        return check
    for kind, name in KINDS.items():
        setattr(checks, name, recorded(kind))
    try:
        state = workload.setup_recenter_3d(seed, smoke=False)
        workload.run_recenter_3d(_Runner(), state)
    finally:
        for kind, name in KINDS.items():
            setattr(checks, name, originals[kind])
    return values


def main(argv=None) -> int:
    seeds = [int(s) for s in (sys.argv[1:] if argv is None else argv)]
    out = {}
    for seed in seeds or (5, 7, 9):
        out[str(seed)] = {
            kind: {"count": len(vals), "sha256": hashlib.sha256(
                struct.pack(f"<{len(vals)}d", *vals)).hexdigest()}
            for kind, vals in seed_values(seed).items()}
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
