"""The pam3d-rule Hopf suite at one sector size, timed check by check.

    python3 scripts/frontier.py --max-edges 13 --max-omega 8

Generates the pam3d rule sector at the given maxEdges/maxOmega and runs
the four checks of ``ristruct verify hopf`` on it at eps = 1/100 and
p = inf: the coproduct oracle and the comodule identity on every
member, Delta+ coassociativity and the antipode convolution on every W+
generator.  It reads them from ``sector.HOPF_CHECKS``, as the command
does, but runs and times one check at a time over its whole tree set.
Run it once per size and per measurement: the intern table and the
memos only grow, so only a fresh process measures one size alone.  It
imports the package from this checkout's ``src/``.

Prints one JSON line: the sizes, the wall time of each stage and of the
four checks together, whether each check held on every tree, the
number of interned trees, the peak RSS, and the host speed factor of
``bench/workload.py``'s ``SpeedProbe`` (probed before every stage and
at the end; a wall time divided by it reads as seconds at the
benchmark's reference speed).  Exits 0 when every check held, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

from ristruct.config import builtin_rule_config  # noqa: E402
from ristruct.grading import to_invp  # noqa: E402
from ristruct.hopf import Hopf  # noqa: E402
from ristruct.sector import (HOPF_CHECKS, HOPF_TREE_SETS,  # noqa: E402
                             load_sector)
from ristruct.trees import Tree  # noqa: E402
from workload import SpeedProbe  # noqa: E402

EPS, P = Fraction(1, 100), "inf"


def run(max_edges: int, max_omega: int) -> dict:
    cfg = builtin_rule_config("pam3d")
    cfg.update(maxEdges=max_edges, maxOmega=max_omega)
    eps, invp = EPS, to_invp(P)
    wall, ok = {}, {}  # every tree is checked, even after a failure
    probe = SpeedProbe()

    def stage(name, f):
        probe.poll(force=True)
        t0 = time.perf_counter()
        out = f()
        wall[name] = time.perf_counter() - t0
        return out

    sector = stage("sector", lambda: load_sector(cfg))
    hopf = Hopf(sector.params)
    trees = {}
    for name, tree_set, holds in HOPF_CHECKS:
        if tree_set not in trees:
            trees[tree_set] = stage(tree_set, lambda: HOPF_TREE_SETS[
                tree_set](sector, eps, invp))
        ok[name] = stage(name, lambda: all([
            holds(hopf, t, eps, invp) for t in trees[tree_set]]))
    probe.poll(force=True)
    wall["four_checks"] = sum(wall[name] for name, _s, _h in HOPF_CHECKS)
    return {"maxEdges": max_edges, "maxOmega": max_omega,
            "eps": str(EPS), "p": P, "members": len(trees["members"]),
            "w_plus_gens": len(trees["w_plus_generators"]),
            "wall_s": wall, "ok": ok,
            "interned_trees": len(Tree._intern),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
            "speed_factor": probe.factor()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--max-edges", type=int, required=True)
    ap.add_argument("--max-omega", type=int, required=True)
    args = ap.parse_args(argv)
    out = run(args.max_edges, args.max_omega)
    print(json.dumps(out, sort_keys=True))
    return 0 if all(out["ok"].values()) else 2


if __name__ == "__main__":
    sys.exit(main())
