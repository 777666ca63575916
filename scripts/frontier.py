"""The pam_rule(3) Hopf suite at one sector size, timed check by check.

    python3 scripts/frontier.py --max-edges 13 --max-omega 8

Generates the pam3d rule sector at the given maxEdges/maxOmega and runs
the four checks of ``ristruct verify hopf`` on it at eps = 1/100 and
p = inf: the coproduct oracle and the comodule identity on every
member, Delta+ coassociativity and the antipode convolution on every W+
generator.  ``run`` times each check on its own, so it repeats the
checks of ``cli.cmd_verify_hopf`` instead of calling it; a change to
one must be made in the other.
Run it once per size and per measurement: the intern table and the
memos only grow, so only a fresh process measures one size alone.  It
imports the package from this checkout's ``src/``.

Prints one JSON line: the sizes, the wall time of each stage and of the
four checks together, whether each check held on every tree, the
number of interned trees and the peak RSS.  Exits 0 when every check
held, 2 otherwise.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ristruct.config import builtin_rule_config  # noqa: E402
from ristruct.grading import to_invp  # noqa: E402
from ristruct.hopf import Hopf  # noqa: E402
from ristruct.sector import load_sector  # noqa: E402
from ristruct.trees import Tree  # noqa: E402

CHECKS = ("oracle", "comodule", "coassociativity", "antipode")
EPS, P = Fraction(1, 100), "inf"


def run(max_edges: int, max_omega: int) -> dict:
    cfg = builtin_rule_config("pam3d")
    cfg.update(maxEdges=max_edges, maxOmega=max_omega)
    eps, invp = EPS, to_invp(P)
    wall, ok = {}, {}  # every tree is checked, even after a failure

    def stage(name, f):
        t0 = time.perf_counter()
        out = f()
        wall[name] = time.perf_counter() - t0
        return out

    sector = stage("sector", lambda: load_sector(cfg))
    hopf = Hopf(sector.params)
    members = sector.members()
    ok["oracle"] = stage("oracle", lambda: all([
        hopf.coproduct(t, eps, invp)
        == hopf.coproduct_graphical(t, eps, invp) for t in members]))
    ok["comodule"] = stage("comodule", lambda: all([
        hopf.comodule_check(t, eps, invp) for t in members]))
    gens = stage("w_plus_generators",
                 lambda: sector.w_plus_generators(eps, invp))
    ok["coassociativity"] = stage("coassociativity", lambda: all([
        hopf.coassociativity_plus_check(g, eps, invp) for g in gens]))
    ok["antipode"] = stage("antipode", lambda: all([
        hopf.convolution_check(g, eps, invp) for g in gens]))
    wall["four_checks"] = sum(wall[c] for c in CHECKS)
    return {"maxEdges": max_edges, "maxOmega": max_omega,
            "eps": str(EPS), "p": P, "members": len(members),
            "w_plus_gens": len(gens), "wall_s": wall, "ok": ok,
            "interned_trees": len(Tree._intern),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024}


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
