"""Digests of the console commands of the README and of CI.

    python3 scripts/cli_digests.py > digests.json

Runs the symbolic commands (``sector gen``, ``coproduct`` with and
without ``--graphical``, ``phase``, ``verify hopf``, ``verify
triangularity`` on the builtin rules and on the pam3d rule at maxEdges 7
/ maxOmega 5, where triangularity fails with exit 2, and ``prep verify``
for c = -1/3 on (O() K(O()))) and the numeric ones (``model build``,
``verify comparison``, ``verify dpidd``, ``bphz solve`` and ``scaling
fit`` on the README config and on the configs that CI writes inline:
numeric2d white noise, numeric2d smooth, pam3d 16^3 at p = inf and at
p = 2, and at p = 2 with the base points reversed), each in a fresh
interpreter that imports the package from this checkout's ``src/``,
under the caller's environment (so ``PYTHONHASHSEED`` passes through).
Prints one JSON object mapping each command to the sha256 of its stdout
and its exit code.  Two checkouts, or two hash seeds, print the same
object exactly when every command printed the same bytes and exited the
same way.  Standard library only.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WHITE = {"rule": "numeric2d", "grid": {"sizes": [32, 32]},
         "noise": {"kind": "white", "mollify": 3}, "seed": 3,
         "mollify": 3, "samples": 8, "basePoints": [[0, 0]]}
SMOOTH = {"rule": "numeric2d", "grid": {"sizes": [32, 32]},
          "noise": {"kind": "smooth", "scale": 0.7}, "seed": 7,
          "basePoints": [[0, 0], [5, 9]]}
PAM3D = {"rule": "pam3d", "grid": {"sizes": [16, 16, 16]},
         "noise": {"kind": "smooth", "scale": 0.7}, "seed": 7,
         "basePoints": [[0, 0, 0], [5, 9, 3]]}
README = {"rule": "numeric2d", "grid": {"sizes": [64, 64]},
          "noise": {"kind": "smooth", "scale": 0.7}, "seed": 7,
          "eps": "1/100", "basePoints": [[10, 7]], "mollify": 4,
          "samples": 64}
# builtin_rule_config("pam3d") at maxEdges 7 / maxOmega 5
PAM3D_7_5 = {"K": [[["O", [0, 0, 0]], ["K", [0, 0, 0]], ["K", [0, 0, 0]]]],
             "maxOmega": 5, "L": "2", "maxEdges": 7,
             "params": {"d": 3, "scaling": ["1", "1", "1"], "r0": "-3/2",
                        "beta0": "2", "ell": "4", "ell1": "1",
                        "s0": "-1/2"}}
COUNTERTERMS = {"(O() K(O()))": "-1/3"}
# each numeric command runs as: ristruct GROUP VERB CONFIG [ARGS...]
CHECKS = ["model build", "verify comparison", "verify dpidd"]
RUNS = {
    "white": (WHITE, ["model build", "bphz solve", "scaling fit (O())",
                      "bphz solve --mode pointwise"]),
    "smooth": (SMOOTH, CHECKS),
    "pam3d": (PAM3D, CHECKS),
    "pam3d_p2": (dict(PAM3D, p="2"), CHECKS[:2]),
    "pam3d_p2_reversed": (dict(PAM3D, p="2", basePoints=[[5, 9, 3],
                                                        [0, 0, 0]]),
                          CHECKS[:2]),
    "readme": (README, CHECKS + ["bphz solve --mode qbar",
                                 "scaling fit (O())"]),
}
# each symbolic command runs with these arguments; {name} is the path of
# the file written from FILES[name]
FILES = {"pam3d_7_5": PAM3D_7_5, "ct": COUNTERTERMS}
TREE = "(O() K(H()))"
SYMBOLIC = [
    ["sector", "gen", "pam3d"],
    ["sector", "gen", "{pam3d_7_5}"],
    ["coproduct", TREE, "--eps", "0", "--p", "5"],
    ["coproduct", TREE, "--eps", "0", "--p", "5", "--graphical"],
    ["phase", "numeric2d"],
    ["phase", "pam3d"],
    ["verify", "hopf", "pam3d"],
    ["verify", "hopf", "numeric2d"],
    ["verify", "triangularity", "pam3d"],
    ["verify", "triangularity", "{pam3d_7_5}"],
    ["prep", "verify", "{ct}", "--rule", "numeric2d"],
]


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        def digest(name, args):
            run = subprocess.run(
                [sys.executable, "-m", "ristruct.cli", *args], env=env,
                cwd=tmp, stdout=subprocess.PIPE, check=False)
            out[name] = {"sha256": hashlib.sha256(run.stdout).hexdigest(),
                         "exit": run.returncode}

        paths = {}
        for name, doc in FILES.items():
            paths[name] = Path(tmp) / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        for args in SYMBOLIC:
            digest(" ".join(args).format(**{n: f"{n}.json" for n in paths}),
                   [a.format(**paths) for a in args])
        for name, (cfg, commands) in RUNS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(cfg))
            for command in commands:
                group, verb, *rest = command.split()
                digest(f"{name}: {command}", [group, verb, str(path), *rest])
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
