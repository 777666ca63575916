"""Digests of the numeric console commands of the README and of CI.

    python3 scripts/cli_digests.py > digests.json

Runs ``model build``, ``verify comparison``, ``verify dpidd``,
``bphz solve`` and ``scaling fit`` on the README config and on the
configs that CI writes inline (numeric2d white noise, numeric2d smooth,
pam3d 16^3 at p = inf and at p = 2, and at p = 2 with the base points
reversed), each in a fresh interpreter that imports the package from
this checkout's ``src/``, under the caller's environment (so
``PYTHONHASHSEED`` passes through).  Prints one JSON object mapping each
command to the sha256 of its stdout and its exit code.  Two checkouts,
or two hash seeds, print the same object exactly when every command
printed the same bytes and exited the same way.  Standard library only.
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
# each command runs as: ristruct GROUP VERB CONFIG [ARGS...]
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


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (cfg, commands) in RUNS.items():
            path = Path(tmp) / f"{name}.json"
            path.write_text(json.dumps(cfg))
            for command in commands:
                group, verb, *rest = command.split()
                run = subprocess.run(
                    [sys.executable, "-m", "ristruct.cli", group, verb,
                     str(path), *rest], env=env, cwd=tmp,
                    stdout=subprocess.PIPE, check=False)
                out[f"{name}: {command}"] = {
                    "sha256": hashlib.sha256(run.stdout).hexdigest(),
                    "exit": run.returncode}
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
