"""Regenerate ``pinned.json``: digests of the outputs that have no cheap
independent check (the command-line session and the Dyson-Schwinger
expansions).

Run it only at a commit whose outputs are trusted, from the repository root:

    python3 perfbench/pin.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import loads  # noqa: E402
import ops  # noqa: E402


def main() -> None:
    specs = [["cli", argv] for argv in loads.CLI_POOL + [loads.SELFCHECK_COMMAND]]
    specs += [["ds", coeffs, loads.DS_VERTICES] for coeffs in loads.DS_COEFFS]
    digests = {}
    for spec in specs:
        _, thunk, _ = ops.prepare(spec)
        digests[ops.digest_key(spec)] = ops.digest(thunk())
    with open(loads.PINNED, "w") as fh:
        json.dump({"digests": digests}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
