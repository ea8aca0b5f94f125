"""Cold timings of the ROADMAP baseline cases, each in a fresh interpreter.

The ROADMAP's baseline table was measured with warm memo caches.  This script
times the same calls with every cache empty, best of ``REPEATS`` fresh
processes, and prints one line per case:

    python3 perfbench/cold_baseline.py
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REPEATS = 3

CASES = [
    ("sub_coproduct (2,1,1)", "B.sub_coproduct(B.SElem.block((2, 1, 1)))"),
    ("sub_coproduct (3,1,1,1)", "B.sub_coproduct(B.SElem.block((3, 1, 1, 1)))"),
    ("sub_coproduct (4,2,1,1)", "B.sub_coproduct(B.SElem.block((4, 2, 1, 1)))"),
    ("antipode (4,2,1,1)", "B.antipode(B.SElem.block((4, 2, 1, 1)))"),
    ("antipode (5,2,2,1)", "B.antipode(B.SElem.block((5, 2, 2, 1)))"),
    ("invariant direct (5,2,2,1)", "Mo.poly_invariant((5, 2, 2, 1), 'direct')"),
    ("invariant fixed-point (5,2,2,1)", "Mo.poly_invariant((5, 2, 2, 1), 'fixed-point')"),
    ("invariant via-ck (5,2,2,1)", "Mo.poly_invariant((5, 2, 2, 1), 'via-ck')"),
    ("contract_coproduct ladder:12", "T.contract_coproduct((T.ladder(12),))"),
    ("all_trees(13)", "T.all_trees(13)"),
    ("ds_solve to 12 vertices", "Mo.ds_solve([1, 1, 1], 12)"),
]

SNIPPET = """
import time
from mindex import bialgebra as B, morphisms as Mo, trees as T
t = time.perf_counter()
{call}
print(time.perf_counter() - t)
"""


def main() -> None:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    for label, call in CASES:
        times = []
        for _ in range(REPEATS):
            out = subprocess.run(
                [sys.executable, "-c", SNIPPET.format(call=call)],
                capture_output=True, text=True, env=env, check=True,
            )
            times.append(float(out.stdout.strip()))
        print(f"{label:34s} {min(times):8.3f} s  (best of {REPEATS} cold processes)")


if __name__ == "__main__":
    main()
