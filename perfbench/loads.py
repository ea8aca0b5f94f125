"""Seeded workload generators.

A workload is a list of op specs, plain JSON data such as
``["sub", [[2, 1, 1]]]``.  The parent process makes the list from the seed and
hands it to a fresh worker, so the program only ever sees the inputs.

The cold workloads run fixed inputs in a fixed order: complete families of
blocks and monomials, and one fixed draw of random trees.  Their round time
then moves with the program and not with the draw: drawing a subset of blocks
from the seed moved it by 15%, and shuffling a fixed set by the seed still
moved it by 5%, since memo contents and garbage-collector pauses depend on the
order.  In cli-session the seed sets the order of a fixed command stream.
"""

from __future__ import annotations

import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
PINNED = os.path.join(HERE, "pinned.json")

WORKLOADS = ("forest-cold", "tree-cold", "cli-session")

# -- pools ------------------------------------------------------------------


def alphas(letters: int, max_index: int) -> list[tuple[int, ...]]:
    """Trimmed exponent vectors with ``letters`` letters and top index <= max_index."""
    out = []

    def rec(prefix, left):
        i = len(prefix)
        if left == 0:
            if prefix and prefix[-1]:
                out.append(tuple(prefix))
            return
        if i > max_index:
            return
        for e in range(left, -1, -1):
            rec(prefix + [e], left - e)

    rec([], letters)
    return sorted(out)


def degree_zero(letters: int) -> list[tuple[int, ...]]:
    """Fertility vectors of the rooted trees with ``letters`` vertices."""
    out = []

    def parts(n, cap):
        if n == 0:
            yield ()
            return
        for p in range(min(n, cap), 0, -1):
            for rest in parts(n - p, p):
                yield (p,) + rest

    for part in parts(letters - 1, letters - 1):
        a = [0] * (max(part, default=0) + 1)
        a[0] = letters - len(part)
        for p in part:
            a[p] += 1
        out.append(tuple(a))
    return sorted(out)


def two_block_forests(letters: int, max_index: int) -> list[list[tuple[int, ...]]]:
    out = set()
    for first in range(1, letters):
        for a in alphas(first, max_index):
            for b in alphas(letters - first, max_index):
                out.add(tuple(sorted((a, b))))
    return [list(f) for f in sorted(out)]


def load_digests() -> dict:
    """Output digests pinned at a trusted commit, keyed by op spec."""
    with open(PINNED) as fh:
        return json.load(fh)["digests"]


# -- workloads ----------------------------------------------------------------

def forest_blocks() -> dict[str, list]:
    """Op kind -> forest monomials (lists of blocks) it runs on."""
    return {
        "sub": [[a] for a in alphas(4, 3) + alphas(5, 2)],
        "graft_antipode": [[a] for a in alphas(6, 2) + alphas(7, 2) + alphas(8, 1)],
        "antipode_mu": [[a] for a in alphas(4, 2)] + two_block_forests(5, 2),
    }


# degree-0 monomials (fertility vectors of trees), by op kind
DIRECT_LETTERS = (6, 7)
VIA_CK_LETTERS = (7, 8)
LIFT_LETTERS = (9,)

# random trees per vertex count: (cut, contract, strict order polynomial)
TREE_OPS_PER_SIZE = {10: (5, 6, 8), 11: (5, 2, 8), 12: (5, 1, 8), 13: (5, 0, 8)}
DS_COEFFS = (["1", "1", "1/2", "1/6"],)
DS_VERTICES = 12

# Thin trees for the deep slice, by spine depth (about 4/3 vertices per
# level, so up to about 3000 vertices).  At the seed commit, printing takes
# about four recursion levels per tree level and the statistics one, so depths
# below 200 succeed and depths above 1200 exceed the default limit of 1000.
# Nothing is drawn in between, so the failing ops stay the same.
DEEP_STRATA = [(40, 100), (100, 200), (1200, 1600), (1600, 2200)]
FIXED_DRAW_SEED = 0


def random_tree(rng: random.Random, n: int) -> list[int]:
    """Parent array of a random recursive tree on n vertices (root 0)."""
    return [-1] + [rng.randrange(v) for v in range(1, n)]


def thin_tree(rng: random.Random, depth: int) -> list[int]:
    """Parent array of a path of ``depth`` vertices, with a leaf hung on
    about every third spine vertex."""
    parent = [-1]
    spine = 0
    for _ in range(depth - 1):
        if rng.random() < 1 / 3:
            parent.append(spine)
        parent.append(spine)
        spine = len(parent) - 1
    return parent


def _plain(x):
    return [list(b) for b in x] if isinstance(x[0], tuple) else list(x)


def _phased(phases: list[list]) -> list:
    """Phases in a fixed order, each shuffled by the fixed draw."""
    rng = random.Random(FIXED_DRAW_SEED)
    ops = []
    for phase in phases:
        rng.shuffle(phase)
        ops += phase
    return ops


def forest_cold(_seed: int) -> list:
    """One phase per op kind and letter count, smallest first."""
    fam = forest_blocks()
    kinds = [
        ("sub", fam["sub"]),
        ("graft_antipode", fam["graft_antipode"]),
        ("antipode_mu", fam["antipode_mu"]),
        ("direct", [[a] for n in DIRECT_LETTERS for a in degree_zero(n)]),
    ]
    phases = []
    for kind, forests in kinds:
        by_letters: dict[int, list] = {}
        for f in forests:
            arg = list(f[0]) if kind == "direct" else _plain(f)
            by_letters.setdefault(sum(map(sum, f)), []).append([kind, arg])
        phases += [by_letters[n] for n in sorted(by_letters)]
    return _phased(phases)


def tree_cold(_seed: int) -> list:
    fixed = random.Random(FIXED_DRAW_SEED)
    phases = [[["all_trees", 13]], [], [], []]
    for n, (cuts, contracts, polys) in TREE_OPS_PER_SIZE.items():
        phases[1] += [["cut", random_tree(fixed, n)] for _ in range(cuts)]
        phases[1] += [["contract", random_tree(fixed, n)] for _ in range(contracts)]
        phases[1] += [["order_poly", random_tree(fixed, n)] for _ in range(polys)]
    phases[2] += [["via_ck", list(a)] for n in VIA_CK_LETTERS for a in degree_zero(n)]
    phases[2] += [["lift", list(a)] for n in LIFT_LETTERS for a in degree_zero(n)]
    phases[2] += [["ds", coeffs, DS_VERTICES] for coeffs in DS_COEFFS]
    for kind in ("stats", "roundtrip"):
        for low, high in DEEP_STRATA:
            for _ in range(2):
                phases[3].append([kind, thin_tree(fixed, fixed.randrange(low, high))])
    return _phased(phases)


# Small commands over all fifteen verbs; each takes at most about 0.3 s cold.
# The verbs come in the order of the README's command reference (compose
# first, stats last), which sets their Zipf ranks below.
CLI_POOL = [
    ["compose", "[1,0]", "[1,0]", "[0]"],
    ["compose", "[2,0,1]", "[1,0]", "[0]", "[1]"],
    ["compose", "[1,1,0]", "X1*X0 + 2*X0", "[0]", "[1,0]", "--json"],
    ["brace", "[1,0]", "[1]"],
    ["brace", "[2,1,0]", "[1,0]", "[0]"],
    ["brace", "[1,0]", "--json"],
    ["delta-nmi", "x1*x0 | x0"],
    ["delta-nmi", "x2*x1*x0"],
    ["delta-nmi", "x1^2*x0 - 2*x0 | x0", "--json"],
    ["delta-nmi", "x3*x0^2"],
    ["Delta-nmi", "x1*x0"],
    ["Delta-nmi", "x2*x1*x0^2"],
    ["Delta-nmi", "x1^2*x0^3 | x1", "--json"],
    ["delta-ck", "B[B[],B[]]"],
    ["delta-ck", "ladder:5"],
    ["delta-ck", "corolla:4 | ladder:2", "--json"],
    ["Delta-ck", "ladder:3 | corolla:3"],
    ["Delta-ck", "B[B[B[]],B[],B[]]"],
    ["Delta-ck", "ladder:6", "--json"],
    ["psi", "x2*x1*x0^2"],
    ["psi", "x1^3*x0^4 | x1*x0"],
    ["psi", "x3*x1*x0^3", "--json"],
    ["phi-mi", "x1*x0"],
    ["phi-mi", "x2*x0^2", "--route", "direct"],
    ["phi-mi", "x2*x1*x0^2", "--route", "fixed-point", "--factored"],
    ["phi-mi", "x1^2*x0^3", "--json"],
    ["phi-mi", "x2*x1^2*x0^3", "--route", "via-ck"],
    ["phi-ck", "corolla:4", "--factored"],
    ["phi-ck", "ladder:5 | B[B[],B[]]"],
    ["phi-ck", "B[B[B[]],B[B[]],B[]]", "--json"],
    ["mu", "x2^2*x0^3"],
    ["mu", "x1^3*x0^4"],
    ["mu", "x3*x1*x0^3 | x1*x0", "--json"],
    ["antipode", "x0"],
    ["antipode", "x1*x0 | x0"],
    ["antipode", "x2*x1*x0", "--json"],
    ["antipode", "x1^2*x0 + x1 | x0"],
    ["dims", "--nmax", "4", "--kmax", "4"],
    ["dims", "--nmax", "5", "--kmax", "5"],
    ["dims", "--nmax", "3", "--kmax", "6", "--json"],
    ["ds", "--coeffs", "1,1,1/2,1/6", "--max-vertices", "4"],
    ["ds", "--coeffs", "1,1", "--max-vertices", "5", "--json"],
    ["ds", "--coeffs", "1,2,3", "--max-vertices", "6"],
    ["stats", "B[B[B[]],B[]]"],
    ["stats", "ladder:40"],
    ["stats", "corolla:7", "--json"],
    ["stats", "B[B[B[],B[]],B[B[],B[]],B[]]"],
]
SELFCHECK_COMMAND = ["selfcheck", "--seed", "0", "--size", "3"]
# The repeat mix is a synthetic choice, not measured traffic: nothing in the
# repository records how often each command is used.  The exponent and the
# repeat count are set by hand, and the ranks are the pool order above.
CLI_REPEATS = 500
ZIPF_EXPONENT = 1.1


def cli_session(seed: int) -> list:
    """Every pool command once, in pool order, then its share of Zipf
    repeats shuffled by the seed; selfcheck last.

    Cold first calls in a fixed order cost the same whatever the seed; when
    the seed shuffled them too, the tail moved by 10% from seed to seed.  The
    repeat counts are the Zipf expectations, rounded, with ranks in pool
    order: drawing them at random moved the wall time by 6%, as the few
    commands that stay slow when warm (``dims``, ``ds``) came up more or less
    often.  The pool order puts those two near the bottom, so the repeats
    mostly time the cheap commands' argparse, parsing, formatting and memo
    lookups.
    """
    weights = [1 / (rank + 1) ** ZIPF_EXPONENT for rank in range(len(CLI_POOL))]
    total = sum(weights)
    repeats = [
        argv for argv, w in zip(CLI_POOL, weights) for _ in range(round(CLI_REPEATS * w / total))
    ]
    random.Random(seed).shuffle(repeats)
    return [["cli", argv] for argv in CLI_POOL + repeats + [SELFCHECK_COMMAND]]


GENERATORS = {
    "forest-cold": forest_cold,
    "tree-cold": tree_cold,
    "cli-session": cli_session,
}


def generate(workload: str, seed: int) -> list:
    return GENERATORS[workload](seed)


# -- frontier families --------------------------------------------------------

# Budgets are in seconds at reference speed (see speed.py), checked against
# each step's own probes.  Each sits near the geometric middle of two
# neighbouring steps at the seed commit, about 2x from both, so the frontier
# repeats run to run.  sub_coproduct on (n-3,1,1,1) grows about 3.5x per letter
# (about 1.0 s at 7 letters, 4 s at 8); contract_coproduct on ladder:n about 2x
# per vertex, so that family steps by two vertices (0.55 s at 14, 2.8 s at 16).
FRONTIERS = {
    "forest-cold": {
        "op": "sub",
        "unit": "letters",
        "budget_s": 2.0,
        "sizes": list(range(4, 17)),
    },
    "tree-cold": {
        "op": "contract",
        "unit": "vertices",
        "budget_s": 1.25,
        "sizes": list(range(4, 31, 2)),
    },
}


def frontier_ops(workload: str) -> list:
    fam = FRONTIERS[workload]
    if fam["op"] == "sub":
        return [["sub", [[n - 3, 1, 1, 1]]] for n in fam["sizes"]]
    return [["contract", [-1] + list(range(n - 1))] for n in fam["sizes"]]

