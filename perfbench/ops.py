"""Op kinds: how a worker turns a spec into a call, and how it checks the output.

Each check is an identity that does not reuse the code path it checks, where a
cheap one exists; otherwise the output's digest is compared with one pinned at a
trusted commit (``pinned.json``).  Checks run after the timed phase.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from mindex import bialgebra as B
from mindex import morphisms as Mo
from mindex import trees as T
from mindex.cli import render_command
from mindex.parsing import parse_tree

# OEIS A000081: rooted trees with n vertices, n = 1..13.
A000081 = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766, 12486]

# layer that owns the op itself; time inside an op outside every traced
# call of the program is charged to it
LAYER = {
    "sub": "bialgebra",
    "graft_antipode": "bialgebra",
    "antipode_mu": "morphisms",
    "direct": "morphisms",
    "all_trees": "trees",
    "cut": "trees",
    "contract": "trees",
    "order_poly": "trees",
    "via_ck": "morphisms",
    "lift": "morphisms",
    "ds": "morphisms",
    "stats": "trees",
    "roundtrip": "trees",
    "cli": "cli",
}


# -- inputs -------------------------------------------------------------------


def tree_from_parents(parent: list[int]) -> T.RootedTree:
    """Build a tree bottom-up from a parent array, without recursion."""
    kids = _children(parent)
    built: list = [None] * len(parent)
    for v in reversed(_preorder(kids)):
        built[v] = T.RootedTree(built[c] for c in kids[v])
    return built[0]


def _children(parent: list[int]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p >= 0:
            kids[p].append(v)
    return kids


def _preorder(kids: list[list[int]]) -> list[int]:
    order, stack = [], [0]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(kids[v])
    return order


def selem(blocks) -> B.SElem:
    return B.SElem.basis(B.forest_mono(tuple(b) for b in blocks))


def prepare(spec):
    """Return (label, thunk, context) for one op spec; context feeds the check."""
    kind, arg = spec[0], spec[1]
    if kind == "graft_antipode":
        e = selem(arg)
        return f"{kind} {arg}", (lambda: (B.graft_coproduct(e), B.antipode(e))), e
    if kind in ("sub", "antipode_mu"):
        e = selem(arg)
        fn = B.sub_coproduct if kind == "sub" else Mo.antipode_via_mu
        return f"{kind} {arg}", (lambda: fn(e)), e
    if kind in ("direct", "via_ck"):
        a = tuple(arg)
        route = "direct" if kind == "direct" else "via-ck"
        return f"{kind} {arg}", (lambda: Mo.poly_invariant(a, route)), a
    if kind == "lift":
        a = tuple(arg)
        return f"lift {arg}", (lambda: Mo.tree_lift(a)), a
    if kind == "all_trees":
        return f"all_trees {arg}", (lambda: T.all_trees(arg)), arg
    if kind in ("cut", "contract", "order_poly"):
        t = tree_from_parents(arg)
        fn = {
            "cut": T.cut_coproduct,
            "contract": T.contract_coproduct,
            "order_poly": T.strict_order_poly,
        }[kind]
        return f"{kind} tree:{len(arg)}", (lambda: fn((t,))), t
    if kind == "ds":
        coeffs = [Fraction(c) for c in arg]
        nmax = spec[2]
        return f"ds {','.join(arg)} {nmax}", (lambda: Mo.ds_solve(coeffs, nmax)), None
    if kind == "stats":
        t = tree_from_parents(arg)
        return f"stats thin:{len(arg)}", (lambda: T.tree_stats(t)), arg
    if kind == "roundtrip":
        t = tree_from_parents(arg)
        return f"roundtrip thin:{len(arg)}", (lambda: parse_tree(str(t))), arg
    if kind == "cli":
        argv = list(arg)
        return "cli " + " ".join(argv), (lambda: render_command(argv)), None
    raise ValueError(f"unknown op kind {kind!r}")


# -- canonical digests ---------------------------------------------------------


def canon(value):
    """A plain nested structure that equal outputs share, built without the
    program's own printing."""
    if isinstance(value, T.RootedTree):
        return ("T", value.enc)
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, tuple):
        return tuple(canon(v) for v in value)
    if hasattr(value, "terms"):
        return sorted((repr(canon(k)), str(c)) for k, c in value.terms.items())
    if isinstance(value, Mo.DSSolution):
        return sorted((repr(k), repr(canon(v))) for k, v in value.entries.items())
    return repr(value)


def digest(value) -> str:
    return hashlib.sha256(repr(canon(value)).encode()).hexdigest()[:24]


def digest_key(spec) -> str:
    """Key of an op in the pinned digest table."""
    return repr(spec)


# -- independent checks -------------------------------------------------------


def _counits_hold(rows: dict, e, counit_forest) -> bool:
    """(eps x id) and (id x eps) applied to the coproduct rows give e back."""
    left: dict = {}
    right: dict = {}
    for (a, b), c in rows.items():
        if counit_forest(a):
            left[b] = left.get(b, 0) + c * counit_forest(a)
        if counit_forest(b):
            right[a] = right.get(a, 0) + c * counit_forest(b)
    target = {k: c for k, c in e.terms.items() if c}
    left = {k: c for k, c in left.items() if c}
    right = {k: c for k, c in right.items() if c}
    return left == target and right == target


def _eps_sub(f) -> int:
    return 1 if all(b == (1,) for b in f) else 0


def _eps_empty(f) -> int:
    return 1 if not f else 0


def _eps_contract(f) -> int:
    return 1 if all(t.size == 1 for t in f) else 0


def _antipode_law_holds(e, s) -> bool:
    """m(S x id) Delta_graft (e) = eps(e) 1, with S read from the result for e
    and from the antipode of each proper left factor."""
    acc: dict = {}
    for (left, right), c in B.graft_coproduct(e).terms.items():
        s_left = s if left == next(iter(e.terms)) else B.antipode(B.SElem.basis(left))
        for f, cf in s_left.terms.items():
            key = B.fm_mul(f, right)
            acc[key] = acc.get(key, 0) + c * cf
    return not {k: v for k, v in acc.items() if v}


def _order_poly_counts(t: T.RootedTree, n: int) -> int:
    """Strictly increasing maps from the tree poset to {1..n}, by dynamic
    programming over the tree."""
    order, stack = [], [t]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    table: dict[int, list[int]] = {}
    for node in reversed(order):
        # ways[k]: labelings of the subtree with its root labelled k+1
        ways = [1] * n
        for child in node.children:
            below = table[id(child)]
            acc, suffix = 0, [0] * n
            for k in range(n - 1, -1, -1):
                suffix[k] = acc
                acc += below[k]
            ways = [w * s for w, s in zip(ways, suffix)]
        table[id(node)] = ways
    return sum(table[id(t)])


def _eval_poly(p, x: int) -> Fraction:
    return sum((c * x**e for e, c in p.terms.items()), Fraction(0))


def tree_shape(parent: list[int]):
    """Symmetry factor, plane count and fertility vector of the tree given by
    a parent array, computed without recursion."""
    kids = _children(parent)
    ids: dict[tuple, int] = {}
    canon_id = [0] * len(parent)
    sym = plane = 1
    fert: dict[int, int] = {}
    for v in reversed(_preorder(kids)):
        child_ids = sorted(canon_id[c] for c in kids[v])
        canon_id[v] = ids.setdefault(tuple(child_ids), len(ids))
        plane *= math.factorial(len(child_ids))
        for cid in set(child_ids):
            m = child_ids.count(cid)
            sym *= math.factorial(m)
            plane //= math.factorial(m)
        fert[len(kids[v])] = fert.get(len(kids[v]), 0) + 1
    vec = tuple(fert.get(i, 0) for i in range(max(fert) + 1))
    return sym, plane, vec


def _text_of(parent: list[int]) -> str:
    """Canonical bracket text of the tree, as the program prints it."""
    kids = _children(parent)
    text: dict[int, str] = {}
    for v in reversed(_preorder(kids)):
        # children sort by their nested-tuple encoding; in the thin trees
        # drawn here a vertex has at most one non-leaf child, and a leaf (the
        # empty encoding) sorts first
        parts = sorted((bool(kids[c]), text[c]) for c in kids[v])
        text[v] = "B[" + ",".join(s for _, s in parts) + "]"
    return text[0]


def _tree_text_iter(t: T.RootedTree) -> str:
    """Print a RootedTree without recursion."""
    out, stack = [], [("node", t)]
    while stack:
        what, item = stack.pop()
        if what == "text":
            out.append(item)
            continue
        out.append("B[")
        stack.append(("text", "]"))
        for i, child in enumerate(reversed(item.children)):
            stack.append(("node", child))
            if i < len(item.children) - 1:
                stack.append(("text", ","))
    return "".join(out)


def check(spec, ctx, out, pinned_digests: dict) -> bool:
    kind, arg = spec[0], spec[1]
    if kind == "sub":
        return _counits_hold(out.terms, ctx, _eps_sub)
    if kind == "graft_antipode":
        rows, s = out
        return _counits_hold(rows.terms, ctx, _eps_empty) and _antipode_law_holds(ctx, s)
    if kind == "antipode_mu":
        return out == B.antipode(ctx)
    if kind == "direct":
        return out == Mo.poly_invariant(ctx, "fixed-point")
    if kind == "via_ck":
        return out == Mo.poly_invariant(ctx, "fixed-point")
    if kind == "lift":
        return _lift_holds(ctx, out)
    if kind == "all_trees":
        return len(out) == A000081[arg - 1] and len(set(out)) == len(out)
    if kind == "cut":
        return _counits_hold(out.terms, T.HCKElem.tree(ctx), _eps_empty)
    if kind == "contract":
        return _counits_hold(out.terms, T.HCKElem.tree(ctx), _eps_contract)
    if kind == "order_poly":
        n = ctx.size
        return out.degree() == n and all(
            _eval_poly(out, x) == _order_poly_counts(ctx, x) for x in range(n + 2)
        )
    if kind == "stats":
        return tuple(out) == tree_shape(arg)
    if kind == "roundtrip":
        return _tree_text_iter(out) == _text_of(arg)
    pinned = pinned_digests.get(digest_key(spec))
    return pinned is not None and digest(out) == pinned


def _lift_holds(a, out) -> bool:
    """Sum over all trees with fertility vector a of a!/sym(t) times t."""
    n = sum(a)
    fact = math.prod(math.factorial(e) for e in a)
    want = {}
    for t in T.all_trees(n):
        sym, _, vec = tree_shape(_parents_of(t))
        if vec == tuple(a):
            want[(t,)] = Fraction(fact, sym)
    return out.terms == want


def _parents_of(t: T.RootedTree) -> list[int]:
    parent, stack = [], [(t, -1)]
    while stack:
        node, p = stack.pop()
        parent.append(p)
        me = len(parent) - 1
        stack.extend((c, me) for c in node.children)
    return parent
