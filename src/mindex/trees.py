"""Canonical unordered rooted trees, forests and the two tree coproducts.

A tree is a multiset of child subtrees; the canonical form stores children
sorted by their nested-tuple encodings, so structural equality is encoding
equality.  Forests are sorted tuples of trees, the empty forest being the
unit.  ``all_trees`` lists the trees of each size in ``enc`` order straight
from the smaller lists, each tree a first child put before the children of
a smaller listed tree, so no tree is sorted and every child is the very
object listed for its size.  Statistics, printing and the contraction
kernel walk the vertices on an explicit stack (``_vertices``), so they work
at any depth;
``tree_stats`` takes all three statistics in one such walk, with factorial
work only at vertices of two or more children; a miss
in the cut coproduct's or the order polynomial's per-tree memo fills the
memo for every missing subtree in one pass, children before parents, so no
call nests inside another at any depth; only the oracles recurse once per
level.
``cut_coproduct`` is the admissible-cut coproduct defined through
the grafting cocycle (with a direct edge-cut oracle for cross-checking);
``contract_coproduct`` extracts vertex partitions into subtrees and
contracts them, by one post-order pass that counts partial rows per
subtree (with the walk over all kept-edge sets as its oracle);
``TREE_SIDE`` describes the pair to the law kit of ``linear``.
``strict_order_poly`` maps a forest to the polynomial counting strictly
increasing labelings, memoised per tree on integers in the binomial basis.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Sequence

from .exact import Poly, _binomial_product, _binomial_sum, _from_binomial
from .linear import DoubleBialgebra, LinComb, Tensor, add_term
from .monomials import (
    Alpha,
    alpha_deg,
    alpha_len,
    alpha_sub,
    trim,
    unit_exp,
    _trimmed,
)

_enc = attrgetter("enc")  # the canonical sort key, read in C
_size = attrgetter("size")


class RootedTree:
    """Unordered rooted tree in canonical form."""

    __slots__ = ("children", "enc", "size")

    def __init__(self, children: Iterable["RootedTree"] = (), enc=None, size=0):
        """The children in any order.  Passing ``enc`` is the trusted path
        of ``all_trees``: ``children`` is then a tuple already sorted by
        ``enc``, and ``enc`` and ``size`` are taken as they are given."""
        if enc is None:
            children = tuple(sorted(children, key=_enc))
            enc = tuple(map(_enc, children))
            size = 1 + sum(map(_size, children))
        self.children = children
        self.enc = enc
        self.size = size

    def __eq__(self, other):
        return isinstance(other, RootedTree) and self.enc == other.enc

    def __hash__(self):
        return hash(self.enc)

    def __lt__(self, other):
        return self.enc < other.enc

    def __str__(self):
        parts, stack = [], [self]  # trees still to print, and their "," and "]"
        while stack:
            top = stack.pop()
            if isinstance(top, str):
                parts.append(top)
            else:
                parts.append("B[")
                stack.append("]")
                for i, c in enumerate(reversed(top.children)):
                    stack += (",", c) if i else (c,)
        return "".join(parts)

    def __repr__(self):
        return f"RootedTree({self})"

    def fertility(self) -> int:
        return len(self.children)

    def child_multiplicities(self) -> list[tuple["RootedTree", int]]:
        out: list[tuple[RootedTree, int]] = []
        for t in self.children:
            if out and out[-1][0] == t:
                out[-1] = (t, out[-1][1] + 1)
            else:
                out.append((t, 1))
        return out


LEAF = RootedTree()

Forest = tuple[RootedTree, ...]


def forest(trees: Iterable[RootedTree]) -> Forest:
    return tuple(sorted(trees, key=_enc))


def forest_mul(a: Forest, b: Forest) -> Forest:
    return tuple(sorted(a + b, key=_enc))


def forest_size(f: Forest) -> int:
    return sum(t.size for t in f)


def forest_key(f: Forest):
    return (len(f), tuple(t.enc for t in f))


def format_forest(f: Forest) -> str:
    if not f:
        return "1"
    return " | ".join(str(t) for t in f)


def bplus(f: Forest | Iterable[RootedTree]) -> RootedTree:
    """Graft all roots of a forest onto a fresh common root."""
    return RootedTree(tuple(f))


def ladder(n: int) -> RootedTree:
    if n < 1:
        raise ValueError("ladder needs n >= 1")
    t = LEAF
    for _ in range(n - 1):
        t = RootedTree((t,))
    return t


def corolla(n: int) -> RootedTree:
    if n < 1:
        raise ValueError("corolla needs n >= 1")
    return RootedTree((LEAF,) * (n - 1))


class HCKElem(LinComb):
    """Linear combination of forests; product is disjoint union."""

    __slots__ = ()

    key_mul = staticmethod(forest_mul)
    sort_key = staticmethod(forest_key)
    format_key = staticmethod(format_forest)

    @classmethod
    def tree(cls, t: RootedTree, coeff=1) -> "HCKElem":
        return cls.basis((t,), coeff)


class HCKTensor(Tensor, slot=HCKElem):
    """Two-slot tensors of forests."""

    __slots__ = ()

    def to_json(self):
        return [
            [str(c), format_forest(k[0]), format_forest(k[1])]
            for k, c in self.sorted_terms()
        ]


# -- statistics -----------------------------------------------------------

def _vertices(t: RootedTree):
    """Every vertex of t in pre-order, last child first, by an explicit
    stack: each subtree is a run of ``size`` vertices headed by its root."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children)


def tree_stats(t: RootedTree) -> tuple[int, int, Alpha]:
    """(symmetry factor, plane embedding count, fertility monomial) in one
    walk.  A vertex with r >= 2 children, sorted by ``enc`` so that equal
    ones are adjacent, adds d = prod mult! over its runs of equal children
    to the symmetry factor and r!/d to the plane count; the others add
    nothing to either."""
    sym = plane = 1
    counts = [0] * t.size  # no vertex has more than size - 1 children
    for node in _vertices(t):
        kids = node.children
        r = len(kids)
        counts[r] += 1
        if r > 1:
            d = run = 1
            prev = kids[0].enc
            for kid in kids[1:]:
                enc = kid.enc
                if enc == prev:
                    run += 1
                    d *= run
                else:
                    run, prev = 1, enc
            sym *= d
            plane *= math.factorial(r) // d
    while not counts[-1]:  # stops at the leaves' count
        counts.pop()
    return sym, plane, tuple(counts)


def symmetry_factor(t: RootedTree) -> int:
    """Order of the automorphism group: Π mult! over the child classes of each vertex."""
    return tree_stats(t)[0]


def plane_count(t: RootedTree) -> int:
    """Number of plane embeddings: each vertex's child orderings up to repeats."""
    return tree_stats(t)[1]


def fertility_monomial(t: RootedTree) -> Alpha:
    """Exponent vector counting vertices by fertility."""
    return tree_stats(t)[2]


# -- enumeration ----------------------------------------------------------


@lru_cache(maxsize=None)
def all_trees(n: int) -> tuple[RootedTree, ...]:
    """All canonical rooted trees with exactly n vertices, sorted by ``enc``.

    ``enc`` order is lexicographic order on the sorted children, so the
    trees come grouped by their first (smallest) child c, in c's ``enc``
    order.  With k = n - |c|, the trees of first child c are c put before
    the children of each tree t of ``all_trees(k)`` whose first child is at
    least c: B[c] alone when k is 1, and for k >= 2 a suffix of
    ``all_trees(k)``, already in order, which ``bisect_left`` finds.  So the
    children of every tree listed are the very objects of the smaller lists,
    and no tree's children are sorted: each tree is built on the trusted
    path of ``RootedTree``.
    """
    if n < 1:
        return ()
    if n == 1:
        return (LEAF,)
    lists = [()] + [all_trees(m) for m in range(1, n)]  # each smaller list read once
    # each listed tree's first child, by enc; the leaf (k = 1) has none
    firsts = [None, None] + [[t.enc[0] for t in trees] for trees in lists[2:]]
    out: list[RootedTree] = []
    # the smaller trees in enc order: one sort, of runs already sorted
    for c in sorted(itertools.chain.from_iterable(lists), key=_enc):
        k = n - c.size
        rest = lists[k]
        if k > 1:
            rest = rest[bisect_left(firsts[k], c.enc):]
        kids, head = (c,), (c.enc,)
        out += [RootedTree(kids + t.children, head + t.enc, n) for t in rest]
    return tuple(out)


def trees_with_monomial(a: Alpha) -> tuple[RootedTree, ...]:
    """All trees whose fertility monomial is x^a; empty unless deg(a) = 0."""
    a = trim(a)
    if not a:
        raise ValueError("the unit monomial indexes no tree")
    if alpha_deg(a) != 0:
        return ()
    return _twm(a)


@lru_cache(maxsize=None)
def _twm(a: Alpha) -> tuple[RootedTree, ...]:
    if a == (1,):
        return (LEAF,)
    found: list[RootedTree] = []  # each multiset comes once, so no repeats
    for r in range(1, len(a)):
        if a[r]:
            found += map(RootedTree, _child_multisets(alpha_sub(a, unit_exp(r)), r, None))
    return tuple(sorted(found, key=_enc))


@lru_cache(maxsize=None)
def _tree_divisors(rest: Alpha) -> tuple[tuple[Alpha, Alpha, int], ...]:
    """The divisors of x^rest that index trees (degree 0, not the unit), each
    with its cofactor and the cofactor's length.  Degree 0 fixes the leaf
    count b_0 = 1 + sum_(i>=1) (i - 1) b_i, so only b_1, b_2, ... are walked
    and the divisors with b_0 > rest_0 are skipped."""
    if not rest:
        return ()
    out = []
    for tail in itertools.product(*[range(e + 1) for e in rest[1:]]):
        b0 = 1 + sum(i * e for i, e in enumerate(tail[1:], 1))
        if b0 <= rest[0]:
            b = _trimmed((b0, *tail))
            left = _trimmed((rest[0] - b0, *[r - t for r, t in zip(rest[1:], tail)]))
            out.append((b, left, alpha_len(left)))
    return tuple(out)


def _child_multisets(rest: Alpha, r: int, low: RootedTree | None):
    """Multisets of r trees, nondecreasing from ``low``, with fertility
    monomials multiplying to x^rest."""
    if r == 0:
        if not rest:
            yield ()
        return
    for beta, left, n_left in _tree_divisors(rest):
        if n_left < r - 1:  # each of the other r - 1 trees needs a letter
            continue
        for t in _twm(beta):
            if low is not None and t.enc < low.enc:
                continue
            for tail in _child_multisets(left, r - 1, t):
                yield (t,) + tail


def build_forest(fertilities: Sequence[int]) -> Forest:
    """Some forest realizing the given fertility multiset.

    Requires sum(fertilities) <= n - 1; equality forces a single tree.
    """
    ks = sorted(int(k) for k in fertilities)
    n = len(ks)
    if any(k < 0 for k in ks):
        raise ValueError("fertilities must be nonnegative")
    if sum(ks) > n - 1:
        raise ValueError(
            f"no forest: {sum(ks)} edges demanded by fertilities, at most {n - 1} available"
        )
    roots: list[RootedTree] = []
    for k in ks:
        if k == 0:
            roots.append(LEAF)
        else:
            # ascending order keeps enough roots around: if the first i
            # fertilities summed past i-1, the tail would push the total
            # beyond n-1, already rejected above
            roots.sort(key=_enc)
            adopted, roots = roots[:k], roots[k:]
            roots.append(RootedTree(adopted))
    return forest(roots)


# -- coproducts -----------------------------------------------------------


def _filled(memo: dict, step, t: RootedTree):
    """``memo[t]``.  A miss fills the memo in one pass: every subtree missing
    from it, children before parents, gets ``step`` of itself, which finds
    its children's values in the memo.  So no call nests inside another,
    whatever the depth of t, and a hit walks nothing."""
    value = memo.get(t)
    if value is None:
        todo, stack = [], [t]  # missing subtrees in pre-order
        while stack:
            node = stack.pop()
            if node not in memo:
                todo.append(node)
                stack += node.children
        for node in reversed(todo):
            if node not in memo:  # unless an equal subtree came first
                memo[node] = step(node)
        value = memo[t]
    return value


_cut_memo: dict = {}


def _cut_coproduct_tree(t: RootedTree) -> HCKTensor:
    """Admissible-cut coproduct of one tree, via the grafting cocycle."""
    return _filled(_cut_memo, _cut_step, t)


def _cut_step(t: RootedTree) -> HCKTensor:
    inner = cut_coproduct(t.children)
    rows: dict = {((), (t,)): 1}
    for (left, right), c in inner.terms.items():
        add_term(rows, ((bplus(left),), right), c)
    return HCKTensor.adopt(rows)


def cut_coproduct(f: Forest) -> HCKTensor:
    """Admissible-cut coproduct: rooted remainder on the left, pruned
    forest on the right; multiplicative over forests."""
    return HCKTensor.product(map(_cut_coproduct_tree, f))


def _tree_edges(t: RootedTree) -> tuple[list[list[int]], list[int]]:
    """Explicit children lists and parent array, vertices in pre-order."""
    nodes = list(_vertices(t))
    children: list[list[int]] = [[] for _ in nodes]
    parent = [-1] * len(nodes)
    for v, node in enumerate(nodes):
        c = v + 1
        for kid in reversed(node.children):
            children[v].append(c)
            parent[c] = v
            c += kid.size
    return children, parent


def _subtree_from(children: list[list[int]], keep: set[int] | None, v: int) -> RootedTree:
    kids = [
        _subtree_from(children, keep, c)
        for c in children[v]
        if keep is None or c in keep
    ]
    return RootedTree(kids)


def cut_coproduct_oracle(t: RootedTree) -> HCKTensor:
    """Direct enumeration of admissible edge cuts; test oracle for the
    cocycle recursion."""
    children, parent = _tree_edges(t)
    n = len(parent)
    edges = [v for v in range(1, n)]  # edge v := (parent[v], v)

    def is_ancestor(a: int, b: int) -> bool:
        while b != -1:
            if b == a:
                return True
            b = parent[b]
        return False

    rows: dict = {((), (t,)): 1}
    for k in range(0, len(edges) + 1):
        for cut in itertools.combinations(edges, k):
            ok = True
            for a, b in itertools.combinations(cut, 2):
                if is_ancestor(a, b) or is_ancestor(b, a):
                    ok = False
                    break
            if not ok:
                continue
            cutset = set(cut)
            root_side: set[int] = set()
            stack = [0]
            while stack:
                v = stack.pop()
                root_side.add(v)
                for c in children[v]:
                    if c not in cutset:
                        stack.append(c)
            left = _subtree_from(children, root_side, 0)
            pruned = forest(_subtree_from(children, None, v) for v in cut)
            add_term(rows, ((left,), pruned), 1)
    return HCKTensor.adopt(rows)


def contract_coproduct_oracle(t: RootedTree) -> HCKTensor:
    """Direct enumeration of the 2^(n-1) kept-edge sets; test oracle for the
    post-order kernel.

    A partition of the vertices into connected blocks is a choice of kept
    edges; the left factor contracts each block, the right factor is the
    forest of blocks.
    """
    children, parent = _tree_edges(t)
    n = len(parent)
    edges = list(range(1, n))
    rows: dict = {}
    for bits in itertools.product((False, True), repeat=len(edges)):
        kept = {edges[i] for i in range(len(edges)) if bits[i]}
        top = list(range(n))  # representative: highest kept ancestor
        for v in range(1, n):
            if v in kept:
                top[v] = top[parent[v]]
        blocks: dict[int, list[int]] = {}
        for v in range(n):
            blocks.setdefault(top[v], []).append(v)

        block_trees = forest(
            _subtree_from(children, set(blocks[r]), r) for r in blocks
        )
        quotient_children: dict[int, list[int]] = {r: [] for r in blocks}
        for v in range(1, n):
            if v not in kept:
                quotient_children[top[parent[v]]].append(v)

        def qtree(r: int) -> RootedTree:
            return RootedTree(qtree(c) for c in quotient_children[r])

        left = qtree(0)
        add_term(rows, ((left,), block_trees), 1)
    return HCKTensor.adopt(rows)


def _merged(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(a + b))


@lru_cache(maxsize=None)
def _contract_coproduct_tree(t: RootedTree) -> HCKTensor:
    """Contraction-extraction coproduct of one tree, by one post-order pass.

    A partition of the vertices into connected blocks is a choice of kept
    edges; the left factor contracts each block, the right factor is the
    forest of blocks.  Each subtree gets a table of partial rows
    ``(qkids, okids, closed) -> count``: the quotient subtrees below the
    block that holds its root (the open block), the children of the open
    block, and the forest of closed blocks.  A kept child edge grafts the
    child's open block onto the parent's and pools the rest; a cut one closes
    the child's open block and hangs the child's quotient below the parent's.

    Within the call a tree is a number, interned by the sorted numbers of
    its children, so the keys are sorted tuples of ints that hash in O(1),
    and equal subtrees share one table.
    """
    ids: dict[tuple[int, ...], int] = {}

    def intern(kids: tuple[int, ...]) -> int:
        i = ids.get(kids)
        if i is None:
            i = ids[kids] = len(ids)
        return i

    # first pass: intern every subtree; in reverse pre-order a vertex's
    # children's ids top the stack
    stack: list[int] = []
    for node in reversed(list(_vertices(t))):
        cut = len(stack) - len(node.children)
        kids = tuple(sorted(stack[cut:]))
        del stack[cut:]
        stack.append(intern(kids))

    # per distinct subtree: (qkids, id of B[okids], id of B[qkids], closed,
    # count) rows, the open block and the quotient already closed up for the
    # parent; subtrees were interned before their parents
    tables: dict[int, list] = {}
    for kids, s in list(ids.items()):
        partial: dict = {((), (), ()): 1}
        for c in kids:
            folded: dict = {}
            for (q, o, closed), m in partial.items():
                for cq, co_id, cq_id, cclosed, cm in tables[c]:
                    both = _merged(closed, cclosed)
                    k = m * cm
                    # the edge to the child kept, then cut
                    key = (_merged(q, cq), _merged(o, (co_id,)), both)
                    folded[key] = folded.get(key, 0) + k
                    key = (_merged(q, (cq_id,)), o, _merged(both, (co_id,)))
                    folded[key] = folded.get(key, 0) + k
            partial = folded
        tables[s] = [
            (q, intern(o), intern(q), closed, m) for (q, o, closed), m in partial.items()
        ]

    trees: list[RootedTree] = []
    for kids in ids:  # children are interned before their parents
        trees.append(RootedTree(trees[i] for i in kids))
    counts: dict = {}
    for _, o_id, q_id, closed, m in tables[stack.pop()]:
        key = ((trees[q_id],), forest(trees[i] for i in closed + (o_id,)))
        counts[key] = counts.get(key, 0) + m
    return HCKTensor.adopt(counts)


def contract_coproduct(f: Forest) -> HCKTensor:
    """Contraction-extraction coproduct: contracted forest on the left,
    extracted subtrees on the right; multiplicative over forests."""
    return HCKTensor.product(map(_contract_coproduct_tree, f))


def counit_cut(e: HCKElem) -> int | Fraction:
    """Coefficient of the empty forest."""
    return e.coeff(())


def counit_contract(e: HCKElem) -> int | Fraction:
    """Character supported on forests of isolated vertices."""
    total = 0
    for f, c in e.terms.items():
        if all(t is LEAF or t == LEAF for t in f):
            total += c
    return total


TREE_SIDE = DoubleBialgebra(
    forest_mul,
    (contract_coproduct, lambda f: counit_contract(HCKElem.basis(f))),
    (cut_coproduct, lambda f: counit_cut(HCKElem.basis(f))),
)


# -- the polynomial invariant ---------------------------------------------


_order_poly_memo: dict = {}  # tree -> its polynomial in the binomial basis


def _order_poly_vec(t: RootedTree) -> tuple[int, ...]:
    return _filled(_order_poly_memo, _order_poly_step, t)


def _order_poly_step(t: RootedTree) -> tuple[int, ...]:
    """The summation operator, an index shift, on the children's product."""
    return (0, *_binomial_product(map(_order_poly_vec, t.children)))


def strict_order_poly(f: Forest) -> Poly:
    """Polynomial whose value at n counts strictly increasing maps from the
    forest poset to {1..n}; algebra map intertwining grafting with the
    summation operator; integer coefficients on binom(X, k), converted once."""
    return _from_binomial(_binomial_product(map(_order_poly_vec, f)))


def strict_order_poly_elem(e: HCKElem) -> Poly:
    """``strict_order_poly`` extended linearly, converted once."""
    return _from_binomial(
        _binomial_sum((c, _binomial_product(map(_order_poly_vec, f))) for f, c in e.terms.items())
    )
