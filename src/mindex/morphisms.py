"""Bridges between multi-indices, rooted trees and polynomials.

``tree_lift`` sends a degree-0 monomial to the sum of all trees with that
fertility profile, with integer weights ``lift_coeff`` times plane counts;
the law suites compare it with ``tree_lift_by_symmetry``, the independent
weighting by inverse symmetry factors.  ``poly_invariant`` computes the
fundamental polynomial invariant by three routes, on integers in the basis
binom(X, n): through the tree lift, through a summation fixed point, and
from the iterated reduced coproduct of a block.  Its values at -1 give the
character inverting the substitution counit, which in turn yields the
closed antipode formula, computed block by block; it is the oracle of the
block-wise recursion ``bialgebra.antipode``, which the CLI uses.
``ds_solve`` expands the grafting fixed-point series of a coefficient
sequence in one pass over the trees in size order, which reads each tree's
coefficient and fertility monomial from its children's, found by identity
in the shared lists of ``all_trees``, and walks no tree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .bialgebra import (
    Character,
    FOREST_SIDE,
    ForestMono,
    SElem,
    X0,
    _sub_coproduct_block,
    forest_mono,
)
from .exact import Poly, _binomial_product, _binomial_sum, _from_binomial
from .linear import add_term, is_morphism
from .monomials import (
    Alpha,
    alpha_deg,
    alpha_factorial,
    alpha_key,
    alpha_sub,
    alpha_weight,
    format_alpha,
    multiset_splits,
    trim,
    unit_exp,
    _shift_down_power_mono,
)
from .trees import (
    TREE_SIDE,
    HCKElem,
    all_trees,
    format_forest,
    plane_count,
    strict_order_poly_elem,
    symmetry_factor,
    trees_with_monomial,
)

ROUTES = ("via-ck", "fixed-point", "direct")


def lift_coeff(a: Alpha) -> Fraction:
    """prod(a_i!) / prod(i!^{a_i}); not always an integer."""
    a = trim(a)
    if not a:
        raise ValueError("unit monomial has no lift coefficient")
    num = alpha_factorial(a)
    den = 1
    for i, e in enumerate(a):
        den *= math.factorial(i) ** e
    return Fraction(num, den)


@lru_cache(maxsize=None)
def tree_lift(a: Alpha) -> HCKElem:
    """Weighted sum of trees with fertility monomial x^a; zero off degree 0.

    Each tree is weighted by ``lift_coeff(a)`` times its plane count, which
    is a!/sym(t), an integer: Aut(t) acts faithfully on the vertices and keeps
    each fertility class, so it is a subgroup of prod S_{a_i}.  The law suites
    compare this with ``tree_lift_by_symmetry``.
    """
    a = trim(a)
    if not a:
        raise ValueError("unit monomial does not lift")
    if alpha_deg(a) != 0:
        return HCKElem.zero()
    c = lift_coeff(a)
    return HCKElem.adopt(
        {(t,): c.numerator * plane_count(t) // c.denominator for t in trees_with_monomial(a)}
    )


def tree_lift_by_symmetry(a: Alpha) -> HCKElem:
    """Reference weighting of the tree lift: a!/sym(t) on each tree t with
    fertility monomial x^a."""
    a = trim(a)
    fact = alpha_factorial(a)
    return HCKElem(
        [((t,), Fraction(fact, symmetry_factor(t))) for t in trees_with_monomial(a)]
    )


def tree_lift_fm(f: ForestMono) -> HCKElem:
    return HCKElem.product(map(tree_lift, f))


def tree_lift_elem(e: SElem) -> HCKElem:
    return e.map_keys(tree_lift_fm, target=HCKElem)


# -- the polynomial invariant, three ways ----------------------------------


@lru_cache(maxsize=None)
def _invariant_fixed_point(a: Alpha) -> tuple[int, ...]:
    """Extract the x^a coefficient of the summation fixed-point series, as
    integer coefficients on binom(X, k).

    The x^gamma coefficient of (sum_beta P_beta x^beta/beta!)^i / i! is
    the sum of count/gamma! * prod_{b in f} P_b over (f, count) in
    ``multiset_splits(gamma, i)``; with gamma = a - e_i, a!/gamma! = a_i.
    Integer counts and a shift for the summation keep every coefficient an integer.
    """
    inner = _binomial_sum(
        (e * count, _binomial_product(map(_invariant_fixed_point, f)))
        for i, e in enumerate(a)
        if e
        for f, count in multiset_splits(alpha_sub(a, unit_exp(i)), i)
    )
    return (0, *inner)


def _invariant_direct(a: Alpha) -> Poly:
    """Iterated-coproduct formula: the counit words of step k weigh binom(X, k).
    A block coproduct's left factors are blocks, so the state counts blocks,
    and only the rows whose right forest is k copies of x_0 feed the next
    step.  In the exponential formula of ``_graft_coproduct_block`` those
    are the rows of h = b - k e_0: C(b_0, k) D^k(x^h), for 1 <= k <= b_0,
    nonzero while k is at most h's weight, which is b's.  So each step reads
    the down-shift powers of its blocks, and no block coproduct is built."""
    state: dict[Alpha, int] = {a: 1}
    hits = [0]
    while state:
        hits.append(state.get(X0, 0))
        nxt: dict[Alpha, int] = {}
        for b, c in state.items():
            b0, tail = b[0], b[1:]
            for k in range(1, min(b0, alpha_weight(b)) + 1):
                w = c * math.comb(b0, k)
                for mono, cm in _shift_down_power_mono((b0 - k, *tail), k).terms.items():
                    add_term(nxt, mono, w * cm)
        state = nxt
    return _from_binomial(hits)


def poly_invariant(a: Alpha, route: str = "via-ck") -> Poly:
    """Fundamental polynomial invariant of the monomial x^a."""
    a = trim(a)
    if not a:
        raise ValueError("unit monomial has no invariant here")
    if route == "via-ck":
        return strict_order_poly_elem(tree_lift(a))
    if route == "fixed-point":
        return _from_binomial(_invariant_fixed_point(a))
    if route == "direct":
        return _invariant_direct(a)
    raise ValueError(f"unknown route {route!r}; choose from {ROUTES}")


def poly_invariant_fm(f: ForestMono, route: str = "via-ck") -> Poly:
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; choose from {ROUTES}")
    return Poly.product(poly_invariant(block, route) for block in f)


# -- the inverse character and the closed antipode --------------------------


@lru_cache(maxsize=None)
def mu_value(a: Alpha) -> int:
    """Value at x^a of the convolution inverse of the substitution counit.

    Computed from the sign-flipped fixed point, with the same sums over
    ``multiset_splits`` as ``_invariant_fixed_point``; the law suites check
    it against the invariant evaluated at -1.  Each term weighs the count
    of ``multiset_splits`` by a_i, so by induction every value is an integer.
    """
    a = trim(a)
    if not a:
        raise ValueError("characters take value 1 on the unit; pass a monomial")
    total = 0
    for i, e in enumerate(a):
        if not e:
            continue
        for f, count in multiset_splits(alpha_sub(a, unit_exp(i)), i):
            total += e * count * math.prod(map(mu_value, f))
    return -total


mu_character = Character(mu_value)


def antipode_via_mu(e: SElem) -> SElem:
    """Closed antipode: feed mu into the left slot of the substitution
    coproduct.  ``(mu x id) delta`` is an algebra map, as ``delta`` is
    multiplicative and mu a character, so each forest goes to the product
    of its blocks' images and no forest-level coproduct is built."""
    return e.map_keys(lambda f: SElem.product(map(_antipode_via_mu_block, f)))


def _antipode_via_mu_block(a: Alpha) -> SElem:
    """``(mu x id) delta`` of the single block x^a.  The rows and the values
    of mu are ``int``s, so the terms are summed in a plain dict; the sums can
    cancel, and the exact zeros are dropped once at the end."""
    data: dict = {}
    get = data.get
    for (left, right), c in _sub_coproduct_block(a).terms.items():
        v = mu_character.forest(left)
        if v:
            data[right] = get(right, 0) + c * v
    return SElem.adopt({key: c for key, c in data.items() if c})


# -- Dyson-Schwinger expansion ----------------------------------------------


@dataclass
class DSSolution:
    """Tree coefficients of the grafting fixed-point series, grouped by the
    monomial recording each tree's fertility profile."""

    coeffs: tuple[Fraction, ...]
    max_vertices: int
    entries: dict[Alpha, HCKElem]

    def lines(self) -> list[str]:
        out = []
        for a in sorted(self.entries, key=alpha_key):
            elem = self.entries[a]
            body = " + ".join(
                (f"{c}*{format_forest(f)}" for f, c in elem.sorted_terms())
            )
            out.append(f"{format_alpha(a)}\t{body}")
        return out

    def to_json(self):
        return {
            format_alpha(a): [
                [str(c), format_forest(f)] for f, c in self.entries[a].sorted_terms()
            ]
            for a in sorted(self.entries, key=alpha_key)
        }


def ds_solve(coeffs: Sequence, max_vertices: int) -> DSSolution:
    """Expand the grafting fixed point through the given vertex count.

    ``coeffs`` is the driving coefficient sequence, zero beyond its end;
    a tree with root fertility r gets a_r * r!/(multiplicities!) times its
    children's coefficients.  With ``den`` the common denominator of the
    a_r, ``den^size`` times that is an integer, computed in one pass over
    ``all_trees`` in size order (children first).  Each child of a listed
    tree is the very object listed in ``all_trees(child.size)``, so the
    table of known trees is keyed by ``id`` and a run of equal children is
    a run of one object; the j-th copy in a run multiplies by the child's
    coefficient and divides by j, which is exact, as r!/(m_1! ... m_i! j!)
    is an integer.  A tree's fertility counts are e_r plus each child's,
    read from the same table, which holds only the trees with a nonzero
    coefficient: a tree with a child missing from it is zero and is skipped
    without a walk.  The lists stay cached in ``all_trees`` for the whole
    call, so no id is reused.
    """
    if max_vertices < 1:
        raise ValueError("max_vertices must be >= 1")
    a = tuple(Fraction(c) for c in coeffs)
    den = math.lcm(*(c.denominator for c in a))
    nums = [c.numerator * (den // c.denominator) for c in a]
    known: dict = {}  # id(tree) -> (den^size * coefficient, fertility counts), nonzero only
    rows: dict[Alpha, dict] = {}  # distinct trees, so no key repeats
    for n in range(1, max_vertices + 1):
        den_n = den**n
        width = min(n, len(nums))  # no fertility of a nonzero tree reaches len(nums)
        for t in all_trees(n):
            kids = t.children
            r = len(kids)
            if r >= len(nums) or not nums[r]:
                continue
            v = nums[r] * math.factorial(r)
            counts = [0] * width  # nor n: no vertex has more than n - 1 children
            counts[r] = 1
            prev = None
            for child in kids:
                if child is prev:
                    run += 1
                    v = v * cv // run
                else:
                    got = known.get(id(child))
                    if got is None:  # a child with coefficient zero
                        break
                    cv, child_counts = got
                    v *= cv
                    run, prev = 1, child
                for m, e in enumerate(child_counts):
                    counts[m] += e
            else:
                while not counts[-1]:  # stops at the leaves' count
                    counts.pop()
                mono = tuple(counts)
                known[id(t)] = (v, mono)
                add_term(rows.setdefault(mono, {}), (t,), Fraction(v, den_n))
    entries = {key: HCKElem.adopt(terms) for key, terms in rows.items()}
    return DSSolution(coeffs=a, max_vertices=max_vertices, entries=entries)


# -- morphism checks ---------------------------------------------------------


def tree_lift_is_morphism(a: Alpha) -> bool:
    """Check that the lift intertwines both coproduct pairs on x^a."""
    return is_morphism(tree_lift_fm, FOREST_SIDE, TREE_SIDE, forest_mono([trim(a)]))
