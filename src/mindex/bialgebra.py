"""The double bialgebra of forest monomials.

A forest monomial is a multiset of nonzero exponent vectors ("blocks"),
stored as a tuple in plain sorted order; the empty tuple is the unit.
Blocks print in the order of ``monomials.alpha_key``, which is applied
only where a forest is formatted or terms are sorted for printing.  Two
coproducts live here:

* ``sub_coproduct`` (substitution type, dual to operadic composition):
  splits a block into parts, down-shifts each part and records the shift
  orders on the left, with a 1/beta! normalization.  The kernel reads the
  ordered splits but folds them by their multiset of parts, so each
  multiset is expanded once, from per-part tables of down-shift terms and
  a table of left blocks that every call shares; the expansion per
  ordered split is kept as ``sub_coproduct_block_oracle``;
* ``graft_coproduct`` (Hopf type, dual to the grafting product): splits a
  block x^a into a head x^h, k-fold down-shifted on the left, and a multiset
  of k nonzero parts bar-multiplied on the right.  The kernel sums over
  heads and k, ``C(a, h) D^k(x^h) (x)`` each multiset of parts of x^(a-h)
  times its set partitions as counted by ``monomials.multiset_splits``,
  so each multiset is visited once; the ordered-splits form weighted 1/k!
  is kept as ``graft_coproduct_block_oracle``.

Both extend multiplicatively to forests and make the space a double
bialgebra, described to the law kit of ``linear`` by ``FOREST_SIDE``; the
kit's ``cointeraction`` checks the defining identity in ``cointeraction_holds``.
``antipode`` is the antipode of the Hopf coproduct, the product over a
forest's blocks of each block's connected recursion.  The recursion reads
the graft rows' exponential formula, not the rows: it sums, over heads h
and part counts k, one memoised S(D^k(x^h)) times each multiset of parts,
so each block's graft coproduct is built only where a caller asks for it.
The CLI uses it, and the law suites check it against the closed formula
``morphisms.antipode_via_mu``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .linear import DoubleBialgebra, LinComb, Tensor, add_term, cointeraction
from .monomials import (
    Alpha,
    alpha_deg,
    alpha_key,
    alpha_len,
    alpha_weight,
    format_alpha,
    multiset_splits,
    ordered_splits,
    submonomials,
    _shift_down_power_mono,
)

ForestMono = tuple[Alpha, ...]

X0: Alpha = (1,)


def forest_mono(blocks) -> ForestMono:
    blocks = tuple(blocks)
    for b in blocks:
        if not b or not b[-1] or min(b) < 0:
            raise ValueError(f"forest blocks must be trimmed nonzero monomials, not {b!r}")
    return tuple(sorted(blocks))


def fm_mul(a: ForestMono, b: ForestMono) -> ForestMono:
    if not a:
        return b
    if not b:
        return a
    return tuple(sorted(a + b))


def fm_len(f: ForestMono) -> int:
    return sum(alpha_len(b) for b in f)


def fm_weight(f: ForestMono) -> int:
    return sum(alpha_weight(b) for b in f)


def fm_deg(f: ForestMono) -> int:
    return sum(alpha_deg(b) for b in f)


def format_fm(f: ForestMono) -> str:
    if not f:
        return "1"
    return " | ".join(format_alpha(b) for b in sorted(f, key=alpha_key))


def fm_key(f: ForestMono):
    return (len(f), tuple(sorted(map(alpha_key, f))))


class SElem(LinComb):
    """Linear combination of forest monomials; product is disjoint union."""

    __slots__ = ()

    key_mul = staticmethod(fm_mul)
    sort_key = staticmethod(fm_key)
    format_key = staticmethod(format_fm)

    @classmethod
    def block(cls, a: Alpha, coeff=1) -> "SElem":
        return cls.basis(forest_mono([a]), coeff)


def bar_product(a: SElem, b: SElem) -> SElem:
    """Commutative product of forest monomials, bilinear."""
    return a * b


class STensor(Tensor, slot=SElem):
    """Two-slot tensors of forest monomials."""

    __slots__ = ()

    def to_json(self):
        return [
            [str(c), *([format_alpha(b) for b in sorted(f, key=alpha_key)] for f in k)]
            for k, c in self.sorted_terms()
        ]


@lru_cache(maxsize=None)
def _sub_coproduct_block(a: Alpha) -> STensor:
    """Substitution coproduct of a single block.

    Sums over splittings of the block into k nonzero parts and shift orders
    n_1..n_k per part; the left factor is the single block recording the
    multiset of orders, normalized by 1/k! so that each order multiset is
    counted once per its stabilizer (equivalently, the 1/beta! form).

    A split's rows do not depend on the order of its parts: the left block
    counts orders, the right forest is sorted and the coefficient is a
    product.  So every ordered split is read, its multinomial summed on its
    multiset of parts, and each multiset expanded once, from each part's
    terms as ``_part_table`` lists them once for every call.  A multiset of
    k parts r_j with multiplicities m has k!/prod m! orderings of
    multinomial a!/prod r_j!, so their sum over k! is exact: the set
    partitions ``multiset_splits`` counts.  All rows are summed as integers
    in one dict; the left block has k letters, so rows of different k never
    meet.  The expansion per ordered split is kept as
    ``sub_coproduct_block_oracle``.
    """
    rows: dict = {}
    for k in range(1, alpha_len(a) + 1):
        folded: dict = {}
        for split, mult in ordered_splits(a, k):
            parts = tuple(sorted(split))
            folded[parts] = folded.get(parts, 0) + mult
        for parts, mult in folded.items():
            _expand_rows(rows, map(_part_table, parts), mult // math.factorial(k))
    return STensor.adopt(rows)


@lru_cache(maxsize=None)
def _part_table(part: Alpha) -> tuple:
    """``(order, mono, c)`` for each term c x^mono of each D^order(x^part),
    order 0 up to the weight of the part, the last nonzero power."""
    return tuple(
        (order, mono, c)
        for order in range(alpha_weight(part) + 1)
        for mono, c in _shift_down_power_mono(part, order).terms.items()
    )


@lru_cache(maxsize=None)
def _order_block(orders: tuple) -> ForestMono:
    """The left factor of a substitution row: the single block whose i-th
    exponent counts the parts of shift order i."""
    left = [0] * (max(orders) + 1)
    for order in orders:
        left[order] += 1
    return (tuple(left),)


def _expand_rows(counts: dict, per_slot, mult: int) -> None:
    """Add the positive integer ``mult * prod c`` to the row of each choice
    of one ``(order, mono, c)`` per slot: the left block counts the orders,
    read from ``_order_block``, the right forest is the sorted tuple of the
    monomials."""
    get = counts.get
    for choice in itertools.product(*per_slot):
        orders, monos, cs = zip(*choice)
        key = (_order_block(orders), tuple(sorted(monos)))
        counts[key] = get(key, 0) + mult * math.prod(cs)


def sub_coproduct_block_oracle(a: Alpha) -> STensor:
    """Substitution coproduct of a single block, expanded once per ordered
    split: each choice of a shift order and a down-shift term per part adds
    mult * prod c / k! to its row.  Test oracle for the multiset fold of
    ``_sub_coproduct_block``."""
    rows: dict = {}
    for k in range(1, alpha_len(a) + 1):
        counts: dict = {}
        for split, mult in ordered_splits(a, k):
            per_slot = [
                [
                    (order, mono, c)
                    for order in range(alpha_weight(part) + 1)
                    for mono, c in _shift_down_power_mono(part, order).terms.items()
                ]
                for part in split
            ]
            for choice in itertools.product(*per_slot):
                coeff = mult
                left = [0] * (max(order for order, _, _ in choice) + 1)
                for order, _, c in choice:
                    left[order] += 1
                    coeff *= c
                key = ((tuple(left),), forest_mono([m for _, m, _ in choice]))
                counts[key] = counts.get(key, 0) + coeff
        rows.update(STensor.adopt(counts).scale(Fraction(1, math.factorial(k))).terms)
    return STensor.adopt(rows)


@lru_cache(maxsize=None)
def _graft_coproduct_block(a: Alpha) -> STensor:
    """Hopf coproduct of a single block, by the exponential formula:

        Delta(x^a) = x^a (x) 1 + 1 (x) x^a
                     + sum_{0 != h < a} sum_{k >= 1} C(a, h) D^k(x^h) (x) E_k(a - h),

    D the down-shift, C(a, h) = a!/(h! (a - h)!) and E_k(g) the multisets
    of k parts of ``multiset_splits``, each counted by its set partitions.
    The right forest fixes k = its number of blocks and h = a minus their
    sum, so each row comes from one term of one D^k(x^h) and is written
    once, a positive ``int``: nothing is summed, cancelled or normalised.
    """
    rows: dict = {
        ((forest_mono([a])), ()): 1,
        ((), forest_mono([a])): 1,
    }
    for h, g in submonomials(a):
        if not h or not g:
            continue
        base = math.prod(map(math.comb, a, h))
        for k in range(1, alpha_len(g) + 1):
            image = _shift_down_power_mono(h, k).terms.items()
            if not image:
                break
            for right, count in multiset_splits(g, k):
                weight = base * count
                for mono, c in image:
                    rows[(mono,), right] = weight * c
    return STensor.adopt(rows)


def graft_coproduct_block_oracle(a: Alpha) -> STensor:
    """Hopf coproduct of a single block by its ordered splits, weighted 1/k!:
    the first piece k-fold down-shifted, the k others bar-multiplied.  Test
    oracle for the exponential formula of ``_graft_coproduct_block``."""
    rows: dict = {
        ((forest_mono([a])), ()): 1,
        ((), forest_mono([a])): 1,
    }
    for k in range(1, alpha_len(a)):
        inv_kfact = Fraction(1, math.factorial(k))
        for split, mult in ordered_splits(a, k + 1):
            head, rest = split[0], split[1:]
            image = _shift_down_power_mono(head, k)
            if image.is_zero():
                continue
            right = forest_mono(rest)
            for mono, c in image.terms.items():
                add_term(rows, ((mono,), right), mult * inv_kfact * c)
    return STensor.adopt(rows)


@lru_cache(maxsize=None)
def _block_coproduct_fm(f: ForestMono, which: str) -> STensor:
    block_fn = _sub_coproduct_block if which == "sub" else _graft_coproduct_block
    return STensor.product(map(block_fn, f))


def sub_coproduct(e: SElem) -> STensor:
    """Substitution coproduct, extended multiplicatively then linearly."""
    return e.map_keys(lambda f: _block_coproduct_fm(f, "sub"), target=STensor)


def graft_coproduct(e: SElem) -> STensor:
    """Hopf coproduct, extended multiplicatively then linearly."""
    return e.map_keys(lambda f: _block_coproduct_fm(f, "graft"), target=STensor)


def counit_sub(e: SElem) -> int | Fraction:
    """Character supported on powers of the single block x_0."""
    total = 0
    for f, c in e.terms.items():
        if all(b == X0 for b in f):
            total += c
    return total


def counit_graft(e: SElem) -> int | Fraction:
    """Coefficient of the empty forest."""
    return e.coeff(())


def antipode(e: SElem) -> SElem:
    """Antipode for the Hopf coproduct: an algebra map, as the forest product
    is commutative, so each forest goes to the product of its blocks' images."""
    return e.map_keys(lambda f: SElem.product(map(_antipode_block, f)))


@lru_cache(maxsize=None)
def _antipode_block(a: Alpha) -> SElem:
    """The connected recursion on x^a, grouped by the graft rows' heads:

        S(x^a) = -x^a - sum_{0 != h < a} sum_{k >= 1} C(a, h) S(D^k(x^h)) E_k(a - h),

    a row's right forest fixing h and k as in ``_graft_coproduct_block``,
    whose rows are not built; D^k(x^h) is zero once k passes the weight of
    h.  ``_antipode_down`` holds each S(D^k(x^h)), summed once for every
    block that reads it, and every split of E_k multiplies it once.  Every
    coefficient is an ``int``, so the terms are summed in a plain dict; the
    sums can cancel, and the exact zeros are dropped once at the end."""
    data: dict = {(a,): -1}
    get = data.get
    for h, g in submonomials(a):
        if not h or not g:
            continue
        base = math.prod(map(math.comb, a, h))
        for k in range(1, min(alpha_len(g), alpha_weight(h)) + 1):
            down = _antipode_down(h, k)
            for right, count in multiset_splits(g, k):
                weight = base * count
                for s, cs in down:
                    # fm_mul of two nonempty forests
                    key = tuple(sorted(s + right))
                    data[key] = get(key, 0) - weight * cs
    return SElem.adopt({key: c for key, c in data.items() if c})


@lru_cache(maxsize=None)
def _antipode_down(h: Alpha, k: int) -> tuple:
    """S(D^k(x^h)) as ``(forest, int)`` pairs: the sum of c S(x^mono) over
    the terms c x^mono of the down-shift, each a block of fewer letters
    than any block that reads it.  Every c is positive and every term of
    an antipode on a forest of m blocks has the sign (-1)^m, so no sum is
    zero."""
    data: dict = {}
    get = data.get
    for mono, c in _shift_down_power_mono(h, k).terms.items():
        for s, cs in _antipode_block(mono).terms.items():
            data[s] = get(s, 0) + c * cs
    return tuple(data.items())


class Character:
    """Algebra map to the rationals, fixed by its values on single blocks.

    Values are computed lazily, and memoised only where ``on_block`` is;
    the generating family of blocks is infinite, so no table is
    materialized.
    """

    def __init__(self, on_block: Callable[[Alpha], int | Fraction]):
        self._on_block = on_block

    def block(self, a: Alpha) -> int | Fraction:
        return self._on_block(a)

    def forest(self, f: ForestMono) -> int | Fraction:
        out = 1
        for b in f:
            out *= self.block(b)
            if not out:
                break
        return out

    def __call__(self, e: SElem) -> int | Fraction:
        return sum(c * self.forest(f) for f, c in e.terms.items())


eps_sub_character = Character(lambda a: 1 if a == X0 else 0)
eps_graft_character = Character(lambda a: 0)


def convolve(f: Character, g: Character, which: str = "graft") -> Character:
    """Convolution product of characters for the chosen coproduct."""
    if which not in ("graft", "sub"):
        raise ValueError("which must be 'graft' or 'sub'")
    block_fn = _graft_coproduct_block if which == "graft" else _sub_coproduct_block

    @lru_cache(maxsize=None)
    def on_block(a: Alpha) -> int | Fraction:
        total = 0
        for (left, right), c in block_fn(a).terms.items():
            fl = f.forest(left)
            if fl:
                total += c * fl * g.forest(right)
        return total

    return Character(on_block)


FOREST_SIDE = DoubleBialgebra(
    fm_mul,
    (lambda f: _block_coproduct_fm(f, "sub"), lambda f: counit_sub(SElem.basis(f))),
    (lambda f: _block_coproduct_fm(f, "graft"), lambda f: counit_graft(SElem.basis(f))),
)


def cointeraction_holds(e: SElem) -> bool:
    """Cointeraction of the two coproducts on each forest of e, counit half included."""
    return all(cointeraction(FOREST_SIDE, f) for f in e.terms)
