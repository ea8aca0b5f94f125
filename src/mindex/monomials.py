"""Commutative monomials in x_0, x_1, ...: the abelianization of words.

An exponent vector ("alpha") is a trimmed tuple of naturals, alpha[i] being
the exponent of x_i; the empty tuple is the unit marker and never appears
inside nonzero polynomial terms.  The module carries the derivations (one
kernel, ``_derive``, for the shifts and partials), the two pre-Lie products
with their multi-argument extensions, and the iterated reduced splitting
coproduct.  ``_shift_down_power_mono`` keeps the down-shift powers of each
monomial in one list, each one step of ``_derive`` from the power below it,
grown only as far as a caller asks.

It also holds the splitting kernels.  ``multiset_splits`` counts the set
partitions of a block's letters by multiset of k parts, in integers; the
graft coproduct, the fixed-point invariant and ``mu`` all read it.
``ordered_splits`` walks the ordered splits as integer vectors, with an
explicit stack, over the heads of each remainder that the memo ``_heads``
lists once for all calls; it serves the substitution coproduct,
``shuffle_splits`` and the graft oracle.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .linear import LinComb, add_term
from .words import NCPoly

Alpha = tuple[int, ...]


def trim(exps: Iterable[int]) -> Alpha:
    out = list(exps)
    while out and out[-1] == 0:
        out.pop()
    if any(e < 0 for e in out):
        raise ValueError(f"negative exponent in {tuple(exps)!r}")
    return tuple(out)


def unit_exp(i: int) -> Alpha:
    """The exponent vector of the single variable x_i."""
    return trim([0] * i + [1])


def alpha_len(a: Alpha) -> int:
    return sum(a)


def alpha_weight(a: Alpha) -> int:
    return sum(i * e for i, e in enumerate(a))


def alpha_deg(a: Alpha) -> int:
    if not a:
        raise ValueError("degree of the unit monomial is undefined")
    return alpha_weight(a) - alpha_len(a) + 1


def alpha_factorial(a: Alpha) -> int:
    out = 1
    for e in a:
        out *= math.factorial(e)
    return out


def alpha_mul(a: Alpha, b: Alpha) -> Alpha:
    """x^a x^b: the sum of the overlap, then the tail of the longer vector."""
    if len(a) < len(b):
        a, b = b, a
    return tuple(map(operator.add, a, b)) + a[len(b):]


def alpha_sub(a: Alpha, b: Alpha) -> Alpha:
    if len(b) > len(a) or any(b[i] > a[i] for i in range(len(b))):
        raise ValueError(f"{b} does not divide {a}")
    return trim(a[i] - (b[i] if i < len(b) else 0) for i in range(len(a)))


def alpha_key(a: Alpha):
    """The order monomials and the blocks of a forest print in: length
    first, then exponents lexicographically."""
    return (alpha_len(a), a)


def format_alpha(a: Alpha) -> str:
    if not a:
        return "1"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        if a[i] == 0:
            continue
        parts.append(f"x{i}" if a[i] == 1 else f"x{i}^{a[i]}")
    return "*".join(parts)


def submonomials(a: Alpha):
    """All divisors x^h of x^a, the unit included, each with its cofactor:
    ``(h, a - h)`` pairs, both trimmed, so no caller re-checks divisibility."""
    for h in itertools.product(*[range(e + 1) for e in a]):
        yield _trimmed(h), _trimmed(tuple(map(operator.sub, a, h)))


def _trimmed(exps: Alpha) -> Alpha:
    """``exps`` without its trailing zeros, unchecked: the caller knows
    every entry is a natural number."""
    n = len(exps)
    while n and not exps[n - 1]:
        n -= 1
    return exps[:n]


@lru_cache(maxsize=None)
def _heads(rest: Alpha) -> tuple:
    """(letters, head, remainder, trimmed remainder, binomial product) of
    every nonzero head of ``rest``, in ``itertools.product`` order: the
    heads of one remainder, listed once and shared by every walk of
    ``ordered_splits`` that reaches it."""
    out = []
    for head in itertools.product(*[range(e + 1) for e in rest]):
        n = sum(head)
        if n:
            rem = tuple([r - h for r, h in zip(rest, head)])
            b = math.prod(map(math.comb, rest, head))
            out.append((n, _trimmed(head), rem, _trimmed(rem), b))
    return tuple(out)


def ordered_splits(a: Alpha, parts: int):
    """Ordered decompositions of ``a`` into ``parts`` nonzero summands,
    paired with the multinomial coefficient a!/(a_1!...a_k!), an ``int``.

    A depth-first walk with an explicit stack, in ``itertools.product``
    order of each part over the remainder's exponent ranges.  The remainder
    is carried untrimmed, so a head divides it by construction and needs no
    check; the multinomial is carried down as a product of binomials
    C(rest_i, head_i).  The heads of each remainder, each trimmed once with
    its letter count and binomial product, are listed once by the memo
    ``_heads`` and shared by every call that reaches that remainder."""
    if parts < 1 or sum(a) < parts:
        return
    if parts == 1:
        yield (a,), 1
        return
    prefix: list = []
    # one entry per open part: its heads still to try, the letters left
    # and the multinomial of the parts before it
    stack = [(iter(_heads(a)), sum(a), 1)]
    while stack:
        entries, letters, mult = stack[-1]
        if len(stack) < parts - 1:
            most = letters - parts + len(stack)
            entry = next((x for x in entries if x[0] <= most), None)
            if entry is not None:
                n, part, rem, _, b = entry
                prefix.append(part)
                stack.append((iter(_heads(rem)), letters - n, mult * b))
                continue
        else:
            # the last two parts: every head but the whole remainder
            done = tuple(prefix)
            for n, part, _, last, b in entries:
                if n < letters:
                    yield done + (part, last), mult * b
        stack.pop()
        if prefix:
            prefix.pop()


@lru_cache(maxsize=None)
def multiset_splits(g: Alpha, k: int) -> tuple:
    """The splits of ``g`` into a multiset of k nonzero parts r_j, each with
    its number of set partitions of the letters of x^g into parts of those
    shapes, g!/(prod r_j! prod mult!), an ``int`` (the exponential formula,
    Stanley EC2 5.1).  Fix the first letter x_i of x^g: the part that holds
    it is some beta with beta_i > 0, whose other letters can be picked in
    C(g - e_i, beta - e_i) = beta_i C(g, beta)/g_i ways.  Returns (sorted
    parts, count) pairs as a tuple, shared by the cache.
    """
    if k == 0:
        return () if g else (((), 1),)
    if alpha_len(g) < k:
        return ()
    i = next(j for j, e in enumerate(g) if e)
    out: dict = {}
    for beta, rest in submonomials(g):
        if len(beta) <= i or not beta[i]:
            continue
        ways = beta[i] * math.prod(map(math.comb, g, beta)) // g[i]
        for f, c in multiset_splits(rest, k - 1):
            parts = tuple(sorted(f + (beta,)))
            out[parts] = out.get(parts, 0) + ways * c
    return tuple(out.items())


class CPoly(LinComb):
    """Polynomial without constant term in the commuting variables x_i."""

    __slots__ = ()

    key_mul = staticmethod(alpha_mul)

    @staticmethod
    def sort_key(key: Alpha):
        return alpha_key(key)

    format_key = staticmethod(format_alpha)

    @classmethod
    def variable(cls, i: int) -> "CPoly":
        return cls.basis(unit_exp(i))

    @classmethod
    def monomial(cls, a: Alpha) -> "CPoly":
        a = trim(a)
        if not a:
            raise ValueError("the unit monomial is not an element here")
        return cls.basis(a)


def abelianize(p: NCPoly) -> CPoly:
    """Letter-count image of a word polynomial; coefficients merge."""
    data: dict = {}
    for w, c in p.terms.items():
        exps = [0] * (max(w) + 1)
        for i in w:
            exps[i] += 1
        add_term(data, tuple(exps), c)
    return CPoly.adopt(data)


def _derive(p: CPoly, step: int, first: int = 0, stop: int | None = None) -> CPoly:
    """The derivation sending x_i to x_(i+step) (to the unit for step 0)
    for first <= i < stop and to 0 otherwise, x_0 to 0 when step is -1.
    Each term c x^a gives, for every such i with a_i > 0, c a_i x^b: b is a
    copy of a with a_i lowered and a_(i+step) raised, an integer vector."""
    first = max(first, -step)
    data: dict = {}
    for a, c in p.terms.items():
        for i, e in enumerate(a[first:stop], first):
            if e:
                b = [*a, 0]
                b[i] = e - 1
                if step:
                    b[i + step] += 1
                add_term(data, _trimmed(tuple(b)), c * e)
    return CPoly.adopt(data)


def shift_up(p: CPoly) -> CPoly:
    """The derivation sum over n of x_{n+1} d/dx_n."""
    return _derive(p, 1)


def shift_down(p: CPoly) -> CPoly:
    """The derivation sending x_0 to 0 and x_i to x_{i-1}."""
    return _derive(p, -1)


def partial(p: CPoly, i: int) -> CPoly:
    """d/dx_i."""
    return _derive(p, 0, i, i + 1)


def shift_up_power(p: CPoly, n: int) -> CPoly:
    for _ in range(n):
        p = shift_up(p)
    return p


_shift_down_memo: dict = {}


def _shift_down_power_mono(a: Alpha, n: int) -> CPoly:
    """D^n(x^a), D the down-shift.  The powers of x^a are kept in one list,
    extended only as far as a caller asks and ending at the first zero,
    each one step of the derivation kernel from the power below it."""
    powers = _shift_down_memo.get(a)
    if powers is None:
        powers = _shift_down_memo[a] = [CPoly.basis(a)]
    while len(powers) <= n and powers[-1]:
        powers.append(_derive(powers[-1], -1))
    return powers[min(n, len(powers) - 1)]


def prelie(p: CPoly, q: CPoly) -> CPoly:
    """Substitution pre-Lie product: apply the derivation x_n -> shift^n(q) to p."""
    acc = CPoly.zero()
    support = sorted({i for a in p.terms for i, e in enumerate(a) if e})
    for i in support:
        dp = partial(p, i)
        if dp:
            acc = acc + dp * shift_up_power(q, i)
    return acc


def prelie_multi(p: CPoly, args: Sequence[CPoly]) -> CPoly:
    """Symmetric-algebra extension of ``prelie`` to several arguments."""
    k = len(args)
    if k == 0:
        return p
    support = sorted({i for a in p.terms for i, e in enumerate(a) if e})
    acc = CPoly.zero()
    for orders in itertools.product(support, repeat=k):
        deriv = p
        for i in orders:
            deriv = partial(deriv, i)
            if deriv.is_zero():
                break
        if not deriv.is_zero():
            acc = acc + CPoly.product([deriv, *map(shift_up_power, args, orders)])
    return acc


def novikov(p: CPoly, q: CPoly) -> CPoly:
    """Novikov-style pre-Lie product shift(p) * q."""
    return shift_up(p) * q


def novikov_multi(p: CPoly, args: Sequence[CPoly]) -> CPoly:
    """Its multi-argument extension shift^k(p) * q_1 ... q_k."""
    return CPoly.product([shift_up_power(p, len(args)), *args])


SplitTensor = dict[tuple[Alpha, ...], int | Fraction]


def shuffle_splits(p: CPoly, n: int) -> SplitTensor:
    """Iterated reduced splitting into n+1 nonzero parts, with multinomials."""
    if n < 0:
        raise ValueError("the number of splits must be >= 0")
    rows: SplitTensor = {}
    for a, c in p.terms.items():
        if n == 0:
            add_term(rows, (a,), c)
            continue
        if alpha_len(a) < n + 1:
            continue
        for split, mult in ordered_splits(a, n + 1):
            add_term(rows, split, c * mult)
    return rows
