"""Words in indeterminates X_0, X_1, ... as a graded operad.

A word is a nonempty tuple of naturals, the letter i standing for X_i.
The shift derivation sends X_i to X_{i+1}; composing a word of length n
with n arguments applies the i_k-fold shift to the k-th argument and
concatenates.  Grading: length, weight (letter sum) and degree
weight - length + 1; composition adds degrees.  One closed-form kernel,
``_shift_power``, takes the shift's powers up and down; the iterated
one-step derivation (``shift_up_power``, ``shift_down``) is its oracle.

The coproduct dual to composition lives in the tensor algebra over words:
each output row is (left word, ordered tuple of right words), the right
tuple being tensor slots separated by ``|``.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence

from .exact import multinomial
from .linear import LinComb, add_term

Word = tuple[int, ...]


class ArityError(ValueError):
    def __init__(self, expected: int, actual: int):
        super().__init__(f"arity mismatch: expected {expected} arguments, got {actual}")
        self.expected = expected
        self.actual = actual


def grading(w: Word) -> tuple[int, int, int]:
    """(length, weight, degree) of a word; degree may be negative."""
    n = len(w)
    omega = sum(w)
    return n, omega, omega - n + 1


class NCPoly(LinComb):
    """Linear combination of words; product is concatenation."""

    __slots__ = ()

    @staticmethod
    def key_mul(a: Word, b: Word) -> Word:
        return a + b

    @staticmethod
    def sort_key(key: Word):
        return (len(key), key)

    @staticmethod
    def format_key(key: Word) -> str:
        return "*".join(f"X{i}" for i in key)

    @classmethod
    def word(cls, letters) -> "NCPoly":
        w = tuple(int(i) for i in letters)
        if not w or any(i < 0 for i in w):
            raise ValueError(f"a word is a nonempty tuple of naturals, got {letters!r}")
        return cls.basis(w)


def _shift(p: NCPoly, step: int) -> NCPoly:
    """Derivation sending X_i to X_{i+step}, and to 0 where i + step < 0
    (Leibniz over letters)."""
    data: dict = {}
    for w, c in p.terms.items():
        for k, letter in enumerate(w):
            if letter + step >= 0:
                add_term(data, w[:k] + (letter + step,) + w[k + 1 :], c)
    return NCPoly.adopt(data)


def shift_up(p: NCPoly) -> NCPoly:
    """Derivation sending X_i to X_{i+1} (Leibniz over letters)."""
    return _shift(p, 1)


def shift_down(p: NCPoly) -> NCPoly:
    """Derivation sending X_0 to 0 and X_i to X_{i-1}; dual to shift_up."""
    return _shift(p, -1)


def shift_up_power(p: NCPoly, n: int) -> NCPoly:
    """The n-fold ``shift_up``, step by step: the oracle for ``_shift_power``."""
    for _ in range(n):
        p = shift_up(p)
    return p


def _compositions(total: int, caps: Sequence[int]):
    """Every tuple k of naturals with sum ``total`` and k[i] <= caps[i], in
    lexicographic order: stars and bars within the caps, each tuple made
    from the one before without recursion."""
    k = [0] * len(caps)
    rest = total
    while True:
        j = len(k)
        while rest and j:  # the free steps go as far back as the caps let them
            j -= 1
            k[j] = step = caps[j] if caps[j] < rest else rest
            rest -= step
        if rest:
            return
        yield tuple(k)
        i = len(k) - 1
        while i >= 0 and not (rest and k[i] < caps[i]):
            rest += k[i]
            k[i] = 0
            i -= 1
        if i < 0:
            return
        k[i] += 1  # the rightmost slot with room and steps after it takes one more
        rest -= 1


def _shift_power(p: NCPoly, n: int) -> NCPoly:
    """The n-th power of the shift, of the down-shift for n < 0: by the
    Leibniz rule, the sum over the splits k of |n| steps over a word's
    letters (letter i takes at most i steps down) with multinomial weights
    |n|!/(k_0! k_1! ...).  No step is ``p`` and one step is ``_shift``."""
    if n in (-1, 0, 1):
        return _shift(p, n) if n else p
    steps = abs(n)
    move = operator.add if n > 0 else operator.sub
    data: dict = {}
    for w, c in p.terms.items():
        for k in _compositions(steps, (steps,) * len(w) if n > 0 else w):
            add_term(data, tuple(map(move, w, k)), c * multinomial(k))
    return NCPoly.adopt(data)


def _as_ncpoly(arg) -> NCPoly:
    """A composition argument: a word polynomial, none of whose terms may be
    the empty word ``()``, or the letters of one word."""
    if not isinstance(arg, NCPoly):
        return NCPoly.word(arg)
    if () in arg.terms:
        raise ValueError("composition arguments must not hold the empty word")
    return arg


def compose(w: Word, args: Sequence) -> NCPoly:
    """Operadic composition: i_k-fold shift of the k-th argument, concatenated."""
    args = list(map(_as_ncpoly, args))
    if len(args) != len(w):
        raise ArityError(len(w), len(args))
    if not all(args):
        raise ValueError("composition arguments must be nonzero")
    return NCPoly.product(map(_shift_power, args, w))


def partial_compose(p: NCPoly, i: int, q: NCPoly) -> NCPoly:
    """Substitute ``q`` in slot ``i`` (1-based), identity elsewhere."""
    arities = {len(w) for w in p.terms}
    if len(arities) != 1:
        raise ValueError("partial composition needs a length-homogeneous element")
    n = arities.pop()
    if not 1 <= i <= n:
        raise ValueError(f"slot {i} out of range 1..{n}")
    args = [NCPoly.word((0,))] * n
    args[i - 1] = q
    return p.map_keys(lambda w: compose(w, args))


def brace(w: Word, args: Sequence) -> NCPoly:
    """Brace operation: the sum over increasing slot choices of the
    composition with the arguments in the chosen slots and X0 elsewhere;
    zero for more arguments than letters, the word itself for none."""
    args = list(map(_as_ncpoly, args))
    data: dict = {}
    for positions in itertools.combinations(range(len(w)), len(args)):
        slots = [NCPoly.basis((0,))] * len(w)
        for j, a in zip(positions, args):
            slots[j] = a
        for u, c in NCPoly.product(map(_shift_power, slots, w)).terms.items():
            add_term(data, u, c)
    return NCPoly.adopt(data)


def graded_dim(n: int, k: int) -> int:
    """Number of words of length n and degree k."""
    if n < 1:
        raise ValueError("length must be >= 1")
    if k < 1 - n:
        return 0
    return math.comb(2 * n + k - 2, n - 1)


def permute(w: Word, sigma: Sequence[int]) -> Word:
    """Right action: position p of the result holds letter w[sigma[p]] (0-based)."""
    if sorted(sigma) != list(range(len(w))):
        raise ValueError(f"sigma must be a permutation of range({len(w)}), got {list(sigma)!r}")
    return tuple(w[sigma[p]] for p in range(len(w)))


def block_permutation(sigma: Sequence[int], lengths: Sequence[int]) -> tuple[int, ...]:
    """Letter-level permutation induced by relabelling composition slots.

    Slot j holds ``lengths[j]`` letters and moves to slot ``sigma[j]``: its
    letters keep their order and follow those of every slot moved before it.
    The equivariance law permutes each word of a composition by the result.
    """
    n = len(lengths)
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"sigma must be a permutation of range({n}), got {list(sigma)!r}")
    moved = sorted(range(n), key=sigma.__getitem__)
    start = dict(zip(moved, itertools.accumulate((lengths[j] for j in moved), initial=0)))
    return tuple(start[j] + t for j, m in enumerate(lengths) for t in range(m))


WordTensor = dict[tuple[Word, tuple[Word, ...]], int | Fraction]


def word_coproduct(w: Word) -> WordTensor:
    """Coproduct dual to operadic composition, on one word.

    Rows are (left word, tuple of right tensor slots): split w into k
    contiguous blocks, apply the j_m-fold down-shift to block m, and record
    the word of shift orders on the left.  The down-shift is locally
    nilpotent: a block's table runs over the orders up to its letter sum.
    """
    rows: WordTensor = {}
    for k in range(len(w)):
        for cuts in itertools.combinations(range(1, len(w)), k):
            bounds = (0, *cuts, len(w))
            tables = [
                [(order, tuple(map(operator.sub, block, split)), multinomial(split))
                 for order in range(sum(block) + 1) for split in _compositions(order, block)]
                for block in (w[a:b] for a, b in zip(bounds, bounds[1:]))
            ]
            for choice in itertools.product(*tables):
                left, right, weights = zip(*choice)
                add_term(rows, (left, right), math.prod(weights))
    return rows


def pairing(p: NCPoly, q: NCPoly) -> Fraction:
    """Kronecker pairing making words an orthonormal family."""
    small, large = (p, q) if len(p.terms) <= len(q.terms) else (q, p)
    return sum(c * large.terms[w] for w, c in small.terms.items() if w in large.terms)
