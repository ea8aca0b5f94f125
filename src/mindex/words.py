"""Words in indeterminates X_0, X_1, ... as a graded operad.

A word is a nonempty tuple of naturals, the letter i standing for X_i.
The shift derivation sends X_i to X_{i+1}; composing a word of length n
with n arguments applies the i_k-fold shift to the k-th argument and
concatenates.  Grading: length, weight (letter sum) and degree
weight - length + 1; composition adds degrees.

The coproduct dual to composition lives in the tensor algebra over words:
each output row is (left word, ordered tuple of right words), the right
tuple being tensor slots separated by ``|``.
"""

from __future__ import annotations

import itertools
import math
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
    for _ in range(n):
        p = shift_up(p)
    return p


def _as_ncpoly(arg) -> NCPoly:
    if isinstance(arg, NCPoly):
        return arg
    return NCPoly.word(arg)


def compose(w: Word, args: Sequence) -> NCPoly:
    """Operadic composition: i_k-fold shift of the k-th argument, concatenated."""
    args = [_as_ncpoly(a) for a in args]
    if len(args) != len(w):
        raise ArityError(len(w), len(args))
    if any(a.is_zero() for a in args):
        raise ValueError("composition arguments must be nonzero")
    return NCPoly.product(shift_up_power(arg, letter) for letter, arg in zip(w, args))


def compose_multinomial(w: Word, arg_words: Sequence[Word]) -> NCPoly:
    """Closed multinomial form of ``compose`` on monomial arguments.

    Independent of the derivation path; kept as an internal oracle.
    """
    if len(arg_words) != len(w):
        raise ArityError(len(w), len(arg_words))
    return NCPoly.product(
        NCPoly.adopt({
            tuple(a + b for a, b in zip(u, split)): multinomial(split)
            for split in _compositions(letter, len(u))
        })
        for letter, u in zip(w, arg_words)
    )


def _compositions(total: int, slots: int):
    """All tuples of ``slots`` naturals summing to ``total``."""
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, slots - 1):
            yield (head,) + rest


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
    """Brace operation: sum over increasing slot choices of partial substitution.

    With k arguments and k > len(w) the sum is empty, hence zero; with
    k = 0 the word itself is returned.
    """
    args = [_as_ncpoly(a) for a in args]
    k = len(args)
    n = len(w)
    data: dict = {}
    for positions in itertools.combinations(range(n), k):
        chosen = dict(zip(positions, args))
        prod = NCPoly.product(
            shift_up_power(chosen[j], letter) if j in chosen else NCPoly.word((letter,))
            for j, letter in enumerate(w)
        )
        for w2, c2 in prod.terms.items():
            add_term(data, w2, c2)
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
    return tuple(w[sigma[p]] for p in range(len(w)))


def block_permutation(sigma: Sequence[int], lengths: Sequence[int]) -> tuple[int, ...]:
    """Letter-level permutation induced by relabelling composition slots.

    Slot j holds ``lengths[j]`` letters and moves to slot ``sigma[j]``: its
    letters keep their order and follow those of every slot moved before it.
    The equivariance law permutes each word of a composition by the result.
    """
    start = [0] * len(sigma)
    pos = 0
    for j in sorted(range(len(sigma)), key=lambda j: sigma[j]):
        start[j] = pos
        pos += lengths[j]
    return tuple(start[j] + t for j, n in enumerate(lengths) for t in range(n))


WordTensor = dict[tuple[Word, tuple[Word, ...]], int | Fraction]


def word_coproduct(w: Word) -> WordTensor:
    """Coproduct dual to operadic composition, on one word.

    Rows are (left word, tuple of right tensor slots): split w into k
    contiguous blocks, apply the j_m-fold down-shift to block m, and record
    the word of shift orders on the left.  The down-shift is locally
    nilpotent, so the row set is finite.
    """
    n = len(w)
    rows: WordTensor = {}
    for k in range(1, n + 1):
        for cuts in itertools.combinations(range(1, n), k - 1):
            bounds = (0,) + cuts + (n,)
            blocks = [w[bounds[m] : bounds[m + 1]] for m in range(k)]
            per_block: list[list[tuple[int, Word, int | Fraction]]] = []
            for block in blocks:
                options = []
                p = NCPoly.basis(block)
                order = 0
                while not p.is_zero():
                    for u, c in p.terms.items():
                        options.append((order, u, c))
                    p = shift_down(p)
                    order += 1
                per_block.append(options)
            for choice in itertools.product(*per_block):
                left = tuple(j for j, _, _ in choice)
                right = tuple(u for _, u, _ in choice)
                coeff = 1
                for _, _, c in choice:
                    coeff *= c
                add_term(rows, (left, right), coeff)
    return rows


def pairing(p: NCPoly, q: NCPoly) -> Fraction:
    """Kronecker pairing making words an orthonormal family."""
    small, large = (p, q) if len(p.terms) <= len(q.terms) else (q, p)
    return sum(c * large.terms[w] for w, c in small.terms.items() if w in large.terms)
