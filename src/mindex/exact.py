"""Exact rational arithmetic: univariate polynomials, the binomial basis,
the summation operator and Bernoulli numbers.

Polynomials are sparse ``exponent -> coefficient`` maps with no degree
bound.  A private kernel holds an integer-valued polynomial as integer
coefficients on ``binom(X, n)`` and converts a result to powers of X once;
there ``indefinite_sum`` (``P(n) = p(0) + ... + p(n-1)``, a weight-1
Rota-Baxter operator) is an index shift.  Basis changes and evaluation run
on integers over one common denominator, a value an ``int`` when integral.
Bernoulli numbers follow the convention with ``B_1 = +1/2``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .linear import LinComb, _exact, add_term


def multinomial(parts: Sequence[int]) -> int:
    """(sum parts)! / prod(part!), exactly."""
    total = 0
    out = 1
    for p in parts:
        if p < 0:
            raise ValueError(f"multinomial parts must be nonnegative, got {p}")
        total += p
        out *= math.comb(total, p)
    return out


class Poly(LinComb):
    """Univariate polynomial in X over the rationals, as a sparse map."""

    __slots__ = ()

    unit_key = 0

    @staticmethod
    def key_mul(a: int, b: int) -> int:
        return a + b

    @staticmethod
    def sort_key(key: int):
        return -key

    @staticmethod
    def format_key(key: int) -> str:
        if key == 0:
            return "1"
        if key == 1:
            return "X"
        return f"X^{key}"

    @classmethod
    def const(cls, value) -> "Poly":
        return cls({0: value})

    @classmethod
    def x(cls) -> "Poly":
        return cls({1: 1})

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.terms, default=-1)

    def __call__(self, value) -> int | Fraction:
        """The value at n/q in normal form (an ``int`` when integral): sum
        c_e n^e q^(d-e) by integer Horner on the common denominator den,
        divided once by den q^d."""
        if type(value) is not int:
            value = Fraction(value)
        n, q = value.numerator, value.denominator
        scaled, den = _scaled(self)
        acc, qk = 0, 1  # qk = q^k at the k-th coefficient from the top
        for c in scaled:
            acc = acc * n + c * qk
            qk *= q
        return _exact(Fraction(acc * q, den * qk))  # qk = q^(d+1) here

    def binomial_coeffs(self) -> dict[int, Fraction]:
        """Coefficients in the basis binom(X, n), via finite differences at 0."""
        out: dict[int, Fraction] = {}
        diffs, den = _differences(self)
        for n, diff in enumerate(diffs):
            add_term(out, n, Fraction(diff, den))
        return out

    def to_json(self) -> dict[str, str]:
        return {str(e): str(c) for e, c in self.sorted_terms()}


def binomial_poly(n: int) -> Poly:
    """binom(X, n) = X(X-1)...(X-n+1)/n!; the constant 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _from_binomial([0] * n + [1])


def _scaled(p: Poly) -> tuple[list[int], int]:
    """``(scaled, den)``: the coefficients of ``p`` times ``den``, the lcm
    of their denominators, as ints by descending power of X, for Horner."""
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    scaled = [0] * (p.degree() + 1)
    for e, c in p.terms.items():
        scaled[-1 - e] = c.numerator * (den // c.denominator)
    return scaled, den


def _differences(p: Poly) -> tuple[list[int], int]:
    """``(diffs, den)`` with ``diffs[n] / den`` the n-th forward difference
    of ``p`` at 0, for n up to the degree: one difference table over the
    values p(0), ..., p(d), all scaled by the common denominator ``den``."""
    scaled, den = _scaled(p)
    values = []
    for j in range(len(scaled)):
        v = 0
        for c in scaled:
            v = v * j + c
        values.append(v)
    diffs = []
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return diffs, den


def indefinite_sum(p: Poly) -> Poly:
    """The unique polynomial P with P(n) = p(0) + ... + p(n-1) for n >= 1:
    ``sum_n c_n binom(X, n + 1)`` for the coefficients ``c_n`` of ``p`` in
    the basis ``binom(X, n)``, so an index shift in that basis."""
    diffs, den = _differences(p)
    return _from_binomial([0] + diffs, den)


def _binomial_product(factors: Iterable[Sequence[int]]) -> Sequence[int]:
    """The product of coefficient lists, ``(1,)`` if there is none:
    binom(X, m) binom(X, n) is sum_k C(m+n-k, m) C(m, k) binom(X, m+n-k),
    each weight the one before times (m-k)(n-k) / ((k+1)(m+n-k)), exactly."""
    factors = iter(factors)
    out = next(factors, (1,))
    for v in factors:
        u, out = out, [0] * (len(out) + len(v) - 1)
        for m, um in enumerate(u):
            if um:
                for n, vn in enumerate(v):
                    if vn:
                        j = m + n
                        c = um * vn * math.comb(j, m)
                        for k in range(min(m, n)):
                            out[j - k] += c
                            c = c * (m - k) * (n - k) // ((k + 1) * (j - k))
                        out[j - min(m, n)] += c
    return out


def _binomial_sum(terms: Iterable[tuple[int, Sequence[int]]]) -> list:
    """The sum of ``c * coeffs`` over the ``(c, coeffs)`` pairs."""
    out = [0]
    for c, coeffs in terms:
        out.extend([0] * (len(coeffs) - len(out)))
        for n, x in enumerate(coeffs):
            out[n] += c * x
    return out


def _from_binomial(coeffs: Sequence[int], den: int = 1) -> Poly:
    """``sum_n coeffs[n] binom(X, n) / den`` in powers of X, over ``den * top!``
    (``top`` the last index): ``coeffs[n] top!/n!`` times the falling factorial
    ``X(X-1)...(X-n+1)``, all integers, each row built from the one before."""
    top = len(coeffs) - 1
    num = [0] * (top + 1)  # by ascending power of X
    falling = [1]  # X(X-1)...(X-n+1) by ascending power, from n = 0
    for n, c in enumerate(coeffs):
        if c:
            weight = c * math.perm(top, top - n)  # times top!/n!
            for e, f in enumerate(falling):
                num[e] += weight * f
        falling = [lo - n * hi for lo, hi in zip([0] + falling, falling + [0])]
    total = den * math.factorial(top)
    return Poly({e: Fraction(c, total) for e, c in enumerate(num)})


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k in the B_1 = +1/2 convention."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    s = sum(math.comb(k + 1, j) * bernoulli(j) for j in range(k))
    return Fraction(k + 1 - s, k + 1)
