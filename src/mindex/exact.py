"""Exact rational arithmetic: univariate polynomials, the binomial basis,
the summation operator and Bernoulli numbers.

Polynomials are sparse ``exponent -> Fraction`` maps with no degree bound.
``indefinite_sum`` (the discrete antiderivative ``p -> P`` with
``P(n) = p(0) + ... + p(n-1)``) is computed in the binomial-coefficient
basis ``binom(X, n)``, where it is a plain index shift; it is a weight-1
Rota-Baxter operator.  Bernoulli numbers follow the convention with
``B_1 = +1/2``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .linear import LinComb


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
        return cls({0: Fraction(value)})

    @classmethod
    def x(cls, exponent: int = 1) -> "Poly":
        return cls({exponent: 1})

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return max(self.terms, default=-1)

    def __call__(self, value) -> Fraction:
        value = Fraction(value)
        return sum((c * value**e for e, c in self.terms.items()), Fraction(0))

    def binomial_coeffs(self) -> dict[int, Fraction]:
        """Coefficients in the basis binom(X, n), via finite differences at 0."""
        out: dict[int, Fraction] = {}
        for n in range(self.degree() + 1):
            c = sum(
                (-1) ** (n - j) * math.comb(n, j) * self(j) for j in range(n + 1)
            )
            if c:
                out[n] = c
        return out

    def to_json(self) -> dict[str, str]:
        return {str(e): str(c) for e, c in self.sorted_terms()}


def binomial_poly(n: int) -> Poly:
    """binom(X, n) = X(X-1)...(X-n+1)/n!; the constant 1 for n = 0."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    falling = Poly.product(Poly({1: 1, 0: -i}) for i in range(n))
    return falling.scale(Fraction(1, math.factorial(n)))


def indefinite_sum(p: Poly) -> Poly:
    """The unique polynomial P with P(n) = p(0) + ... + p(n-1) for n >= 1."""
    acc = Poly.zero()
    for n, c in p.binomial_coeffs().items():
        acc = acc + binomial_poly(n + 1).scale(c)
    return acc


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """Bernoulli number B_k in the B_1 = +1/2 convention."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    s = sum(math.comb(k + 1, j) * bernoulli(j) for j in range(k))
    return Fraction(k + 1 - s, k + 1)
