import math
import random
from fractions import Fraction

import pytest

from mindex.exact import (
    Poly,
    _binomial_product,
    _from_binomial,
    bernoulli,
    binomial_poly,
    indefinite_sum,
    multinomial,
)

X = Poly.x()


def test_multinomial_values():
    assert multinomial((1, 1)) == 2
    assert multinomial((0, 0, 0, 0)) == 1
    assert multinomial(()) == 1
    # oracle: direct factorial evaluation
    import math

    assert multinomial((2, 1, 1)) == math.factorial(4) // (2 * 1 * 1) == 12


def test_multinomial_rejects_negative():
    with pytest.raises(ValueError):
        multinomial((1, -1))


def test_binomial_poly_small():
    assert binomial_poly(0) == Poly.const(1)
    assert binomial_poly(1) == X
    assert binomial_poly(2) == Poly({2: Fraction(1, 2), 1: Fraction(-1, 2)})


def test_binomial_poly_values_match_binomials():
    import math

    for m in range(13):
        for n in range(m + 1):
            assert binomial_poly(n)(m) == math.comb(m, n)


def test_summation_operator_fixtures():
    assert indefinite_sum(Poly.const(1)) == X
    # oracle for L(X): partial sums 0 + 1 + ... + (n-1)
    lx = indefinite_sum(X)
    for n in range(1, 9):
        assert lx(n) == sum(range(n))
    assert lx == binomial_poly(2)
    assert indefinite_sum(X * X) == Poly(
        {3: Fraction(1, 3), 2: Fraction(-1, 2), 1: Fraction(1, 6)}
    )


def test_summation_law_random():
    import random

    rng = random.Random(7)
    for _ in range(10):
        p = Poly({e: rng.randint(-5, 5) for e in range(rng.randint(0, 6) + 1)})
        s = indefinite_sum(p)
        for n in range(1, 11):
            assert s(n) == sum(p(j) for j in range(n))
        assert s(-1) == -p(-1)
        assert s(0) == 0


def test_rota_baxter_weight_one():
    import random

    rng = random.Random(11)
    for _ in range(10):
        p = Poly({e: rng.randint(-4, 4) for e in range(rng.randint(0, 6) + 1)})
        q = Poly({e: rng.randint(-4, 4) for e in range(rng.randint(0, 6) + 1)})
        L = indefinite_sum
        assert L(p) * L(q) == L(L(p) * q) + L(p * L(q)) + L(p * q)


def test_cocycle_at_integers():
    p = Poly({2: 1, 0: Fraction(1, 3)})
    s = indefinite_sum(p)
    for k in range(1, 7):
        for l in range(1, 7):
            assert s(k + l) == s(l) + sum(p(j + l) for j in range(k))


def test_bernoulli_table():
    table = [
        1,
        Fraction(1, 2),
        Fraction(1, 6),
        0,
        Fraction(-1, 30),
        0,
        Fraction(1, 42),
        0,
        Fraction(-1, 30),
        0,
        Fraction(5, 66),
        0,
        Fraction(-691, 2730),
    ]
    for k, want in enumerate(table):
        assert bernoulli(k) == want


def _to_sympy(sympy, p: Poly, var):
    return sympy.Add(
        *(sympy.Rational(c.numerator, c.denominator) * var**e for e, c in p.terms.items())
    )


def test_indefinite_sum_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x, k = sympy.symbols("x k")
    rng = random.Random(0)
    for _ in range(25):
        degree = rng.randint(-1, 6)
        p = Poly({e: Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for e in range(degree + 1)})
        want = sympy.summation(_to_sympy(sympy, p, k), (k, 0, x - 1))
        assert sympy.expand(want - _to_sympy(sympy, indefinite_sum(p), x)) == 0


def _falling_binomial(n: int) -> Poly:
    """binom(X, n) as the product of its linear factors over n!."""
    falling = Poly.product(Poly({1: 1, 0: -i}) for i in range(n))
    return falling.scale(Fraction(1, math.factorial(n)))


def _sum_of_binomials(coeffs) -> Poly:
    return sum((_falling_binomial(n).scale(c) for n, c in enumerate(coeffs)), Poly.zero())


def test_binomial_kernel_product_matches_poly_products():
    """The integer product in the basis binom(X, n) against the product in
    powers of X, read back through ``binomial_coeffs``."""
    rng = random.Random(3)
    for _ in range(80):
        u = [rng.randint(-9, 9) for _ in range(rng.randint(1, 9))]
        v = [rng.randint(-9, 9) for _ in range(rng.randint(1, 9))]
        want = (_sum_of_binomials(u) * _sum_of_binomials(v)).binomial_coeffs()
        assert {n: c for n, c in enumerate(_binomial_product([u, v])) if c} == want, (u, v)
    assert tuple(_binomial_product([])) == (1,)


def test_binomial_conversion_matches_the_sum_of_binomial_polys():
    rng = random.Random(4)
    for _ in range(40):
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 12))]
        den = rng.randint(1, 12)
        want = _sum_of_binomials(coeffs).scale(Fraction(1, den))
        assert _from_binomial(coeffs, den) == want, (coeffs, den)
    for n in range(12):
        assert binomial_poly(n) == _falling_binomial(n)


def test_bernoulli_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for k in range(21):  # both with B_1 = +1/2
        want = sympy.bernoulli(k)
        assert bernoulli(k) == Fraction(int(want.p), int(want.q))


def test_poly_printing_and_json():
    p = Poly({3: Fraction(1, 6), 2: Fraction(-1, 2), 1: Fraction(1, 3)})
    assert str(p) == "1/6*X^3 - 1/2*X^2 + 1/3*X"
    assert p.to_json() == {"3": "1/6", "2": "-1/2", "1": "1/3"}
    assert str(Poly.zero()) == "0"
    assert str(Poly.const(-3)) == "-3"


def test_poly_eval_is_exact_at_negative_arguments():
    p = Poly({5: Fraction(1, 7), 1: Fraction(-2, 3)})
    assert p(-2) == Fraction(-32, 7) + Fraction(4, 3)


def test_poly_eval_matches_term_by_term_sums():
    """Evaluation against sum(c * v**e) in fractions, at integer, negative
    and fractional arguments and on the zero polynomial; an integral value
    comes back as an ``int`` and any other as a ``Fraction``."""
    rng = random.Random(3)
    polys = [Poly.zero()]
    for _ in range(150):
        degree = rng.randint(0, 7)
        polys.append(Poly({e: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                           for e in range(degree + 1) if rng.random() < 0.7}))
    values = [0, 1, 2, 9, -1, -4, Fraction(1, 2), Fraction(-7, 3), Fraction(10, 9)]
    for p in polys:
        for v in values:
            want = sum((c * Fraction(v) ** e for e, c in p.terms.items()), Fraction(0))
            got = p(v)
            assert got == want, (str(p), v)
            assert type(got) is (int if want.denominator == 1 else Fraction), (str(p), v)
    assert type(Poly.zero()(Fraction(1, 3))) is int
