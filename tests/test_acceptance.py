"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS line on success (run with ``-s`` or
``--capture=no`` to see them; any failure shows up as a normal pytest
failure with the offending instance).
"""

import itertools
import math
import random
from fractions import Fraction

from mindex import bialgebra as B
from mindex import monomials as M
from mindex import morphisms as Mo
from mindex import trees as T
from mindex import words as W
from mindex.bialgebra import SElem, STensor, forest_mono
from mindex.exact import Poly, bernoulli
from mindex.linear import add_term
from mindex.monomials import alpha_deg, alpha_factorial, trim
from mindex.selfcheck import SUITES, alphas_up_to, run_selfcheck
from mindex.trees import HCKElem, LEAF, bplus, corolla, ladder
from mindex.words import NCPoly

w = NCPoly.word
X = Poly.x()
T_A = bplus([ladder(2), LEAF])
T_B = bplus([corolla(3)])


def _ok(n, text):
    print(f"criterion {n:02d} PASS: {text}")


def lin(c1, c0):
    return Poly({1: Fraction(c1), 0: Fraction(c0)})


def quad(c2, c1, c0):
    return Poly({2: Fraction(c2), 1: Fraction(c1), 0: Fraction(c0)})


def corolla_monomial(n):
    return (1,) if n == 1 else trim([n - 1] + [0] * (n - 2) + [1])


def ladder_monomial(n):
    return (1,) if n == 1 else (1, n - 1)


def test_criterion_01_composition_fixtures():
    for i, j, k, l, m in itertools.product(range(3), repeat=5):
        assert W.compose((i,), [w((j,))]) == w((i + j,))
        assert W.compose((i, j), [w((k,)), w((l,))]) == w((i + k, j + l))
        want = NCPoly.zero()
        for i1 in range(i + 1):
            want = want + NCPoly.basis(
                (k + i1, l + i - i1, m + j), math.comb(i, i1)
            )
        assert W.compose((i, j), [w((k, l)), w((m,))]) == want, (i, j, k, l, m)
        want = NCPoly.zero()
        for j1 in range(j + 1):
            want = want + NCPoly.basis(
                (k + i, l + j1, m + j - j1), math.comb(j, j1)
            )
        assert W.compose((i, j), [w((k,)), w((l, m))]) == want, (i, j, k, l, m)
    assert W.compose((1, 0), [w((1, 0)), w((0,))]) == w((2, 0, 0)) + w((1, 1, 0))
    assert W.compose((1, 0), [w((0,)), w((1, 0))]) == w((1, 1, 0))
    _ok(1, "Example 2.1 identities on {0,1,2}^5 and the two Novikov compositions")


def test_criterion_02_dimension_table():
    table = {
        1: [0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
        2: [0, 0, 0, 1, 2, 3, 4, 5, 6, 7],
        3: [0, 0, 1, 3, 6, 10, 15, 21, 28, 36],
        4: [0, 1, 4, 10, 20, 35, 56, 84, 120, 165],
        5: [1, 5, 15, 35, 70, 126, 210, 330, 495, 715],
    }
    for n, row in table.items():
        assert [W.graded_dim(n, k) for k in range(-4, 6)] == row, n
    for n in range(1, 5):
        for k in range(-4, 5):
            omega = k + n - 1
            count = 0
            if omega >= 0:
                count = sum(
                    1
                    for t in itertools.product(range(omega + 1), repeat=n)
                    if sum(t) == omega
                )
            assert W.graded_dim(n, k) == count, (n, k)
            if k >= 1 - n:
                assert count == math.comb(2 * n + k - 2, n - 1), (n, k)
    for n in range(1, 9):
        assert W.graded_dim(n, 0) == math.comb(2 * n - 2, n - 1)
    _ok(2, "graded dimension table, brute-force counts and the middle column")


def _expected_word_coproduct(letters):
    rows: dict = {}
    if len(letters) == 1:
        (m,) = letters
        for i in range(m + 1):
            add_term(rows, (((i,), ((m - i,),))), Fraction(1))
    elif len(letters) == 2:
        m, n = letters
        for i in range(m + 1):
            for j in range(n + 1):
                add_term(
                    rows, ((i + j,), ((m - i, n - j),)), Fraction(math.comb(i + j, i))
                )
                add_term(rows, ((i, j), ((m - i,), (n - j,))), Fraction(1))
    else:
        m, n, p = letters
        for i in range(m + 1):
            for j in range(n + 1):
                for k in range(p + 1):
                    add_term(
                        rows,
                        ((i + j + k,), ((m - i, n - j, p - k),)),
                        Fraction(
                            math.factorial(i + j + k)
                            // (math.factorial(i) * math.factorial(j) * math.factorial(k))
                        ),
                    )
                    add_term(
                        rows,
                        ((i + j, k), ((m - i, n - j), (p - k,))),
                        Fraction(math.comb(i + j, i)),
                    )
                    add_term(
                        rows,
                        ((i, j + k), ((m - i,), (n - j, p - k))),
                        Fraction(math.comb(j + k, j)),
                    )
                    add_term(rows, ((i, j, k), ((m - i,), (n - j,), (p - k,))), Fraction(1))
    return rows


def test_criterion_03_coproduct_fixtures():
    for m in range(3):
        assert W.word_coproduct((m,)) == _expected_word_coproduct((m,)), m
    for m, n in itertools.product(range(3), repeat=2):
        assert W.word_coproduct((m, n)) == _expected_word_coproduct((m, n)), (m, n)
    for m, n, p in itertools.product(range(3), repeat=3):
        assert W.word_coproduct((m, n, p)) == _expected_word_coproduct((m, n, p)), (m, n, p)

    def var(i):
        return (M.unit_exp(i),) if i >= 0 else None

    def expected_graft(idx):
        rows: dict = {}
        a = trim(_counts(idx))
        add_term(rows, (forest_mono([a]), ()), Fraction(1))
        add_term(rows, ((), forest_mono([a])), Fraction(1))
        if len(idx) == 2:
            i, j = idx
            for first, second in ((i, j), (j, i)):
                if first >= 1:
                    add_term(
                        rows,
                        (var(first - 1), forest_mono([M.unit_exp(second)])),
                        Fraction(1),
                    )
        elif len(idx) == 3:
            i, j, k = idx
            for first, others in ((i, (j, k)), (j, (i, k)), (k, (i, j))):
                if first >= 1:
                    add_term(
                        rows,
                        (var(first - 1), forest_mono([trim(_counts(others))])),
                        Fraction(1),
                    )
                if first >= 2:
                    add_term(
                        rows,
                        (
                            var(first - 2),
                            forest_mono([M.unit_exp(others[0]), M.unit_exp(others[1])]),
                        ),
                        Fraction(1),
                    )
            # two-letter left factors: x_{a-1}x_b (x) x_c over position choices
            for p1, p2, p3 in _position_triples(idx):
                if p1 >= 1:
                    left = trim(_counts((p1 - 1, p2)))
                    add_term(
                        rows,
                        (forest_mono([left]), forest_mono([M.unit_exp(p3)])),
                        Fraction(1),
                    )
        return rows

    def _counts(idx):
        out = [0] * (max(idx) + 1)
        for i in idx:
            out[i] += 1
        return out

    def _position_triples(idx):
        i, j, k = idx
        return [
            (j, k, i),
            (k, j, i),
            (i, k, j),
            (k, i, j),
            (i, j, k),
            (j, i, k),
        ]

    for i in range(3):
        assert B.graft_coproduct(SElem.block(M.unit_exp(i))) == STensor(
            {(forest_mono([M.unit_exp(i)]), ()): 1, ((), forest_mono([M.unit_exp(i)])): 1}
        )
    for i, j in itertools.combinations_with_replacement(range(3), 2):
        got = B.graft_coproduct(SElem.block(trim(_counts((i, j)))))
        assert got == STensor(expected_graft((i, j))), (i, j)
    for i, j, k in itertools.combinations_with_replacement(range(3), 3):
        got = B.graft_coproduct(SElem.block(trim(_counts((i, j, k)))))
        assert got == STensor(expected_graft((i, j, k))), (i, j, k)
    _ok(3, "closed coproduct forms on one, two and three letters, indices <= 2")


def test_criterion_04_tree_lift_fixtures():
    assert Mo.tree_lift((1,)) == HCKElem.tree(LEAF)
    assert Mo.tree_lift((1, 1)) == HCKElem.tree(ladder(2))
    assert Mo.tree_lift((2, 0, 1)) == HCKElem.tree(corolla(3))
    assert Mo.tree_lift((2, 1, 1)) == HCKElem.tree(T_A, 2) + HCKElem.tree(T_B)
    for n in range(1, 6):
        assert Mo.tree_lift(corolla_monomial(n)) == HCKElem.tree(corolla(n))
        assert Mo.tree_lift(ladder_monomial(n)) == HCKElem.tree(
            ladder(n), math.factorial(n - 1)
        )
    checked = 0
    for a in alphas_up_to(6, 5):
        if alpha_deg(a) == 0:
            assert Mo.tree_lift(a) == Mo.tree_lift_by_symmetry(a), a
            checked += 1
    assert checked == 19
    _ok(4, "tree lift fixtures and weighting agreement on all 19 profiles, length <= 6")


def test_criterion_05_coefficient_tables():
    c_table = {
        (1,): 1,
        (1, 1): 1,
        (2, 0, 1): 1,
        (1, 2): 2,
        (3, 0, 0, 1): 1,
        (2, 1, 1): 1,
        (1, 3): 6,
        (4, 0, 0, 0, 1): 1,
        (3, 1, 0, 1): 1,
        (3, 0, 2): 3,
        (2, 2, 1): 2,
        (1, 4): 24,
    }
    for a, v in c_table.items():
        assert Mo.lift_coeff(a) == v, a
    assert Mo.lift_coeff((5, 0, 1, 0, 1)) == Fraction(5, 2)
    assert Mo.lift_coeff((5, 0, 0, 2)) == Fraction(20, 3)
    p_table = [
        (LEAF, 1),
        (ladder(2), 1),
        (corolla(3), 1),
        (ladder(3), 1),
        (corolla(4), 1),
        (T_A, 2),
        (T_B, 1),
        (ladder(4), 1),
        (bplus([ladder(2), LEAF, LEAF]), 3),
        (bplus([corolla(3), LEAF]), 2),
        (bplus([ladder(3), LEAF]), 2),
    ]
    assert len(p_table) == 11
    for t, p in p_table:
        assert T.plane_count(t) == p, t
    for n in range(1, 8):
        for t in T.all_trees(n):
            s, p, m = T.tree_stats(t)
            assert alpha_factorial(m) % s == 0, t
            assert Mo.lift_coeff(m) * p * s == alpha_factorial(m), t
    _ok(5, "coefficient and plane-count tables; divisibility and product identity to 7 vertices")


def test_criterion_06_polynomial_invariants():
    ck_table = [
        (LEAF, X),
        (ladder(2), lin(1, -1) * X * Fraction(1, 2)),
        (corolla(3), lin(2, -1) * lin(1, -1) * X * Fraction(1, 6)),
        (ladder(3), lin(1, -1) * lin(1, -2) * X * Fraction(1, 6)),
        (corolla(4), lin(1, -1) ** 2 * X**2 * Fraction(1, 4)),
        (T_A, lin(3, -1) * lin(1, -1) * lin(1, -2) * X * Fraction(1, 24)),
        (T_B, lin(1, -1) ** 2 * lin(1, -2) * X * Fraction(1, 12)),
        (ladder(4), lin(1, -1) * lin(1, -2) * lin(1, -3) * X * Fraction(1, 24)),
    ]
    assert len(ck_table) == 8
    for t, want in ck_table:
        assert T.strict_order_poly((t,)) == want, t
    mi_table = [
        ((1, 1), lin(1, -1) * X * Fraction(1, 2)),
        ((2, 0, 1), lin(2, -1) * lin(1, -1) * X * Fraction(1, 6)),
        ((1, 2), lin(1, -1) * lin(1, -2) * X * Fraction(1, 3)),
        ((3, 0, 0, 1), lin(1, -1) ** 2 * X**2 * Fraction(1, 4)),
        ((2, 1, 1), lin(2, -1) * lin(1, -1) * lin(1, -2) * X * Fraction(1, 6)),
        ((1, 3), lin(1, -1) * lin(1, -2) * lin(1, -3) * X * Fraction(1, 4)),
        ((4, 0, 0, 0, 1), quad(3, -3, -1) * lin(2, -1) * lin(1, -1) * X * Fraction(1, 30)),
        ((3, 1, 0, 1), quad(42, -39, -1) * lin(1, -1) * lin(1, -2) * X * Fraction(1, 120)),
        ((3, 0, 2), quad(8, -11, 1) * lin(1, -1) * lin(1, -2) * X * Fraction(1, 20)),
        ((2, 2, 1), lin(11, -29) * lin(2, -1) * lin(1, -1) * lin(1, -2) * X * Fraction(1, 60)),
        ((1, 4), lin(1, -1) * lin(1, -2) * lin(1, -3) * lin(1, -4) * X * Fraction(1, 5)),
    ]
    assert len(mi_table) == 11
    for a, want in mi_table:
        assert Mo.poly_invariant(a, "via-ck") == want, a
    # power-sum values: the invariant at n sums the powers below n, matching
    # the displayed polynomials (triangular and square-pyramidal sequences)
    p_sq = Mo.poly_invariant((2, 0, 1))
    p_tri = Mo.poly_invariant((1, 1))
    for n in range(1, 11):
        assert p_sq(n) == sum(j * j for j in range(n))
        assert p_tri(n) == n * (n - 1) // 2
    for n in range(1, 7):
        p = Mo.poly_invariant(corolla_monomial(n))
        want = Poly.zero()
        for i in range(n):
            want = want + Poly.basis(
                n - i, Fraction((-1) ** i * math.comb(n, i)) * bernoulli(i)
            )
        assert p == want.scale(Fraction(1, n)), n
    _ok(6, "both polynomial tables, power-sum spot checks, Faulhaber with the Bernoulli table")


def test_criterion_07_three_route_agreement():
    checked = 0
    for a in alphas_up_to(5, 4):
        if alpha_deg(a) != 0:
            continue
        p1 = Mo.poly_invariant(a, "via-ck")
        p2 = Mo.poly_invariant(a, "fixed-point")
        p3 = Mo.poly_invariant(a, "direct")
        assert p1 == p2 == p3, a
        checked += 1
    assert checked == 12
    _ok(7, "three-route agreement on all 12 degree-0 profiles with length <= 5")


def test_criterion_08_mu_fixtures():
    table = {
        (1, 1): 1,
        (2, 0, 1): -1,
        (1, 2): -2,
        (3, 0, 0, 1): 1,
        (2, 1, 1): 3,
        (1, 3): 6,
        (4, 0, 0, 0, 1): -1,
        (3, 1, 0, 1): -4,
        (3, 0, 2): -6,
        (2, 2, 1): -12,
        (1, 4): -24,
    }
    assert len(table) == 11
    for a, v in table.items():
        assert Mo.mu_value(a) == v, a
        for route in ("via-ck", "fixed-point", "direct"):
            assert Mo.poly_invariant(a, route)(-1) == v, (a, route)
    for n in range(1, 7):
        assert Mo.mu_value(ladder_monomial(n)) == (-1) ** n * math.factorial(n - 1)
        assert Mo.mu_value(corolla_monomial(n)) == (-1) ** n
    _ok(8, "inverse-character table, both families, fixed point equals value at -1")


def test_criterion_09_antipode():
    for a in alphas_up_to(4, 4):
        e = SElem.block(a)
        assert Mo.antipode_via_mu(e) == B.antipode(e), a
        acc = SElem.zero()
        for (l, r), c in B.graft_coproduct(e).terms.items():
            acc = acc + B.antipode(SElem.basis(l)).scale(c) * SElem.basis(r)
        assert acc == SElem.one(B.counit_graft(e)), a
    _ok(9, "closed antipode equals the recursion and the convolution law, 125 monomials")


def test_criterion_10_dyson_schwinger():
    a0, a1, a2, a3 = Fraction(2), Fraction(3, 2), Fraction(5, 3), Fraction(7)
    sol = Mo.ds_solve([a0, a1, a2, a3], 4)
    assert sol.entries[(1,)] == HCKElem.tree(LEAF, a0)
    assert sol.entries[(1, 1)] == HCKElem.tree(ladder(2), a1 * a0)
    assert sol.entries[(1, 2)] == HCKElem.tree(ladder(3), a1**2 * a0)
    assert sol.entries[(2, 0, 1)] == HCKElem.tree(corolla(3), a2 * a0**2)
    assert sol.entries[(1, 3)] == HCKElem.tree(ladder(4), a1**3 * a0)
    assert sol.entries[(2, 1, 1)] == HCKElem.tree(T_A, 2 * a2 * a1 * a0**2) + HCKElem.tree(
        T_B, a2 * a1 * a0**2
    )
    assert sol.entries[(3, 0, 0, 1)] == HCKElem.tree(corolla(4), a3 * a0**3)
    assert len(sol.entries) == 7
    exp_sol = Mo.ds_solve([Fraction(1, math.factorial(k)) for k in range(6)], 5)
    for a, elem in exp_sol.entries.items():
        assert elem == Mo.tree_lift(a).scale(Fraction(1, alpha_factorial(a))), a
    rng = random.Random(0)
    coeffs = [Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(5)]
    sol = Mo.ds_solve(coeffs, 5)
    for a, elem in sol.entries.items():
        factor = Fraction(1)
        for i, e in enumerate(a):
            factor *= coeffs[i] ** e
        assert elem == HCKElem(
            [((t,), factor * T.plane_count(t)) for t in T.trees_with_monomial(a)]
        ), a
    _ok(10, "fixed-point expansion fixtures, exponential identity through 5 vertices")


def test_criterion_11_structural_law_suites():
    failures = []
    for seed in range(5):
        for name, ok, msg in run_selfcheck(seed, 4):
            if not ok:
                failures.append((seed, name, msg))
    for name, ok, msg in run_selfcheck(0, 3):
        if not ok:
            failures.append(("size3", name, msg))
    assert not failures, failures
    _ok(11, f"all {len(SUITES)} law suites pass for seeds 0-4 at size 4 (and size 3)")
