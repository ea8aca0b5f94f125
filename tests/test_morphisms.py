import itertools
import math
import random
from fractions import Fraction

import pytest

from mindex import morphisms, trees
from mindex.bialgebra import (
    FOREST_SIDE,
    SElem,
    antipode,
    convolve,
    eps_sub_character,
    forest_mono,
    sub_coproduct,
)
from mindex.exact import Poly, bernoulli
from mindex.monomials import alpha_deg, alpha_factorial, alpha_len, trim
from mindex.morphisms import (
    antipode_via_mu,
    ds_solve,
    lift_coeff,
    mu_character,
    mu_value,
    poly_invariant,
    poly_invariant_fm,
    tree_lift,
    tree_lift_by_symmetry,
    tree_lift_elem,
    tree_lift_fm,
    tree_lift_is_morphism,
)
from mindex.linear import add_term, is_morphism
from mindex.selfcheck import alphas_up_to, law_lift_routes
from mindex.trees import (
    LEAF,
    TREE_SIDE,
    HCKElem,
    all_trees,
    bplus,
    corolla,
    fertility_monomial,
    ladder,
    plane_count,
    trees_with_monomial,
)

T_A = bplus([ladder(2), LEAF])
T_B = bplus([corolla(3)])


def corolla_monomial(n):
    return (1,) if n == 1 else trim([n - 1] + [0] * (n - 2) + [1])


def ladder_monomial(n):
    return (1,) if n == 1 else (1, n - 1)


def test_lift_coeff_table():
    table = {
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
    for a, want in table.items():
        assert lift_coeff(a) == want, a
    assert lift_coeff((5, 0, 1, 0, 1)) == Fraction(5, 2)
    assert lift_coeff((5, 0, 0, 2)) == Fraction(20, 3)


def test_tree_lift_fixtures():
    assert tree_lift((1,)) == HCKElem.tree(LEAF)
    assert tree_lift((1, 1)) == HCKElem.tree(ladder(2))
    assert tree_lift((2, 0, 1)) == HCKElem.tree(corolla(3))
    assert tree_lift((2, 1, 1)) == HCKElem.tree(T_A, 2) + HCKElem.tree(T_B)
    for n in range(1, 6):
        assert tree_lift(corolla_monomial(n)) == HCKElem.tree(corolla(n)), n
        assert tree_lift(ladder_monomial(n)) == HCKElem.tree(
            ladder(n), math.factorial(n - 1)
        ), n


def test_tree_lift_degree_obstruction():
    rng = random.Random(3)
    for _ in range(25):
        exps = [0] * 5
        for _ in range(rng.randint(1, 4)):
            exps[rng.randint(0, 4)] += 1
        a = trim(exps)
        if alpha_deg(a) != 0:
            assert tree_lift(a).is_zero(), a


def test_tree_lift_weighting_agreement_exhaustive():
    # plane counts times the lift coefficient against inverse symmetry
    # factors, on every degree-0 profile with at most six letters
    for a in alphas_up_to(6, 5):
        if alpha_deg(a) == 0:
            assert tree_lift(a) == tree_lift_by_symmetry(a), a


def test_poly_invariant_table():
    X = Poly.x()

    def lin(c1, c0):
        return Poly({1: c1, 0: c0})

    table = {
        (1, 1): lin(1, -1) * X * Fraction(1, 2),
        (2, 0, 1): lin(2, -1) * lin(1, -1) * X * Fraction(1, 6),
        (1, 2): lin(1, -1) * lin(1, -2) * X * Fraction(1, 3),
        (3, 0, 0, 1): lin(1, -1) ** 2 * X**2 * Fraction(1, 4),
        (2, 1, 1): lin(2, -1) * lin(1, -1) * lin(1, -2) * X * Fraction(1, 6),
        (1, 3): lin(1, -1) * lin(1, -2) * lin(1, -3) * X * Fraction(1, 4),
    }
    for a, want in table.items():
        for route in ("via-ck", "fixed-point", "direct"):
            assert poly_invariant(a, route) == want, (a, route)


def test_poly_invariant_rejects_bad_route():
    with pytest.raises(ValueError, match="unknown route 'nope'"):
        poly_invariant((1, 1), "nope")
    for f in ((), forest_mono([(1, 1)])):
        with pytest.raises(ValueError, match="unknown route 'nope'"):
            poly_invariant_fm(f, "nope")


def test_three_route_agreement_all_degree_zero():
    for a in alphas_up_to(9, 8):
        if alpha_deg(a) != 0:
            continue
        p1 = poly_invariant(a, "via-ck")
        p2 = poly_invariant(a, "fixed-point")
        p3 = poly_invariant(a, "direct")
        assert p1 == p2 == p3, a


def test_routes_off_degree_zero():
    # away from degree 0 the tree route vanishes with the lift; the other
    # two routes agree with each other (and happen to vanish as well)
    rng = random.Random(9)
    for _ in range(15):
        exps = [0] * 4
        for _ in range(rng.randint(1, 3)):
            exps[rng.randint(0, 3)] += 1
        a = trim(exps)
        if alpha_deg(a) == 0:
            continue
        assert poly_invariant(a, "via-ck").is_zero()
        assert poly_invariant(a, "fixed-point") == poly_invariant(a, "direct")


def test_mu_table():
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
    for a, want in table.items():
        assert mu_value(a) == want, a
        for route in ("via-ck", "fixed-point", "direct"):
            assert poly_invariant(a, route)(-1) == want, (a, route)


def test_mu_matches_fixed_point_invariant_at_minus_one():
    for a in alphas_up_to(4, 4):
        assert mu_value(a) == poly_invariant(a, "fixed-point")(-1), a


def test_mu_families():
    for n in range(1, 7):
        assert mu_value(ladder_monomial(n)) == (-1) ** n * math.factorial(n - 1), n
        assert mu_value(corolla_monomial(n)) == (-1) ** n, n


def test_mu_inverts_substitution_counit():
    conv = convolve(mu_character, eps_sub_character, "graft")
    conv2 = convolve(eps_sub_character, mu_character, "graft")
    for a in alphas_up_to(4, 4):
        assert conv.block(a) == 0, a
        assert conv2.block(a) == 0, a


def test_antipode_routes_agree():
    for a in alphas_up_to(4, 4):
        e = SElem.block(a)
        assert antipode_via_mu(e) == antipode(e), a
    f = forest_mono([(1,), (1,)])
    assert antipode_via_mu(SElem.basis(f)) == SElem.basis(f)
    g = forest_mono([(1, 1), (1,)])
    assert antipode_via_mu(SElem.basis(g)) == antipode(SElem.basis(g))


def test_closed_antipode_block_by_block_matches_the_forest_coproduct():
    """``antipode_via_mu`` multiplies the blocks' images under
    ``(mu x id) delta``; against mu fed into the left slot of the whole
    forest's substitution coproduct, on every two-block forest of at most
    5 letters with indices at most 2."""
    for a, b in itertools.combinations_with_replacement(list(alphas_up_to(4, 2)), 2):
        if alpha_len(a) + alpha_len(b) > 5:
            continue
        e = SElem.basis(forest_mono([a, b]))
        expected: dict = {}
        for (left, right), c in sub_coproduct(e).terms.items():
            v = mu_character.forest(left)
            if v:
                add_term(expected, right, c * v)
        got = antipode_via_mu(e).terms
        assert {f: (type(c), c) for f, c in got.items()} == {
            f: (type(c), c) for f, c in expected.items()
        }, (a, b)


def test_antipode_closed_fixtures():
    assert antipode_via_mu(SElem.block((1,))) == SElem.block((1,), -1)
    assert antipode_via_mu(SElem.block((1, 1))) == SElem(
        {forest_mono([(1, 1)]): -1, forest_mono([(1,), (1,)]): 1}
    )


def test_ds_solver_exponential_series():
    sol = ds_solve([Fraction(1, math.factorial(k)) for k in range(6)], 5)
    for a, elem in sol.entries.items():
        assert alpha_deg(a) == 0
        assert elem == tree_lift(a).scale(Fraction(1, alpha_factorial(a))), a
    assert len(sol.entries) == sum(
        1 for a in alphas_up_to(5, 4) if alpha_deg(a) == 0
    )


def test_ds_solver_symbolic_rationals():
    a0, a1, a2, a3 = Fraction(2), Fraction(3, 2), Fraction(5, 3), Fraction(7)
    sol = ds_solve([a0, a1, a2, a3], 4)
    assert sol.entries[(1,)] == HCKElem.tree(LEAF, a0)
    assert sol.entries[(1, 1)] == HCKElem.tree(ladder(2), a1 * a0)
    assert sol.entries[(1, 2)] == HCKElem.tree(ladder(3), a1 * a1 * a0)
    assert sol.entries[(2, 0, 1)] == HCKElem.tree(corolla(3), a2 * a0 * a0)
    assert sol.entries[(1, 3)] == HCKElem.tree(ladder(4), a1**3 * a0)
    assert sol.entries[(2, 1, 1)] == HCKElem.tree(T_A, 2 * a2 * a1 * a0**2) + HCKElem.tree(
        T_B, a2 * a1 * a0**2
    )
    assert sol.entries[(3, 0, 0, 1)] == HCKElem.tree(corolla(4), a3 * a0**3)


def test_ds_lines_follow_the_block_order():
    """Fewer letters first: x2*x0^2 before x1^3*x0, though (1, 3) < (2, 0, 1)."""
    assert ds_solve([1, 1, 1, 1], 4).lines() == [
        "x0\t1*B[]",
        "x1*x0\t1*B[B[]]",
        "x1^2*x0\t1*B[B[B[]]]",
        "x2*x0^2\t1*B[B[],B[]]",
        "x1^3*x0\t1*B[B[B[B[]]]]",
        "x2*x1*x0^2\t2*B[B[],B[B[]]] + 1*B[B[B[],B[]]]",
        "x3*x0^3\t1*B[B[],B[],B[]]",
    ]


def test_ds_truncated_coefficients_kill_high_fertility():
    sol = ds_solve([1, 1], 4)  # a_i = 0 for i >= 2: only ladders survive
    assert set(sol.entries) == {ladder_monomial(n) for n in range(1, 5)}
    for n in range(1, 5):
        assert sol.entries[ladder_monomial(n)] == HCKElem.tree(ladder(n))


def test_ds_plane_count_identity():
    rng = random.Random(13)
    coeffs = [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(5)]
    sol = ds_solve(coeffs, 5)
    for a, elem in sol.entries.items():
        factor = Fraction(1)
        for i, e in enumerate(a):
            factor *= coeffs[i] ** e
        want = HCKElem(
            [((t,), factor * plane_count(t)) for t in trees_with_monomial(a)]
        )
        assert elem == want, a


def _ds_reference(coeffs, max_vertices):
    """The Fraction recursion ``ds_solve`` replaced: a tree with root
    fertility r gets a_r * r!/prod(mult!) * prod(child coefficient^mult),
    grouped by fertility monomial, in ``all_trees`` order."""
    a = [Fraction(c) for c in coeffs]
    memo = {}

    def q(t):
        if t.enc not in memo:
            r = len(t.children)
            v = (a[r] if r < len(a) else 0) * math.factorial(r)
            for child, mult in t.child_multiplicities():
                v *= q(child) ** mult * Fraction(1, math.factorial(mult))
            memo[t.enc] = v
        return memo[t.enc]

    rows = {}
    for n in range(1, max_vertices + 1):
        for t in all_trees(n):
            if q(t):
                rows.setdefault(fertility_monomial(t), {})[(t,)] = q(t)
    return rows


DS_COEFFS = [
    [1, -1, 0, Fraction(1, 7), Fraction(1, 3)],
    [Fraction(-2, 3), 0, Fraction(5, 7), -4],
    [2, Fraction(-1, 3), Fraction(1, 21), 0, Fraction(7, 9)],
    [1, 1, Fraction(1, 2), Fraction(1, 6)],
    [Fraction(3, 7)],
    [0, 1],
    [],
]


@pytest.mark.parametrize("coeffs", DS_COEFFS)
def test_ds_integer_pass_matches_fraction_recursion(coeffs):
    for max_vertices in range(1, 10):
        sol = ds_solve(coeffs, max_vertices)
        assert sol.coeffs == tuple(Fraction(c) for c in coeffs)
        assert sol.max_vertices == max_vertices
        want = _ds_reference(coeffs, max_vertices)
        assert list(sol.entries) == list(want), max_vertices
        for a, elem in sol.entries.items():
            assert list(elem.terms.items()) == list(want[a].items()), (max_vertices, a)
            for c in elem.terms.values():
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def test_ds_reads_fertility_from_the_children(monkeypatch):
    """Design pin: ``ds_solve`` takes each tree's fertility monomial from its
    children's, so it walks no tree; with ``fertility_monomial`` made to
    raise, in ``trees`` and wherever ``morphisms`` might import it, every
    expansion still equals the reference."""
    wants = {
        (i, n): _ds_reference(coeffs, n)
        for i, coeffs in enumerate(DS_COEFFS)
        for n in range(1, 10)
    }

    def boom(t):
        raise AssertionError("fertility_monomial walked a tree")

    monkeypatch.setattr(trees, "fertility_monomial", boom)
    monkeypatch.setattr(morphisms, "fertility_monomial", boom, raising=False)
    for (i, n), want in wants.items():
        entries = ds_solve(DS_COEFFS[i], n).entries
        assert list(entries) == list(want), (i, n)
        for a, elem in entries.items():
            assert list(elem.terms.items()) == list(want[a].items()), (i, n, a)


def test_lift_is_double_morphism():
    for a in alphas_up_to(4, 3):
        if alpha_deg(a) == 0:
            assert tree_lift_is_morphism(a), a


def test_lift_negative_controls():
    """A perturbed lift breaks the morphism law, and a perturbed weighting
    breaks the lift-route comparison."""
    key = forest_mono([(1, 1)])

    def doubled(f):
        return tree_lift_fm(f).scale(2 if f == key else 1)

    assert not is_morphism(doubled, FOREST_SIDE, TREE_SIDE, key)

    def plane_only(a):  # drops the factorial ratio of lift_coeff
        return HCKElem([((t,), plane_count(t)) for t in trees_with_monomial(a)])

    with pytest.raises(AssertionError):
        law_lift_routes(random.Random(0), 3, reference=plane_only)


def test_lift_multiplicative_on_forests():
    e = SElem.basis(forest_mono([(1, 1), (1,)]))
    lifted = tree_lift_elem(e)
    assert lifted == HCKElem.basis((LEAF, ladder(2)))


def test_invariant_multiplicative_on_forests():
    f = forest_mono([(1, 1), (1,)])
    assert poly_invariant_fm(f) == poly_invariant((1, 1)) * poly_invariant((1,))


def test_faulhaber_identity_for_corolla_monomials():
    for n in range(1, 7):
        p = poly_invariant(corolla_monomial(n), "fixed-point")
        want = Poly.zero()
        for i in range(n):
            want = want + Poly.basis(
                n - i, Fraction((-1) ** i * math.comb(n, i)) * bernoulli(i)
            )
        assert p == want.scale(Fraction(1, n)), n
