"""Randomized and exhaustive law suites, runnable from the CLI.

Each suite is a function of (rng, size) raising AssertionError on the
first violated law instance; the runner turns those into FAIL lines, and
any other exception into an ERROR line.
Sizes cap lengths and letter indices; spec-level bounds that are tighter
than the requested size stay in force, so the suites remain fast.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from . import bialgebra as B
from . import monomials as M
from . import morphisms as Mo
from . import parsing
from . import trees as T
from . import words as W
from .exact import Poly, bernoulli, binomial_poly, indefinite_sum
from .linear import _exact, antipode_law, coassociative, cointeraction, counital, graded
from .monomials import CPoly, alpha_deg, alpha_factorial, alpha_len, alpha_weight
from .trees import HCKElem, HCKTensor, RootedTree
from .words import NCPoly


# -- random generators -------------------------------------------------------


def rand_poly(rng: random.Random) -> Poly:
    return Poly({e: Fraction(rng.randint(-4, 4)) for e in range(rng.randint(0, 6) + 1)})


def rand_word(rng: random.Random, size: int) -> W.Word:
    return tuple(rng.randint(0, size) for _ in range(rng.randint(1, max(1, size))))


def rand_ncpoly(rng: random.Random, size: int) -> NCPoly:
    out = NCPoly.zero()
    for _ in range(rng.randint(1, 2)):
        out = out + NCPoly.basis(rand_word(rng, size), rng.randint(1, 3))
    return out


def rand_alpha(rng: random.Random, size: int, max_weight: int | None = None) -> M.Alpha:
    while True:
        n = rng.randint(1, max(1, size))
        exps = [0] * (size + 1)
        for _ in range(n):
            exps[rng.randint(0, size)] += 1
        a = M.trim(exps)
        if max_weight is None or alpha_weight(a) <= max_weight:
            return a


def rand_cpoly(rng: random.Random, size: int) -> CPoly:
    out = CPoly.zero()
    for _ in range(rng.randint(1, 2)):
        out = out + CPoly.basis(rand_alpha(rng, size), rng.randint(1, 3))
    return out


def rand_character(rng: random.Random, size: int) -> B.Character:
    table = {
        rand_alpha(rng, size): _exact(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
        for _ in range(3)
    }
    return B.Character(lambda a: table.get(a, 0))


def alphas_up_to(max_len: int, max_idx: int):
    for n in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(range(max_idx + 1), n):
            exps = [0] * (max(combo) + 1)
            for i in combo:
                exps[i] += 1
            yield tuple(exps)


def trees_up_to(max_vertices: int):
    for n in range(1, max_vertices + 1):
        yield from T.all_trees(n)


# -- exact --------------------------------------------------------------------


def law_rota_baxter(rng, size, sum_op=indefinite_sum):
    for _ in range(8):
        p, q = rand_poly(rng), rand_poly(rng)
        lhs = sum_op(p) * sum_op(q)
        rhs = sum_op(sum_op(p) * q) + sum_op(p * sum_op(q)) + sum_op(p * q)
        assert lhs == rhs, f"Rota-Baxter fails for p={p}, q={q}"


def law_summation(rng, size):
    for _ in range(8):
        p = rand_poly(rng)
        s = indefinite_sum(p)
        for n in range(1, 11):
            assert s(n) == sum(p(j) for j in range(n)), (str(p), n)


def law_eval_minus_one(rng, size):
    for _ in range(8):
        p = rand_poly(rng)
        assert indefinite_sum(p)(-1) == -p(-1), str(p)


def law_sum_cocycle(rng, size):
    for _ in range(4):
        p = rand_poly(rng)
        s = indefinite_sum(p)
        for k in range(1, 7):
            for l in range(1, 7):
                assert s(k + l) == s(l) + sum(p(j + l) for j in range(k)), (str(p), k, l)


def law_binomial_values(rng, size):
    for m in range(13):
        for n in range(m + 1):
            assert binomial_poly(n)(m) == math.comb(m, n), (m, n)


def law_faulhaber(rng, size):
    for n in range(1, 9):
        rhs = Poly.zero()
        for i in range(n):
            rhs = rhs + Poly.basis(n - i, Fraction((-1) ** i * math.comb(n, i)) * bernoulli(i))
        rhs = rhs.scale(Fraction(1, n))
        assert indefinite_sum(Poly.x() ** (n - 1)) == rhs, n


# -- words ---------------------------------------------------------------------


def _compose_lin(p: NCPoly, args):
    return p.map_keys(lambda w: W.compose(w, args))


def law_operad_associativity(rng, size):
    cap = min(size, 3)
    for _ in range(6):
        n = rng.randint(1, cap)
        w = tuple(rng.randint(0, cap) for _ in range(n))
        ps = [tuple(rng.randint(0, cap) for _ in range(rng.randint(1, 2))) for _ in range(n)]
        qs = [
            [tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2))) for _ in p]
            for p in ps
        ]
        flat = [NCPoly.word(q) for qs_i in qs for q in qs_i]
        lhs = _compose_lin(W.compose(w, [NCPoly.word(p) for p in ps]), flat)
        rhs = W.compose(
            w, [W.compose(p, [NCPoly.word(q) for q in qs_i]) for p, qs_i in zip(ps, qs)]
        )
        assert lhs == rhs, (w, ps, qs)


def law_compose_oracle(rng, size):
    cap = min(size, 3)
    for _ in range(10):
        n = rng.randint(1, cap)
        word = tuple(rng.randint(0, cap) for _ in range(n))
        args = [rand_ncpoly(rng, 2) for _ in range(n)]
        want = NCPoly.product(map(W.shift_up_power, args, word))
        assert W.compose(word, args) == want, (word, [str(a) for a in args])


def law_operad_units(rng, size):
    for _ in range(8):
        w = rand_word(rng, size)
        p = rand_ncpoly(rng, size)
        assert _compose_lin(NCPoly.word((0,)), [p]) == p
        assert W.compose(w, [NCPoly.word((0,))] * len(w)) == NCPoly.basis(w)


def law_operad_equivariance(rng, size):
    cap = min(size, 3)
    for _ in range(6):
        n = rng.randint(1, cap)
        w = tuple(rng.randint(0, cap) for _ in range(n))
        ps = [tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2))) for _ in range(n)]
        sigma = list(range(n))
        rng.shuffle(sigma)
        inv = [0] * n
        for j in range(n):
            inv[sigma[j]] = j
        lhs = W.compose(W.permute(w, sigma), [NCPoly.word(p) for p in ps])
        base = W.compose(w, [NCPoly.word(ps[inv[k]]) for k in range(n)])
        pi = W.block_permutation(sigma, [len(p) for p in ps])
        rhs = base.map_keys(lambda u: NCPoly.basis(W.permute(u, pi)))
        assert lhs == rhs, (w, ps, sigma)


def law_grading_additivity(rng, size):
    for _ in range(8):
        n = rng.randint(1, min(size, 3))
        w = tuple(rng.randint(0, size) for _ in range(n))
        ps = [rand_word(rng, size) for _ in range(n)]
        expected_deg = W.grading(w)[2] + sum(W.grading(p)[2] for p in ps)
        expected_len = sum(len(p) for p in ps)
        for term in W.compose(w, [NCPoly.word(p) for p in ps]).terms:
            l, _, d = W.grading(term)
            assert l == expected_len and d == expected_deg, (w, ps, term)


def law_novikov_relations(rng, size):
    gen = (1, 0)
    a = W.compose(gen, [NCPoly.word((0,)), NCPoly.word(gen)])
    assert a == NCPoly.word((1, 1, 0))
    assert a.map_keys(lambda u: NCPoly.basis(W.permute(u, (1, 0, 2)))) == a
    b = W.compose(gen, [NCPoly.word(gen), NCPoly.word((0,))]) - a
    assert b == NCPoly.word((2, 0, 0))
    assert b.map_keys(lambda u: NCPoly.basis(W.permute(u, (0, 2, 1)))) == b


def law_shift_duality(rng, size):
    for _ in range(10):
        p, q = rand_ncpoly(rng, size), rand_ncpoly(rng, size)
        assert W.pairing(W.shift_up(p), q) == W.pairing(p, W.shift_down(q)), (str(p), str(q))


def law_coproduct_duality(rng, size):
    for _ in range(4):
        w = rand_word(rng, min(size, 3))
        rows = W.word_coproduct(w)
        for (u, qs), c in rows.items():
            got = W.compose(u, [NCPoly.word(q) for q in qs]).coeff(w)
            assert got == c, (w, u, qs)
        for _ in range(6):
            k = rng.randint(1, len(w))
            u = tuple(rng.randint(0, 2) for _ in range(k))
            qs = tuple(
                tuple(rng.randint(0, max(w) if w else 1) for _ in range(rng.randint(1, 2)))
                for _ in range(k)
            )
            got = W.compose(u, [NCPoly.word(q) for q in qs]).coeff(w)
            assert got == rows.get((u, qs), Fraction(0)), (w, u, qs)


def law_dimension_enumeration(rng, size):
    for n in range(1, 5):
        for k in range(-4, 5):
            count = 0
            omega = k + n - 1
            if omega >= 0:
                count = sum(1 for _ in W._compositions(omega, (omega,) * n))
            assert W.graded_dim(n, k) == count, (n, k)
    for n in range(1, 9):
        assert W.graded_dim(n, 0) == math.comb(2 * n - 2, n - 1), n


# -- monomials -------------------------------------------------------------------


def law_prelie_axiom_sub(rng, size):
    cap = min(size, 3)
    for _ in range(6):
        p, q, r = (rand_cpoly(rng, cap) for _ in range(3))
        lhs = M.prelie(M.prelie(p, q), r) - M.prelie(p, M.prelie(q, r))
        rhs = M.prelie(M.prelie(p, r), q) - M.prelie(p, M.prelie(r, q))
        assert lhs == rhs, (str(p), str(q), str(r))


def law_prelie_axiom_novikov(rng, size):
    cap = min(size, 3)
    for _ in range(6):
        p, q, r = (rand_cpoly(rng, cap) for _ in range(3))
        lhs = M.novikov(M.novikov(p, q), r) - M.novikov(p, M.novikov(q, r))
        rhs = M.novikov(M.novikov(p, r), q) - M.novikov(p, M.novikov(r, q))
        assert lhs == rhs, (str(p), str(q), str(r))
        nap_l = M.novikov(p, M.novikov(q, r))
        nap_r = M.novikov(q, M.novikov(p, r))
        assert nap_l == nap_r, (str(p), str(q), str(r))


def law_abelianize_morphism(rng, size):
    for _ in range(8):
        w = rand_word(rng, size)
        q = rand_word(rng, size)
        word_level = W.brace(w, [NCPoly.word(q)])
        assert M.abelianize(word_level) == M.prelie(
            M.abelianize(NCPoly.word(w)), M.abelianize(NCPoly.word(q))
        ), (w, q)


def law_multi_prelie_symmetric(rng, size):
    for _ in range(5):
        p = rand_cpoly(rng, min(size, 3))
        args = [rand_cpoly(rng, 2) for _ in range(rng.randint(2, 3))]
        base = M.prelie_multi(p, args)
        for perm in itertools.permutations(args):
            assert M.prelie_multi(p, list(perm)) == base
        assert M.prelie_multi(p, args[:1]) == M.prelie(p, args[0])


def law_novikov_single(rng, size):
    for _ in range(8):
        p, q = rand_cpoly(rng, size), rand_cpoly(rng, size)
        assert M.novikov_multi(p, [q]) == M.shift_up(p) * q


def law_novikov_degree(rng, size):
    for _ in range(8):
        a, b = rand_alpha(rng, size), rand_alpha(rng, size)
        prod = M.novikov(CPoly.basis(a), CPoly.basis(b))
        for term in prod.terms:
            assert alpha_deg(term) == alpha_deg(a) + alpha_deg(b), (a, b, term)


# -- bialgebra ---------------------------------------------------------------------


def law_bialgebra_coassoc(rng, size):
    cap = min(size, 4)
    for _ in range(5):
        a = rand_alpha(rng, cap, max_weight=2 * cap)
        assert coassociative(B.FOREST_SIDE.delta, (a,)), a
        assert coassociative(B.FOREST_SIDE.Delta, (a,)), a


def law_bialgebra_counits(rng, size):
    cap = min(size, 4)
    for _ in range(6):
        a = rand_alpha(rng, cap)
        assert counital(B.FOREST_SIDE.delta, B.FOREST_SIDE.eps_delta, (a,)), (a, "sub")
        assert counital(B.FOREST_SIDE.Delta, B.FOREST_SIDE.eps_Delta, (a,)), (a, "graft")


def law_sub_homogeneity(rng, size):
    for _ in range(6):
        a = rand_alpha(rng, min(size, 4))
        assert B.FOREST_SIDE.delta((a,)) == B.sub_coproduct_block_oracle(a), a
        for grade in (B.fm_weight, B.fm_deg):
            assert graded(B.FOREST_SIDE.delta, (a,), grade), (a, grade.__name__)


def law_graft_homogeneity(rng, size):
    for _ in range(6):
        a = rand_alpha(rng, min(size, 4))
        assert B.FOREST_SIDE.Delta((a,)) == B.graft_coproduct_block_oracle(a), a
        for grade in (B.fm_len, B.fm_deg):
            assert graded(B.FOREST_SIDE.Delta, (a,), grade), (a, grade.__name__)


def law_antipode(rng, size):
    cap = min(size, 4)
    for _ in range(5):
        a = rand_alpha(rng, cap, max_weight=2 * cap)
        e = B.SElem.block(a)
        assert antipode_law(B.FOREST_SIDE, lambda f: B.antipode(B.SElem.basis(f)), (a,)), a
        s = B.antipode(e)
        assert B.antipode(s) == e, a
    f = B.forest_mono([rand_alpha(rng, cap, max_weight=cap) for _ in range(2)])
    assert antipode_law(B.FOREST_SIDE, lambda f: B.antipode(B.SElem.basis(f)), f), f


def law_cointeraction(rng, size):
    cap = min(size, 3)
    for _ in range(4):
        a = rand_alpha(rng, cap, max_weight=2 * cap)
        assert B.cointeraction_holds(B.SElem.block(a)), a


def law_character_distributivity(rng, size):
    lam, mu, nu = (rand_character(rng, min(size, 3)) for _ in range(3))
    lhs = B.convolve(B.convolve(lam, mu, "graft"), nu, "sub")
    rhs = B.convolve(B.convolve(lam, nu, "sub"), B.convolve(mu, nu, "sub"), "graft")
    for a in alphas_up_to(3, min(size, 3)):
        e = B.SElem.block(a)
        assert lhs(e) == rhs(e), a


# -- trees --------------------------------------------------------------------------


def law_tree_canonical(rng, size):
    for _ in range(6):
        subtrees = [T.ladder(rng.randint(1, 2)), T.corolla(rng.randint(1, 3)), T.LEAF]
        rng.shuffle(subtrees)
        t1 = RootedTree(subtrees)
        rng.shuffle(subtrees)
        t2 = RootedTree(subtrees)
        assert t1 == t2 and hash(t1) == hash(t2)
        assert sorted([t1.enc, t2.enc]) == [t1.enc, t2.enc]


def law_tree_stats_identity(rng, size):
    cap = min(7, size + 3)
    for t in trees_up_to(cap):
        s, p, m = T.tree_stats(t)
        assert Mo.lift_coeff(m) * p * s == alpha_factorial(m), t
        assert alpha_factorial(m) % s == 0, t


def law_cut_coassoc(rng, size):
    for t in trees_up_to(min(5, size + 1)):
        assert coassociative(T.TREE_SIDE.Delta, (t,)), t
        assert counital(T.TREE_SIDE.Delta, T.TREE_SIDE.eps_Delta, (t,)), t


def law_contract_coassoc(rng, size):
    for t in trees_up_to(min(5, size + 1)):
        assert T.contract_coproduct((t,)) == T.contract_coproduct_oracle(t), t
        assert coassociative(T.TREE_SIDE.delta, (t,)), t
        assert counital(T.TREE_SIDE.delta, T.TREE_SIDE.eps_delta, (t,)), t


def law_cut_cocycle(rng, size):
    for _ in range(5):
        pool = list(trees_up_to(3))
        f = T.forest(rng.sample(pool, k=rng.randint(0, 2)))
        if T.forest_size(f) > 4:
            continue
        lifted = T.bplus(f)
        lhs = T.cut_coproduct((lifted,))
        rhs = HCKTensor.basis(((), (lifted,)))
        for (a, b), c in T.cut_coproduct(f).terms.items():
            rhs = rhs + HCKTensor.basis(((T.bplus(a),), b), c)
        assert lhs == rhs, f


def law_cut_oracle(rng, size):
    cap = min(5, size + 1)
    for t in trees_up_to(cap):
        assert T.cut_coproduct((t,)) == T.cut_coproduct_oracle(t), t


def law_tree_cointeraction(rng, size):
    for t in trees_up_to(min(4, size)):
        assert cointeraction(T.TREE_SIDE, (t,)), t


def law_order_poly(rng, size):
    expected = {
        T.LEAF: Poly.x(),
        T.ladder(2): binomial_poly(2),
        T.corolla(3): indefinite_sum(Poly.x() ** 2),
        T.ladder(3): binomial_poly(3),
        T.corolla(4): indefinite_sum(Poly.x() ** 3),
        T.bplus([T.ladder(2), T.LEAF]): indefinite_sum(Poly.x() * binomial_poly(2)),
        T.bplus([T.corolla(3)]): indefinite_sum(indefinite_sum(Poly.x() ** 2)),
        T.ladder(4): binomial_poly(4),
    }
    for t, want in expected.items():
        got = T.strict_order_poly((t,))
        assert got == want, (t, str(got))
    # power-sum values: the summation operator runs to k-1, matching the
    # closed polynomial table (the corolla value at k counts chains below k)
    for n in range(1, 6):
        assert T.strict_order_poly((T.ladder(n),)) == binomial_poly(n), n
        poly = T.strict_order_poly((T.corolla(n),))
        for k in range(1, 7):
            assert poly(k) == sum(j ** (n - 1) for j in range(k)), (n, k)


def law_tree_monomial_enumeration(rng, size):
    cap = min(6, size + 2)
    by_mono: dict = {}
    for t in trees_up_to(cap):
        by_mono.setdefault(T.fertility_monomial(t), set()).add(t)
    seen = set()
    for a in alphas_up_to(cap, cap - 1):
        if alpha_deg(a) != 0:
            continue
        got = set(T.trees_with_monomial(a))
        assert got == by_mono.get(a, set()), a
        for t in got:
            assert t.size == alpha_len(a) and t.size - 1 == alpha_weight(a), (a, t)
        seen.add(a)
    assert set(by_mono) <= seen


# -- morphisms -----------------------------------------------------------------------


def law_lift_routes(rng, size, reference=Mo.tree_lift_by_symmetry):
    cap = min(6, size + 2)
    for a in alphas_up_to(cap, cap - 1):
        if alpha_deg(a) == 0:
            assert Mo.tree_lift(a) == reference(a), a


def law_lift_degree_obstruction(rng, size):
    for _ in range(10):
        a = rand_alpha(rng, size)
        if alpha_deg(a) != 0:
            assert Mo.tree_lift(a).is_zero(), a


def law_invariant_routes(rng, size):
    cap = min(5, size + 1)
    for a in alphas_up_to(cap, cap - 1):
        if alpha_deg(a) != 0:
            continue
        p1 = Mo.poly_invariant(a, "via-ck")
        p2 = Mo.poly_invariant(a, "fixed-point")
        p3 = Mo.poly_invariant(a, "direct")
        assert p1 == p2 == p3, (a, str(p1), str(p2), str(p3))
    for _ in range(6):
        a = rand_alpha(rng, min(size, 3))
        if alpha_deg(a) != 0:
            p2 = Mo.poly_invariant(a, "fixed-point")
            p3 = Mo.poly_invariant(a, "direct")
            assert p2 == p3, (a, str(p2), str(p3))


def law_mu_families(rng, size):
    for n in range(1, 7):
        lad = (1,) if n == 1 else (1, n - 1)
        assert Mo.mu_value(lad) == (-1) ** n * math.factorial(n - 1), n
        cor = (1,) if n == 1 else M.trim([n - 1] + [0] * (n - 2) + [1])
        assert Mo.mu_value(cor) == (-1) ** n, n


def law_ds_plane_identity(rng, size):
    coeffs = [Fraction(rng.randint(1, 5), rng.randint(1, 4)) for _ in range(5)]
    sol = Mo.ds_solve(coeffs, min(5, size + 1))
    for a, elem in sol.entries.items():
        factor = Fraction(1)
        for i, e in enumerate(a):
            factor *= coeffs[i] ** e if i < len(coeffs) else 0
        want = HCKElem(
            [((t,), factor * T.plane_count(t)) for t in T.trees_with_monomial(a)]
        )
        assert elem == want, a


def law_antipode_routes(rng, size):
    cap = min(size, 4)
    for _ in range(5):
        a = rand_alpha(rng, cap, max_weight=2 * cap)
        e = B.SElem.block(a)
        assert Mo.antipode_via_mu(e) == B.antipode(e), a
    f = B.forest_mono([rand_alpha(rng, 2), rand_alpha(rng, 2)])
    e = B.SElem.basis(f)
    assert Mo.antipode_via_mu(e) == B.antipode(e), f


def law_mu_inverts_counit(rng, size):
    conv = B.convolve(Mo.mu_character, B.eps_sub_character, "graft")
    for a in alphas_up_to(min(4, size), min(4, size)):
        got = conv.block(a)
        assert got == 0, (a, got)  # counit of graft vanishes on every block
        assert Mo.mu_value(a) == Mo.poly_invariant(a, "fixed-point")(-1), a


def law_lift_double_morphism(rng, size):
    cap = min(4, size)
    for a in alphas_up_to(cap, cap - 1):
        if alpha_deg(a) == 0:
            assert Mo.tree_lift_is_morphism(a), a


# -- cli ----------------------------------------------------------------------------


def law_roundtrip(rng, size):
    for _ in range(6):
        w = rand_word(rng, size)
        assert parsing.parse_word(parsing.format_word(w)) == w
        p = rand_ncpoly(rng, size) - rand_ncpoly(rng, size)
        assert parsing.parse_ncpoly(str(p)) == p
        a = rand_alpha(rng, size)
        assert parsing.parse_monomial(M.format_alpha(a)) == a
        fm = B.forest_mono([rand_alpha(rng, 2) for _ in range(rng.randint(1, 3))])
        assert parsing.parse_forest_mono(B.format_fm(fm)) == fm
        e = B.SElem.basis(fm, Fraction(rng.randint(-3, 3), 2)) + B.SElem.one(rng.randint(0, 2))
        assert parsing.parse_selem(str(e)) == e
        pool = list(trees_up_to(4))
        t = rng.choice(pool)
        assert parsing.parse_tree(str(t)) == t
        tf = T.forest(rng.sample(pool, k=rng.randint(1, 3)))
        assert parsing.parse_tree_forest(T.format_forest(tf)) == tf
        q = rand_poly(rng)
        assert parsing.parse_poly(str(q)) == q


def law_deterministic_output(rng, size):
    from .cli import render_command

    for argv in (
        ["phi-mi", "x2*x1*x0^2"],
        ["delta-nmi", "x1*x0 | x0"],
        ["ds", "--coeffs", "1,1,1/2", "--max-vertices", "4"],
        ["dims", "--nmax", "4", "--kmax", "4"],
    ):
        assert render_command(argv) == render_command(argv), argv


SUITES: list[tuple[str, object]] = [
    ("exact.rota-baxter", law_rota_baxter),
    ("exact.summation", law_summation),
    ("exact.eval-at-minus-one", law_eval_minus_one),
    ("exact.sum-cocycle", law_sum_cocycle),
    ("exact.binomial-values", law_binomial_values),
    ("exact.faulhaber-bernoulli", law_faulhaber),
    ("words.operad-associativity", law_operad_associativity),
    ("words.compose-oracle", law_compose_oracle),
    ("words.operad-units", law_operad_units),
    ("words.operad-equivariance", law_operad_equivariance),
    ("words.grading-additivity", law_grading_additivity),
    ("words.novikov-relations", law_novikov_relations),
    ("words.shift-duality", law_shift_duality),
    ("words.coproduct-duality", law_coproduct_duality),
    ("words.dimension-enumeration", law_dimension_enumeration),
    ("monomials.prelie-axiom-sub", law_prelie_axiom_sub),
    ("monomials.prelie-axiom-novikov", law_prelie_axiom_novikov),
    ("monomials.abelianize-morphism", law_abelianize_morphism),
    ("monomials.multi-prelie-symmetric", law_multi_prelie_symmetric),
    ("monomials.novikov-single", law_novikov_single),
    ("monomials.novikov-degree", law_novikov_degree),
    ("bialgebra.coassociativity", law_bialgebra_coassoc),
    ("bialgebra.counits", law_bialgebra_counits),
    ("bialgebra.sub-homogeneity", law_sub_homogeneity),
    ("bialgebra.graft-homogeneity", law_graft_homogeneity),
    ("bialgebra.antipode", law_antipode),
    ("bialgebra.cointeraction", law_cointeraction),
    ("bialgebra.character-distributivity", law_character_distributivity),
    ("trees.canonical-form", law_tree_canonical),
    ("trees.stats-identity", law_tree_stats_identity),
    ("trees.cut-coassociativity", law_cut_coassoc),
    ("trees.contract-coassociativity", law_contract_coassoc),
    ("trees.cut-cocycle", law_cut_cocycle),
    ("trees.cut-oracle", law_cut_oracle),
    ("trees.cointeraction", law_tree_cointeraction),
    ("trees.order-poly", law_order_poly),
    ("trees.monomial-enumeration", law_tree_monomial_enumeration),
    ("morphisms.lift-routes", law_lift_routes),
    ("morphisms.lift-degree-obstruction", law_lift_degree_obstruction),
    ("morphisms.invariant-routes", law_invariant_routes),
    ("morphisms.mu-families", law_mu_families),
    ("morphisms.ds-plane-identity", law_ds_plane_identity),
    ("morphisms.antipode-routes", law_antipode_routes),
    ("morphisms.mu-inverts-counit", law_mu_inverts_counit),
    ("morphisms.lift-double-morphism", law_lift_double_morphism),
    ("cli.roundtrip", law_roundtrip),
    ("cli.deterministic-output", law_deterministic_output),
]


def run_selfcheck(seed: int, size: int) -> list[tuple[str, bool | None, str]]:
    """Run every suite with reproducible randomness; returns (name, ok, detail)
    where ok is True for a pass, False for a broken law and None for a suite
    that crashed."""
    results = []
    for name, law in SUITES:
        rng = random.Random(seed)
        try:
            law(rng, size)
            results.append((name, True, ""))
        except AssertionError as exc:
            results.append((name, False, str(exc)))
        except Exception as exc:  # a crash is reported, not an abort
            results.append((name, None, f"{type(exc).__name__}: {exc}"))
    return results


def format_report(results) -> str:
    status = {True: "PASS", False: "FAIL", None: "ERROR"}
    lines = [f"{status[ok]} {name}" + (f": {msg}" if msg else "")
             for name, ok, msg in results]
    failed = sum(1 for _, ok, _ in results if not ok)
    lines.append(f"{len(results) - failed}/{len(results)} suites passed")
    return "\n".join(lines)
