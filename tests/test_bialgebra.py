import math
import random
from fractions import Fraction

import pytest

from mindex import monomials as M
from mindex.bialgebra import (
    FOREST_SIDE,
    Character,
    SElem,
    STensor,
    antipode,
    bar_product,
    cointeraction_holds,
    convolve,
    counit_graft,
    counit_sub,
    eps_graft_character,
    eps_sub_character,
    fm_deg,
    fm_len,
    fm_mul,
    fm_weight,
    forest_mono,
    format_fm,
    graft_coproduct,
    graft_coproduct_block_oracle,
    sub_coproduct,
    sub_coproduct_block_oracle,
    _antipode_block,
    _antipode_down,
    _block_coproduct_fm,
    _graft_coproduct_block,
)
from mindex.linear import antipode_law, coassociative, counital, graded
from mindex.monomials import alpha_deg, alpha_len, alpha_weight
from mindex.morphisms import antipode_via_mu, poly_invariant
from mindex.parsing import parse_selem
from mindex.selfcheck import alphas_up_to

fm = forest_mono
block = SElem.block


def antipode_of(f):
    return antipode(SElem.basis(f))


def forests_up_to(max_len: int, max_idx: int):
    """Every nonempty forest of at most ``max_len`` letters in all, with
    indices at most ``max_idx``."""
    blocks = sorted(alphas_up_to(max_len, max_idx))

    def extend(start, forest, room):
        if forest:
            yield fm(forest)
        for i in range(start, len(blocks)):
            if alpha_len(blocks[i]) <= room:
                yield from extend(i, forest + [blocks[i]], room - alpha_len(blocks[i]))

    return list(extend(0, [], max_len))


def test_bar_product():
    assert bar_product(SElem.one(), block((1,))) == block((1,))
    assert bar_product(block((1,)), block((1,))) == SElem.basis(fm([(1,), (1,)]))
    assert bar_product(block((1, 1)), block((1,))) == SElem.basis(fm([(1, 1), (1,)]))


def test_terms_print_in_fm_key_order():
    """Terms sort by block count, then by their blocks in the block order:
    ``x0 | x1^2`` comes before ``x0 | x0^2`` although its plain tuple,
    ((0, 2), (1,)), is greater than ((1,), (2,))."""
    e = parse_selem("x0 | x0 | x0 + x0 | x0^2 + 2*x1^2 | x0 + x2*x0")
    assert [format_fm(f) for f, _ in e.sorted_terms()] == [
        "x2*x0",
        "x0 | x1^2",
        "x0 | x0^2",
        "x0 | x0 | x0",
    ]
    assert str(e) == "x2*x0 + 2*x0 | x1^2 + x0 | x0^2 + x0 | x0 | x0"


def test_sub_coproduct_fixtures():
    assert sub_coproduct(block((0, 1))) == STensor(
        {(fm([(1,)]), fm([(0, 1)])): 1, (fm([(0, 1)]), fm([(1,)])): 1}
    )
    assert sub_coproduct(block((1,))) == STensor({(fm([(1,)]), fm([(1,)])): 1})
    assert sub_coproduct(block((1, 1))) == STensor(
        {
            (fm([(1,)]), fm([(1, 1)])): 1,
            (fm([(0, 1)]), fm([(2,)])): 1,
            (fm([(2,)]), fm([(1,), (0, 1)])): 1,
            (fm([(1, 1)]), fm([(1,), (1,)])): 1,
        }
    )


def test_graft_coproduct_fixtures():
    for i in range(4):
        a = M.unit_exp(i)
        assert graft_coproduct(block(a)) == STensor(
            {(fm([a]), ()): 1, ((), fm([a])): 1}
        )
    assert graft_coproduct(block((1, 1))) == STensor(
        {(fm([(1, 1)]), ()): 1, ((), fm([(1, 1)])): 1, (fm([(1,)]), fm([(1,)])): 1}
    )
    # three-letter closed form at (i,j,k)=(2,0,0), negative indices dropped
    a = (2, 0, 1)
    assert graft_coproduct(block(a)) == STensor(
        {
            (fm([a]), ()): 1,
            ((), fm([a])): 1,
            (fm([(0, 1)]), fm([(2,)])): 1,
            (fm([(1, 1)]), fm([(1,)])): 2,
            (fm([(1,)]), fm([(1,), (1,)])): 1,
        }
    )


def test_graft_kernel_matches_ordered_splits_oracle():
    """The exponential-formula kernel equals the ordered-splits oracle row for
    row on every block of at most 6 letters with indices at most 3."""
    blocks = list(alphas_up_to(6, 3))
    assert len(blocks) == 209
    for a in blocks:
        assert graft_coproduct(block(a)) == graft_coproduct_block_oracle(a), a


def test_sub_kernel_matches_ordered_splits_oracle():
    """The kernel, which expands each multiset of parts once, equals the
    expansion per ordered split row for row, coefficient types included, on
    every block of at most 5 letters with indices at most 3."""
    blocks = list(alphas_up_to(5, 3))
    assert len(blocks) == 125
    for a in blocks:
        kernel, oracle = sub_coproduct(block(a)), sub_coproduct_block_oracle(a)
        assert kernel == oracle, a
        assert all(type(c) is type(oracle.terms[k]) for k, c in kernel.terms.items()), a


def test_forest_kernels_sum_integers():
    """On every block of at most 6 letters with indices at most 3 the graft
    kernel holds only positive ``int`` rows, one for each term of each
    ``D^k(x^h) (x) E_k(a - h)`` and the two unit rows, and the antipode only
    nonzero ``int`` terms, equal to the closed antipode through mu."""
    for a in alphas_up_to(6, 3):
        rows = _graft_coproduct_block(a).terms.values()
        assert all(type(c) is int and c > 0 for c in rows), a
        written = 2 + sum(
            len(M.multiset_splits(g, k)) * len(M._shift_down_power_mono(h, k).terms)
            for h, g in M.submonomials(a)
            if h and g
            for k in range(1, alpha_len(g) + 1)
        )
        assert len(rows) == written, a
        s = antipode(block(a))
        assert all(type(c) is int and c for c in s.terms.values()), a
        assert s == antipode_via_mu(block(a)), a


def _antipode_closed(a):
    """The cancellation-free formula for the antipode of one block,

        S(x^a) = sum_m (-1)^m sum_{(parts, count) in E_m(a)} count
                 sum_{c in N^m, |c| = m - 1} (m - 1)!/(c_1! ... c_m!)
                 prod_j D^{c_j}(x^{p_j}),

    E_m the multiset splits counted by their set partitions and D the
    down-shift: a sum over the set partitions of the letters into m blocks
    and over the rooted trees on those blocks, block j with c_j children.
    The sum over c is folded part by part: with s the children given out so
    far, part j's c_j adds the weight C(s + c_j, c_j).  Every weight, count
    and down-shift coefficient is positive, so a split's terms all have the
    sign (-1)^m.  Returns the sum and the set of (sign, number of blocks)
    over the terms of every split."""
    data, signs = {}, set()
    for m in range(1, alpha_len(a) + 1):
        for parts, count in M.multiset_splits(a, m):
            # children given out so far -> forest -> weighted coefficient
            state = {0: {(): (-1) ** m * count}}
            for p in parts:
                nxt = {}
                for s, terms in state.items():
                    for k in range(m - s):
                        image = M._shift_down_power_mono(p, k).terms
                        if not image:
                            break
                        row = nxt.setdefault(s + k, {})
                        w = math.comb(s + k, k)
                        for f, c in terms.items():
                            for mono, v in image.items():
                                key = fm_mul(f, (mono,))
                                row[key] = row.get(key, 0) + w * c * v
                state = nxt
            for key, value in state.get(m - 1, {}).items():
                signs.add((value > 0, len(key)))
                data[key] = data.get(key, 0) + value
    return SElem.adopt({k: v for k, v in data.items() if v}), signs


def test_antipode_matches_cancellation_free_formula():
    """The block recursion, which sums terms of both signs, equals the
    closed formula over set partitions and rooted trees on every block of at
    most 6 letters with indices at most 3, of 7 letters with indices at most
    2 and of 8 letters with indices at most 1, the largest blocks the
    benchmark's forest workload runs; every coefficient is an ``int``, and
    the terms of each split in the formula, and so the terms of the
    antipode, have sign (-1)^(number of blocks)."""
    blocks = list(alphas_up_to(6, 3))
    assert len(blocks) == 209
    blocks += [a for a in alphas_up_to(7, 2) if alpha_len(a) == 7]
    blocks += [a for a in alphas_up_to(8, 1) if alpha_len(a) == 8]
    assert len(blocks) == 209 + 36 + 9
    for a in blocks:
        closed, signs = _antipode_closed(a)
        assert all(positive == (n % 2 == 0) for positive, n in signs), a
        s = antipode(block(a))
        assert s == closed, a
        assert all(type(c) is int for c in s.terms.values()), a
        assert all((c > 0) == (len(f) % 2 == 0) for f, c in s.terms.items()), a


def test_antipode_down_sums_the_antipodes_of_a_down_shift():
    """For every block of at most 5 letters with indices at most 3 and every
    (h, k) its recursion reads, ``_antipode_down(h, k)`` is the sum of
    c S(x^mono) over the terms c x^mono of D^k(x^h), no pair zero; and the
    recursion builds no graft block."""
    read = set()
    for a in alphas_up_to(5, 3):
        for h, g in M.submonomials(a):
            if h and g:
                read.update((h, k) for k in range(1, min(alpha_len(g), alpha_weight(h)) + 1))
    assert len(read) == 100
    for h, k in read:
        down = _antipode_down(h, k)
        assert all(c for _, c in down), (h, k)
        expected = SElem()
        for mono, c in M._shift_down_power_mono(h, k).terms.items():
            expected += antipode(block(mono)).scale(c)
        assert SElem(down) == expected, (h, k)
    _graft_coproduct_block.cache_clear()
    _antipode_block.cache_clear()
    _antipode_down.cache_clear()
    antipode(block((4, 2, 1, 1)))
    assert _graft_coproduct_block.cache_info().currsize == 0


def test_forest_mono_rejects_untrimmed_and_negative_blocks():
    """A block with a trailing zero or a negative exponent has no place in a
    forest: ``(1, 0)`` would miss the substitution counit's x_0 test."""
    for bad in [(), (0,), (1, 0), (2, -1), (-1, 1)]:
        with pytest.raises(ValueError):
            forest_mono([(1,), bad])
    with pytest.raises(ValueError):
        block((1, 0))
    f = fm([(1, 1), (1,)])
    assert fm_mul((), f) is f and fm_mul(f, ()) is f
    assert fm_mul(f, fm([(0, 1)])) == fm([(0, 1), (1,), (1, 1)])


def test_counits():
    assert counit_sub(block((1,))) == 1
    assert counit_sub(block((0, 1))) == 0
    assert counit_sub(SElem.basis(fm([(1,), (1,)]))) == 1
    assert counit_graft(SElem.one()) == 1
    assert counit_graft(block((1,))) == 0
    e = SElem.one(3) + SElem.basis(fm([(1, 1)]), 2)
    assert counit_graft(e) == 3


def test_antipode_fixtures():
    for i in range(4):
        a = M.unit_exp(i)
        assert antipode(block(a)) == block(a, -1)
    assert antipode(block((1, 1))) == SElem(
        {fm([(1, 1)]): -1, fm([(1,), (1,)]): 1}
    )
    rng = random.Random(3)
    for _ in range(8):
        exps = [0] * 4
        for _ in range(rng.randint(1, 3)):
            exps[rng.randint(0, 3)] += 1
        e = block(M.trim(exps)) + SElem.basis(fm([(1,), (1, 1)]), rng.randint(-2, 2))
        assert antipode(antipode(e)) == e


def test_exhaustive_bialgebra_laws():
    """Coassociativity, counits, homogeneity and the antipode law for both
    coproducts, on every monomial with letter count and indices at most 4."""
    side = FOREST_SIDE
    for a in alphas_up_to(4, 4):
        key = (a,)
        for which, cp, eps in (
            ("sub", side.delta, side.eps_delta),
            ("graft", side.Delta, side.eps_Delta),
        ):
            assert coassociative(cp, key), (a, which)
            assert counital(cp, eps, key), (a, which)
        assert graded(side.delta, key, fm_weight), a
        assert graded(side.delta, key, fm_deg), a
        assert graded(side.Delta, key, fm_len), a
        assert antipode_law(side, antipode_of, key), a


def test_antipode_law_on_every_small_forest():
    """The antipode law on every forest of at most 5 letters with indices at
    most 3.  Where it holds on all forests of at most N letters, the connected
    recursion fixes the antipode of each, so this checks the block-by-block
    product exactly."""
    forests = forests_up_to(5, 3)
    assert len(forests) == 1481
    assert sum(len(f) > 1 for f in forests) == 1356
    for f in forests:
        assert antipode_law(FOREST_SIDE, antipode_of, f), f


def test_antipode_law_negative_control_on_two_blocks():
    """An antipode right on every block but wrong on one two-block forest
    breaks the law there."""
    target = fm([(1, 1), (2,)])

    def wrong(f):
        s = antipode_of(f)
        return s + SElem.basis(fm([(1,), (1,), (1,)])) if f == target else s

    for b in target:
        assert antipode_law(FOREST_SIDE, wrong, (b,)), b
    assert antipode_law(FOREST_SIDE, antipode_of, target)
    assert not antipode_law(FOREST_SIDE, wrong, target)


def test_antipode_and_direct_invariant_build_no_forest_coproduct():
    """The antipode of a three-block forest and the direct invariant build
    no forest coproduct, and the direct invariant, which reads down-shift
    powers, builds no block coproduct either."""
    three = parse_selem("x0^3*x1*x2 | x0^2*x1^2*x2 | x0*x1*x2*x3")
    a = (4, 2, 1, 1)
    assert alpha_deg(a) == 0
    _antipode_block.cache_clear()
    _block_coproduct_fm.cache_clear()
    _graft_coproduct_block.cache_clear()
    s = antipode(three)
    assert len(s.terms) == 8752
    assert poly_invariant(a, "direct") == poly_invariant(a, "fixed-point")
    assert _block_coproduct_fm.cache_info().currsize == 0
    assert _graft_coproduct_block.cache_info().currsize == 0


def test_law_kit_negative_controls():
    """A coproduct with one coefficient changed breaks coassociativity, a
    wrong counit breaks the counit law, and a row of the wrong weight breaks
    homogeneity."""
    side = FOREST_SIDE
    key = fm([(2, 0, 1)])
    rows = dict(side.Delta(key).terms)
    rows[(fm([(1, 1)]), fm([(1,)]))] += 1
    broken = STensor(rows)

    def perturbed(f):
        return broken if f == key else side.Delta(f)

    assert not coassociative(perturbed, key)
    assert not counital(side.delta, side.eps_Delta, key)
    skewed = STensor({**side.delta(key).terms, (fm([(1,)]), fm([(1,)])): 1})
    assert graded(side.delta, key, fm_weight)
    assert not graded(lambda f: skewed, key, fm_weight)


def test_cointeraction_exhaustive():
    for a in alphas_up_to(3, 3):
        assert cointeraction_holds(block(a)), a
    assert cointeraction_holds(SElem.one())
    assert cointeraction_holds(SElem.basis(fm([(1,), (1, 1)])))


def test_sub_coproduct_dual_to_multi_prelie():
    """Normalization oracle: under the pairing weighting x^a against X^a by
    a!, and forests by block factorials times multiplicity permutations, the
    substitution coproduct must be dual to the multi-argument pre-Lie
    extension computed in the monomials module.  This settles the
    1/beta!-normalized production form on small monomials.
    """
    from mindex.monomials import CPoly, alpha_factorial, prelie_multi

    for a in alphas_up_to(3, 3):
        rows = sub_coproduct(block(a))
        oracle: dict = {}
        for beta in alphas_up_to(alpha_len(a), alpha_weight(a) + 1):
            if alpha_len(beta) > alpha_len(a) or alpha_weight(beta) > alpha_weight(a):
                continue
            k = alpha_len(beta)
            for parts in _multisets_of_alphas(alpha_len(a), alpha_weight(a) - alpha_weight(beta), k):
                image = prelie_multi(CPoly.basis(beta), [CPoly.basis(g) for g in parts])
                num = image.coeff(a) * alpha_factorial(a)
                if not num:
                    continue
                weight = alpha_factorial(beta)
                mult: dict = {}
                for g in parts:
                    mult[g] = mult.get(g, 0) + 1
                for g, m in mult.items():
                    weight *= alpha_factorial(g) ** m
                    import math

                    weight *= math.factorial(m)
                oracle[(fm([beta]), fm(parts))] = Fraction(num, weight)
        assert rows == STensor(oracle), a


def _multisets_of_alphas(total_len, total_weight, k):
    """Multisets of k nonzero exponent vectors with prescribed totals."""
    def rec(remaining_len, remaining_weight, slots, low):
        if slots == 0:
            if remaining_len == 0 and remaining_weight == 0:
                yield ()
            return
        for cand in _alphas_bounded(remaining_len - slots + 1, remaining_weight):
            if low is not None and cand < low:
                continue
            for rest in rec(
                remaining_len - sum(cand),
                remaining_weight - sum(i * e for i, e in enumerate(cand)),
                slots - 1,
                cand,
            ):
                yield (cand,) + rest

    yield from rec(total_len, total_weight, k, None)


def _alphas_bounded(max_len, max_weight):
    return sorted(
        a for a in alphas_up_to(max_len, max_weight) if alpha_weight(a) <= max_weight
    )


def test_convolution_units():
    table = {(1,): Fraction(2), (1, 1): Fraction(-1, 2), (0, 1): Fraction(3)}
    f = Character(lambda a: table.get(a, Fraction(0)))
    for a in [(1,), (1, 1), (0, 1), (2, 0, 1)]:
        e = block(a)
        assert convolve(eps_graft_character, f, "graft")(e) == f(e)
        assert convolve(f, eps_graft_character, "graft")(e) == f(e)
        assert convolve(eps_sub_character, f, "sub")(e) == f(e)
        assert convolve(f, eps_sub_character, "sub")(e) == f(e)


def test_character_distributivity():
    rng = random.Random(11)

    def rand_char():
        table = {
            M.trim([rng.randint(0, 2) for _ in range(3)]): Fraction(
                rng.randint(-3, 3), rng.randint(1, 3)
            )
            for _ in range(3)
        }
        table.pop((), None)
        return Character(lambda a, t=table: t.get(a, Fraction(0)))

    for trial in range(3):
        lam, mu, nu = rand_char(), rand_char(), rand_char()
        lhs = convolve(convolve(lam, mu, "graft"), nu, "sub")
        rhs = convolve(convolve(lam, nu, "sub"), convolve(mu, nu, "sub"), "graft")
        for a in alphas_up_to(3, 3):
            e = block(a)
            assert lhs(e) == rhs(e), (trial, a)
