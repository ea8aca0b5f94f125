import itertools
import math
import random
from fractions import Fraction

import pytest

from mindex import monomials, words
from mindex.bialgebra import forest_mono, format_fm
from mindex.linear import add_term
from mindex.monomials import (
    CPoly,
    abelianize,
    alpha_deg,
    alpha_key,
    alpha_len,
    alpha_mul,
    alpha_sub,
    alpha_weight,
    format_alpha,
    multiset_splits,
    novikov,
    novikov_multi,
    ordered_splits,
    partial,
    prelie,
    prelie_multi,
    shift_down,
    shift_up,
    shuffle_splits,
    submonomials,
    trim,
    unit_exp,
    _shift_down_power_mono,
)
from mindex.exact import multinomial
from mindex.selfcheck import alphas_up_to
from mindex.words import NCPoly, brace

x = CPoly.variable
mono = CPoly.monomial


def test_trim_and_grading():
    assert trim((1, 0, 2, 0, 0)) == (1, 0, 2)
    assert alpha_deg((1, 1)) == 0
    assert alpha_deg((2,)) == -1
    assert alpha_deg((0, 0, 1)) == 2


def test_abelianize():
    assert abelianize(NCPoly.word((1, 0)) + NCPoly.word((0, 1))) == 2 * mono((1, 1))
    assert abelianize(NCPoly.word((2, 0, 0))) == mono((2, 0, 1))
    assert abelianize(shift_up_word(NCPoly.word((0, 0)))) == 2 * mono((1, 1))


def shift_up_word(p):
    from mindex.words import shift_up as su

    return su(p)


def test_shift_derivations():
    assert shift_up(x(0)) == x(1)
    assert shift_up(x(0) ** 2) == 2 * (x(1) * x(0))
    assert shift_up(x(1) * x(0)) == x(2) * x(0) + x(1) ** 2
    assert shift_down(x(0)).is_zero()
    assert shift_down(x(1) * x(0)) == x(0) ** 2
    assert shift_down(x(2)) == x(1)


def test_shifts_match_the_word_shifts():
    """The word-level shifts are an independent oracle: abelianization
    commutes with both, on every word of length at most 4 over x_0..x_3."""
    for n in range(1, 5):
        for w in itertools.product(range(4), repeat=n):
            p = NCPoly.word(w)
            assert abelianize(words.shift_up(p)) == shift_up(abelianize(p)), w
            assert abelianize(words.shift_down(p)) == shift_down(abelianize(p)), w


def test_partial_matches_the_per_term_formula():
    """d/dx_i against c a_i x^(a - e_i) per term, through ``alpha_sub``:
    the same terms, in the same order, with the same coefficient types."""
    rng = random.Random(53)
    for _ in range(200):
        p = CPoly.zero()
        for _ in range(rng.randint(1, 4)):
            a = trim([rng.randint(0, 3) for _ in range(rng.randint(1, 4))])
            if a:
                p = p + CPoly.basis(a, Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        for i in range(5):
            want: dict = {}
            for a, c in p.terms.items():
                if i < len(a) and a[i]:
                    add_term(want, alpha_sub(a, unit_exp(i)), c * a[i])
            got = partial(p, i)
            assert [(m, type(c), c) for m, c in got.terms.items()] == [
                (m, type(c), c) for m, c in want.items()
            ], (str(p), i)


def test_divisors_come_with_their_cofactors():
    """Each divisor h of x^a comes with a - h, both trimmed; they multiply
    back to a, and every divisor comes exactly once."""
    for a in alphas_up_to(5, 3):
        pairs = list(submonomials(a))
        assert len({h for h, _ in pairs}) == len(pairs) == math.prod(e + 1 for e in a)
        for h, g in pairs:
            assert h == trim(h) and g == trim(g), (a, h, g)
            assert alpha_mul(h, g) == alpha_mul(g, h) == a, (a, h, g)
            assert g == alpha_sub(a, h), (a, h)


def test_prelie_fixtures():
    assert prelie(x(2), x(3)) == x(5)
    assert prelie(x(0) ** 2, x(0) ** 3) == 2 * (x(0) ** 4)
    assert prelie(x(0), x(1) * x(0)) == x(1) * x(0)


def test_prelie_axiom():
    rng = random.Random(23)
    for _ in range(12):
        p, q, r = (_rand_cpoly(rng) for _ in range(3))
        lhs = prelie(prelie(p, q), r) - prelie(p, prelie(q, r))
        rhs = prelie(prelie(p, r), q) - prelie(p, prelie(r, q))
        assert lhs == rhs


def test_novikov_axioms():
    rng = random.Random(29)
    for _ in range(12):
        p, q, r = (_rand_cpoly(rng) for _ in range(3))
        lhs = novikov(novikov(p, q), r) - novikov(p, novikov(q, r))
        rhs = novikov(novikov(p, r), q) - novikov(p, novikov(r, q))
        assert lhs == rhs
        assert novikov(p, novikov(q, r)) == novikov(q, novikov(p, r))


def _rand_cpoly(rng):
    out = CPoly.zero()
    for _ in range(rng.randint(1, 2)):
        exps = [0, 0, 0, 0]
        for _ in range(rng.randint(1, 3)):
            exps[rng.randint(0, 3)] += 1
        out = out + CPoly.basis(trim(exps), rng.randint(1, 3))
    return out


def test_prelie_multi_fixtures():
    assert prelie_multi(x(0) ** 2, [x(0), x(0)]) == 2 * (x(0) ** 2)
    # Faa di Bruno style: (k+1)k for k=2 with two unit-weight arguments
    assert prelie_multi(x(0) ** 3, [x(0), x(0)]) == 6 * (x(0) ** 3)
    rng = random.Random(31)
    for _ in range(10):
        p, q = _rand_cpoly(rng), _rand_cpoly(rng)
        assert prelie_multi(p, [q]) == prelie(p, q)


def test_prelie_multi_symmetric():
    rng = random.Random(37)
    for _ in range(8):
        p = _rand_cpoly(rng)
        args = [_rand_cpoly(rng) for _ in range(3)]
        base = prelie_multi(p, args)
        for perm in itertools.permutations(args):
            assert prelie_multi(p, list(perm)) == base


def test_novikov_multi_fixtures():
    assert novikov_multi(x(0), [x(0)]) == x(1) * x(0)
    assert novikov_multi(x(0), [x(0), x(0)]) == x(2) * x(0) ** 2
    assert novikov_multi(x(1), [x(0)]) == x(2) * x(0)
    rng = random.Random(41)
    for _ in range(10):
        p, q = _rand_cpoly(rng), _rand_cpoly(rng)
        assert novikov_multi(p, [q]) == shift_up(p) * q == novikov(p, q)


def test_abelianize_is_prelie_morphism():
    rng = random.Random(43)
    for _ in range(15):
        w_ = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3)))
        q_ = tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 2)))
        assert abelianize(brace(w_, [NCPoly.word(q_)])) == prelie(
            abelianize(NCPoly.word(w_)), abelianize(NCPoly.word(q_))
        )


def test_shuffle_splits():
    assert shuffle_splits(mono((1, 1)), 1) == {
        ((1,), (0, 1)): Fraction(1),
        ((0, 1), (1,)): Fraction(1),
    }
    assert shuffle_splits(x(0) ** 2, 1) == {((1,), (1,)): Fraction(2)}
    assert shuffle_splits(x(4), 1) == {}
    assert shuffle_splits(x(4), 0) == {((0, 0, 0, 0, 1),): Fraction(1)}
    # multinomial coefficients: x0^3 into three parts
    assert shuffle_splits(x(0) ** 3, 2) == {((1,), (1,), (1,)): Fraction(6)}
    with pytest.raises(ValueError):
        shuffle_splits(x(0) ** 3, -1)


def test_multiset_splits_match_ordered_splits():
    """The kernel against the ordered splits grouped by sorted parts: each
    multiset of k parts is counted by the multinomials of its orderings
    summed and divided by k!, an ``int``, for every part count."""
    for g in alphas_up_to(6, 3):
        for k in range(alpha_len(g) + 2):
            summed: dict = {}
            for split, mult in ordered_splits(g, k):
                key = tuple(sorted(split))
                summed[key] = summed.get(key, 0) + mult
            got = dict(multiset_splits(g, k))
            assert all(type(c) is int for c in got.values()), (g, k)
            assert all(total % math.factorial(k) == 0 for total in summed.values()), (g, k)
            assert got == {key: total // math.factorial(k) for key, total in summed.items()}


def _stirling2(n: int, k: int) -> int:
    """Set partitions of n labelled letters into k blocks, by
    S(n, k) = k S(n - 1, k) + S(n - 1, k - 1)."""
    if n == 0 or k == 0:
        return int(n == k)
    return k * _stirling2(n - 1, k) + _stirling2(n - 1, k - 1)


def test_multiset_splits_count_set_partitions():
    """Checked without ordered splits: the counts of x0^n sum to the Stirling
    number S(n, k) for each k and to the Bell number over all k; every set
    partition of the distinct letters x0*x1*...*x_(n-1) is its own multiset
    of parts, counted once."""
    bell = [1]  # B(n + 1) = sum_i C(n, i) B(i)
    for n in range(8):
        bell.append(sum(math.comb(n, i) * bell[i] for i in range(n + 1)))
    assert bell[:7] == [1, 1, 2, 5, 15, 52, 203]
    for n in range(1, 9):
        total = 0
        for k in range(1, n + 1):
            counts = [c for _, c in multiset_splits((n,), k)]
            assert all(type(c) is int for c in counts)
            assert sum(counts) == _stirling2(n, k), (n, k)
            total += sum(counts)
        assert total == bell[n], n
    for n in range(1, 7):
        for k in range(1, n + 1):
            splits = multiset_splits((1,) * n, k)
            assert len(splits) == _stirling2(n, k), (n, k)
            assert all(type(c) is int and c == 1 for _, c in splits), (n, k)


def _weak_compositions(n: int, k: int):
    """Every k-tuple of naturals with sum n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _weak_compositions(n - first, k - 1):
            yield (first,) + rest


def _slot_by_slot_splits(a, k) -> dict:
    """The ordered splits of ``a`` into k parts by an independent
    enumeration: deal each exponent a_i into k slots, drop the deals that
    leave a slot with no letter, and take the multinomial as the product over
    i of the multinomials of the deals of a_i."""
    expected = {}
    for deal in itertools.product(*(_weak_compositions(e, k) for e in a)):
        slots = list(zip(*deal))
        if all(map(any, slots)):
            expected[tuple(map(trim, slots))] = math.prod(map(multinomial, deal))
    return expected


def test_ordered_splits_match_slot_by_slot_enumeration():
    """The walk against the independent enumeration: same splits,
    multinomials and yield count, on every block and part count."""
    for a in alphas_up_to(6, 3):
        for k in range(1, alpha_len(a) + 1):
            expected = _slot_by_slot_splits(a, k)
            walked = list(ordered_splits(a, k))
            assert len(walked) == len(expected), (a, k)
            assert dict(walked) == expected, (a, k)
            assert all(type(mult) is int for _, mult in walked), (a, k)


def test_ordered_splits_share_one_head_table():
    """The walks share the head table ``_heads`` of each remainder: cold,
    with the walks of two blocks advanced in turn so that each reads entries
    the other made, and warm, in the other order, every walk yields the
    independent enumeration's splits in the walk's order (lexicographic in
    the parts, padded to the block's length) with ``int`` multinomials."""
    def padded(a, split):
        return tuple(part + (0,) * (len(a) - len(part)) for part in split)

    cases = [(a, k) for a in alphas_up_to(6, 3) for k in range(1, alpha_len(a) + 1)]
    want = {
        (a, k): sorted(_slot_by_slot_splits(a, k).items(), key=lambda kv: padded(a, kv[0]))
        for a, k in cases
    }

    def check(a, k, walked):
        assert walked == want[a, k], (a, k)
        assert all(type(mult) is int for _, mult in walked), (a, k)

    monomials._heads.cache_clear()
    mid = len(cases) // 2
    for pair in itertools.zip_longest(cases[:mid], cases[mid:][::-1]):
        pair = [c for c in pair if c is not None]
        walked = [[] for _ in pair]
        for step in itertools.zip_longest(*(ordered_splits(a, k) for a, k in pair)):
            for out, split in zip(walked, step):
                if split is not None:
                    out.append(split)
        for (a, k), out in zip(pair, walked):
            check(a, k, out)
    assert monomials._heads.cache_info().hits > 0
    for a, k in reversed(cases):
        check(a, k, list(ordered_splits(a, k)))


def test_ordered_splits_order():
    """The walk yields the heads in ``itertools.product`` order of the
    remainder's exponents, depth first."""
    assert list(ordered_splits((2, 1), 2)) == [
        (((0, 1), (2,)), 1),
        (((1,), (1, 1)), 2),
        (((1, 1), (1,)), 2),
        (((2,), (0, 1)), 1),
    ]
    assert list(ordered_splits((2, 0, 1), 2)) == [
        (((0, 0, 1), (2,)), 1),
        (((1,), (1, 0, 1)), 2),
        (((1, 0, 1), (1,)), 2),
        (((2,), (0, 0, 1)), 1),
    ]
    assert list(ordered_splits((1, 1, 1), 3)) == [
        (((0, 0, 1), (0, 1), (1,)), 1),
        (((0, 0, 1), (1,), (0, 1)), 1),
        (((0, 1), (0, 0, 1), (1,)), 1),
        (((0, 1), (1,), (0, 0, 1)), 1),
        (((1,), (0, 0, 1), (0, 1)), 1),
        (((1,), (0, 1), (0, 0, 1)), 1),
    ]
    assert list(ordered_splits((1, 1), 3)) == list(ordered_splits((1, 1), 0)) == []


def test_shift_down_powers_match_repeated_shift_down():
    """Each cached power, one step from the power below it, against
    ``shift_down`` applied n times: same terms, order and coefficient types,
    through the first order past the weight, where it is zero."""
    for a in alphas_up_to(6, 4):
        p = CPoly.basis(a)
        for n in range(alpha_weight(a) + 2):
            got = _shift_down_power_mono(a, n)
            assert [(m, type(c), c) for m, c in got.terms.items()] == [
                (m, type(c), c) for m, c in p.terms.items()
            ], (a, n)
            p = shift_down(p)
        assert got.is_zero(), a


def test_shift_down_power_of_a_deep_block_does_not_recurse():
    """A cold call at order 1,500 stays far from the recursion limit."""
    a = (0,) * 1500 + (1,)
    assert _shift_down_power_mono(a, 1500) == CPoly.basis((1,))
    assert _shift_down_power_mono(a, 1501).is_zero()


def test_block_order_is_alpha_key_order():
    """A forest is stored in plain tuple order and printed in the
    ``alpha_key`` order, on every multiset of at most 4 blocks of at most 3
    letters with indices at most 3, each drawn in a shuffled order."""
    rng = random.Random(5)
    blocks = list(alphas_up_to(3, 3))
    for r in range(5):
        for combo in itertools.combinations_with_replacement(blocks, r):
            drawn = rng.sample(combo, r)
            f = forest_mono(drawn)
            assert f == tuple(sorted(drawn)), drawn
            printed = " | ".join(format_alpha(b) for b in sorted(drawn, key=alpha_key))
            assert format_fm(f) == (printed or "1"), drawn


def test_degree_additive_for_novikov():
    rng = random.Random(47)
    for _ in range(20):
        a = trim([rng.randint(0, 2) for _ in range(3)])
        b = trim([rng.randint(0, 2) for _ in range(3)])
        if not a or not b:
            continue
        for term in novikov(CPoly.basis(a), CPoly.basis(b)).terms:
            assert alpha_deg(term) == alpha_deg(a) + alpha_deg(b)


def test_format_alpha():
    assert format_alpha((1, 2, 1)) == "x2*x1^2*x0"
    assert format_alpha(()) == "1"
