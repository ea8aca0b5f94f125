import itertools
import math
import random
from fractions import Fraction

from mindex.monomials import (
    CPoly,
    abelianize,
    alpha_deg,
    alpha_factorial,
    alpha_key,
    alpha_len,
    format_alpha,
    multiset_splits,
    novikov,
    novikov_multi,
    ordered_splits,
    prelie,
    prelie_multi,
    shift_down,
    shift_up,
    shuffle_splits,
    trim,
    _sorted_blocks,
)
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


def test_multiset_splits_match_ordered_splits():
    """The exponential-formula kernel against the ordered splits grouped by
    sorted parts, each weighted multinomial/(g! k!), for every part count."""
    for g in alphas_up_to(6, 3):
        for k in range(alpha_len(g) + 2):
            oracle: dict = {}
            for split, mult in ordered_splits(g, k):
                key = tuple(sorted(split, key=alpha_key))
                w = Fraction(mult, alpha_factorial(g) * math.factorial(k))
                oracle[key] = oracle.get(key, 0) + w
            assert dict(multiset_splits(g, k)) == oracle, (g, k)


def test_block_order_is_alpha_key_order():
    """``_sorted_blocks`` puts blocks in the ``alpha_key`` order, on every
    multiset of at most 4 blocks of at most 3 letters with indices at most 3,
    each drawn in a shuffled order."""
    rng = random.Random(5)
    blocks = list(alphas_up_to(3, 3))
    for r in range(5):
        for combo in itertools.combinations_with_replacement(blocks, r):
            drawn = rng.sample(combo, r)
            assert _sorted_blocks(drawn) == tuple(sorted(drawn, key=alpha_key)), drawn


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
