import itertools
import random
from fractions import Fraction

import pytest

from mindex.selfcheck import _compose_lin
from mindex.words import (
    ArityError,
    NCPoly,
    block_permutation,
    brace,
    compose,
    compose_multinomial,
    graded_dim,
    grading,
    pairing,
    partial_compose,
    permute,
    shift_down,
    shift_up,
    word_coproduct,
)

w = NCPoly.word


def test_grading():
    assert grading((0,)) == (1, 0, 0)
    assert grading((1, 0)) == (2, 1, 0)
    assert grading((0, 0)) == (2, 0, -1)


def test_words_are_nonempty():
    with pytest.raises(ValueError):
        NCPoly.word(())


def test_shift_up():
    assert shift_up(w((0,))) == w((1,))
    assert shift_up(w((0, 0))) == w((1, 0)) + w((0, 1))
    # apply the letterwise sum directly
    assert shift_up(w((1, 0))) == w((2, 0)) + w((1, 1))


def test_shift_down():
    assert shift_down(w((0,))).is_zero()
    assert shift_down(w((1, 0))) == w((0, 0))
    assert shift_down(shift_down(w((1, 0)))).is_zero()


def test_compose_fixtures():
    assert compose((1, 0), [w((1, 0)), w((0,))]) == w((2, 0, 0)) + w((1, 1, 0))
    assert compose((2, 1), [w((0,)), w((3,))]) == w((2, 4))
    assert compose((3, 1, 2), [w((0,))] * 3) == w((3, 1, 2))
    assert compose((1, 0), [w((0,)), w((1, 0))]) == w((1, 1, 0))


def test_compose_arity_error():
    with pytest.raises(ArityError) as exc:
        compose((1, 0), [w((0,))])
    assert exc.value.expected == 2 and exc.value.actual == 1


def test_compose_agrees_with_multinomial_form():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 3)
        word = tuple(rng.randint(0, 3) for _ in range(n))
        args = [tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3))) for _ in range(n)]
        assert compose(word, [w(a) for a in args]) == compose_multinomial(word, args)


def test_partial_compose():
    assert partial_compose(w((0, 0)), 1, w((1,))) == w((1, 0))
    assert partial_compose(w((0, 0)), 1, w((0, 0))) == w((0, 0, 0))
    assert partial_compose(w((0, 0)), 2, w((0, 0))) == w((0, 0, 0))
    assert partial_compose(w((1,)), 1, w((0, 0))) == w((1, 0)) + w((0, 1))
    with pytest.raises(ValueError):
        partial_compose(w((0, 0)), 3, w((1,)))
    with pytest.raises(ValueError):
        partial_compose(w((0,)) + w((0, 0)), 1, w((1,)))


def test_brace():
    assert brace((1,), [w((0, 0))]) == w((1, 0)) + w((0, 1))
    assert brace((1, 0), [w((1,))]) == w((2, 0)) + w((1, 1))
    assert brace((1, 0), []) == w((1, 0))
    assert brace((1, 0), [w((1,))] * 3).is_zero()


def test_brace_single_argument_is_prelie():
    rng = random.Random(5)
    for _ in range(20):
        word = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        q = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
        # the substitution pre-Lie product: sum over slots of shifted insertion
        expected = NCPoly.zero()
        for k in range(len(word)):
            term = NCPoly.basis(word[:k])
            term = term * _shift_pow(w(q), word[k])
            term = term * NCPoly.basis(word[k + 1 :])
            expected = expected + term
        assert brace(word, [w(q)]) == expected


def _shift_pow(p, n):
    for _ in range(n):
        p = shift_up(p)
    return p


def test_graded_dim_table_row():
    assert graded_dim(3, 2) == 15
    assert graded_dim(1, 0) == 1
    assert graded_dim(5, -4) == 1
    assert graded_dim(2, -2) == 0


def test_graded_dim_brute_force():
    for n in range(1, 5):
        for k in range(-4, 5):
            omega = k + n - 1
            count = 0
            if omega >= 0:
                count = sum(
                    1
                    for comb in itertools.product(range(omega + 1), repeat=n)
                    if sum(comb) == omega
                )
            assert graded_dim(n, k) == count


def test_word_coproduct_single_letter():
    rows = word_coproduct((2,))
    assert rows == {
        ((0,), ((2,),)): Fraction(1),
        ((1,), ((1,),)): Fraction(1),
        ((2,), ((0,),)): Fraction(1),
    }


def test_word_coproduct_unit_word():
    assert word_coproduct((0,)) == {((0,), ((0,),)): Fraction(1)}


def test_word_coproduct_two_letters():
    rows = word_coproduct((1, 0))
    assert rows == {
        ((0,), ((1, 0),)): Fraction(1),
        ((1,), ((0, 0),)): Fraction(1),
        ((0, 0), ((1,), (0,))): Fraction(1),
        ((1, 0), ((0,), (0,))): Fraction(1),
    }


def test_word_coproduct_composition_duality():
    rng = random.Random(9)
    for _ in range(6):
        word = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        rows = word_coproduct(word)
        for (u, qs), c in rows.items():
            assert compose(u, [w(q) for q in qs]).coeff(word) == c


def test_operad_associativity_exhaustive_small():
    letters = (0, 1)
    for a in letters:
        for b in letters:
            word_ = (a, b)
            for p1 in [(0,), (1,), (0, 0)]:
                for p2 in [(0,), (1,)]:
                    inner = compose(word_, [w(p1), w(p2)])
                    args = [w((0,))] * (len(p1) + len(p2))
                    assert _compose_lin(inner, args) == inner


def test_equivariance_instance():
    """Every permutation of at most 4 slots, arguments of 1 or 2 letters."""
    for n in range(1, 5):
        word_ = tuple(range(n))
        for sigma in itertools.permutations(range(n)):
            inv = [sigma.index(k) for k in range(n)]
            for lengths in itertools.product((1, 2), repeat=n):
                ps = [tuple(range(j, j + m)) for j, m in enumerate(lengths)]
                lhs = compose(permute(word_, sigma), [w(p) for p in ps])
                base = compose(word_, [w(ps[inv[k]]) for k in range(n)])
                pi = block_permutation(sigma, lengths)
                rhs = base.map_keys(lambda u: NCPoly.basis(permute(u, pi)))
                assert lhs == rhs, (sigma, lengths)


def test_novikov_relations_displayed():
    gen = (1, 0)
    nap = compose(gen, [w((0,)), w(gen)])
    assert nap == w((1, 1, 0))
    assert nap.map_keys(lambda u: NCPoly.basis(permute(u, (1, 0, 2)))) == nap
    pl = compose(gen, [w(gen), w((0,))]) - nap
    assert pl == w((2, 0, 0))
    assert pl.map_keys(lambda u: NCPoly.basis(permute(u, (0, 2, 1)))) == pl


def test_shift_duality_pairing():
    rng = random.Random(13)
    for _ in range(30):
        p = w(tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3))))
        q = w(tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 3))))
        assert pairing(shift_up(p), q) == pairing(p, shift_down(q))


def test_grading_additivity_on_compositions():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 3)
        word_ = tuple(rng.randint(0, 3) for _ in range(n))
        ps = [tuple(rng.randint(0, 3) for _ in range(rng.randint(1, 2))) for _ in range(n)]
        want_deg = grading(word_)[2] + sum(grading(p)[2] for p in ps)
        for term in compose(word_, [w(p) for p in ps]).terms:
            assert grading(term)[2] == want_deg
            assert grading(term)[0] == sum(len(p) for p in ps)
