import itertools
import random
from fractions import Fraction

import pytest

from mindex.selfcheck import _compose_lin
from mindex.words import (
    ArityError,
    NCPoly,
    _compositions,
    _shift_power,
    block_permutation,
    brace,
    compose,
    graded_dim,
    grading,
    pairing,
    partial_compose,
    permute,
    shift_down,
    shift_up,
    shift_up_power,
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


def _iterated_compose(word, args):
    return NCPoly.product(map(shift_up_power, args, word))


def _same(got, want):
    """Equal terms with the same coefficient types (``int`` when integral)."""
    return got.terms == want.terms and all(
        type(c) is type(want.terms[u]) for u, c in got.terms.items()
    )


def _random_ncpoly(rng):
    """One to three words of one to three letters at most 2, coefficients
    nonzero and possibly fractional, so terms can merge and cancel."""
    p = NCPoly.zero()
    for _ in range(rng.randint(1, 3)):
        u = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        p = p + NCPoly.basis(u, Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 1, 2])))
    return p


def test_compose_agrees_with_multinomial_form():
    """``compose``, the closed multinomial form, against the iterated
    one-step derivation, on word and polynomial arguments."""
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 3)
        word = tuple(rng.randint(0, 3) for _ in range(n))
        args = [w(tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))) for _ in range(n)]
        assert compose(word, args) == _iterated_compose(word, args)
    for _ in range(60):
        n = rng.randint(1, 3)
        word = tuple(rng.randint(0, 4) for _ in range(n))
        args = [_random_ncpoly(rng) for _ in range(n)]
        if not all(args):
            continue
        assert _same(compose(word, args), _iterated_compose(word, args)), (
            word,
            [str(a) for a in args],
        )


def _shift_down_power(p, n):
    for _ in range(n):
        p = shift_down(p)
    return p


def test_shift_power_matches_iterated_derivation():
    """Every word of at most 3 letters, each at most 3, for 0 <= n <= 5,
    up and down, and polynomial arguments."""
    words = [u for m in range(1, 4) for u in itertools.product(range(4), repeat=m)]
    rng = random.Random(21)
    polys = [_random_ncpoly(rng) for _ in range(25)]
    for p in [w(u) for u in words] + polys:
        for n in range(6):
            assert _same(_shift_power(p, n), shift_up_power(p, n)), (str(p), n)
            assert _same(_shift_power(p, -n), _shift_down_power(p, n)), (str(p), -n)
    p = w((1, 0))
    assert _shift_power(p, 0) is p


def test_compositions_are_the_capped_tuples_in_order():
    """The stars-and-bars enumeration is the filtered product, in the same
    (lexicographic) order, with no tuple twice."""
    for m in range(5):
        for caps in itertools.product(range(4), repeat=m):
            for total in range(9):
                want = [
                    k for k in itertools.product(*(range(c + 1) for c in caps)) if sum(k) == total
                ]
                assert list(_compositions(total, caps)) == want, (total, caps)
    assert len(list(_compositions(30, (30,) * 5))) == 46376


def test_compose_long_argument():
    """1,500-letter arguments: nothing recurses per letter."""
    arg = NCPoly.word((0,) * 1500)
    got = compose((1,), [arg])
    assert len(got.terms) == 1500
    assert got == shift_up_power(arg, 1)
    assert sum(1 for _ in _compositions(1, (1,) * 1500)) == 1500
    tail = NCPoly.word((0,) * 1499 + (3,))
    assert _shift_power(tail, -2) == shift_down(shift_down(tail)) == w((0,) * 1499 + (1,))


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


def test_arguments_holding_the_empty_word_are_rejected():
    """The empty word ``()`` is no word: an argument that holds it is
    rejected by ``compose``, ``brace`` and ``partial_compose``, with other
    terms beside it or not."""
    one = NCPoly.one()
    for bad in (one, w((0,)) + one, w((1, 0)) - 2 * one):
        with pytest.raises(ValueError, match="empty word"):
            compose((0,), [bad])
        with pytest.raises(ValueError, match="empty word"):
            compose((1, 0), [w((0,)), bad])
        with pytest.raises(ValueError, match="empty word"):
            brace((0, 1), [bad])
        with pytest.raises(ValueError, match="empty word"):
            partial_compose(w((1,)), 1, bad)
    assert compose((1,), [w((0,)) + w((1,))]) == w((1,)) + w((2,))


def test_brace_single_argument_is_prelie():
    rng = random.Random(5)
    for _ in range(20):
        word = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        q = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
        # the substitution pre-Lie product: sum over slots of shifted insertion
        expected = NCPoly.zero()
        for k in range(len(word)):
            term = NCPoly.basis(word[:k])
            term = term * shift_up_power(w(q), word[k])
            term = term * NCPoly.basis(word[k + 1 :])
            expected = expected + term
        assert brace(word, [w(q)]) == expected


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


def test_permutations_are_checked():
    assert permute((3, 4), [1, 0]) == (4, 3)
    assert block_permutation([1, 0], [1, 2]) == (2, 0, 1)
    for sigma in ([1, 1], [0], [0, 1, 2], [0, 2], [-1, 0]):
        with pytest.raises(ValueError, match="permutation"):
            permute((3, 4), sigma)
        with pytest.raises(ValueError, match="permutation"):
            block_permutation(sigma, [1, 1])


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
