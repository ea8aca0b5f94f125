import ast
from fractions import Fraction
from pathlib import Path

import pytest

import mindex
from mindex.bialgebra import (
    SElem,
    STensor,
    antipode,
    graft_coproduct,
    sub_coproduct,
    _antipode_block,
    _graft_coproduct_block,
    _sub_coproduct_block,
)
from mindex.exact import Poly
from mindex.linear import LinComb
from mindex.morphisms import mu_value
from mindex.selfcheck import alphas_up_to, trees_up_to
from mindex.trees import contract_coproduct, cut_coproduct


def test_adopt_takes_the_dict_over():
    terms = {2: Fraction(3)}
    p = Poly.adopt(terms)
    assert p.terms is terms and p == Poly({2: 3})


def test_product_stops_at_the_first_zero():
    seen = []

    def factors():
        for f in (Poly.x(), Poly.zero(), Poly.x()):
            seen.append(f)
            yield f

    assert Poly.product([]) == Poly.one()
    assert Poly.product([Poly({1: 1, 0: 1})] * 2) == Poly({2: 1, 1: 2, 0: 1})
    assert Poly.product(factors()).is_zero() and len(seen) == 2


def test_product_starts_from_the_first_factor():
    x = Poly.x()
    assert Poly.product([x]) == x
    assert Poly.product(iter([x, x])) == x * x
    assert Poly.product([3, x]) == 3 * x
    with pytest.raises(TypeError):
        Poly.product([x, SElem.block((1,))])
    with pytest.raises(TypeError):
        Poly.product([SElem.block((1,)), x])


def test_only_linear_builds_elements():
    """Every module but linear.py builds elements through ``LinComb``'s
    constructors, ``adopt`` and ``product``: none calls ``__new__`` or
    assigns ``.terms``."""
    found = []
    for path in sorted(Path(mindex.__file__).parent.glob("*.py")):
        if path.name == "linear.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and (
                node.attr == "__new__" or node.attr == "terms" and isinstance(node.ctx, ast.Store)
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_coefficients_are_int_when_integral():
    """``add_term``, the constructors and ``scale`` store an integral
    coefficient as an ``int`` and any other as a ``Fraction``."""
    p = Poly({0: Fraction(4, 2), 1: Fraction(1, 2), 2: "3/3", 3: True})
    assert [type(c) for _, c in sorted(p.terms.items())] == [int, Fraction, int, int]
    assert type(Poly.basis(1, Fraction(6, 3)).coeff(1)) is int
    assert p.scale(2).terms == {0: 4, 1: 1, 2: 2, 3: 2}
    assert all(type(c) is int for c in p.scale(2).terms.values())
    assert type((p + Poly({1: Fraction(1, 2)})).coeff(1)) is int
    assert type((Poly({0: Fraction(1, 2)}) * Poly({0: 2})).coeff(0)) is int
    assert type(p.coeff(7)) is int and p.coeff(7) == 0


def test_map_keys_shares_the_image_of_a_basis_element():
    """On one key with coefficient 1, ``map_keys`` returns ``fn(key)`` itself
    when it is of the target class; with another coefficient, several keys
    or another target class it builds a new element, as a linear map."""
    images = {1: Poly({0: 1, 2: Fraction(1, 2)}), 2: Poly({1: -3}), 3: Poly({0: -1})}
    fn = images.__getitem__
    assert Poly.basis(1).map_keys(fn) is images[1]
    out = Poly.basis(1, 2).map_keys(fn)
    assert out == 2 * images[1] and out is not images[1]
    assert Poly.basis(1, Fraction(1, 2)).map_keys(fn) == images[1].scale(Fraction(1, 2))
    assert Poly({1: 1, 3: 1}).map_keys(fn) == Poly({2: Fraction(1, 2)})
    assert Poly({1: 1, 2: 2}).map_keys(fn) == images[1] + 2 * images[2]
    other = Poly.basis(1).map_keys(fn, target=LinComb)
    assert type(other) is LinComb and other.terms == images[1].terms
    assert other.terms is not images[1].terms
    assert Poly.zero().map_keys(fn) == Poly.zero()
    assert images == {1: Poly({0: 1, 2: Fraction(1, 2)}), 2: Poly({1: -3}), 3: Poly({0: -1})}


def test_shared_block_images_stay_unchanged():
    """A basis block's coproducts and antipode are the cached block elements
    themselves; scaling, negating, adding and multiplying them leaves the
    cached terms as they were."""
    for a in [(1,), (2, 1), (1, 1, 1), (3, 0, 1)]:
        e = SElem.block(a)
        cached = [_sub_coproduct_block(a), _graft_coproduct_block(a), _antipode_block(a)]
        shared = [sub_coproduct(e), graft_coproduct(e), antipode(e)]
        assert all(s is c for s, c in zip(shared, cached)), a
        before = [dict(c.terms) for c in cached]
        for s in shared:
            s.scale(3), s.scale(0), -s, s + s, s - s, 2 * s, s * s
        sub_coproduct(SElem.block(a, 2)) + graft_coproduct(e + SElem.block((0, 1)))
        assert [c.terms for c in cached] == before, a
        assert type(shared[0]) is STensor and type(shared[2]) is SElem


def _stored(elem):
    """The coefficients of ``elem``, checked for the normal form: none is a
    Fraction with denominator 1."""
    coeffs = list(elem.terms.values())
    assert all(type(c) is int or type(c) is Fraction and c.denominator != 1 for c in coeffs)
    return coeffs


def test_kernels_store_the_normal_form():
    """The block coproducts, the antipode and mu on every block of at most 5
    letters with indices at most 3, and both tree coproducts on every tree
    of at most 7 vertices, store integral coefficients as ints; every graft
    coefficient and every value of mu is an integer."""
    for a in alphas_up_to(5, 3):
        e = SElem.block(a)
        _stored(sub_coproduct(e))
        assert all(type(c) is int for c in _stored(graft_coproduct(e)))
        _stored(antipode(e))
        assert type(mu_value(a)) is int
    for t in trees_up_to(7):
        _stored(cut_coproduct((t,)))
        _stored(contract_coproduct((t,)))
