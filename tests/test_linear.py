import ast
from fractions import Fraction
from pathlib import Path

import pytest

import mindex
from mindex.bialgebra import SElem, antipode, graft_coproduct, sub_coproduct
from mindex.exact import Poly
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
