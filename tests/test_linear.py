import ast
from fractions import Fraction
from pathlib import Path

import mindex
from mindex.exact import Poly


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
