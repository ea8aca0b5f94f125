"""Text syntax for every printable value, with position-reporting errors.

Grammars:
  word        [1,0,2]
  word poly   3/2*X1*X0 + X0*X1      (also 3/2*[1,0])
  monomial    x2*x1^2*x0             (stars optional, whitespace works)
  forest mono x1*x0 | x0             (1 is the empty forest)
  selem       x1*x0 - 2*x0 | x0
  tree        B[B[],B[B[]]]          (shorthands ladder:n, corolla:n)
  tree forest B[] | ladder:3
  polynomial  1/6*X^3 - 1/2*X^2 + 1/3*X

Printing is handled by the classes themselves; parse(print(v)) == v.
"""

from __future__ import annotations

from fractions import Fraction

from .bialgebra import SElem, forest_mono
from .exact import Poly
from .monomials import Alpha, trim
from .trees import LEAF, Forest, RootedTree, corolla, forest, ladder
from .words import NCPoly, Word


class ParseError(ValueError):
    def __init__(self, text: str, pos: int, expected: str):
        self.pos = pos
        self.expected = expected
        super().__init__(f"position {pos}: expected {expected} in {text!r}")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def match(self, lit: str) -> bool:
        self.skip_ws()
        if self.text.startswith(lit, self.pos):
            self.pos += len(lit)
            return True
        return False

    def expect(self, lit: str):
        if not self.match(lit):
            raise ParseError(self.text, self.pos, repr(lit))

    def fail(self, expected: str):
        raise ParseError(self.text, self.pos, expected)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("an integer")
        return int(self.text[start : self.pos])

    def rational(self) -> Fraction:
        self.skip_ws()
        sign = 1
        if self.match("-"):
            sign = -1
        elif self.match("+"):
            pass
        num = self.integer()
        if self.match("/"):
            return Fraction(sign * num, self.integer())
        return Fraction(sign * num)

    def at_number(self) -> bool:
        return self.peek().isdigit()

    def end(self):
        if not self.done():
            self.fail("end of input")


def _lincomb(sc: _Scanner, term_fn, make_basis, unit_allowed: bool):
    """term (('+'|'-') term)* where term is [coeff '*'?] basis | coeff."""
    acc = None
    first = True
    while True:
        sc.skip_ws()
        if first:
            negative = sc.match("-")
            first = False
        else:
            if sc.match("+"):
                negative = False
            elif sc.match("-"):
                negative = True
            else:
                break
        coeff = Fraction(1)
        if sc.at_number():
            num = sc.integer()
            if sc.match("/"):
                coeff = Fraction(num, sc.integer())
            else:
                coeff = Fraction(num)
            sc.match("*")
            sc.skip_ws()
            if sc.done() or sc.peek() in "+-":
                if not unit_allowed:
                    sc.fail("a basis element after the coefficient")
                term = make_basis(None, -coeff if negative else coeff)
                acc = term if acc is None else acc + term
                continue
        key = term_fn(sc)
        term = make_basis(key, -coeff if negative else coeff)
        acc = term if acc is None else acc + term
    if acc is None:
        sc.fail("at least one term")
    return acc


# -- words -------------------------------------------------------------------


def format_word(w: Word) -> str:
    return "[" + ",".join(str(i) for i in w) + "]"


def _word(sc: _Scanner) -> Word:
    sc.expect("[")
    letters = [sc.integer()]
    while sc.match(","):
        letters.append(sc.integer())
    sc.expect("]")
    return tuple(letters)


def parse_word(text: str) -> Word:
    sc = _Scanner(text)
    w = _word(sc)
    sc.end()
    return w


def _word_term(sc: _Scanner) -> Word:
    if sc.peek() == "[":
        return _word(sc)
    if sc.peek() != "X":
        sc.fail("a word [i,j,...] or X-letters")
    letters = []
    while True:
        if not sc.match("X"):
            break
        letters.append(sc.integer())
        if not sc.match("*"):
            break
        if sc.peek() != "X":
            sc.fail("another letter after '*'")
    if not letters:
        sc.fail("at least one letter")
    return tuple(letters)


def parse_ncpoly(text: str) -> NCPoly:
    if text.strip() == "0":
        return NCPoly.zero()
    sc = _Scanner(text)
    out = _lincomb(sc, _word_term, lambda k, c: NCPoly.basis(k, c), unit_allowed=False)
    sc.end()
    return out


# -- monomials ---------------------------------------------------------------


def _monomial(sc: _Scanner) -> Alpha:
    exps: dict[int, int] = {}
    seen = False
    while True:
        sc.skip_ws()
        if not sc.match("x"):
            break
        seen = True
        idx = sc.integer()
        power = sc.integer() if sc.match("^") else 1
        exps[idx] = exps.get(idx, 0) + power
        sc.match("*")
    if not seen:
        sc.fail("a monomial like x2*x1^2")
    top = max(exps)
    return trim(exps.get(i, 0) for i in range(top + 1))


def parse_monomial(text: str) -> Alpha:
    sc = _Scanner(text)
    a = _monomial(sc)
    sc.end()
    return a


# -- forest monomials ---------------------------------------------------------


def _forest_mono(sc: _Scanner):
    if sc.peek() == "1":
        sc.expect("1")
        return ()
    blocks = [_monomial(sc)]
    while sc.match("|"):
        blocks.append(_monomial(sc))
    return forest_mono(blocks)


def parse_forest_mono(text: str):
    sc = _Scanner(text)
    f = _forest_mono(sc)
    sc.end()
    return f


def parse_selem(text: str) -> SElem:
    if text.strip() == "0":
        return SElem.zero()
    sc = _Scanner(text)
    out = _lincomb(
        sc,
        _forest_mono,
        lambda k, c: SElem.basis(() if k is None else k, c),
        unit_allowed=True,
    )
    sc.end()
    return out


# -- trees ---------------------------------------------------------------------


def _tree(sc: _Scanner) -> RootedTree:
    open_lists: list[list[RootedTree]] = []  # children of each open "B["
    while True:
        if sc.match("ladder:"):
            t = ladder(sc.integer())
        elif sc.match("corolla:"):
            t = corolla(sc.integer())
        else:
            sc.expect("B[")
            if not sc.match("]"):
                open_lists.append([])
                continue
            t = LEAF
        while open_lists:  # t is complete: add it, then close what ends here
            open_lists[-1].append(t)
            if sc.match(","):
                break
            sc.expect("]")
            t = RootedTree(open_lists.pop())
        else:  # nothing left open: t is the whole tree
            return t


def parse_tree(text: str) -> RootedTree:
    sc = _Scanner(text)
    t = _tree(sc)
    sc.end()
    return t


def _tree_forest(sc: _Scanner) -> Forest:
    if sc.peek() == "1":
        sc.expect("1")
        return ()
    trees = [_tree(sc)]
    while sc.match("|"):
        trees.append(_tree(sc))
    return forest(trees)


def parse_tree_forest(text: str) -> Forest:
    sc = _Scanner(text)
    f = _tree_forest(sc)
    sc.end()
    return f


# -- polynomials ----------------------------------------------------------------


def _poly_term(sc: _Scanner) -> int:
    if not sc.match("X"):
        sc.fail("X")
    if sc.match("^"):
        return sc.integer()
    return 1


def parse_poly(text: str) -> Poly:
    sc = _Scanner(text)
    if sc.peek() == "0":
        mark = sc.pos
        sc.expect("0")
        if sc.done():
            return Poly.zero()
        sc.pos = mark
    out = _lincomb(
        sc,
        _poly_term,
        lambda k, c: Poly.basis(0 if k is None else k, c),
        unit_allowed=True,
    )
    sc.end()
    return out
