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

Each ``parse_*`` function reads the whole text by one rule.  The tree rule
reads each token with one match of a compiled pattern and leaves every
error to the scanner's ``expect``, which reports it as the other rules do.
Printing is handled by the classes themselves; parse(print(v)) == v.
"""

from __future__ import annotations

import re
import sys
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

    def integer(self, least: int = 0) -> int:
        """A run of digits; an error at its start if its value is below
        ``least`` or it is too long to convert."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.fail("an integer")
        try:
            value = int(self.text[start : self.pos])
        except ValueError:  # more digits than the interpreter converts
            self.pos = start
            self.fail(f"an integer of at most {sys.get_int_max_str_digits()} digits")
        if value < least:
            self.pos = start
            self.fail(f"an integer >= {least}")
        return value


def _whole(text: str, rule):
    """Read all of ``text`` by ``rule``; anything left over is an error."""
    sc = _Scanner(text)
    out = rule(sc)
    if not sc.done():
        sc.fail("end of input")
    return out


def _lincomb(sc: _Scanner, cls, term, unit: bool = True):
    """term (('+'|'-') term)* where term is [coeff '*'?] key | coeff, as an
    element of the ``LinComb`` subclass ``cls``; with ``unit``, a bare coeff
    is a multiple of ``cls.unit_key``."""
    acc = None
    negative = sc.match("-")
    while True:
        coeff = Fraction(1)
        key = None
        if sc.peek().isdecimal():
            num = sc.integer()
            coeff = Fraction(num, sc.integer(least=1)) if sc.match("/") else Fraction(num)
            sc.match("*")
            if sc.done() or sc.peek() in "+-":
                if not unit:
                    sc.fail("a basis element after the coefficient")
                key = cls.unit_key
        if key is None:
            key = term(sc)
        t = cls.basis(key, -coeff if negative else coeff)
        acc = t if acc is None else acc + t
        if sc.match("-"):
            negative = True
        elif sc.match("+"):
            negative = False
        else:
            return acc


def _bars(sc: _Scanner, item) -> list:
    """``1`` (the empty product) or item ('|' item)*."""
    if sc.match("1"):
        return []
    items = [item(sc)]
    while sc.match("|"):
        items.append(item(sc))
    return items


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
    return _whole(text, _word)


def _word_term(sc: _Scanner) -> Word:
    if sc.peek() == "[":
        return _word(sc)
    if sc.peek() != "X":
        sc.fail("a word [i,j,...] or X-letters")
    letters = []
    while sc.match("X"):
        letters.append(sc.integer())
        if not sc.match("*"):
            break
        if sc.peek() != "X":
            sc.fail("another letter after '*'")
    return tuple(letters)


def parse_ncpoly(text: str) -> NCPoly:
    if text.strip() == "0":  # words have no unit, so 0 is not a term
        return NCPoly.zero()
    return _whole(text, lambda sc: _lincomb(sc, NCPoly, _word_term, unit=False))


# -- monomials ---------------------------------------------------------------


def _monomial(sc: _Scanner) -> Alpha:
    """A monomial other than 1; an error at its start if it reduces to 1."""
    sc.skip_ws()
    start = sc.pos
    exps: dict[int, int] = {}
    while sc.match("x"):
        idx = sc.integer()
        power = sc.integer() if sc.match("^") else 1
        exps[idx] = exps.get(idx, 0) + power
        sc.match("*")
    if not exps:
        sc.fail("a monomial like x2*x1^2")
    a = trim(exps.get(i, 0) for i in range(max(exps) + 1))
    if not a:
        sc.pos = start
        sc.fail("a monomial other than 1")
    return a


def parse_monomial(text: str) -> Alpha:
    return _whole(text, _monomial)


# -- forest monomials ---------------------------------------------------------


def _forest_mono(sc: _Scanner):
    return forest_mono(_bars(sc, _monomial))


def parse_forest_mono(text: str):
    return _whole(text, _forest_mono)


def parse_selem(text: str) -> SElem:
    return _whole(text, lambda sc: _lincomb(sc, SElem, _forest_mono))


# -- trees ---------------------------------------------------------------------


_TREE_TOKEN = re.compile(
    r"\s*(?:(?P<leaf>B\[\s*\])|(?P<open>B\[)|(?P<close>\])|(?P<comma>,)"
    r"|(?P<ladder>ladder:)|(?P<corolla>corolla:))"
)
_SHORTHANDS = {"ladder": ladder, "corolla": corolla}


def _tree(sc: _Scanner) -> RootedTree:
    """Each token is one match of ``_TREE_TOKEN`` at ``pos``, named by its
    group; where none fits, the scanner's ``expect`` reports the error."""
    text, token = sc.text, _TREE_TOKEN.match
    pos = sc.pos
    open_lists: list[list[RootedTree]] = []  # children of each open "B["
    while True:
        m = token(text, pos)
        kind = m and m.lastgroup
        if kind == "open":
            open_lists.append([])
            pos = m.end()
            continue
        if kind == "leaf":
            t, pos = LEAF, m.end()
        elif kind in _SHORTHANDS:
            sc.pos = m.end()
            t = _SHORTHANDS[kind](sc.integer(least=1))
            pos = sc.pos
        else:  # no tree starts here, so this raises
            sc.pos = pos
            sc.expect("B[")
        while open_lists:  # t is complete: add it, then close what ends here
            open_lists[-1].append(t)
            m = token(text, pos)
            kind = m and m.lastgroup
            if kind == "comma":
                pos = m.end()
                break
            if kind != "close":  # so this raises
                sc.pos = pos
                sc.expect("]")
            pos = m.end()
            t = RootedTree(open_lists.pop())
        else:  # nothing left open: t is the whole tree
            sc.pos = pos
            return t


def parse_tree(text: str) -> RootedTree:
    return _whole(text, _tree)


def parse_tree_forest(text: str) -> Forest:
    return _whole(text, lambda sc: forest(_bars(sc, _tree)))


# -- polynomials ----------------------------------------------------------------


def _poly_term(sc: _Scanner) -> int:
    if not sc.match("X"):
        sc.fail("X")
    return sc.integer() if sc.match("^") else 1


def parse_poly(text: str) -> Poly:
    return _whole(text, lambda sc: _lincomb(sc, Poly, _poly_term))
