"""Shared machinery for finite linear combinations over the rationals.

Every algebra in this package (words, commutative monomials, forest
monomials, rooted forests, tensors thereof) is a free module with a
hashable basis.  ``LinComb`` stores such an element as a dict
``basis key -> coefficient`` with no zero coefficients ever kept, so
equality of dicts is equality of elements.  A coefficient is an exact
rational in one normal form: an ``int`` when it is integral, a ``Fraction``
otherwise.  This module is the one place that normalises, in ``add_term``,
``_exact`` and the constructors below; no kernel elsewhere converts a
coefficient by hand.  Code elsewhere must keep true division exact: divide
with ``Fraction(n, d)`` or a ``Fraction`` operand (``int / int`` is a
``float``).  Subclasses fix how two basis keys multiply and how a key is
rendered; ``Tensor`` pairs two of them.  The law kit at the end checks each
bialgebra law once, key by key, for any algebra described by a
``DoubleBialgebra`` record, such as ``bialgebra.FOREST_SIDE`` and
``trees.TREE_SIDE``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


def _exact(value):
    """``value`` as an exact rational in normal form: an ``int`` when its
    denominator is 1, a ``Fraction`` otherwise."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def add_term(acc: dict, key, coeff) -> None:
    """Accumulate the int or Fraction ``coeff`` on ``key`` in ``acc``,
    dropping exact zeros and storing an integral sum as an ``int``."""
    c = acc.get(key)
    if c is not None:
        coeff = c + coeff
    if coeff:
        acc[key] = coeff if type(coeff) is int or coeff.denominator != 1 else coeff.numerator
    elif c is not None:
        del acc[key]


class LinComb:
    """A finite linear combination of hashable basis keys with exact
    rational coefficients, each an ``int`` when integral and a ``Fraction``
    otherwise (see ``_exact``).

    Immutable by convention: no public method mutates ``self.terms`` and
    callers must not either.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        data: dict = {}
        if terms:
            items = terms.items() if isinstance(terms, Mapping) else terms
            for key, coeff in items:
                add_term(data, key, _exact(coeff))
        self.terms = data

    # -- vector space structure ------------------------------------------

    unit_key = ()

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def basis(cls, key, coeff=1):
        coeff = _exact(coeff)
        return cls.adopt({key: coeff} if coeff else {})

    @classmethod
    def one(cls, coeff=1):
        return cls.basis(cls.unit_key, coeff)

    @classmethod
    def adopt(cls, terms: dict):
        """The element whose ``terms`` is the finished dict ``terms``, which
        holds no zero coefficient, only normal-form ones (see ``_exact``), and
        is taken over, not copied."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def product(cls, factors):
        """The first factor times each later one in turn, ``one()`` if there
        is none, stopping at the first zero: the factors after it are never
        drawn from ``factors``.  A first factor of another type is multiplied
        onto ``one()``, so it scales or raises ``TypeError`` as ``__mul__``
        does."""
        factors = iter(factors)
        for out in factors:
            break
        else:
            return cls.one()
        if type(out) is not cls:
            out = cls.one() * out
        if out.terms:
            for f in factors:
                out = out * f
                if not out.terms:
                    break
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        data = dict(self.terms)
        for key, coeff in other.terms.items():
            add_term(data, key, coeff)
        return self.adopt(data)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        data = dict(self.terms)
        for key, coeff in other.terms.items():
            add_term(data, key, -coeff)
        return self.adopt(data)

    def __neg__(self):
        return self.adopt({k: -c for k, c in self.terms.items()})

    def scale(self, factor):
        factor = _exact(factor)
        return self.adopt({k: _exact(c * factor) for k, c in self.terms.items()} if factor else {})

    def __rmul__(self, factor):
        if isinstance(factor, (int, Fraction)):
            return self.scale(factor)
        return NotImplemented

    # -- algebra structure -----------------------------------------------

    @staticmethod
    def key_mul(a, b):
        """Product of two basis keys; subclasses override."""
        raise NotImplementedError

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        data: dict = {}
        for ka, ca in self.terms.items():
            for kb, cb in other.terms.items():
                add_term(data, self.key_mul(ka, kb), ca * cb)
        return self.adopt(data)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        return self.product([self] * n)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def coeff(self, key):
        return self.terms.get(key, 0)

    def map_keys(self, fn, target=None):
        """Linear extension of a basis-key map ``key -> LinComb``.  On a basis
        element, one key with coefficient 1, the image ``fn(key)`` is returned
        itself when it is already of the target class: elements are
        immutable, so it is shared, not copied."""
        cls = target if target is not None else type(self)
        data: dict = {}
        for key, coeff in self.terms.items():
            image = fn(key)
            if coeff == 1 and type(image) is cls and len(self.terms) == 1:
                return image
            for k2, c2 in image.terms.items():
                add_term(data, k2, coeff * c2)
        return cls.adopt(data)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: self.sort_key(kv[0]))

    @staticmethod
    def sort_key(key):
        return key

    @staticmethod
    def format_key(key) -> str:
        return str(key)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in self.sorted_terms():
            mono = self.format_key(key)
            if mono == "1":
                body = str(abs(coeff))
            elif abs(coeff) == 1:
                body = mono
            else:
                body = f"{abs(coeff)}*{mono}"
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"



class Tensor(LinComb):
    """Two-slot tensors over the algebra named by a subclass,
    ``class STensor(Tensor, slot=SElem)``: keys are pairs of slot keys,
    multiplied, sorted and printed slot by slot.  The slot's key functions
    are bound once, so the hot key product looks up no attributes."""

    __slots__ = ()

    def __init_subclass__(cls, slot, **kwargs):
        super().__init_subclass__(**kwargs)
        mul, sort, fmt = slot.key_mul, slot.sort_key, slot.format_key
        cls.unit_key = (slot.unit_key, slot.unit_key)
        cls.key_mul = staticmethod(lambda a, b: (mul(a[0], b[0]), mul(a[1], b[1])))
        cls.sort_key = staticmethod(lambda key: (sort(key[0]), sort(key[1])))
        cls.format_key = staticmethod(lambda key: f"{fmt(key[0])} (x) {fmt(key[1])}")


# -- bialgebra law kit --------------------------------------------------------


class DoubleBialgebra:
    """Two bialgebra structures on one algebra with unit key ``()``: the key
    product ``mul`` and two ``(coproduct, counit)`` pairs over keys, ``delta``
    (substitution type) and ``Delta`` (Hopf type, acting on the left factor
    of ``delta`` in cointeraction).  A coproduct maps a key to a two-slot
    tensor, a counit maps a key to a number.  Mutable, so that tracing tools
    can swap the held functions for wrappers."""

    def __init__(self, mul, delta, Delta):
        self.mul = mul
        self.delta, self.eps_delta = delta
        self.Delta, self.eps_Delta = Delta


def coassociative(coproduct, key) -> bool:
    """(D x id) D = (id x D) D on ``key``, for the coproduct D."""
    lhs: dict = {}
    rhs: dict = {}
    for (a, b), c in coproduct(key).terms.items():
        for (a1, a2), c2 in coproduct(a).terms.items():
            add_term(lhs, (a1, a2, b), c * c2)
        for (b1, b2), c2 in coproduct(b).terms.items():
            add_term(rhs, (a, b1, b2), c * c2)
    return lhs == rhs


def counital(coproduct, counit, key) -> bool:
    """Both counit laws on ``key``: (e x id) D = id = (id x e) D."""
    left: dict = {}
    right: dict = {}
    for (a, b), c in coproduct(key).terms.items():
        add_term(left, b, c * counit(a))
        add_term(right, a, c * counit(b))
    return left == right == {key: 1}


def graded(coproduct, key, grade) -> bool:
    """grade(a) + grade(b) = grade(key) on every row a (x) b of the coproduct
    of ``key``, for an additive ``grade`` of keys."""
    total = grade(key)
    return all(grade(a) + grade(b) == total for a, b in coproduct(key).terms)


def antipode_law(side: DoubleBialgebra, antipode, key) -> bool:
    """m (S x id) Delta = e_Delta * 1 on ``key``; ``antipode`` maps a key to
    a linear combination."""
    acc: dict = {}
    for (a, b), c in side.Delta(key).terms.items():
        for s, cs in antipode(a).terms.items():
            add_term(acc, side.mul(s, b), c * cs)
    return acc == LinComb.one(side.eps_Delta(key)).terms


def cointeraction(side: DoubleBialgebra, key) -> bool:
    """Both halves of the cointeraction of ``Delta`` with ``delta`` on ``key``:
    (Delta x id) delta = m_13 (delta x delta) Delta, and
    (e_Delta x id) delta = e_Delta * 1."""
    lhs: dict = {}
    counit_side: dict = {}
    for (a, b), c in side.delta(key).terms.items():
        for (a1, a2), c2 in side.Delta(a).terms.items():
            add_term(lhs, (a1, a2, b), c * c2)
        add_term(counit_side, b, c * side.eps_Delta(a))
    rhs: dict = {}
    for (u, v), c in side.Delta(key).terms.items():
        dv = side.delta(v).terms
        for (u1, u2), cu in side.delta(u).terms.items():
            for (v1, v2), cv in dv.items():
                add_term(rhs, (u1, v1, side.mul(u2, v2)), c * cu * cv)
    return lhs == rhs and counit_side == LinComb.one(side.eps_Delta(key)).terms


def is_morphism(phi, source: DoubleBialgebra, target: DoubleBialgebra, key) -> bool:
    """(phi x phi) D = D phi on ``key`` for both coproduct pairs, where
    ``phi`` maps a source key to a linear combination of target keys."""
    for src, tgt in ((source.Delta, target.Delta), (source.delta, target.delta)):
        lhs: dict = {}
        for (a, b), c in src(key).terms.items():
            pb = phi(b).terms
            for ka, ca in phi(a).terms.items():
                for kb, cb in pb.items():
                    add_term(lhs, (ka, kb), c * ca * cb)
        if lhs != phi(key).map_keys(tgt, target=LinComb).terms:
            return False
    return True
