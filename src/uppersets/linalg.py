"""Exact rational vectors, the small linear-algebra helpers the geometry needs,
and ``read_number``, the one reader of every number that enters the library.

Vectors are plain tuples of ``fractions.Fraction`` or ``int``, which
interoperate; everything here is pure and allocation-light because the
double description method calls these in tight loops.  ``dot`` and the
vector operations keep integer inputs integer.  ``primitive`` and
``clear_denominators`` always return integers and never build a Fraction:
they read every entry's ``numerator`` and ``denominator`` (an ``int`` has
denominator 1), and ``primitive`` of an all-``int`` vector is one ``gcd``.
A number is an ``int`` (not a ``bool``), a ``Fraction`` or a string ``p`` or
``p/q`` in ASCII digits (``NUMBER``, the workspace's pattern); anything else,
a float included, is refused.  Only ``read_number`` builds a ``Fraction``.
``Value`` is the base of the library's immutable value classes.
"""

from __future__ import annotations

import contextlib
import functools
import re
from fractions import Fraction
from math import gcd, lcm
from operator import attrgetter, mul
from typing import Iterable, Sequence

Vec = tuple

NEG_INF = float("-inf")
POS_INF = float("inf")
NUMBER = re.compile(r"-?[0-9]+(?:/[0-9]+)?")  # p or p/q in ASCII digits
INEXACT = "{!r} is not an int, a Fraction or a string 'p' or 'p/q'"


class ValidationError(ValueError):
    """A domain invariant is violated by the given data."""


class Value:
    """An immutable value of the fields its class names in ``FIELDS``: equal to
    a value of the same class with equal fields, hashed by them once and shown
    by them.  ``__init__`` writes every field into ``self.__dict__``; assigning
    or deleting an attribute raises ``AttributeError``."""

    FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._compared = staticmethod(attrgetter(*cls.FIELDS))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._compared(self) == self._compared(other)

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash(self._compared(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.FIELDS)
        return f"{type(self).__name__}({fields})"


def read_number(x, error: str, integer: bool = False) -> Fraction | int:
    """x as a Fraction (an int if ``integer``): an int (not a bool), a Fraction
    (not if ``integer``) or a string fully matching ``NUMBER`` (p only if ``integer``)
    in no more digits than ``int()`` reads; else ``ValidationError(error.format(x))``."""
    if type(x) is int:
        return x if integer else Fraction(x)
    if type(x) is Fraction and not integer:
        return x
    if type(x) is str and NUMBER.fullmatch(x):
        q = x.partition("/")[2]
        with contextlib.suppress(ValueError):  # more digits than int() reads
            if (not q) if integer else int(q or 1):
                return int(x) if integer else Fraction(x)
    raise ValidationError(error.format(x))


def vec(entries: Iterable, what: str = "vector") -> Vec:
    """An exact vector of Fractions, each entry read by ``read_number``."""
    return tuple(e if type(e) is Fraction else read_number(e, f"{what} entry {INEXACT}") for e in entries)


def dot(a: Sequence, b: Sequence) -> Fraction | int:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


def vadd(a: Sequence, b: Sequence) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Sequence, b: Sequence) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(k, a: Sequence) -> Vec:
    return tuple(k * x for x in a)


def vneg(a: Sequence) -> Vec:
    return tuple(-x for x in a)


def is_zero(a: Sequence) -> bool:
    return all(x == 0 for x in a)


def coprime(v: Vec) -> Vec:
    """``primitive`` for an integer vector: divide by the gcd, no denominators."""
    g = gcd(*v)
    return tuple(x // g for x in v) if g > 1 else v


def primitive(a: Sequence) -> Vec:
    """Scale to the coprime integer vector with the same direction.

    The zero vector maps to itself.  Sign is preserved, so ``primitive`` is a
    canonical form for rays and normals: two vectors are positive multiples
    of each other iff their primitive forms are equal.
    """
    if any(type(x) is not int for x in a):
        _, (a,) = clear_denominators([a])
    return coprime(tuple(a))


def primitive_halfspace(normal: Sequence, offset) -> tuple[Vec, int, int]:
    """{z : <z, normal> >= offset} for a nonzero normal, as (w, n, e) meaning
    <z, w> >= n/e: w primitive, e > 0 and gcd(n, e) = 1, the offset read by ``read_number``."""
    if type(offset) is not int and type(offset) is not Fraction:
        offset = read_number(offset, "halfspace offset " + INEXACT)
    v = primitive((*normal, -offset))  # <z, v[:-1]> >= -v[-1], a positive rescaling
    e = gcd(*v[:-1])
    return tuple(x // e for x in v[:-1]), -v[-1], e


def clear_denominators(vectors: Sequence[Sequence]) -> tuple[int, list[Vec]]:
    """(m, [m·v for v in vectors]) for the least m > 0 that makes them integer."""
    m = lcm(*(x.denominator for v in vectors for x in v))
    return m, [tuple(x.numerator * (m // x.denominator) for x in v) for v in vectors]


def format_rational(x) -> str:
    """Render a rational (or +/-inf) as 'p', 'p/q', 'inf' or '-inf'."""
    if isinstance(x, float):
        if x in (NEG_INF, POS_INF):
            return "inf" if x > 0 else "-inf"
        raise ValueError(f"not an exact rational: {x!r}")
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def format_vector(v: Sequence) -> str:
    return "[" + ", ".join(format_rational(x) for x in v) + "]"
