"""Exact rational vectors and the small linear-algebra helpers the geometry needs.

Vectors are plain tuples of ``fractions.Fraction`` or ``int``, which
interoperate; everything here is pure and allocation-light because the
double description method calls these in tight loops.  ``dot`` and the
vector operations keep integer inputs integer.  ``primitive`` and
``clear_denominators`` always return integers and never build a Fraction:
they read every entry's ``numerator`` and ``denominator`` (an ``int`` has
denominator 1), and ``primitive`` of an all-``int`` vector is one ``gcd``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Vec = tuple

NEG_INF = float("-inf")
POS_INF = float("inf")


def vec(entries: Iterable) -> Vec:
    """Build an exact vector, accepting ints, Fractions and 'p/q' strings."""
    return tuple(e if type(e) is Fraction else Fraction(e) for e in entries)


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


def primitive_halfspace(normal: Sequence, offset) -> tuple[Vec, Fraction]:
    """{z : <z, normal> >= offset} rescaled to a primitive normal, as (w, b)."""
    w = primitive(normal)
    i = next(i for i, x in enumerate(w) if x != 0)
    return w, Fraction(offset) * w[i] / normal[i]


def clear_denominators(vectors: Sequence[Sequence]) -> tuple[int, list[Vec]]:
    """(m, [m·v for v in vectors]) for the least m > 0 that makes them integer."""
    m = lcm(*(x.denominator for v in vectors for x in v))
    return m, [tuple(x.numerator * (m // x.denominator) for x in v) for v in vectors]


def format_rational(x) -> str:
    """Render a rational (or +/-inf) as 'p', 'p/q', 'inf' or '-inf'."""
    if isinstance(x, float):
        if x == NEG_INF:
            return "-inf"
        if x == POS_INF:
            return "inf"
        raise ValueError(f"not an exact rational: {x!r}")
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def parse_rational(text: str):
    """Inverse of format_rational; '-inf' parses to NEG_INF."""
    t = text.strip()
    if t == "-inf":
        return NEG_INF
    if t == "inf":
        return POS_INF
    try:
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {text!r}") from exc


def format_vector(v: Sequence) -> str:
    return "[" + ", ".join(format_rational(x) for x in v) + "]"


def ext_add(a, b):
    """Extended addition on Q ∪ {-inf, +inf}; +inf dominates -inf."""
    if a == POS_INF or b == POS_INF:
        return POS_INF
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return a + b
