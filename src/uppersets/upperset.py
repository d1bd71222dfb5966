"""Closed convex upper sets over a fixed ordering cone, with exact lattice ops.

An upper set D satisfies D = cl co(D + C).  Nonempty members are full
dimensional (they contain translates of int C), so the irredundant H-rep is
unique up to positive scaling and, with primitive integer normals and sorted
facets, structural equality of canonical forms is set equality.

Both representations are kept: the H-rep (facets) identifies the set, the
V-rep (points on minimal faces, extreme rays, lineality basis) makes
Minkowski sums and support queries exact.

A canonical form costs one double-description run, none in two closed forms
and none in the plane.  Every member is D = cl(D + C), so D ⊕ (p + C) = D + p,
and D ⊕ H(w, b) = H(w, σ_D(w) + b) for the halfspace H(w, b) = {z : <z, w> >= b},
w in C+: ``oplus`` takes these when an operand is a translate of C or a
halfspace, ``point_plus_cone`` translates C and ``halfspace_set`` a cached
H(w, 0).  A planar member is one convex chain between two extreme rays: a
V-rep takes the convex chain of its strict staircase, an H-rep with all
normals in C+ one angular sweep over its lines, and a planar ⊕ one merge of
the operands' chains, normal by normal, with no pair sums and no hull.  All
three hand the chain's normals and vertices to ``_chain``, the one builder.
``weighted_sum``, Σ λ·S as in an integral, chooses how to add: one such merge
of all terms when each is proper and planar; in dims >= 4, one run over the
sums of one stored point per term, when there are more than two terms, each
proper, and ``_pointed`` holds; else ``oplus`` folded.  A 3-D ⊕ makes no run
when ``_pointed``, a sufficient test, holds: ``_fan_sum`` merges the operands'
normal fans, and never declines.  Else the run over a V-rep plus C's generators
yields the facets, its incidence the irredundant points, rays and lineality; it
takes the rays first, then the points lowest on the sum of C+'s generators
first.  A pair sum p + q is left out of a general sum's run when it is proven no
vertex: a direction e ≠ 0 feasible at p has <w, e> <= 0 at every facet w tight
at q (or the mirror), so p + q ± εe lie in the sum (Fukuda 2004), a test that
needs the sum pointed; a run over k terms takes only the point tuples whose
every pair is kept.  An H-rep is read as integer rows (w, n, e), meaning
<z, w> >= n/e, from ``rows`` as they come or from (normal, offset) pairs by
``primitive_halfspace``.  Unless the sweep takes it, one run yields its V-rep
and the facets among the inequalities: the canonical form when all normals lie
in C+ (the H-rep is closed under C already).  Else the V-rep takes the V-rep
path.  Modulo the lineality space L, each point and ray is stored as the
representative that is zero at L's pivot columns (pivots taken from the last
column leftwards), so the stored V-rep depends only on the set.

``_proper`` alone sorts the stored fields.  Points are integer numerators over
one denominator d > 0 with gcd(d, numerators) = 1, and facets (w, n) mean
<z, w> >= n/d: a facet contains a minimal face, whose stored point p is off by
a lineality vector, orthogonal to w, so n = <p, w> is an integer.  d is unique
to the set, so equality and the hash read these integers; ``points`` and
``halfspaces`` are Fraction views, built on each read and not kept.
``translate`` and ``scale`` move the numerators and the offsets, keeping the
canonical form and its order without a run.  Every vector given from outside
the module is read by ``cone.checked_vector``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, product
from math import gcd, lcm
from operator import and_, mul
from typing import Iterable, NamedTuple, Sequence

from .cone import Cone, ValidationError, checked_vector
from . import ddm
from .linalg import (
    INEXACT,
    NEG_INF,
    POS_INF,
    Vec,
    clear_denominators,
    coprime,
    dot,
    is_zero,
    primitive,
    primitive_halfspace,
    read_number,
    vadd,
    vneg,
    vscale,
    vsub,
)

EMPTY = "empty"
FULL = "full"
PROPER = "proper"


class Halfspace(NamedTuple):
    """{z : <z, normal> >= offset}, a stored facet: a primitive normal and a finite offset."""

    normal: Vec
    offset: Fraction


def in_dual_cone(cone: Cone, w: Sequence) -> bool:
    return _in_dual(cone, checked_vector(cone.dim, w, "direction"))


def _in_dual(cone: Cone, w: Vec) -> bool:  # for a w already read
    return all(sum(map(mul, g, w)) >= 0 for g in cone.generators)


@dataclass(frozen=True)
class UpperSet:
    """Canonical element of the lattice of closed convex upper sets.

    Use the constructors (``canonicalize``, ``point_plus_cone``,
    ``halfspace_set``, ``cone_upper_set``, ``UpperSet.empty/full``) rather
    than instantiating directly; they establish the canonical form that
    equality relies on.
    """

    cone: Cone
    kind: str
    facets: tuple[tuple[Vec, int], ...] = ()
    denominator: int = 1
    numerators: tuple[Vec, ...] = field(default=(), compare=False)
    rays: tuple[Vec, ...] = field(default=(), compare=False)
    lineality: tuple[Vec, ...] = field(default=(), compare=False)

    def __hash__(self) -> int:
        return self._hash

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.cone, self.kind, self.facets, self.denominator))

    @property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        """The facets as Halfspaces: primitive normals and Fraction offsets."""
        return tuple(Halfspace(w, Fraction(n, self.denominator)) for w, n in self.facets)

    @property
    def points(self) -> tuple[Vec, ...]:
        """The stored points as Fraction vectors: numerators over the denominator."""
        d = self.denominator
        return tuple(tuple(Fraction(x, d) for x in p) for p in self.numerators)

    @property
    def dim(self) -> int:
        return self.cone.dim

    @property
    def is_empty(self) -> bool:
        return self.kind == EMPTY

    @property
    def is_full(self) -> bool:
        return self.kind == FULL

    @staticmethod
    def empty(cone: Cone) -> "UpperSet":
        return UpperSet(cone, EMPTY)

    @staticmethod
    def full(cone: Cone) -> "UpperSet":
        dim = cone.dim
        basis = tuple(tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim))
        return UpperSet(cone, FULL, numerators=((0,) * dim,), lineality=basis)

    def support(self, w) -> Fraction | float:
        """inf over the set of <y, w>: +inf on empty, -inf when unbounded below."""
        w = checked_vector(self.dim, w, "direction")
        if is_zero(w):
            raise ValidationError("support direction must be nonzero")
        if self.is_empty:
            return POS_INF
        e, (wi,) = clear_denominators([w])  # wi = e·w, integer
        sigma = self._support_numerator(wi)
        return NEG_INF if sigma is None else Fraction(sigma, self.denominator * e)

    def _support_numerator(self, w: Vec) -> int | None:
        """d·σ(w) for an integer w on a nonempty set, None when it is -inf."""
        for l in self.lineality:
            if dot(l, w):
                return None
        for r in self.rays:
            if dot(r, w) < 0:
                return None
        return min(sum(map(mul, p, w)) for p in self.numerators)

    def member(self, y) -> bool:
        e, (y,) = clear_denominators([checked_vector(self.dim, y, "point")])
        return self.member_numerators(e, y)

    def member_numerators(self, e: int, y: Vec) -> bool:
        """Whether y/e lies in the set, for an integer vector y and e > 0:
        <y, w>·d >= n·e at every facet (w, n)."""
        if self.is_empty:
            return False
        d = self.denominator
        return all(sum(map(mul, y, w)) * d >= n * e for w, n in self.facets)

    def subset_of(self, other: "UpperSet") -> bool:
        _check_same_cone(self, other)
        if self.is_empty or other.is_full:
            return True
        if other.is_empty:
            return False
        for w, n in other.facets:  # σ(w) >= n/d at every facet (w, n) of other
            sigma = self._support_numerator(w)
            if sigma is None or sigma * other.denominator < n * self.denominator:
                return False
        return True

    def set_equal(self, other: "UpperSet") -> bool:
        """Exact set equality; canonical forms make this structural."""
        _check_same_cone(self, other)
        return self == other

    def translate(self, v) -> "UpperSet":
        """The set D + {v}; canonical form is preserved."""
        v = checked_vector(self.dim, v, "vector")
        if self.kind != PROPER:
            return self
        e, (v,) = clear_denominators([v])
        return self._translate(e, v)

    def _translate(self, e: int, v: Vec) -> "UpperSet":
        """D + v/e for an integer vector v and e > 0, built from the stored form:
        v is reduced modulo L, and lex order and the facets are unchanged."""
        if self.lineality:
            v, s = ddm.modulo(v, _pivots(self.lineality))
            e *= s
        d = lcm(self.denominator, e)
        a, k = d // self.denominator, d // e
        facets = [(w, a * n + k * sum(map(mul, v, w))) for w, n in self.facets]  # n/d + <v, w>/e
        points = [tuple(a * x + k * y for x, y in zip(p, v)) for p in self.numerators]
        return UpperSet(self.cone, PROPER, *_reduced(facets, d, points), self.rays, self.lineality)

    def scale(self, lam) -> "UpperSet":
        """Pointwise scaling for lam > 0; lam = 0 yields C by convention."""
        lam = _factor(lam)
        if not lam.numerator:
            return cone_upper_set(self.cone)
        if self.kind != PROPER:
            return self
        k, d = lam.numerator, self.denominator * lam.denominator
        facets = [(w, k * n) for w, n in self.facets]
        points = [vscale(k, p) for p in self.numerators]
        return UpperSet(self.cone, PROPER, *_reduced(facets, d, points), self.rays, self.lineality)

    def oplus(self, other: "UpperSet") -> "UpperSet":
        """cl(D + E), the lattice addition; the empty set absorbs."""
        _check_same_cone(self, other)
        if self.is_empty or other.is_empty:
            return UpperSet.empty(self.cone)
        if self.is_full or other.is_full:
            return UpperSet.full(self.cone)
        for d, e in ((self, other), (other, self)):
            if _is_cone_translate(e):  # D ⊕ (p + C) = D + p
                return d._translate(e.denominator, e.numerators[0])
        for d, e in ((self, other), (other, self)):
            if len(e.facets) == 1:  # D ⊕ H(w, b) = H(w, b) + v for <v, w> = σ_D(w)
                (w, _), = e.facets
                sigma = d._support_numerator(w)
                return UpperSet.full(d.cone) if sigma is None else e._translate(*_shift(w, sigma, d.denominator))
        if self.dim == 2:
            return _planar_sum(self.cone, [(1, self), (1, other)])
        if self.dim == 3 and _pointed((self, other)):
            return _fan_sum(self, other)
        return _vertex_sum(self.cone, [self, other])

    def supporting_halfspace(self, w) -> "UpperSet":
        """D ⊕ H(w) = {z : <z, w> >= support(D, w)} for w in the dual cone."""
        w = checked_vector(self.dim, w, "direction")
        if is_zero(w) or not _in_dual(self.cone, w):
            raise ValidationError("supporting halfspace direction must lie in C+ \\ {0}")
        if self.is_empty:
            raise ValidationError("supporting halfspace of the empty set is undefined")
        return self.oplus(_homogeneous_halfspace(self.cone, primitive(w)))

    def facet_normals(self) -> list[Vec]:
        return [w for w, _ in self.facets]

    def literal(self) -> str:
        """Canonical one-line text form; see workspace for the grammar."""
        if self.is_empty:
            return "empty"
        if self.is_full:
            return "full"
        d, rows = self.denominator, []
        for w, n in self.facets:  # the offset n/d in lowest terms
            g = gcd(n, d)
            offset = str(n // g) if g == d else f"{n // g}/{d // g}"
            rows.append(f"[{', '.join(map(str, w))}, {offset}]")
        return f"halfspaces: [{', '.join(rows)}]"

    def __str__(self) -> str:
        return self.literal()


def _factor(lam) -> Fraction:
    """A scale factor lam >= 0, read by ``read_number``."""
    lam = lam if type(lam) is Fraction else read_number(lam, "scale factor " + INEXACT)
    if lam.numerator < 0:
        raise ValidationError("scaling by negative scalars leaves the conlinear structure")
    return lam


def _is_cone_translate(e: UpperSet) -> bool:
    """Whether the proper set e is p + C, p its one stored point."""
    if len(e.numerators) != 1:
        return False
    c = cone_upper_set(e.cone)
    return e.rays == c.rays and e.lineality == c.lineality


def _check_same_cone(a: UpperSet, b: UpperSet) -> None:
    if a.cone != b.cone:
        raise ValidationError("operands belong to different ordering cones")


def canonicalize(
    cone: Cone,
    halfspaces: Iterable | None = None,
    points: Iterable | None = None,
    rays: Iterable | None = None,
    lineality: Iterable | None = None,
    rows: Iterable | None = None,
) -> UpperSet:
    """cl co(input + C) in canonical irredundant dual representation.

    Input is an H-rep (pairs (normal, offset), offset -inf meaning absent and
    +inf empty, or integer ``rows`` (w, n, e) meaning <z, w> >= n/e, e = 0 for
    an offset of ±inf, the sign of n), a V-rep (points, optional rays/lineality),
    or both, which must describe the same upper set.  Every row is read and checked
    before the set is decided; normals that leave C+ under the closure by C are absorbed.
    """
    has_h = halfspaces is not None or rows is not None
    has_v = points is not None or rays is not None or lineality is not None
    if not has_h and not has_v:
        raise ValidationError("canonicalize needs an H-rep or a V-rep")
    rows = (_checked_row(cone.dim, *row) for row in rows or ())
    hrep = chain(rows, (_row(cone.dim, w, b) for w, b in halfspaces or ()))
    if not has_v:
        return _from_hrep(cone, hrep)
    pts = [checked_vector(cone.dim, p, "point") for p in points or ()]
    rys = [checked_vector(cone.dim, r, "ray") for r in rays or ()]
    lin = [checked_vector(cone.dim, l, "lineality vector") for l in lineality or ()]
    result_h = _from_hrep(cone, hrep) if has_h else None
    result_v = _from_vrep(cone, *clear_denominators(pts), rys, lin)
    if result_h is not None and not result_h.set_equal(result_v):
        raise ValidationError(
            "inconsistent representation: halfspaces and points/rays disagree "
            f"({result_h.literal()} vs {result_v.literal()})"
        )
    return result_v if result_h is None else result_h


def _checked_row(dim: int, w, n, e) -> tuple[Vec, int, int]:
    """A row (w, n, e) as given: n and e integers, not bools, e >= 0, and n != 0 where e = 0."""
    if not (type(n) is type(e) is int and e >= 0 and (e or n)):
        raise ValidationError(f"halfspace row offset n/e needs integers e >= 0 and n != 0 if e = 0, got {n!r}/{e!r}")
    return checked_vector(dim, w, "halfspace normal"), n, e


def _row(dim: int, normal, offset) -> tuple[Vec, int, int]:
    """The pair (normal, offset) as a row (w, n, e) of ``_from_hrep``, which refuses a zero w."""
    normal = checked_vector(dim, normal, "halfspace normal")
    if type(offset) is float and offset in (NEG_INF, POS_INF):
        return normal, 1 if offset > 0 else -1, 0
    return primitive_halfspace(normal, offset) if any(normal) else (normal, 0, 1)


def _from_hrep(cone: Cone, rows) -> UpperSet:
    """The H-rep path over integer rows (w, n, e), each read and checked before the set is decided."""
    ineqs, empty = [], False
    for w, n, e in rows:
        if not any(w):
            raise ValidationError("halfspace normal must be nonzero")
        empty |= not e and n > 0  # an offset +inf; -inf means an absent constraint
        if e:
            g = gcd(*w)  # (w/g, n, e·g): parallel normals become equal
            ineqs.append((tuple(x // g for x in w), n, e * g) if g > 1 else (tuple(w), n, e))
    if empty:
        return UpperSet.empty(cone)
    if not ineqs:
        return UpperSet.full(cone)
    closed = all(_in_dual(cone, w) for w, _, _ in ineqs)  # closed under C, hence nonempty and full-dimensional
    if closed and cone.dim == 2:
        return _planar_hrep(cone, ineqs)
    scaled = ((vscale(e, w), n) for w, n, e in ineqs)  # <z, e·w> >= n, for a run
    d, pts, rys, lin, facets = ddm.hrep_to_vrep(scaled, cone.dim)
    return _proper(cone, facets, d, pts, rys, lin) if closed else _from_vrep(cone, d, pts, rys, lin)


def _from_vrep(cone: Cone, d: int, points, rays, lineality) -> UpperSet:
    """The V-rep path: points are integer numerators over one d > 0; the DDM
    makes the rays and lineality vectors primitive and drops zero ones."""
    if not points:
        return UpperSet.empty(cone)
    if cone.dim == 2:
        return _planar_vrep(cone, d, points, rays, lineality)
    s = [sum(c) for c in zip(*cone.dual_generators)]  # points lowest on s first: the run stays small
    points = sorted(points, key=lambda p: (sum(map(mul, p, s)), p))
    facets, d, pts, rys, lin = ddm.vrep_to_hrep(points, (*rays, *cone.generators), lineality, cone.dim, d)
    if not facets:
        return UpperSet.full(cone)
    for w, _ in facets:
        if not _in_dual(cone, w):  # a normal from the run, not checked
            raise ValidationError(f"facet normal {w} escaped the dual cone; input was not closed under C")
    return _proper(cone, facets, d, pts, rys, lin)


def _planar_vrep(cone: Cone, d: int, points, rays, lineality) -> UpperSet:
    """The V-rep path in the plane, without a run.  R = cone(rays, C, ±lineality)
    has the dual cone(w1, w2), cut down from C+ one generator at a time: {0}
    means the full plane and w1 = w2 a half-plane.  z -> (<z, w1>, <z, w2>)
    maps R into the orthant, and the vertices are the convex chain of the
    strict staircase of the mapped points (Andrew's monotone chain)."""
    w1, w2 = min(cone.dual_generators, key=_CCW), max(cone.dual_generators, key=_CCW)
    for v in chain(rays, lineality, map(vneg, lineality)):
        s1, s2 = dot(w1, v), dot(w2, v)
        if s1 < 0 and s2 < 0:
            return UpperSet.full(cone)
        if s1 < 0:  # <s2·w1 - s1·w2, v> = 0
            w1 = primitive(vsub(vscale(s2, w1), vscale(s1, w2)))
        elif s2 < 0:
            w2 = primitive(vsub(vscale(s1, w2), vscale(s2, w1)))
    hull: list = []  # (<p, w1>, <p, w2>, p): the first increases, the second decreases, strictly
    for a, b, p in sorted((sum(map(mul, p, w1)), sum(map(mul, p, w2)), p) for p in points):
        if hull and b >= hull[-1][1]:
            continue  # off the strict staircase
        while len(hull) > 1:
            (a0, b0, _), (a1, b1, _) = hull[-2:]
            if (a1 - a0) * (b - b0) > (b1 - b0) * (a - a0):
                break  # hull[-1] lies strictly below the segment from hull[-2] to p
            hull.pop()
        hull.append((a, b, p))
    edges = zip(hull, hull[1:])  # their normals lie strictly between w1 and w2
    inner = [primitive(vadd(vscale(b - b2, w1), vscale(a2 - a, w2))) for (a, b, _), (a2, b2, _) in edges]
    return _chain(cone, d, [w1, *inner, w2] if w1 != w2 else [w1], [p for _, _, p in hull])


def weighted_sum(cone: Cone, terms) -> UpperSet:
    """Σ λ·S over pairs (λ, S) of a factor λ, read as ``scale`` reads it, and a set
    over ``cone``, all read first; a term 0·S = C is dropped and the empty sum is C.
    The one place that chooses how to add: one ``_planar_sum`` merge when the cone
    is planar and every S is proper, one ``_vertex_sum`` of more than two scaled
    sets in dims >= 4 when each is proper and ``_pointed`` holds, else ``oplus`` folded."""
    terms = [(_factor(lam), s) for lam, s in terms]
    _members(cone, (s for _, s in terms))
    terms = [(lam, s) for lam, s in terms if lam]
    if not terms:
        return cone_upper_set(cone)
    if cone.dim == 2 and all(s.kind == PROPER for _, s in terms):
        return _planar_sum(cone, terms)
    sets = [s.scale(lam) for lam, s in terms]
    if cone.dim >= 4 and len(sets) > 2 and all(s.kind == PROPER for s in sets) and _pointed(sets):
        return _vertex_sum(cone, sets)
    return functools.reduce(UpperSet.oplus, sets)


def _planar_sum(cone: Cone, terms) -> UpperSet:
    """Σ λ·S over pairs (λ, S) of a rational λ > 0 and a proper planar set, by one
    merge of their facet chains (de Berg et al., §13.3), with no pair sums and
    no hull.  The sum's normals are the terms' normals from the latest first
    one, lo, to the earliest last one, hi: lo after hi means the full plane and
    lo = hi a half-plane.  Between two consecutive normals the vertex is the
    weighted sum of each term's vertex there, a term's vertices being in chain
    order by <p, w1> for C+'s first generator w1 counterclockwise."""
    w1 = min(cone.dual_generators, key=_CCW)
    d = lcm(*(s.denominator * lam.denominator for lam, s in terms))
    owners: dict[Vec, list[int]] = {}  # each normal with the terms that have it
    chains = []  # (weight over d, vertices in chain order, number of normals) per term
    for i, (lam, s) in enumerate(terms):
        for w, _ in s.facets:
            owners.setdefault(w, []).append(i)
        vertices = sorted(s.numerators, key=lambda p: p[0] * w1[0] + p[1] * w1[1])
        chains.append((lam.numerator * d // (s.denominator * lam.denominator), vertices, len(s.facets)))
    passed = [0] * len(terms)  # each term's normals up to the current one
    waiting = len(terms)  # the terms none of whose normals has come yet
    normals, points = [], []
    for u in sorted(owners, key=_CCW):
        done = False  # whether u is some term's last normal
        for i in owners[u]:
            waiting -= not passed[i]
            passed[i] += 1
            done |= passed[i] == chains[i][2]
        if waiting and done:
            return UpperSet.full(cone)
        if not waiting:
            normals.append(u)
            if done:
                break
            points.append(_vertex(chains, passed))
    return _chain(cone, d, normals, points or [_vertex(chains, passed)])  # one normal: the minimisers' sum


def _vertex(chains, passed) -> Vec:
    """Σ f·p over the terms' (f, vertices, _) of ``_planar_sum``, p the vertex
    after the term's normals passed so far (at its last normal, the one before)."""
    x = y = 0
    for (f, ps, _), n in zip(chains, passed):
        p = ps[min(n, len(ps)) - 1]
        x += f * p[0]
        y += f * p[1]
    return x, y


def _vertex_sum(cone: Cone, sets) -> UpperSet:
    """Σ S over proper sets by one run over the sums of one stored point per set
    whose every pair ``_vertex_candidates`` keeps, as each pair of a vertex's
    terms is a vertex of that pair's sum (Fukuda 2004).  ``fits[i][x]`` holds,
    per later set, the bitmask of its points kept with point x of set i, and a
    partial sum carries, per set to come, the AND of its points' bitmasks."""
    d = lcm(*(s.denominator for s in sets))
    points = [[vscale(d // s.denominator, p) for p in s.numerators] for s in sets]
    fits = [[[0] * (len(sets) - i - 1) for _ in s.numerators] for i, s in enumerate(sets)]
    for (i, a), (j, b) in combinations(enumerate(sets), 2):
        for x, y in _vertex_candidates(a, b):
            fits[i][x][j - i - 1] |= 1 << y
    partial = [((0,) * cone.dim, [(1 << len(pts)) - 1 for pts in points])]
    for pts, fit in zip(points, fits):
        partial = [(vadd(total, p), rest) for total, (mask, *later) in partial for y, p in enumerate(pts)
                   if mask >> y & 1 and all(rest := list(map(and_, later, fit[y])))]
    rays, lineality = [r for s in sets for r in s.rays], [l for s in sets for l in s.lineality]
    return _from_vrep(cone, d, {total for total, _ in partial}, rays, lineality)


def _pointed(sets) -> bool:
    """Sufficient for a pointed sum, not necessary: no lineality, each ray positive on C+'s generators' sum."""
    s = [sum(c) for c in zip(*sets[0].cone.dual_generators)]
    return not any(x.lineality for x in sets) and all(sum(map(mul, r, s)) > 0 for x in sets for r in x.rays)


def _vertex_candidates(a: UpperSet, b: UpperSet):
    """The index pairs (i, j) of stored points p_i of A and q_j of B whose sum may
    be a vertex of A ⊕ B: all of them unless ``_pointed``."""
    if not _pointed((a, b)):
        return product(range(len(a.numerators)), range(len(b.numerators)))
    at_b, at_a = _slides(a, b), _slides(b, a)  # per q_j the p_i that slide, per p_i the q_j
    return [(i, j) for i, qs in enumerate(at_a) for j, ps in enumerate(at_b) if not (ps >> i & 1 or qs >> j & 1)]


def _slides(x: UpperSet, y: UpperSet) -> list[int]:
    """Per stored point q of y, the bitmask of x's stored points p with a
    direction e feasible at p in x and <w, e> <= 0 at every facet w of y tight at q."""
    # per facet w of y and point p: the p' ≠ p with <p', w> <= <p, w>, and from bit k the rays r with <r, w> <= 0
    k, targets = len(x.numerators), []
    for w, _ in y.facets:
        values = [sum(map(mul, p, w)) for p in x.numerators]
        at = {}
        for i, v in enumerate(values):
            at[v] = at.get(v, 0) | 1 << i
        below = sum(1 << k + i for i, r in enumerate(x.rays) if sum(map(mul, r, w)) <= 0)
        for v in sorted(at):
            below = at[v] = below | at[v]
        targets.append([at[v] ^ 1 << i for i, v in enumerate(values)])
    rows, slides = list(zip(*targets)), []
    for q in y.numerators:
        tight = [t for t, (w, n) in enumerate(y.facets) if sum(map(mul, q, w)) == n]
        ends = (functools.reduce(and_, map(row.__getitem__, tight)) for row in rows)
        slides.append(sum(1 << i for i, e in enumerate(ends) if e))
    return slides


def _fan_sum(a: UpperSet, b: UpperSet) -> UpperSet:
    """A ⊕ B for proper 3-D sets by merging their normal fans (Fukuda 2004;
    de Berg et al., ch. 2).  ``oplus`` alone calls it, once ``_pointed`` finds
    the sum pointed, so its normals span R³ and the merge never declines.
    These are each one's normals in the dual of the other's recession cone,
    and ±(n × m), n = a_i × a_j, m = b_k × b_l, where edge arcs cone(a_i, a_j)
    and cone(b_k, b_l) in the pointed C+ cross: each has its ends strictly on
    both sides of the other's plane, and n × m is in the first iff <m, a_i> > 0.
    Offsets are σ_A + σ_B; vertices and rays are the pair sums and operand rays
    where the tight normals have rank 3, 2."""
    (pa, arcs_a), (pb, arcs_b) = _fan(a), _fan(b)
    tight = {}  # u: (d_A·σ_A(u), the points of A at it, d_B·σ_B(u), those of B)
    for (w, n), p in zip(a.facets, pa):
        if all(_dot3(r, w) >= 0 for r in b.rays):
            tight[w] = (n, p, *_least(b.numerators, w))
    for (w, n), p in zip(b.facets, pb):
        if w not in tight and all(_dot3(r, w) >= 0 for r in a.rays):
            tight[w] = (*_least(a.numerators, w), n, p)
    sides = [[_dot3(m, w) for w, _ in a.facets] for _, _, m, _, _ in arcs_b]  # <m, a_i> per arc of B
    for i, j, n, e, p in arcs_a:
        t = [_dot3(n, w) for w, _ in b.facets]
        for (k, l, m, e2, q), s in zip(arcs_b, sides):
            if s[i] * s[j] < 0 and t[k] * t[l] < 0:
                u = coprime(_cross(n, m) if s[i] > 0 else _cross(m, n))
                tight[u] = (_dot3(p, u), e, _dot3(q, u), e2)
    d = lcm(a.denominator, b.denominator)
    f, g = d // a.denominator, d // b.denominator
    pairs = product(enumerate(a.numerators), enumerate(b.numerators))
    points = [tuple(f * x + g * y for x, y in zip(p, q)) for (i, p), (j, q) in pairs
              if _rank([u for u, (_, at_a, _, at_b) in tight.items() if at_a >> i & at_b >> j & 1]) == 3]
    rays = [r for r in {*a.rays, *b.rays} if _rank([u for u in tight if not _dot3(r, u)]) == 2]
    facets = [(u, f * x + g * y) for u, (x, _, y, _) in tight.items()]
    return _proper(a.cone, facets, d, points, rays, ())


@functools.lru_cache(maxsize=64)
def _fan(s: UpperSet) -> tuple[tuple[int, ...], tuple[tuple, ...]]:
    """The normal fan of a pointed 3-D set: per facet the bitmask of its stored
    points, and per edge (i, j, a_i × a_j, the bitmask of its points, one of
    them) for the facets i and j that meet there, at two stored points or at
    one and a ray."""
    masks = [(_least(s.numerators, w, n)[1], _least(s.rays, w, 0)[1]) for w, n in s.facets]
    arcs = []
    for (i, (p1, r1)), (j, (p2, r2)) in combinations(enumerate(masks), 2):
        p = p1 & p2
        if p and (p & p - 1 or r1 & r2):
            arcs.append((i, j, _cross(s.facets[i][0], s.facets[j][0]), p, s.numerators[p.bit_length() - 1]))
    return tuple(p for p, _ in masks), tuple(arcs)  # cached, so not mutable


def _least(vectors, u, least=None) -> tuple[int, int]:
    """(v, the bitmask of the vectors x with <x, u> = v), v = ``least`` or else the least <x, u>."""
    x = [_dot3(p, u) for p in vectors]
    v = min(x) if least is None else least
    return v, sum(1 << i for i, y in enumerate(x) if y == v)


def _rank(vectors) -> int:
    """The rank of a list of nonzero 3-D vectors."""
    for v in vectors:
        c = _cross(vectors[0], v)
        if any(c):
            return 3 if any(_dot3(c, x) for x in vectors) else 2
    return min(len(vectors), 1)


def _cross(a, b) -> Vec:
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def _dot3(a, b) -> int:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


_CCW = functools.cmp_to_key(lambda w, u: w[1] * u[0] - w[0] * u[1])  # sorts normals in C+ counterclockwise


def _planar_hrep(cone: Cone, ineqs) -> UpperSet:
    """The C+ branch of ``_from_hrep`` in the plane, without a run: the largest
    offset per normal, normals in counterclockwise order, and a line dropped
    while its meet with the kept line before it is not strictly inside the next
    (de Berg et al., §4.2).  The vertices are the meets of consecutive kept lines."""
    t = lcm(*(e for _, _, e in ineqs))  # a line (w, b) means <z, w> >= b/t
    best = dict(sorted(((w, n * (t // e)) for w, n, e in ineqs), key=lambda h: h[1]))  # the largest b per w
    lines, meets = [], []  # the kept lines, and the meets of consecutive ones
    for w in sorted(best, key=_CCW):
        while meets and sum(map(mul, meets[-1][0], w)) <= best[w] * meets[-1][1]:
            del lines[-1], meets[-1]  # the meet before lines[-1] is not strictly inside w's line
        if lines:
            meets.append(_meet(lines[-1], (w, best[w])))
        lines.append((w, best[w]))
    meets = meets or [(vscale(b, w), sum(map(mul, w, w))) for w, b in lines]  # one line: its point b·w/<w, w>
    k = lcm(*(s for _, s in meets))  # every x/s is t times a vertex
    return _chain(cone, t * k, [w for w, _ in lines], [(k // s * x, k // s * y) for (x, y), s in meets])


def _meet(l, m) -> tuple[Vec, int]:
    """(x, s): x/s is the point where the lines <z, w> = b of l = (w, b) and m
    meet, for m's normal counterclockwise of l's; x integer and s > 0."""
    (w, b), (u, c) = l, m
    return (b * u[1] - c * w[1], c * w[0] - b * u[0]), w[0] * u[1] - w[1] * u[0]


def _chain(cone: Cone, d: int, normals, vertices) -> UpperSet:
    """The proper planar set of facet normals in counterclockwise order and the
    vertices between consecutive ones, integer numerators over d > 0: each
    offset is read at an adjacent vertex, and the rays are perpendicular to the
    first and last normal.  One normal is a half-plane through its one vertex,
    its boundary direction the lineality and its normal the ray."""
    facets = [(u, p[0] * u[0] + p[1] * u[1]) for u, p in zip(normals, [*vertices, vertices[-1]])]
    w, u = normals[0], normals[-1]
    if len(normals) == 1:
        return _proper(cone, facets, d, vertices, [w], [max((-w[1], w[0]), (w[1], -w[0]))])
    return _proper(cone, facets, d, vertices, [(-w[1], w[0]), (u[1], -u[0])], [])


def _proper(cone: Cone, facets, d: int, points, rays, lineality) -> UpperSet:
    """The canonical proper set, sorted here alone, of points (integer numerators
    over d > 0), facets (w, n) meaning <z, w> >= n/d, rays and lineality in any
    order.  With lineality L, each point and ray becomes its representative modulo
    L that is zero at L's pivot columns, pivots taken from the last column leftwards."""
    lineality = tuple(sorted(lineality))
    if lineality:
        pivots = _pivots(lineality)
        moved = [ddm.modulo(p, pivots) for p in points]
        m = lcm(*(s for _, s in moved))
        points = {tuple(x * (m // s) for x in p) for p, s in moved}
        facets, d = [(w, n * m) for w, n in facets], d * m
        rays = {primitive(ddm.modulo(r, pivots)[0]) for r in rays}
    if not points:
        raise ValidationError("internal: proper set with empty vertex enumeration")
    facets, d, points = _reduced(sorted(facets), d, sorted(points))
    return UpperSet(cone, PROPER, facets, d, points, tuple(sorted(rays)), lineality)


@functools.lru_cache(maxsize=None)
def _pivots(lineality: tuple[Vec, ...]) -> tuple[tuple[int, Vec], ...]:
    """(column, vector) of span(lineality)'s reduced basis, pivots from the last
    column leftwards: each vector is positive at its pivot, zero at the others."""
    dim = len(lineality[0])
    basis = [b[::-1] for b in ddm.rref_basis([v[::-1] for v in lineality], dim)]
    return tuple((max(i for i, x in enumerate(b) if x), b) for b in basis)


def _reduced(facets, d: int, points) -> tuple[tuple, int, tuple[Vec, ...]]:
    """(facets/g, d/g, points/g) for g the gcd of d and every point numerator;
    g divides each offset, as it is <p, w> for one of the points p."""
    g = gcd(d, *chain.from_iterable(points))
    if g == 1:
        return tuple(facets), d, tuple(points)
    return tuple((w, n // g) for w, n in facets), d // g, tuple(tuple(x // g for x in p) for p in points)


@functools.lru_cache(maxsize=None)
def cone_upper_set(cone: Cone) -> UpperSet:
    """C itself as a member of the lattice (the neutral element of ⊕)."""
    return canonicalize(cone, points=[(0,) * cone.dim])


def point_plus_cone(cone: Cone, p) -> UpperSet:
    return cone_upper_set(cone).translate(checked_vector(cone.dim, p, "point"))


@functools.lru_cache(maxsize=None)
def _homogeneous_halfspace(cone: Cone, w: Vec) -> UpperSet:
    """H(w, 0) for a primitive w in C+."""
    return canonicalize(cone, halfspaces=[(w, 0)])


def halfspace_set(cone: Cone, w, b) -> UpperSet:
    """{z : <z, w> >= b} as an upper set; b = -inf gives the full space and
    b = +inf the empty set.  H(w, b) is H(w, 0) translated onto <z, w> = b."""
    w = checked_vector(cone.dim, w, "normal")
    if is_zero(w) or not _in_dual(cone, w):
        raise ValidationError("halfspace normal must lie in C+ \\ {0}")
    if type(b) is float and b in (NEG_INF, POS_INF):
        return UpperSet.full(cone) if b < 0 else UpperSet.empty(cone)
    w, n, e = primitive_halfspace(w, b)
    return _homogeneous_halfspace(cone, w)._translate(*_shift(w, n, e))


def _shift(w: Vec, n: int, e: int) -> tuple[int, Vec]:
    """(f, p) for an integer w and e > 0: p/f is a multiple of a unit vector
    with <p/f, w> = n/e."""
    i = next(i for i, x in enumerate(w) if x)
    return abs(w[i]) * e, tuple((n if w[i] > 0 else -n) if j == i else 0 for j in range(len(w)))


def _members(cone: Cone, family: Iterable[UpperSet]) -> list[UpperSet]:
    """The family as a list, each member checked to be over ``cone``."""
    members = list(family)
    if any(d.cone != cone for d in members):
        raise ValidationError("family member over a different cone")
    return members


def inf_set(cone: Cone, family: Iterable[UpperSet]) -> UpperSet:
    """Greatest lower bound for ⊇: cl co of the union.  inf ∅ = ∅."""
    members = _members(cone, family)
    nonempty = [d for d in members if not d.is_empty]
    if not nonempty:
        return UpperSet.empty(cone)
    if any(d.is_full for d in nonempty):
        return UpperSet.full(cone)
    d = lcm(*(s.denominator for s in nonempty))
    points = {tuple(x * (d // s.denominator) for x in p) for s in nonempty for p in s.numerators}
    rays = [r for s in nonempty for r in s.rays]
    return _from_vrep(cone, d, points, rays, [l for s in nonempty for l in s.lineality])


def sup_set(cone: Cone, family: Iterable[UpperSet]) -> UpperSet:
    """Least upper bound for ⊇: the intersection.  sup ∅ = R^m."""
    members = _members(cone, family)
    if any(d.is_empty for d in members):
        return UpperSet.empty(cone)
    return canonicalize(cone, rows=[(w, n, d.denominator) for d in members for w, n in d.facets])
