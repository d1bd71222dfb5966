"""Closed convex upper sets over a fixed ordering cone, with exact lattice ops.

An upper set D satisfies D = cl co(D + C).  Nonempty members are full
dimensional (they contain translates of int C), so the irredundant H-rep is
unique up to positive scaling and, with primitive integer normals and sorted
facets, structural equality of canonical forms is set equality.

Both representations are kept: the H-rep (facets) identifies the set, the
V-rep (points on minimal faces, extreme rays, lineality basis) makes
Minkowski sums and support queries exact.

A canonical form costs one double-description run, and none in two closed
forms.  Every member is D = cl(D + C), so D ⊕ (p + C) = D + p, and
D ⊕ H(w, b) = H(w, σ_D(w) + b) for the halfspace H(w, b) = {z : <z, w> >= b},
w in C+: ``oplus`` takes these when an operand is a translate of C or a
halfspace, ``point_plus_cone`` translates C and ``halfspace_set`` a cached
H(w, 0), and ``translate`` keeps the canonical form.  Otherwise, over a V-rep
plus C's generators the run yields the facets, and its incidence the
irredundant points and rays and the lineality space, on integer point
numerators over one denominator: ``oplus`` adds its operands' over the lcm of
theirs, and points sort by those integer keys.  An H-rep with all normals in
C+ is closed under C already: the run yields the V-rep, and its incidence the
facets among the inequalities.  Any other H-rep is converted to a V-rep
first, a second run.  Modulo the lineality space L, each point and ray is
stored as the representative that is zero at L's pivot columns (pivots taken
from the last column leftwards), so the stored V-rep depends only on the set.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, NamedTuple, Sequence

from .cone import Cone, ValidationError, check_dim
from . import ddm
from .linalg import (
    NEG_INF,
    POS_INF,
    Vec,
    clear_denominators,
    dot,
    format_rational,
    is_zero,
    primitive,
    primitive_halfspace,
    vadd,
    vec,
)

EMPTY = "empty"
FULL = "full"
PROPER = "proper"


class Halfspace(NamedTuple):
    """{z : <z, normal> >= offset}; offset -inf means the constraint is absent."""

    normal: Vec
    offset: Fraction | float


def in_dual_cone(cone: Cone, w: Sequence) -> bool:
    return all(dot(g, w) >= 0 for g in cone.generators)


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
    halfspaces: tuple[Halfspace, ...] = ()
    points: tuple[Vec, ...] = field(default=(), compare=False)
    rays: tuple[Vec, ...] = field(default=(), compare=False)
    lineality: tuple[Vec, ...] = field(default=(), compare=False)

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
        return UpperSet(cone, FULL, points=(tuple(Fraction(0) for _ in range(dim)),), lineality=basis)

    @functools.cached_property
    def _integer_points(self) -> tuple[int, list[Vec]]:
        """(d, numerators): the stored points as integer vectors over one d > 0."""
        return clear_denominators(self.points)

    def support(self, w) -> Fraction | float:
        """inf over the set of <y, w>: +inf on empty, -inf when unbounded below."""
        if any(type(x) is not int for x in w):  # facet normals are integer already
            w = vec(w)
        check_dim(self.dim, w, "direction")
        if is_zero(w):
            raise ValidationError("support direction must be nonzero")
        if self.is_empty:
            return POS_INF
        e, (wi,) = clear_denominators([w])  # wi = e·w, integer
        for l in self.lineality:
            if dot(l, wi) != 0:
                return NEG_INF
        for r in self.rays:
            if dot(r, wi) < 0:
                return NEG_INF
        d, numerators = self._integer_points
        return Fraction(min(dot(p, wi) for p in numerators), d * e)

    def member(self, y) -> bool:
        y = vec(y)
        check_dim(self.dim, y, "point")
        if self.is_empty:
            return False
        return all(dot(y, h.normal) >= h.offset for h in self.halfspaces)

    def subset_of(self, other: "UpperSet") -> bool:
        _check_same_cone(self, other)
        if self.is_empty or other.is_full:
            return True
        if other.is_empty:
            return False
        for p in self.points:
            if not other.member(p):
                return False
        for h in other.halfspaces:
            for r in self.rays:
                if dot(r, h.normal) < 0:
                    return False
            for l in self.lineality:
                if dot(l, h.normal) != 0:
                    return False
        return True

    def set_equal(self, other: "UpperSet") -> bool:
        """Exact set equality; canonical forms make this structural."""
        _check_same_cone(self, other)
        return self.kind == other.kind and self.halfspaces == other.halfspaces

    def translate(self, v) -> "UpperSet":
        """The set D + {v}; canonical form is preserved."""
        v = vec(v)
        check_dim(self.dim, v)
        if self.kind != PROPER:
            return self
        return _proper(
            self.cone,
            [(h.normal, h.offset + dot(v, h.normal)) for h in self.halfspaces],
            [vadd(p, v) for p in self.points],
            self.rays,
            self.lineality,
        )

    def scale(self, lam) -> "UpperSet":
        """Pointwise scaling for lam > 0; lam = 0 yields C by convention."""
        lam = Fraction(lam)
        if lam < 0:
            raise ValidationError("scaling by negative scalars leaves the conlinear structure")
        if lam == 0:
            return cone_upper_set(self.cone)
        if self.kind != PROPER:
            return self
        return UpperSet(
            self.cone,
            PROPER,
            tuple(Halfspace(h.normal, lam * h.offset) for h in self.halfspaces),
            tuple(tuple(lam * x for x in p) for p in self.points),
            self.rays,
            self.lineality,
        )

    def oplus(self, other: "UpperSet") -> "UpperSet":
        """cl(D + E), the lattice addition; the empty set absorbs."""
        _check_same_cone(self, other)
        if self.is_empty or other.is_empty:
            return UpperSet.empty(self.cone)
        if self.is_full or other.is_full:
            return UpperSet.full(self.cone)
        for d, e in ((self, other), (other, self)):
            if _is_cone_translate(e):  # D ⊕ (p + C) = D + p
                return d.translate(e.points[0])
        for d, e in ((self, other), (other, self)):
            if len(e.halfspaces) == 1:  # D ⊕ H(w, b) = H(w, σ_D(w) + b)
                (w, b), = e.halfspaces
                return halfspace_set(self.cone, w, d.support(w) + b)
        (d1, ps), (d2, qs) = self._integer_points, other._integer_points
        d = lcm(d1, d2)
        a, b = d // d1, d // d2
        sums = {tuple(a * x + b * y for x, y in zip(p, q)) for p in ps for q in qs}
        return _from_vrep(self.cone, d, sums, self.rays + other.rays, self.lineality + other.lineality)

    def supporting_halfspace(self, w) -> "UpperSet":
        """D ⊕ H(w) = {z : <z, w> >= support(D, w)} for w in the dual cone."""
        w = vec(w)
        check_dim(self.dim, w, "direction")
        if is_zero(w) or not in_dual_cone(self.cone, w):
            raise ValidationError("supporting halfspace direction must lie in C+ \\ {0}")
        if self.is_empty:
            raise ValidationError("supporting halfspace of the empty set is undefined")
        sigma = self.support(w)
        return halfspace_set(self.cone, w, sigma)

    def hrep_rows(self) -> list[tuple[Vec, Fraction]]:
        return [(h.normal, h.offset) for h in self.halfspaces]

    def facet_normals(self) -> list[Vec]:
        return [h.normal for h in self.halfspaces]

    def literal(self) -> str:
        """Canonical one-line text form; see workspace for the grammar."""
        if self.is_empty:
            return "empty"
        if self.is_full:
            return "full"
        rows = ", ".join(
            "[" + ", ".join([format_rational(x) for x in h.normal] + [format_rational(h.offset)]) + "]"
            for h in self.halfspaces
        )
        return f"halfspaces: [{rows}]"

    def __str__(self) -> str:
        return self.literal()


def _is_cone_translate(e: UpperSet) -> bool:
    """Whether the proper set e is p + C, p its one stored point."""
    if len(e.points) != 1:
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
) -> UpperSet:
    """cl co(input + C) in canonical irredundant dual representation.

    Input is an H-rep (pairs (normal, offset), offset -inf meaning absent),
    a V-rep (points, optional rays/lineality), or both; when both are given
    they must describe the same upper set.  Constraints whose normals leave
    C+ after the closure under C are absorbed, never an error.
    """
    has_h = halfspaces is not None
    has_v = points is not None or rays is not None or lineality is not None
    if not has_h and not has_v:
        raise ValidationError("canonicalize needs an H-rep or a V-rep")
    pts = [vec(p) for p in points or ()]
    rys, lin = [vec(r) for r in rays or ()], [vec(l) for l in lineality or ()]
    for what, v in [("point", p) for p in pts] + [("ray", r) for r in rys]:
        check_dim(cone.dim, v, what)
    result_h = _from_hrep(cone, halfspaces) if has_h else None
    result_v = _from_vrep(cone, *clear_denominators(pts), rys, lin) if has_v else None
    if result_h is not None and result_v is not None:
        if not result_h.set_equal(result_v):
            raise ValidationError(
                "inconsistent representation: halfspaces and points/rays disagree "
                f"({result_h.literal()} vs {result_v.literal()})"
            )
        return result_h
    return result_h if result_h is not None else result_v


def _from_hrep(cone: Cone, pairs) -> UpperSet:
    ineqs = []
    for w, b in pairs:
        w = vec(w)
        check_dim(cone.dim, w, "halfspace normal")
        if is_zero(w):
            raise ValidationError("halfspace normal must be nonzero")
        if b == NEG_INF:
            continue  # absent constraint
        if b == POS_INF:
            return UpperSet.empty(cone)
        ineqs.append(primitive_halfspace(w, b))
    if all(in_dual_cone(cone, w) for w, _ in ineqs):
        # closed under C already, hence nonempty and full-dimensional
        if not ineqs:
            return UpperSet.full(cone)
        pts, rys, lin, facets = ddm.hrep_to_vrep(ineqs, cone.dim, with_facets=True)
        return _proper(cone, facets, pts, rys, lin)
    pts, rys, lin = ddm.hrep_to_vrep(ineqs, cone.dim)
    if not pts:
        return UpperSet.empty(cone)
    return _from_vrep(cone, *clear_denominators(pts), rys, lin)


def _from_vrep(cone: Cone, d: int, points, rays, lineality) -> UpperSet:
    """The V-rep path: points are integer numerators over one d > 0; the DDM
    makes the rays and lineality vectors primitive and drops zero ones."""
    if not points:
        return UpperSet.empty(cone)
    facets, pts, rys, lin = ddm.vrep_to_hrep(points, (*rays, *cone.generators), lineality, cone.dim, d)
    if not facets:
        return UpperSet.full(cone)
    for w, _ in facets:
        if not in_dual_cone(cone, w):
            raise ValidationError(
                f"facet normal {w} escaped the dual cone; input was not closed under C"
            )
    return _proper(cone, facets, pts, rys, lin)


def _proper(cone: Cone, facets, points, rays, lineality) -> UpperSet:
    """The canonical proper set.  With lineality L, each point and ray becomes
    its representative modulo L that is zero at L's pivot columns, pivots
    taken from the last column leftwards."""
    if lineality:
        basis = [b[::-1] for b in ddm.rref_basis([v[::-1] for v in lineality], cone.dim)]
        pivots = [(max(i for i, x in enumerate(b) if x != 0), b) for b in basis]

        def representative(x: Vec) -> Vec:
            for c, b in pivots:
                if x[c] != 0:
                    f = Fraction(x[c]) / b[c]
                    x = tuple(xi - f * bi for xi, bi in zip(x, b))
            return x

        points = sorted({representative(p) for p in points})
        rays = sorted({primitive(representative(r)) for r in rays})
    if not points:
        raise ValidationError("internal: proper set with empty vertex enumeration")
    return UpperSet(
        cone,
        PROPER,
        tuple(Halfspace(w, Fraction(b)) for w, b in sorted(facets)),
        tuple(points),  # sorted: by the caller, or above when reduced
        tuple(rays),
        tuple(sorted(lineality)),
    )


@functools.lru_cache(maxsize=None)
def cone_upper_set(cone: Cone) -> UpperSet:
    """C itself as a member of the lattice (the neutral element of ⊕)."""
    origin = tuple(Fraction(0) for _ in range(cone.dim))
    return canonicalize(cone, points=[origin])


def point_plus_cone(cone: Cone, p) -> UpperSet:
    p = vec(p)
    check_dim(cone.dim, p, "point")
    return cone_upper_set(cone).translate(p)


@functools.lru_cache(maxsize=None)
def _homogeneous_halfspace(cone: Cone, w: Vec) -> UpperSet:
    """H(w, 0) for a primitive w in C+."""
    return canonicalize(cone, halfspaces=[(w, 0)])


def halfspace_set(cone: Cone, w, b) -> UpperSet:
    """{z : <z, w> >= b} as an upper set; b = -inf gives the full space and
    b = +inf the empty set.  H(w, b) is H(w, 0) translated onto <z, w> = b."""
    if any(type(x) is not int for x in w):  # an integer normal stays as it is
        w = vec(w)
    check_dim(cone.dim, w, "normal")
    if is_zero(w) or not in_dual_cone(cone, w):
        raise ValidationError("halfspace normal must lie in C+ \\ {0}")
    if b == NEG_INF:
        return UpperSet.full(cone)
    if b == POS_INF:
        return UpperSet.empty(cone)
    w, b = primitive_halfspace(w, b)
    i = next(i for i, x in enumerate(w) if x)
    p = [b / w[i] if j == i else 0 for j in range(cone.dim)]  # <p, w> = b
    return _homogeneous_halfspace(cone, w).translate(p)


def inf_set(cone: Cone, family: Iterable[UpperSet]) -> UpperSet:
    """Greatest lower bound for ⊇: cl co of the union.  inf ∅ = ∅."""
    members = list(family)
    for d in members:
        if d.cone != cone:
            raise ValidationError("family member over a different cone")
    nonempty = [d for d in members if not d.is_empty]
    if not nonempty:
        return UpperSet.empty(cone)
    if any(d.is_full for d in nonempty):
        return UpperSet.full(cone)
    points: set[Vec] = set()
    rays: list[Vec] = []
    lineality: list[Vec] = []
    for d in nonempty:
        points.update(d.points)
        rays.extend(d.rays)
        lineality.extend(d.lineality)
    return canonicalize(cone, points=points, rays=rays, lineality=lineality)


def sup_set(cone: Cone, family: Iterable[UpperSet]) -> UpperSet:
    """Least upper bound for ⊇: the intersection.  sup ∅ = R^m."""
    members = list(family)
    for d in members:
        if d.cone != cone:
            raise ValidationError("family member over a different cone")
    if any(d.is_empty for d in members):
        return UpperSet.empty(cone)
    rows = [pair for d in members for pair in d.hrep_rows()]
    if not rows:
        return UpperSet.full(cone)
    return canonicalize(cone, halfspaces=rows)
