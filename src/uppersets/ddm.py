"""Double description method over exact rationals, sized for desk-scale cones.

One primitive does all the conversions: ``cone_vrep`` computes a minimal
V-representation (lineality basis + extreme rays) of ``{x : <row, x> >= 0}``.
Dual cones use it directly; polyhedron conversions go through the usual
homogenization in one extra dimension.

Every row, lineality vector and ray is a primitive integer vector (an
integer gcd keeps it so), so the inner loops run on machine ints, and
``rref_basis`` eliminates on integers.  Rational input is scaled to
integers once, by ``primitive``.  Points come back as sorted integer
numerators over one denominator d, and facets as (w, n) meaning <z, w> >= n/d.

Each ray carries its zero set, a bitmask of the processed rows it is tight
at.  A new ray ``val_p·n - val_n·p`` is tight exactly where both parents are
(both are >= 0 on every processed row and both coefficients are positive), so
its mask is the parents' meet plus the current row.  A ray projected along a
lineality vector keeps its mask: that vector is orthogonal to every processed
row.  Adjacency is the combinatorial zero-set test of Fukuda & Prodon, valid
because the description is kept minimal at every step: a pair is adjacent iff
no third ray's mask contains its meet, one C-level count over the masks.  A
meet with fewer rows than a two-dimensional face needs skips that count.

Asked for its ``incidence``, ``cone_vrep`` also returns each output ray's
zero set over the input rows, which is enough to drop redundant input rows
without a second run: one run over a V-rep yields the facets and the
irredundant points, rays and lineality, one run over a full-dimensional H-rep
its V-rep and its facets.  ``upperset`` skips the run for planar canonical
forms (one sort) and pointed 3-D sums (a fan merge); it stays their reference.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .linalg import Vec, coprime, is_zero, primitive, vneg


class GeometryError(ValueError):
    """Raised when a polyhedral computation is malformed or out of scale."""


MAX_RAYS = 20000


def _unit(dim: int, i: int) -> Vec:
    return tuple(1 if j == i else 0 for j in range(dim))


def rref_basis(vectors, dim: int) -> list[Vec]:
    """Canonical (reduced row echelon, primitive) basis of span(vectors), by
    integer elimination (Bareiss 1968): each row stays primitive, pivot > 0."""
    mat = [primitive(v) for v in vectors if not is_zero(v)]
    r = 0
    for col in range(dim):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        row = mat[pivot] if mat[pivot][col] > 0 else vneg(mat[pivot])
        mat[pivot], mat[r] = mat[r], row
        for i, other in enumerate(mat):
            f = other[col]
            if i != r and f != 0:
                mat[i] = coprime(tuple(row[col] * x - f * y for x, y in zip(other, row)))
        r += 1
        if r == len(mat):
            break
    return mat[:r]


def cone_vrep(rows, dim: int, *, incidence: bool = False):
    """Minimal V-rep (lineality basis, extreme rays) of {x : <row,x> >= 0 ∀rows}.

    Extreme rays are modulo the lineality space; both come back as sorted
    primitive integer vectors.  The zero cone yields ([], []).  With
    ``incidence``, two lists follow: for each ray the bitmask of the rows
    tight at it, and those rows, the sorted primitive forms of the nonzero
    input rows (bit k stands for the k-th).
    """
    rows = [r for r in map(tuple, rows) if not is_zero(r)]
    prows = sorted({primitive(r) for r in rows})
    lin: list[Vec] = [_unit(dim, i) for i in range(dim)]
    rays: list[list] = []  # [vector, zero-set bitmask over processed rows]

    for k, a in enumerate(prows):
        bit = 1 << k
        lin_vals = [sum(map(mul, a, v)) for v in lin]
        pivot = next((i for i, val in enumerate(lin_vals) if val != 0), None)
        if pivot is not None:
            v0, val0 = lin[pivot], lin_vals[pivot]
            if val0 < 0:
                v0, val0 = vneg(v0), -val0
            lin = [
                coprime(tuple(val0 * x - val * y for x, y in zip(v, v0))) if val else v
                for i, (v, val) in enumerate(zip(lin, lin_vals))
                if i != pivot
            ]
            for entry in rays:
                val = sum(map(mul, a, entry[0]))
                if val != 0:
                    entry[0] = coprime(tuple(val0 * x - val * y for x, y in zip(entry[0], v0)))
                entry[1] |= bit  # projected rays are tight at the new row
            rays.append([v0, bit - 1])  # tight at every earlier row; lin is primitive
        else:
            vals = [sum(map(mul, a, entry[0])) for entry in rays]
            pos = [(entry, v) for entry, v in zip(rays, vals) if v > 0]
            neg = [(entry, v) for entry, v in zip(rays, vals) if v < 0]
            zero = [entry for entry, v in zip(rays, vals) if v == 0]
            for entry in zero:
                entry[1] |= bit
            # two adjacent rays span a face of dimension len(lin) + 2, so the
            # rows tight on both have rank, hence count, at least this
            face_rank = dim - len(lin) - 2
            masks = [entry[1] for entry in rays]
            combined: dict[Vec, list] = {}
            for p, val_p in pos:
                for n, val_n in neg:
                    meet = p[1] & n[1]
                    if meet.bit_count() < face_rank:
                        continue
                    # adjacent iff p and n are the only rays tight on all of meet
                    if list(map(meet.__and__, masks)).count(meet) != 2:
                        continue
                    vecq = coprime(tuple(val_p * x - val_n * y for x, y in zip(n[0], p[0])))
                    if is_zero(vecq) or vecq in combined:
                        continue
                    combined[vecq] = [vecq, meet | bit]
            rays = [entry for entry, _ in pos] + zero + list(combined.values())
            if len(rays) > MAX_RAYS:
                raise GeometryError(f"ray count exceeded desk scale ({MAX_RAYS})")

    rays.sort()  # by vector first
    out_rays = [entry[0] for entry in rays]
    if incidence:
        return rref_basis(lin, dim), out_rays, [entry[1] for entry in rays], prows
    return rref_basis(lin, dim), out_rays


def hrep_to_vrep(ineqs, dim: int, *, with_facets: bool = False):
    """V-rep (d, points, rays, lineality) of {z : <z, w> >= b for (w, b) in ineqs}.

    Points come back as sorted integer numerators over the least common
    denominator d, one per minimal face; rays and lineality as primitive
    integer vectors.  An infeasible system yields no points.  ``with_facets``
    appends the irredundant inequalities as sorted facets (w, n) over d,
    which requires a full-dimensional polyhedron.
    """
    rows = [(*w, -b) for w, b in ineqs]
    rows.append(_unit(dim + 1, dim))  # homogenization variable >= 0
    lin, rays, *incidence = cone_vrep(rows, dim + 1, incidence=with_facets)
    if any(v[dim] != 0 for v in lin):
        raise GeometryError("homogenization lineality with nonzero level")
    vrep = (*_dehomogenize(rays, dim), sorted(v[:dim] for v in lin))
    if not with_facets:
        return vrep
    keep, _ = _irredundant(*incidence)
    return (*vrep, _halfspaces(keep, dim, vrep[0]))  # the level row has a zero normal


def vrep_to_hrep(points, rays, lineality, dim: int, level: int = 1):
    """(facets, d, points, rays, lineality) of conv(points) + cone(rays) + span(lineality).

    The points may come as integer numerators over one common ``level`` > 0.
    Requires at least one point and a full-dimensional result; facets (w, n)
    mean {z : <z, w> >= n/d} with primitive integer normals, and a full-space
    input yields none.  The irredundant input points follow, one per minimal
    face, as sorted integer numerators over their least common denominator
    d; then the extreme rays (modulo lineality) and the reduced basis of the
    lineality space.
    """
    if not points:
        raise GeometryError("vrep_to_hrep needs at least one point")
    rows = [tuple(p) + (level,) for p in points]
    rows += [tuple(r) + (0,) for r in rays]
    for l in lineality:
        rows.append(tuple(l) + (0,))
        rows.append(vneg(l) + (0,))
    lin, facet_rays, *incidence = cone_vrep(rows, dim + 1, incidence=True)
    if lin:
        raise GeometryError("facet enumeration on a lower-dimensional polyhedron")
    keep, lineal = _irredundant(*incidence)
    d, points, rays = _dehomogenize(keep, dim)
    return _halfspaces(facet_rays, dim, d), d, points, rays, rref_basis([v[:dim] for v in lineal], dim)


def _dehomogenize(vectors, dim: int) -> tuple[int, list[Vec], list[Vec]]:
    """(d, points, rays) of primitive vectors: sorted points (level t > 0) as
    numerators over d, the lcm of the t and so their least common denominator,
    and sorted rays (level 0)."""
    tops = [v for v in vectors if v[dim] > 0]
    d = lcm(*(v[dim] for v in tops))
    points = sorted(tuple(x * (d // v[dim]) for x in v[:dim]) for v in tops)
    return d, points, sorted(v[:dim] for v in vectors if v[dim] == 0)


def _halfspaces(vectors, dim: int, d: int) -> list[tuple[Vec, int]]:
    """Sorted facets (w/g, n), n/d = b/g, of primitive integer rows (w, -b), g
    the gcd of w, skipping w = 0; n is exact when each facet holds a point over d."""
    gcds = [(v, gcd(*v[:dim])) for v in vectors]
    return sorted((tuple(x // g for x in v[:dim]), -v[dim] * d // g) for v, g in gcds if g)


def _irredundant(masks, rows) -> tuple[list[Vec], list[Vec]]:
    """Redundancy removal from the incidence of one ``cone_vrep`` run.

    ``masks[j]`` holds the rows tight at output ray j.  A row tight at every
    ray lies in the lineality part of the other description.  Any other row k
    is irredundant iff every row tight at all rays k is tight at shares k's
    zero set or is such a lineality row (Fukuda & Prodon, 1996); one row is
    kept per zero set.  Returns the kept rows and the lineality rows, in time
    linear in the number of incidences.
    """
    zero_sets = [0] * len(rows)  # per row: the rays tight at it
    for j, mask in enumerate(masks):
        for k in _bits(mask):
            zero_sets[k] |= 1 << j
    classes: dict[int, int] = {}
    for k, zero in enumerate(zero_sets):
        classes[zero] = classes.get(zero, 0) | 1 << k
    lineal = classes.pop((1 << len(masks)) - 1, 0)
    keep = []
    for zero, members in classes.items():
        meet = (1 << len(rows)) - 1
        for j in _bits(zero):
            meet &= masks[j]
        if not meet & ~(members | lineal):
            keep.append(rows[(members & -members).bit_length() - 1])
    return keep, [rows[k] for k in _bits(lineal)]


def _bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def hrep_feasible(ineqs, dim: int) -> bool:
    """Whether {z : <z, w> >= b for (w, b) in ineqs} is nonempty."""
    _, points, _, _ = hrep_to_vrep(ineqs, dim)
    return bool(points)
