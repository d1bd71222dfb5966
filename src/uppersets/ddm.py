"""Double description method over exact rationals, sized for desk-scale cones.

One primitive does all the conversions: ``cone_vrep`` computes a minimal
V-representation (lineality basis + extreme rays) of ``{x : <row, x> >= 0}``.
Dual cones use it directly; polyhedron conversions go through the usual
homogenization in one extra dimension.

Every row, lineality vector and ray is a primitive integer vector (an
integer gcd keeps it so), so the inner loops run on machine ints, and
``rref_basis`` and ``modulo`` eliminate on integers.  Rational input is
scaled to integers once, by ``primitive``.  Points come back as sorted
integer numerators over one denominator d, and facets as (w, n) meaning
<z, w> >= n/d.

Each ray carries its zero set, a bitmask of the processed rows it is tight
at.  A new ray ``val_p·n - val_n·p`` is tight exactly where both parents are
(both are >= 0 on every processed row and both coefficients are positive), so
its mask is the parents' meet plus the current row.  A ray projected along a
lineality vector keeps its mask: that vector is orthogonal to every processed
row.  Adjacency is the zero-set test of Fukuda & Prodon, valid since the
description stays minimal: no third ray is tight on all of an adjacent pair's
meet.  Each row keeps the ids (bits, never reused) of the rays tight at it,
updated as rays come and go, and the test ANDs the live ids with the meet's
rows' sets until only the pair is left; a meet of too few rows is skipped.

``cone_vrep`` always returns each output ray's zero set over the input rows,
which drops redundant input rows without a second run: one run over a V-rep
(``vrep_to_hrep``) yields its facets and irredundant points, rays and
lineality, one run over an H-rep (``hrep_to_vrep``) its V-rep and its facets.
``upperset`` skips the run for planar forms and pointed 3-D sums (it stays their
reference), makes one run per pointed sum of k > 2 terms in dims >= 4, and feeds
it only the point sums that may be vertices.  Rows are processed in the order
given, which decides how far a run grows (Avis, Bremner & Seidel 1997): ``vrep_to_hrep``
takes rays and ± lineality first, then the points (``upperset`` puts the lowest on the
sum of C+'s generators first), ``hrep_to_vrep`` and ``cone.dual_cone`` sorted rows.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .linalg import ValidationError, Vec, coprime, is_zero, primitive, vneg


class GeometryError(ValidationError):
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


def modulo(x: Vec, pivots) -> tuple[Vec, int]:
    """(y, s), s > 0, with y/s the representative of the integer vector x
    modulo the span of the pivots that is zero at every pivot column; the
    pivots are pairs (c, b) with b[c] > 0 and b zero at the others' columns."""
    s = 1
    for c, b in pivots:
        if x[c]:
            x, s = tuple(b[c] * xi - x[c] * bi for xi, bi in zip(x, b)), s * b[c]
    return x, s


def cone_vrep(rows, dim: int):
    """(lineality basis, extreme rays, masks, rows): the minimal V-rep of
    {x : <row,x> >= 0 ∀rows} and its incidence.

    Extreme rays are modulo the lineality space; both come back as sorted
    primitive integer vectors, and the zero cone has neither.  ``masks[j]`` is
    the bitmask of the rows tight at ray j, bit k standing for ``rows[k]``;
    ``rows`` are the sorted primitive forms of the nonzero input rows.  The
    rows are processed in the order given, repeats dropped.
    """
    prows = list(dict.fromkeys(primitive(r) for r in map(tuple, rows) if not is_zero(r)))
    lin: list[Vec] = [_unit(dim, i) for i in range(dim)]
    rays: list[list] = []  # [vector, zero-set bitmask over processed rows, id bit]
    tight: list[int] = []  # per processed row, the ids of the rays tight at it
    live = ids = 0  # the ids of the current rays; the number of ids handed out

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
            tight = [t | 1 << ids for t in tight] + [live]  # v0 is tight at every earlier row
            rays.append([v0, bit - 1, 1 << ids])  # lin is primitive
            live, ids = live | 1 << ids, ids + 1
            continue
        vals = [sum(map(mul, a, entry[0])) for entry in rays]
        pos = [(entry, v) for entry, v in zip(rays, vals) if v > 0]
        neg = [(entry, v) for entry, v in zip(rays, vals) if v < 0]
        zero = [entry for entry, v in zip(rays, vals) if v == 0]
        for entry in zero:
            entry[1] |= bit
        tight.append(sum(entry[2] for entry in zero))
        # two adjacent rays span a face of dimension len(lin) + 2, so the
        # rows tight on both have rank, hence count, at least this
        face_rank = dim - len(lin) - 2
        combined: dict[Vec, list] = {}
        for p, val_p in pos:
            for n, val_n in neg:
                meet = p[1] & n[1]
                if meet.bit_count() < face_rank:
                    continue
                pair, common, rest = p[2] | n[2], live, meet  # adjacent iff no other live ray is tight on meet
                while rest and common != pair:
                    low = rest & -rest
                    common &= tight[low.bit_length() - 1]
                    rest ^= low
                if common != pair:
                    continue
                vecq = [val_p * x - val_n * y for x, y in zip(n[0], p[0])]
                g = gcd(*vecq)  # 0 only for the zero ray
                vecq = tuple([x // g for x in vecq]) if g > 1 else tuple(vecq)
                if g and vecq not in combined:
                    combined[vecq] = [vecq, meet | bit, 1 << (ids + len(combined))]
        for _, mask, new in combined.values():
            for j in _bits(mask):
                tight[j] |= new
        dropped, added = sum(entry[2] for entry, _ in neg), ((1 << len(combined)) - 1) << ids
        live, ids = live & ~dropped | added, ids + len(combined)
        rays = [entry for entry, _ in pos] + zero + list(combined.values())
        if len(rays) > MAX_RAYS:
            raise GeometryError(f"ray count exceeded desk scale ({MAX_RAYS})")

    rays.sort()  # by vector first
    masks, prows = _in_sorted_order([entry[1] for entry in rays], prows)
    return rref_basis(lin, dim), [entry[0] for entry in rays], masks, prows


def _in_sorted_order(masks, rows) -> tuple[list[int], list[Vec]]:
    """(masks, rows) with the rows sorted and each mask's bits moved with them."""
    order = sorted(range(len(rows)), key=rows.__getitem__)
    if order == list(range(len(rows))):
        return masks, rows
    at = {k: 1 << j for j, k in enumerate(order)}  # old bit k moves to j
    return [sum(at[k] for k in _bits(mask)) for mask in masks], [rows[k] for k in order]


def hrep_to_vrep(ineqs, dim: int):
    """(d, points, rays, lineality, facets) of {z : <z, w> >= b for (w, b) in ineqs}.

    Points come back as sorted integer numerators over the least common
    denominator d, one per minimal face; rays and lineality as primitive
    integer vectors.  An infeasible system yields no points.  The facets are
    the irredundant inequalities, sorted, as (w, n) meaning <z, w> >= n/d;
    they describe the polyhedron only when it is full-dimensional.
    """
    rows = [(*w, -b) for w, b in ineqs]
    rows.append(_unit(dim + 1, dim))  # homogenization variable >= 0
    lin, rays, *incidence = cone_vrep(sorted(map(primitive, rows)), dim + 1)
    if any(v[dim] != 0 for v in lin):
        raise GeometryError("homogenization lineality with nonzero level")
    d, points, rays = _dehomogenize(rays, dim)
    keep, _ = _irredundant(*incidence)  # the level row has a zero normal: no facet
    return d, points, rays, sorted(v[:dim] for v in lin), _halfspaces(keep, dim, d)


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
    rows = [tuple(r) + (0,) for r in rays]  # the recession rows first, then the points in the order given
    for l in lineality:
        rows.append(tuple(l) + (0,))
        rows.append(vneg(l) + (0,))
    rows += [tuple(p) + (level,) for p in points]
    lin, facet_rays, *incidence = cone_vrep(rows, dim + 1)
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
    is irredundant iff each row tight at all of k's rays has k's zero set or
    is such a lineality row (Fukuda & Prodon, 1996); one row is kept per zero
    set.  Returns the kept rows and the lineality rows, in time linear in the
    number of incidences.
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

