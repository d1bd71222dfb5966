"""Double description core, checked against brute-force grid oracles."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from kernel_gate import mask_scan_vrep
from uppersets.ddm import (
    GeometryError,
    _halfspaces,
    cone_vrep,
    hrep_to_vrep,
    modulo,
    rref_basis,
    vrep_to_hrep,
)
from uppersets.linalg import NEG_INF, POS_INF, dot, format_rational, primitive, primitive_halfspace, vec


def rank(rows):
    return len(rref_basis(rows, len(rows[0]))) if rows else 0


def in_cone_by_rows(rows, x):
    return all(dot(r, x) >= 0 for r in rows)


def valid_rows_for(lineality, rays, dim):
    # All small-integer inequalities valid on cone(rays) + span(lineality);
    # an independent H-description built by brute force.
    grid = [vec(p) for p in product(range(-3, 4), repeat=dim)]
    return [
        g
        for g in grid
        if all(dot(g, r) >= 0 for r in rays) and all(dot(g, l) == 0 for l in lineality)
    ]


def test_dual_of_orthant_rows_is_orthant():
    rows = [(1, 0), (0, 1)]
    lin, rays, *_ = cone_vrep(rows, 2)
    assert lin == []
    assert rays == [(0, 1), (1, 0)]


def test_wedge_dual():
    # {w : w1 >= 0, w1 + w2 >= 0} is generated by (0,1) and (1,-1)
    lin, rays, *_ = cone_vrep([(1, 0), (1, 1)], 2)
    assert lin == []
    assert sorted(rays) == [(0, 1), (1, -1)]


def test_halfspace_cone_has_lineality():
    lin, rays, *_ = cone_vrep([(1, 1)], 2)
    assert lin == [(1, -1)]
    # the single extreme ray is only defined modulo lineality
    assert len(rays) == 1 and dot(rays[0], (1, 1)) > 0


def test_zero_dual_of_full_space():
    lin, rays, *_ = cone_vrep([], 3)
    assert rays == []
    assert len(lin) == 3


def test_infeasible_strict_opposites_leave_zero_cone():
    lin, rays, *_ = cone_vrep([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)
    assert lin == [] and rays == []


@pytest.mark.parametrize("seed", range(12))
def test_cone_vrep_matches_grid_oracle(seed):
    # Random small integer rows in dims 2..4: every grid point must agree
    # between the H-description and the computed V-description.
    rng = random.Random(seed)
    dim = rng.choice([2, 2, 3, 3, 4])
    rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(1, 5))]
    lin, rays, *_ = cone_vrep(rows, dim)
    oracle_rows = valid_rows_for(lin, rays, dim)
    for x in product(range(-2, 3), repeat=dim):
        lhs = in_cone_by_rows(rows, x)
        rhs = all(dot(g, x) >= 0 for g in oracle_rows)
        assert lhs == rhs, (rows, x, lin, rays)


@pytest.mark.parametrize("seed", range(12))
def test_cone_vrep_rays_are_extreme(seed):
    # Independent minimality oracle: an output ray r is extreme iff the rows
    # tight at r have a solution space of dimension dim(lineality) + 1.
    rng = random.Random(100 + seed)
    dim = rng.choice([2, 3, 3, 4])
    rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(2, 6))]
    lin, rays, *_ = cone_vrep(rows, dim)
    nonzero = [r for r in rows if any(r)]
    for r in rays:
        tight = [row for row in nonzero if dot(row, r) == 0]
        sol_dim = dim - rank(tight) if tight else dim
        assert sol_dim == len(lin) + 1, (rows, r)
        assert in_cone_by_rows(rows, r)


def null_space(rows, dim):
    # Basis of {x : <row, x> = 0 for every row}, by Fraction elimination.
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(dim):
        r = len(pivots)
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                mat[i] = [x - mat[i][col] * y for x, y in zip(mat[i], mat[r])]
        pivots.append(col)
    basis = []
    for free in (c for c in range(dim) if c not in pivots):
        x = [Fraction(0)] * dim
        x[free] = Fraction(1)
        for r, col in enumerate(pivots):
            x[col] = -mat[r][free]
        basis.append(x)
    return basis


def extreme_zero_sets(rows, dim):
    # Brute force: every extreme ray (modulo lineality) of {x : rows.x >= 0}
    # is cut out by rank(rows) - 1 independent rows; identify each by the
    # set of rows it is tight at.
    k = rank(rows) - 1
    found = set()
    for subset in combinations(range(len(rows)), k):
        tight = [rows[i] for i in subset]
        if rank(tight) != k:
            continue
        for v in null_space(tight, dim):
            vals = [dot(row, v) for row in rows]
            if any(vals):
                break
        if all(x <= 0 for x in vals):
            vals = [-x for x in vals]
        if all(x >= 0 for x in vals):
            found.add(frozenset(i for i, x in enumerate(vals) if x == 0))
    return found


def brute_force_input(seed):
    """(rows, dim): dims 5-6 with 6-12 sorted primitive rows.  On odd seeds the
    rows that involve the last coordinate sort last."""
    rng = random.Random(300 + seed)
    dim = 5 + seed % 2 if seed < 8 else rng.choice([5, 6])
    if seed % 2:
        late = rng.randint(1, 2)
        rows = [
            tuple(rng.randint(-2, 2) for _ in range(dim - 1)) + (0,)
            for _ in range(rng.randint(dim + 1, 12 - late))
        ]
        rows += [
            (3,) + tuple(rng.randint(-2, 2) for _ in range(dim - 2)) + (rng.choice([-1, 1]),)
            for _ in range(late)
        ]
    else:
        rows = [tuple(rng.randint(-2, 2) for _ in range(dim)) for _ in range(rng.randint(6, 12))]
    return sorted({primitive(r) for r in rows if any(r)}), dim


@pytest.mark.parametrize("seed", range(16))
def test_cone_vrep_matches_brute_force_in_dims_5_and_6(seed):
    # On odd seeds the run removes the last coordinate's lineality direction
    # only after rays were combined, and projects rays with parent-derived masks.
    rows, dim = brute_force_input(seed)
    lin, rays, *_ = cone_vrep(rows, dim)
    assert len(lin) == dim - rank(rows)
    for l in lin:
        assert all(dot(row, l) == 0 for row in rows)
    zero_sets = set()
    for r in rays:
        assert in_cone_by_rows(rows, r)
        tight = [i for i, row in enumerate(rows) if dot(row, r) == 0]
        assert dim - rank([rows[i] for i in tight]) == len(lin) + 1, (rows, r)
        zero_sets.add(frozenset(tight))
    assert len(zero_sets) == len(rays)
    assert zero_sets == extreme_zero_sets(rows, dim), (rows, rays)
    # the incidence _irredundant reads: bit k of a ray's mask is prows[k] tight at it
    lin_i, rays_i, masks, prows = cone_vrep(rows, dim)
    assert (lin_i, rays_i, prows) == (lin, rays, rows)
    for r, mask in zip(rays, masks):
        assert mask == sum(1 << k for k, row in enumerate(prows) if dot(row, r) == 0), (rows, r)


@pytest.mark.parametrize("seed", range(16))
def test_cone_vrep_does_not_depend_on_the_row_order(seed):
    # the rows are processed as given; the output is the one of the sorted rows
    rows, dim = brute_force_input(seed)
    expected = cone_vrep(rows, dim)
    orders = [random.Random(700 + 3 * seed + k).sample(rows, len(rows)) for k in range(3)]
    orders.append(sorted(rows, key=lambda row: row[-1] != 0))  # the last-coordinate-0 rows first
    for order in orders:
        assert cone_vrep(order, dim) == expected, order


@st.composite
def kernel_inputs(draw):
    """(rows, dim) in dims 2-6: random rows with entries in [-3, 3] or
    [-1, 1], or cube vertices (s, 1), s in {-1, 1}^(dim-1), a degenerate set
    whose cone has rays tight at up to 2^(dim-2) rows; each row may come with
    a repeat, a positive multiple, its opposite (a lineality direction) or a
    zero row."""
    dim = draw(st.integers(2, 6))
    shape = draw(st.sampled_from(["wide", "small", "cube"]))
    if shape == "cube":
        signs = list(product((-1, 1), repeat=dim - 1))
        rows = [(*s, 1) for s in draw(st.lists(st.sampled_from(signs), min_size=1, max_size=12, unique=True))]
    else:
        entry = st.integers(-3, 3) if shape == "wide" else st.integers(-1, 1)
        rows = draw(st.lists(st.tuples(*[entry] * dim), min_size=1, max_size=10))
    for row in list(rows):
        kind = draw(st.sampled_from(["repeat", "multiple", "opposite", "zero", "none", "none"]))
        if kind != "none":
            extra = {"repeat": row, "multiple": tuple(2 * x for x in row), "opposite": tuple(-x for x in row)}
            rows.append(extra.get(kind, (0,) * dim))
    return draw(st.permutations(rows)), dim


@settings(max_examples=200, deadline=None)
@given(kernel_inputs())
def test_cone_vrep_matches_the_mask_scan_reference(case):
    # the tight-ray sets kept per row decide adjacency as counting over every
    # ray's mask did, so the lineality, rays, masks and rows are the same
    rows, dim = case
    assert cone_vrep(rows, dim) == mask_scan_vrep(rows, dim)


def test_two_rays_with_an_empty_meet_are_adjacent():
    # No row is tight at both rays, so their meet is empty; no third ray
    # contains it, so the pair is adjacent and spans the cone.
    assert cone_vrep([(-1, -1), (-1, 0), (-1, 1)], 2)[:2] == ([], [(-1, -1), (-1, 1)])


def test_hrep_to_vrep_simplex():
    ineqs = [((1, 0), 0), ((0, 1), 0), ((-1, -1), -2)]  # x,y >= 0, x+y <= 2
    d, points, rays, lin, _ = hrep_to_vrep(ineqs, 2)
    assert (d, points) == (1, [(0, 0), (0, 2), (2, 0)])
    assert rays == [] and lin == []


def test_hrep_to_vrep_translated_orthant():
    ineqs = [((1, 0), 1), ((0, 1), 2)]
    d, points, rays, lin, _ = hrep_to_vrep(ineqs, 2)
    assert (d, points) == (1, [(1, 2)])
    assert rays == [(0, 1), (1, 0)]
    assert lin == []


def test_hrep_to_vrep_halfspace_lineality():
    d, points, rays, lin, _ = hrep_to_vrep([((1, 1), 0)], 2)
    assert lin == [(1, -1)]
    assert (d, points) == (1, [(0, 0)])


def test_hrep_infeasible():
    assert not hrep_to_vrep([((1, 0), 1), ((-1, 0), 0)], 2)[1]
    assert hrep_to_vrep([((1, 0), 1), ((-1, 0), -1)], 2)[1]


def test_vrep_to_hrep_staircase():
    facets, *_ = vrep_to_hrep([(1, 0), (0, 1)], [(1, 0), (0, 1)], [], 2)
    assert sorted(facets) == [((0, 1), 0), ((1, 0), 0), ((1, 1), 1)]


def test_vrep_to_hrep_full_space():
    facets, *_ = vrep_to_hrep([(0, 0)], [], [(1, 0), (0, 1)], 2)
    assert facets == []


def test_vrep_to_hrep_lower_dimensional_rejected():
    with pytest.raises(GeometryError):
        vrep_to_hrep([(0, 0)], [], [(1, 0)], 2)


@pytest.mark.parametrize("seed", range(10))
def test_hrep_vrep_round_trip(seed):
    # Full-dimensional random polyhedra: H -> V -> H must reproduce the set;
    # verified pointwise on a grid, independent of facet normalization.
    rng = random.Random(2000 + seed)
    dim = rng.choice([2, 2, 3])
    ineqs = []
    for _ in range(rng.randint(1, 4)):
        w = tuple(rng.randint(-2, 2) for _ in range(dim))
        if not any(w):
            continue
        ineqs.append((w, Fraction(rng.randint(-2, 1))))
    d, points, rays, lin, _ = hrep_to_vrep(ineqs, dim)
    if not points:
        return
    interior_hits = 0
    grid = list(product(range(-3, 4), repeat=dim))
    for x in grid:
        if all(dot(w, x) > b for w, b in ineqs):
            interior_hits += 1
    if interior_hits == 0:
        return  # possibly lower-dimensional; facet enumeration not applicable
    facets, d, *_ = vrep_to_hrep(points, rays, lin, dim, d)
    for x in grid:
        original = all(dot(w, x) >= b for w, b in ineqs)
        recovered = all(dot(w, x) * d >= n for w, n in facets)
        assert original == recovered, (ineqs, facets, x)


def test_rref_basis_canonical():
    assert rref_basis([(2, 4), (1, 2)], 2) == [(1, 2)]
    assert rref_basis([(1, 1), (1, -1)], 2) == [(1, 0), (0, 1)]
    assert rref_basis([(0, 0)], 2) == []


def gauss_jordan(rows, dim):
    """Reference for ``rref_basis``: reduced row echelon form over Fractions,
    each row then scaled to its primitive form."""
    mat = [[Fraction(x) for x in v] for v in rows if any(v)]
    r = 0
    for col in range(dim):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return [primitive(tuple(row)) for row in mat[:r]]


@pytest.mark.parametrize("dim", range(1, 7))
def test_rref_basis_matches_a_fraction_gauss_jordan_reference(dim):
    # int and Fraction rows, sparse so that pivots skip columns, and rows
    # that are combinations of earlier ones
    rng = random.Random(dim)
    entry = lambda: rng.choice((0, 0, 1, -1, 2, -3, Fraction(rng.randint(-5, 5), rng.randint(1, 4))))
    deficient = 0
    for _ in range(40):
        rows = [tuple(entry() for _ in range(dim)) for _ in range(rng.randint(0, dim))]
        for _ in range(rng.randint(0, 2) if rows else 0):
            a, b = rng.choice(rows), rng.choice(rows)
            k = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            rows.insert(rng.randint(0, len(rows)), tuple(rng.randint(-2, 2) * x + k * y for x, y in zip(a, b)))
        basis = rref_basis(rows, dim)
        assert basis == gauss_jordan(rows, dim), rows
        assert all(type(x) is int for v in basis for x in v)
        deficient += len(basis) < len(rows)
    assert deficient > 5


@st.composite
def modulo_inputs(draw):
    """(x, vectors, keep, dim): an integer vector, integer vectors whose reduced
    basis is taken, and which of the basis's pivots to reduce by."""
    dim = draw(st.integers(1, 6))
    vectors = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * dim), max_size=dim + 1))
    keep = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    return draw(st.tuples(*[st.integers(-9, 9)] * dim)), vectors, keep, dim


@settings(max_examples=200, deadline=None)
@given(modulo_inputs(), st.booleans())
def test_modulo_is_zero_at_every_pivot_and_moves_x_within_the_span(inputs, reverse):
    # forward pivots, each vector's first nonzero column (integral._split
    # keeps some of them), and reversed ones, the last nonzero column of the
    # basis of the reversed vectors (upperset._pivots)
    x, vectors, keep, dim = inputs
    flip = (lambda v: v[::-1]) if reverse else (lambda v: v)
    basis = [flip(b) for b in rref_basis([flip(v) for v in vectors], dim)]
    columns = range(dim - 1, -1, -1) if reverse else range(dim)
    pivots = [(next(c for c in columns if b[c]), b) for b, k in zip(basis, keep) if k]
    assert all(b[c] > 0 for c, b in pivots)
    y, s = modulo(x, pivots)
    assert s > 0 and all(type(t) is int for t in y)
    assert all(y[c] == 0 for c, _ in pivots)
    moved = tuple(s * a - b for a, b in zip(x, y))
    assert rank([b for _, b in pivots] + [moved]) == len(pivots)


def test_primitive_normalization():
    assert primitive((Fraction(2, 3), Fraction(-4, 3))) == (1, -2)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-2, -4)) == (-1, -2)


def test_format_rational_prints_the_infinities_and_refuses_other_floats():
    assert (format_rational(NEG_INF), format_rational(POS_INF)) == ("-inf", "inf")
    with pytest.raises(ValueError) as exc:
        format_rational(0.5)
    assert str(exc.value) == "not an exact rational: 0.5"


@pytest.mark.parametrize("seed", range(8))
def test_integer_rows_skip_the_denominator_pass_with_the_same_output(seed):
    # int rows take the integer gcd path, Fraction rows keep ``primitive``;
    # rows repeat in direction, scaled by ints and by Fractions
    rng = random.Random(seed)
    dim = rng.choice((3, 4))
    rows = []
    for _ in range(rng.randint(dim, 2 * dim + 2)):
        r = tuple(rng.randint(-3, 3) for _ in range(dim))
        rows.append(tuple(rng.randint(1, 3) * x for x in r))
        if rng.random() < 0.5:
            rows.append(tuple(Fraction(rng.randint(1, 4), rng.randint(1, 3)) * x for x in r))
    as_fractions = [vec(r) for r in rows]
    mixed = cone_vrep(rows, dim)
    assert mixed == cone_vrep(as_fractions, dim)
    assert mixed[3] == sorted({primitive(r) for r in as_fractions if any(r)})
    assert all(type(x) is int for r in mixed[3] for x in r)


def test_halfspaces_read_facets_off_primitive_integer_rows():
    # the gcd of the normal part divides the normal, and the offset over d
    rng = random.Random(17)
    wide_normals = 0
    for _ in range(60):
        dim = rng.randint(1, 5)
        rows = [(0,) * dim + (1,)]  # a zero normal: no facet
        for _ in range(rng.randint(1, 6)):
            g = rng.choice([1, 1, 2, 3, 6])
            row = primitive(tuple(g * rng.randint(-4, 4) for _ in range(dim)) + (rng.randint(-9, 9),))
            if any(row[:dim]):
                rows.append(row)
                wide_normals += primitive(row[:dim]) != row[:dim]
        facets = [primitive_halfspace(v[:dim], -v[dim]) for v in rows[1:]]
        d = lcm(*(e for _, _, e in facets)) * rng.randint(1, 3)
        assert _halfspaces(rows, dim, d) == sorted((w, n * d // e) for w, n, e in facets)
    assert wide_normals > 20


def over(d, numerators):
    """Integer numerators over d as Fraction points."""
    return [tuple(Fraction(x, d) for x in p) for p in numerators]


def over_d(d, facets):
    """Facets (w, n) over d as (w, n/d)."""
    return [(w, Fraction(n, d)) for w, n in facets]


def same_modulo(a, b, lineality):
    # a - b lies in span(lineality)
    diff = tuple(x - y for x, y in zip(a, b))
    return rank(list(lineality) + [diff]) == rank(lineality)


@pytest.mark.parametrize("seed", range(16))
def test_one_run_redundancy_removal_matches_a_second_run(seed):
    # The incidence of one run names what a second run would recompute: the
    # vertices and extreme rays among repeated and redundant generators, and
    # the facets among repeated, rescaled and redundant inequalities.
    rng = random.Random(3000 + seed)
    dim = rng.choice([2, 3, 4])
    units = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    points = [
        tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(dim))
        for _ in range(rng.randint(1, 6))
    ]
    rays = units + [tuple(rng.randint(0, 2) for _ in range(dim)) for _ in range(rng.randint(0, 3))]
    lineality = []
    if seed % 3 == 0:  # a line orthogonal to (1, ..., 1): the set stays a proper subset
        i, j = rng.sample(range(dim), 2)
        lineality = [tuple(1 if k == i else -1 if k == j else 0 for k in range(dim))]
    facets, d, pts, rys, lin = vrep_to_hrep(points + points[:1], rays + [(2,) * dim], lineality, dim)
    assert facets == vrep_to_hrep(points, rays, lineality, dim)[0]
    assert lin == rref_basis(lineality, dim)
    rows = [(tuple(d * x for x in w), n) for w, n in facets]  # <z, d·w> >= n
    v_d, v_nums, v_rays, v_lin, _ = hrep_to_vrep(rows, dim)
    assert v_lin == sorted(lin)
    if not lineality:
        assert (d, pts, rys) == (v_d, v_nums, v_rays)
    pts, v_points = over(d, pts), over(v_d, v_nums)
    assert len(pts) == len(v_points) and len(rys) == len(v_rays)
    assert all(any(same_modulo(p, q, lin) for q in v_points) for p in pts)
    assert all(any(same_modulo(r, s, lin) for s in v_rays) for r in rys)
    assert all(p in points for p in pts) and all(r in rays for r in rys)

    rescaled = [(tuple(3 * x for x in w), 3 * b) for w, b in rows]
    looser = [(w, b - 1) for w, b in rows]
    ineqs = looser + rows + rescaled
    rng.shuffle(ineqs)
    *vrep, h_facets = hrep_to_vrep(ineqs, dim)
    assert vrep == [v_d, v_nums, v_rays, v_lin]
    assert over_d(v_d, h_facets) == over_d(d, facets)
