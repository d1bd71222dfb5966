"""Algebraic and order laws of the upper-set lattice, property-based."""

import functools
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from hypothesis import example, given, settings, strategies as st

from uppersets import Cone, ddm, orthant, upperset
from uppersets.integral import integral_value
from uppersets.linalg import NEG_INF, POS_INF, dot, primitive
from uppersets.measure_space import AtomicMeasure, AtomicSpace, SimpleSetFunction
from uppersets.upperset import (
    UpperSet,
    canonicalize,
    cone_upper_set,
    halfspace_set,
    inf_set,
    point_plus_cone,
    sup_set,
)

CONES = [orthant(2), Cone(2, ((1, 0), (1, 1)), (2, 1)), orthant(3)]

rationals = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=3)
)


def points_for(cone):
    return st.lists(
        st.tuples(*[rationals] * cone.dim).map(tuple), min_size=1, max_size=3
    )


@st.composite
def upper_sets(draw, allow_special=True):
    cone = draw(st.sampled_from(CONES))
    choice = draw(st.integers(0, 9))
    if allow_special and choice == 0:
        return UpperSet.empty(cone)
    if allow_special and choice == 1:
        return UpperSet.full(cone)
    if choice in (2, 3):
        w = draw(st.sampled_from(cone.dual_generators))
        return halfspace_set(cone, w, draw(rationals))
    pts = draw(points_for(cone))
    return canonicalize(cone, points=pts)


@st.composite
def same_cone_pairs(draw, n=2, allow_special=True):
    cone = draw(st.sampled_from(CONES))
    out = []
    for _ in range(n):
        choice = draw(st.integers(0, 9))
        if allow_special and choice == 0:
            out.append(UpperSet.empty(cone))
        elif choice in (1, 2):
            w = draw(st.sampled_from(cone.dual_generators))
            out.append(halfspace_set(cone, w, draw(rationals)))
        else:
            out.append(canonicalize(cone, points=draw(points_for(cone))))
    return cone, out


SETTINGS = dict(max_examples=40, deadline=None)


@settings(**SETTINGS)
@given(same_cone_pairs(n=2))
def test_oplus_commutative(pair):
    _, (d, e) = pair
    assert d.oplus(e).set_equal(e.oplus(d))


@settings(**SETTINGS)
@given(same_cone_pairs(n=3))
def test_oplus_associative(triple):
    _, (d, e, f) = triple
    assert d.oplus(e).oplus(f).set_equal(d.oplus(e.oplus(f)))


@settings(**SETTINGS)
@given(upper_sets())
def test_cone_is_neutral(d):
    assert d.oplus(cone_upper_set(d.cone)).set_equal(d)


@settings(**SETTINGS)
@given(upper_sets(), st.sampled_from([Fraction(1, 2), Fraction(2), Fraction(3, 2)]))
def test_scale_composition(d, lam):
    nu = Fraction(2, 3)
    assert d.scale(lam).scale(nu).set_equal(d.scale(lam * nu))


@settings(**SETTINGS)
@given(same_cone_pairs(n=2), st.sampled_from([Fraction(1, 2), Fraction(3)]))
def test_scale_distributes_over_oplus(pair, lam):
    _, (d, e) = pair
    assert d.oplus(e).scale(lam).set_equal(d.scale(lam).oplus(e.scale(lam)))


def ext_add(a, b):
    """Extended addition on Q ∪ {-inf, +inf}: the empty set's +inf absorbs -inf."""
    if POS_INF in (a, b):
        return POS_INF
    return NEG_INF if NEG_INF in (a, b) else a + b


@settings(**SETTINGS)
@given(same_cone_pairs(n=2))
def test_support_additivity(pair):
    cone, (d, e) = pair
    s = d.oplus(e)
    for w in cone.dual_generators:
        lhs = s.support(w)
        rhs = ext_add(d.support(w), e.support(w))
        assert lhs == rhs


@settings(**SETTINGS)
@given(upper_sets(allow_special=False), st.sampled_from([Fraction(1, 2), Fraction(5, 2)]))
def test_support_positively_homogeneous_in_lambda(d, lam):
    for w in d.cone.dual_generators:
        sig = d.support(w)
        scaled = d.scale(lam).support(w)
        if sig == NEG_INF:
            assert scaled == NEG_INF
        else:
            assert scaled == lam * sig


@settings(**SETTINGS)
@given(same_cone_pairs(n=3))
def test_inf_sup_are_bounds(triple):
    cone, family = triple
    lo = inf_set(cone, family)
    hi = sup_set(cone, family)
    for d in family:
        assert d.subset_of(lo)
        assert hi.subset_of(d)
    # glb/lub against a fourth comparable element built from the family
    assert hi.subset_of(lo)


@settings(**SETTINGS)
@given(same_cone_pairs(n=2))
def test_inf_is_greatest_lower_bound(pair):
    cone, (d, e) = pair
    lo = inf_set(cone, [d, e])
    # any set containing both members contains their hull
    witness = inf_set(cone, [d, e, point_plus_cone(cone, tuple(0 for _ in range(cone.dim)))])
    assert d.subset_of(witness) and e.subset_of(witness)
    assert lo.subset_of(witness)


@settings(**SETTINGS)
@given(upper_sets(allow_special=False))
def test_separation_at_facets(d):
    rebuilt = sup_set(d.cone, [d.supporting_halfspace(w) for w in d.facet_normals()])
    assert rebuilt.set_equal(d)
    for w in d.facet_normals():
        assert d.subset_of(d.supporting_halfspace(w))


@settings(**SETTINGS)
@given(upper_sets())
def test_set_equal_matches_mutual_subset(d):
    again = (
        d
        if d.kind != "proper"
        else canonicalize(d.cone, points=d.points, rays=d.rays, lineality=d.lineality)
    )
    assert d.set_equal(again)
    assert d.subset_of(again) and again.subset_of(d)


@settings(**SETTINGS)
@given(same_cone_pairs(n=2))
def test_subset_agreement_with_structural_equality(pair):
    _, (d, e) = pair
    mutual = d.subset_of(e) and e.subset_of(d)
    assert mutual == d.set_equal(e)


@settings(**SETTINGS)
@given(upper_sets(allow_special=False))
def test_recession_contains_cone(d):
    for g in d.cone.generators:
        for h in d.halfspaces:
            assert dot(g, h.normal) >= 0


@settings(**SETTINGS)
@given(upper_sets(allow_special=False))
def test_canonicalize_is_fixed_point(d):
    assert canonicalize(d.cone, halfspaces=list(d.halfspaces)) == d


def primitive_by_fractions(a):
    # The reference definition: clear denominators in Fraction arithmetic,
    # then divide by the gcd of the numerators.
    fracs = [Fraction(x) for x in a]
    if all(f == 0 for f in fracs):
        return tuple(0 for _ in fracs)
    denom_lcm = 1
    for f in fracs:
        denom_lcm = denom_lcm * f.denominator // gcd(denom_lcm, f.denominator)
    ints = [int(f * denom_lcm) for f in fracs]
    g = 0
    for n in ints:
        g = gcd(g, n)
    return tuple(n // g for n in ints)


mixed_entries = st.one_of(
    st.integers(min_value=-40, max_value=40),
    st.builds(
        Fraction, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=12)
    ),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(mixed_entries, min_size=1, max_size=8))
def test_primitive_matches_fraction_definition(entries):
    got = primitive(tuple(entries))
    assert got == primitive_by_fractions(entries)
    assert all(type(x) is int for x in got)


def plain_support(d, w):
    return min(sum(Fraction(x) * Fraction(y) for x, y in zip(p, w)) for p in d.points)


@st.composite
def sets_and_dual_directions(draw):
    cone = draw(st.sampled_from(CONES))
    d = canonicalize(cone, points=draw(points_for(cone)))
    image = draw(st.sampled_from(["same", "translate", "scale"]))
    if image == "translate":
        d = d.translate(draw(st.tuples(*[rationals] * cone.dim)))
    elif image == "scale":
        d = d.scale(draw(st.sampled_from([Fraction(1, 3), Fraction(2), Fraction(7, 4)])))
    coefficient = st.one_of(
        st.integers(0, 4), st.builds(Fraction, st.integers(0, 6), st.integers(1, 5))
    )
    n = len(cone.dual_generators)
    weights = draw(st.lists(coefficient, min_size=n, max_size=n))
    if not any(weights):
        weights[0] = 1
    w = tuple(
        sum((k * g[i] for k, g in zip(weights, cone.dual_generators)), 0) for i in range(cone.dim)
    )
    return d, w


@settings(max_examples=200, deadline=None)
@given(sets_and_dual_directions())
def test_support_matches_plain_fraction_minimum(pair):
    # Directions in C+ keep the support finite: it is attained at a point.
    d, w = pair
    assert d.support(w) == plain_support(d, w)


POINTED = CONES + [orthant(4)]
HALF_PLANE = Cone(2, ((1, 1), (1, -1), (-1, 1)), (1, 1))


def dual_direction(draw, cone):
    weights = draw(st.lists(st.integers(0, 2), min_size=len(cone.dual_generators),
                            max_size=len(cone.dual_generators)))
    if not any(weights):
        weights[0] = 1
    return tuple(
        sum((k * g[i] for k, g in zip(weights, cone.dual_generators)), 0) for i in range(cone.dim)
    )


@st.composite
def one_pass_sets(draw, cones):
    """Proper sets from every input kind: points, halfspace families, sums."""
    cone = draw(st.sampled_from(cones))
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return canonicalize(cone, points=draw(points_for(cone)))
    if choice == 1:
        return halfspace_set(cone, dual_direction(draw, cone), draw(rationals))
    if choice == 2:
        n = draw(st.integers(1, 3))
        rows = [(dual_direction(draw, cone), draw(rationals)) for _ in range(n)]
        return canonicalize(cone, halfspaces=rows)
    a = canonicalize(cone, points=draw(points_for(cone)))
    return a.oplus(halfspace_set(cone, dual_direction(draw, cone), draw(rationals)))


def stored_v(d):
    return repr((d.points, d.rays, d.lineality))


@settings(**SETTINGS)
@given(one_pass_sets(POINTED))
def test_one_pass_vrep_matches_vertex_enumeration_of_facets(d):
    if d.lineality:
        return
    denominator, points, rays, lineality, _ = ddm.hrep_to_vrep(list(d.halfspaces), d.dim)
    assert lineality == []
    # the run reports in processing order, the stored form sorted
    assert (d.denominator, d.numerators, d.rays) == (denominator, tuple(sorted(points)), tuple(sorted(rays)))


@settings(**SETTINGS)
@given(one_pass_sets(POINTED + [HALF_PLANE]), st.data())
def test_one_pass_vrep_depends_only_on_the_set(d, data):
    # translate images are one more input: D + v must be stored canonically too
    shift = data.draw(points_for(d.cone))[0]
    for s in (d, d.translate(shift)):
        from_h = canonicalize(s.cone, halfspaces=list(s.halfspaces))
        from_v = canonicalize(s.cone, points=s.points, rays=s.rays, lineality=s.lineality)
        assert from_h == s and from_v == s
        assert stored_v(from_h) == stored_v(s)
        assert stored_v(from_v) == stored_v(s)


@st.composite
def sets_from_every_path(draw, cone):
    """A set from each construction: planar and DDM V- and H-reps, translate,
    scale, the two closed-form ⊕ rules, general ⊕ and H(w, b)."""
    base = canonicalize(cone, points=draw(points_for(cone)))
    path = draw(st.sampled_from(
        ["vrep", "hrep", "hrep outside C+", "translate", "scale", "oplus cone translate",
         "oplus halfspace", "oplus", "halfspace"]
    ))
    if path == "vrep":
        return base
    if path == "hrep":
        n = draw(st.integers(1, 3))
        return canonicalize(cone, halfspaces=[(dual_direction(draw, cone), draw(rationals)) for _ in range(n)])
    if path == "hrep outside C+":
        normal = draw(st.tuples(*[st.integers(-2, 2)] * cone.dim).filter(any))
        return canonicalize(cone, halfspaces=list(base.halfspaces) + [(normal, draw(rationals))])
    if path == "translate":
        return base.translate(draw(points_for(cone))[0])
    if path == "scale":
        return base.scale(draw(st.sampled_from([Fraction(1, 3), Fraction(2), Fraction(7, 4)])))
    if path == "oplus cone translate":
        return base.oplus(point_plus_cone(cone, draw(points_for(cone))[0]))
    if path == "oplus halfspace":
        return base.oplus(halfspace_set(cone, dual_direction(draw, cone), draw(rationals)))
    if path == "oplus":
        return base.oplus(canonicalize(cone, points=draw(points_for(cone))))
    return halfspace_set(cone, dual_direction(draw, cone), draw(rationals))


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(POINTED + [HALF_PLANE]).flatmap(
    lambda cone: st.tuples(sets_from_every_path(cone), sets_from_every_path(cone))))
def test_offsets_are_tight_integers_over_the_point_denominator(pair):
    s, other = pair
    # every facet holds a stored point p, so each offset is <p, w>/d
    for h in s.halfspaces:
        assert (h.offset * s.denominator).denominator == 1
        assert h.offset * s.denominator == min(dot(p, h.normal) for p in s.numerators)
    if s.kind == "proper":
        twin = canonicalize(s.cone, halfspaces=list(s.halfspaces))
        assert twin == s and hash(twin) == hash(s) and twin.halfspaces == s.halfspaces
    same = s.kind == other.kind and s.halfspaces == other.halfspaces
    assert (s == other) == same == s.set_equal(other)
    assert same <= (hash(s) == hash(other))


PLANAR = [orthant(2), Cone(2, ((1, 0), (1, 1)), (2, 1)), Cone(2, ((2, 1), (-1, 3)), (1, 1)), HALF_PLANE]
small_vectors = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any)


def planar_sets(cone):
    """Nonempty sets with extra rays and lineality, so that sums also come out
    as half-planes and as the full plane."""
    return st.builds(
        lambda pts, rays, lin: canonicalize(cone, points=pts, rays=rays, lineality=lin),
        points_for(cone), st.lists(small_vectors, max_size=2), st.lists(small_vectors, max_size=1),
    )


def stored(s):
    return s.kind, s.facets, s.denominator, s.numerators, s.rays, s.lineality


def pair_sum_reference(d, e):
    """D ⊕ E as the canonical form of every pair sum."""
    return canonicalize(
        d.cone, points=[tuple(x + y for x, y in zip(p, q)) for p in d.points for q in e.points],
        rays=d.rays + e.rays, lineality=d.lineality + e.lineality,
    )


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PLANAR).flatmap(lambda cone: st.tuples(planar_sets(cone), planar_sets(cone))))
def test_planar_oplus_matches_the_pair_sums(pair):
    # rays, lineality and numerators are not compared by ==, so read every field
    d, e = pair
    assert stored(d.oplus(e)) == stored(pair_sum_reference(d, e))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PLANAR).flatmap(lambda cone: st.tuples(
    st.lists(planar_sets(cone), min_size=1, max_size=4),
    st.lists(st.sampled_from([0, 1, 2, Fraction(1, 2), Fraction(5, 3)]), min_size=4, max_size=4),
)))
def test_planar_integral_matches_scale_then_oplus(case):
    values, weights = case
    weights = weights[: len(values)]
    if not any(weights):
        weights[0] = Fraction(3, 4)
    space = AtomicSpace(tuple(f"x{i}" for i in range(len(values))))
    got = integral_value(SimpleSetFunction(space, tuple(values)), AtomicMeasure(space, tuple(weights)))
    value, *rest = [v.scale(w) for v, w in zip(values, weights) if w]
    for piece in rest:
        value = value.oplus(piece)
    assert stored(got) == stored(value)


CONES3 = [orthant(3), Cone(3, ((1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)), (1, 1, 1))]
small_vectors3 = st.tuples(*[st.integers(-2, 2)] * 3).filter(any)


@st.composite
def sets3(draw, cone):
    """Sets from points with up to two extra rays, which may leave C, cancel
    or span a lineality line, and from H-reps with normals in C+."""
    if draw(st.booleans()):
        return canonicalize(cone, points=draw(points_for(cone)), rays=draw(st.lists(small_vectors3, max_size=2)))
    rows = [(dual_direction(draw, cone), draw(rationals)) for _ in range(draw(st.integers(1, 4)))]
    return canonicalize(cone, halfspaces=rows)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CONES3).flatmap(lambda cone: st.tuples(sets3(cone), sets3(cone))))
def test_3d_oplus_matches_the_pair_sums(pair):
    # the fan merge is called directly too, as oplus takes the closed-form
    # rules first, on the pairs oplus would route to it: a sum _pointed finds
    # pointed has no lineality
    d, e = pair
    reference = pair_sum_reference(d, e)
    assert stored(d.oplus(e)) == stored(reference)
    if d.kind == e.kind == "proper" and upperset._pointed((d, e)):
        assert not reference.lineality
        assert stored(upperset._fan_sum(d, e)) == stored(reference)


def cross(a, b):
    return a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]


def edge_arcs(s):
    """The pairs of facet normals of a pointed 3-D set that meet at an edge."""
    on = [({p for p in s.numerators if dot(p, w) == n}, {r for r in s.rays if not dot(r, w)}) for w, n in s.facets]
    return [
        (s.facets[i][0], s.facets[j][0])
        for i, j in combinations(range(len(on)), 2)
        if len(on[i][0] & on[j][0]) > 1 or (on[i][0] & on[j][0] and on[i][1] & on[j][1])
    ]


def degeneracies(d, e):
    """The degenerate overlays of the normal fans of d and e."""
    found = set()
    for s, t in ((d, e), (e, d)):
        if {w for w, _ in s.facets} & {w for w, _ in t.facets}:
            found.add("shared normal")
        for a1, a2 in edge_arcs(s):
            for b1, b2 in edge_arcs(t):
                m = cross(b1, b2)
                if not any(cross(cross(a1, a2), m)):
                    found.add("parallel edges")
                if not dot(a1, m) and dot(cross(a1, b2), m) > 0 and dot(cross(b1, a1), m) > 0:
                    found.add("arc endpoint inside an arc")
    return found


R3 = orthant(3)
FOUR = CONES3[1]


@pytest.mark.parametrize(
    "d, e, shapes",
    [
        (  # the same normals and parallel edges: one staircase and its double
            canonicalize(R3, points=[(0, 1, 0), (1, 0, 0)]),
            canonicalize(R3, points=[(0, 2, 0), (2, 0, 0)]),
            {"shared normal", "parallel edges"},
        ),
        (  # (1, 1, 1) = ((1, 1, 0) + (1, 1, 2))/2 inside the other's arc
            canonicalize(R3, halfspaces=[((1, 1, 1), 0), ((1, 0, 0), -3), ((0, 1, 0), -3), ((0, 0, 1), -3)]),
            canonicalize(R3, halfspaces=[((1, 1, 0), 0), ((1, 1, 2), 0), ((1, 0, 0), -5), ((0, 1, 0), -5), ((0, 0, 1), -5)]),
            {"arc endpoint inside an arc"},
        ),
        (  # rays outside C over the four-generator cone
            canonicalize(FOUR, points=[(0, 0, 1), (1, 2, 0)], rays=[(1, 0, -1)]),
            canonicalize(FOUR, points=[(2, 0, 0), (0, 1, 1)], rays=[(0, 1, -1)]),
            set(),
        ),
    ],
    ids=["parallel", "endpoint-on-arc", "rays-outside-C"],
)
def test_3d_oplus_merges_degenerate_fans(d, e, shapes, fan_merges):
    assert shapes <= degeneracies(d, e)
    assert upperset._pointed((d, e))
    assert stored(d.oplus(e)) == stored(pair_sum_reference(d, e))
    assert fan_merges == [(d, e)]


def test_3d_oplus_of_cancelling_rays_takes_the_ddm_path(ddm_runs, fan_merges):
    # (1, 0, -1) is a ray of A and (-1, 0, 1) one of B: the sum has lineality
    # while neither operand has, so _pointed sends it to the run
    a = canonicalize(R3, halfspaces=[((1, 0, 0), 0), ((0, 1, 0), 0), ((1, 0, 1), 0)])
    b = canonicalize(R3, halfspaces=[((0, 0, 1), 0), ((0, 1, 0), 0), ((1, 0, 1), 0)])
    assert not a.lineality and not b.lineality
    assert not upperset._pointed((a, b))
    runs = len(ddm_runs)
    summed = a.oplus(b)
    assert (len(ddm_runs) - runs, fan_merges) == (1, [])
    assert summed.lineality == ((1, 0, -1),)
    assert stored(summed) == stored(pair_sum_reference(a, b))


def test_pointed_is_sufficient_not_necessary(ddm_runs, fan_merges):
    # the sum is pointed, but its ray (1, 1, -3) is negative on the sum of C+'s
    # generators: _pointed says no, oplus takes the run, and the fan merge
    # builds the same stored form without one
    a = canonicalize(R3, points=[(0, 0, 0), (1, 0, 0)], rays=[(1, 1, -3)])
    b = canonicalize(R3, points=[(0, 1, 0), (0, 0, 1)])
    assert not upperset._pointed((a, b))
    runs = len(ddm_runs)
    summed = a.oplus(b)
    assert (len(ddm_runs) - runs, fan_merges) == (1, [])
    assert not summed.lineality and (1, 1, -3) in summed.rays
    merged = upperset._fan_sum(a, b)
    assert (merged.facets, merged.numerators, merged.rays) == (summed.facets, summed.numerators, summed.rays)


def square_cone(dim):
    """Pointed, not simplicial: a cone over a square in the first three
    coordinates times the remaining coordinate axes."""
    e = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    plus = lambda a, b: tuple(x + y for x, y in zip(a, b))
    return Cone(dim, (e[0], e[1], plus(e[0], e[2]), plus(e[1], e[2]), *e[3:]), (1,) * dim)


R4 = orthant(4)
CONES45 = [R4, orthant(5), square_cone(4), square_cone(5)]


@st.composite
def sets45(draw, cone):
    """Sets from two to four points with up to two extra rays, which may leave
    C, cancel the other operand's or span a line, and at times a lineality line."""
    vectors = st.tuples(*[st.integers(-1, 2)] * cone.dim).filter(any)
    points = draw(st.lists(st.tuples(*[rationals] * cone.dim), min_size=2, max_size=4))
    lineality = [draw(vectors)] if draw(st.integers(0, 4)) == 0 else []
    return canonicalize(cone, points=points, rays=draw(st.lists(vectors, max_size=2)), lineality=lineality)


CANCELLING = (  # neither has lineality, the sum has: the filter declines
    canonicalize(R4, points=[(0, 0, 0, 0), (1, 1, 0, 0)], rays=[(1, 0, 0, -1)]),
    canonicalize(R4, points=[(0, 1, 0, 0), (1, 0, 1, 0)], rays=[(-1, 0, 0, 1)]),
)
PERMUTED = (  # pointed, with every ray in C
    canonicalize(R4, points=[(0, 1, 2, 3), (3, 2, 1, 0), (1, 3, 0, 2), (2, 0, 3, 1), (0, 3, 1, 2)]),
    canonicalize(R4, points=[(1, 0, 0, 2), (0, 2, 1, 0), (2, 1, 0, 0), (0, 0, 2, 1)]),
)
OUTSIDE_C = canonicalize(R4, points=[(0, 1, 0, 0), (1, 0, 2, 0)], rays=[(2, -1, 0, 0)])
LINEAL = (  # the first one's edge lies along the second one's lineality
    canonicalize(R4, points=[(0, 0, 0, 0), (1, -1, 0, 0)]),
    canonicalize(R4, points=[(0, 1, 0, 0), (1, 0, 2, 0)], lineality=[(1, -1, 0, 0)]),
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CONES45).flatmap(lambda cone: st.tuples(sets45(cone), sets45(cone))))
@example(CANCELLING)
@example((PERMUTED[0], OUTSIDE_C))
@example(LINEAL)
def test_oplus_in_dims_4_and_5_matches_the_pair_sums(pair):
    # the general path hands the run only the pair sums that may be vertices
    d, e = pair
    assert stored(d.oplus(e)) == stored(pair_sum_reference(d, e))


def test_the_kept_pair_sums_hold_every_vertex_and_not_every_pair():
    a, b = CANCELLING  # the guard declines: every pair is kept
    assert len(list(upperset._vertex_candidates(a, b))) == len(a.numerators) * len(b.numerators)
    assert CANCELLING[0].oplus(CANCELLING[1]).lineality == ((1, 0, 0, -1),)
    for a, b in (PERMUTED, (PERMUTED[0], OUTSIDE_C)):
        kept = {tuple(x + y for x, y in zip(a.points[i], b.points[j])) for i, j in upperset._vertex_candidates(a, b)}
        assert set(a.oplus(b).points) <= kept
        assert len(kept) < len(a.numerators) * len(b.numerators)
        assert len(kept) == len(a.oplus(b).numerators)  # on these two sums each kept pair sum is a vertex


def fold(terms):
    """The scaled terms folded with ``oplus``: a sum of k terms makes k - 1 general sums."""
    return functools.reduce(UpperSet.oplus, [s.scale(lam) for lam, s in terms])


WEIGHTS = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3))
POINTED4 = (*PERMUTED, OUTSIDE_C, canonicalize(R4, points=[(1, 0, 1, 0), (0, 1, 0, 1), (2, 2, 0, 0)]))


@st.composite
def pointed45(draw, cone):
    """Sets from two to four points with up to two extra rays, each positive on
    the sum of C+'s generators, and some outside C."""
    s = [sum(c) for c in zip(*cone.dual_generators)]
    vectors = st.tuples(*[st.integers(-1, 2)] * cone.dim).filter(lambda r: dot(r, s) > 0)
    points = draw(st.lists(st.tuples(*[rationals] * cone.dim), min_size=2, max_size=4))
    return canonicalize(cone, points=points, rays=draw(st.lists(vectors, max_size=2)))


def terms45(cone):
    """Three to five weighted sets, all pointed or all drawn by ``sets45``."""
    sets = st.sampled_from([pointed45, sets45])
    return sets.flatmap(lambda kind: st.lists(st.tuples(WEIGHTS, kind(cone)), min_size=3, max_size=5))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([R4, orthant(5), square_cone(4)]).flatmap(terms45))
@example([(Fraction(1, 2), POINTED4[0]), (Fraction(3), POINTED4[1]), (Fraction(2, 3), POINTED4[2])])
@example([(Fraction(1), LINEAL[0]), (Fraction(2), POINTED4[1]), (Fraction(1, 3), LINEAL[1])])
def test_weighted_sum_in_dims_4_and_5_equals_the_pairwise_fold(terms):
    # a pointed sum of proper terms is one run over the point tuples whose
    # every pair the filter keeps; any other sum is the fold
    assert stored(upperset.weighted_sum(terms[0][1].cone, terms)) == stored(fold(terms))


def test_a_pointed_integral_in_dim_4_is_one_run_and_lineality_takes_the_fold(ddm_runs):
    atoms = AtomicSpace(("x1", "x2", "x3", "x4"))
    mu = AtomicMeasure(atoms, (Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3)))
    value = integral_value(SimpleSetFunction(atoms, POINTED4), mu)
    assert len(ddm_runs) == 1  # the pairwise fold made 3
    assert stored(value) == stored(fold(mu.pairs(atoms, POINTED4)))
    del ddm_runs[:]
    terms = [(1, LINEAL[0]), (1, POINTED4[1]), (1, LINEAL[1])]
    value = upperset.weighted_sum(R4, terms)
    assert len(ddm_runs) == 2  # a term with lineality: the fold
    assert stored(value) == stored(fold(terms))


def shuffled_inputs(rng, cone):
    """(points, rays, lineality) over ``cone``: two to five rational points and
    up to two rays, which may leave C or cancel; in one case of three a
    lineality line or two, with copies of some points and rays moved along it
    by a rational multiple, so that two input rows share a zero set."""
    vector = lambda: tuple(rng.randint(-1, 2) for _ in range(cone.dim))
    points = [tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cone.dim))
              for _ in range(rng.randint(2, 5))]
    rays = [r for r in (vector() for _ in range(rng.randint(0, 2))) if any(r)]
    lineality = [l for l in (vector() for _ in range(rng.randint(1, 2))) if any(l)] if rng.randrange(3) == 0 else []
    for l in lineality:
        moved = lambda v, t: tuple(x + t * y for x, y in zip(v, l))
        points += [moved(p, Fraction(rng.randint(-2, 2), rng.randint(1, 2))) for p in points if rng.random() < 0.5]
        rays += [r for r in (moved(r, rng.randint(-2, 2)) for r in rays) if any(r)]
    return points, rays, lineality


@pytest.mark.parametrize("dim", (3, 4, 5))
def test_a_canonical_form_does_not_depend_on_the_input_order(dim):
    # the kernel reports rows in the order it is fed them, and _irredundant
    # keeps the first of two rows with one zero set, such as points or rays a
    # lineality vector apart: the stored fields must not depend on which
    for cone in (orthant(dim), square_cone(dim)):
        rng, order = random.Random(dim), random.Random(1000 + dim)
        for _ in range(200):
            points, rays, lineality = shuffled_inputs(rng, cone)
            expected = stored(canonicalize(cone, points=points, rays=rays, lineality=lineality))
            for _ in range(3):
                p, r, l = (order.sample(v, len(v)) for v in (points, rays, lineality))
                assert stored(canonicalize(cone, points=p, rays=r, lineality=l)) == expected, (points, rays, lineality)
