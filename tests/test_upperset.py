"""Upper-set construction and lattice operations against hand/grid oracles."""

import random
from fractions import Fraction
from itertools import product

import pytest

from uppersets import (
    AtomicMeasure,
    Cone,
    DimensionMismatchError,
    SimpleSetFunction,
    ValidationError,
    ddm,
    orthant,
    space,
)
from uppersets.integral import aumann_integral
from uppersets.linalg import NEG_INF, POS_INF, clear_denominators, dot, primitive_halfspace, vadd, vec, vscale
from uppersets.upperset import (
    UpperSet,
    _from_vrep,
    _proper,
    canonicalize,
    cone_upper_set,
    halfspace_set,
    inf_set,
    point_plus_cone,
    sup_set,
    weighted_sum,
)

R2 = orthant(2)
WEDGE = Cone(2, ((1, 0), (1, 1)), (2, 1))


def hs(cone, pairs):
    return canonicalize(cone, halfspaces=pairs)


def test_point_plus_cone_canonical_form():
    d = point_plus_cone(R2, (1, 2))
    assert d.kind == "proper"
    assert [(h.normal, h.offset) for h in d.halfspaces] == [((0, 1), 2), ((1, 0), 1)]
    assert d.points == ((Fraction(1), Fraction(2)),)
    assert set(d.rays) == {(0, 1), (1, 0)}


def test_canonicalize_absorbs_normals_outside_dual():
    # D = {z1 + z2 >= 0} ∩ {-z1 >= 0}; adding C closes it to a strictly
    # larger set.  Grid oracle: z ∈ D + C iff ∃d <= z componentwise with
    # d1 <= 0 and d1 + d2 >= 0, which reduces to min(0, z1) + z2 >= 0.
    d = hs(R2, [((1, 1), 0), ((-1, 0), 0)])
    assert d.kind == "proper"
    for z in product(range(-4, 5), repeat=2):
        oracle = min(0, z[0]) + z[1] >= 0
        assert d.member(z) == oracle, z
    assert sorted((h.normal, h.offset) for h in d.halfspaces) == [((0, 1), 0), ((1, 1), 0)]


def test_canonicalize_empty_intersection():
    d = hs(R2, [((1, 0), 1), ((-1, 0), 0)])
    assert d.is_empty


def test_canonicalize_inconsistent_reps_rejected():
    with pytest.raises(ValidationError):
        canonicalize(R2, halfspaces=[((1, 0), 1), ((0, 1), 0)], points=[(0, 0)])


def test_canonicalize_both_reps_consistent():
    d = canonicalize(R2, halfspaces=[((1, 0), 1), ((0, 1), 2)], points=[(1, 2)])
    assert d.set_equal(point_plus_cone(R2, (1, 2)))


def test_canonicalize_idempotent():
    d = hs(R2, [((1, 1), 0), ((-1, 0), 0)])
    again = canonicalize(R2, halfspaces=list(d.halfspaces))
    assert again == d
    via_vrep = canonicalize(R2, points=d.points, rays=d.rays, lineality=d.lineality)
    assert via_vrep == d


def test_halfspace_irredundant():
    # each facet must be non-removable: dropping it strictly enlarges the set
    d = hs(R2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1), ((1, 1), 0)])
    assert len(d.halfspaces) == 3  # the slack (1,1) >= 0 constraint is gone
    for i in range(len(d.halfspaces)):
        rest = [p for j, p in enumerate(d.halfspaces) if j != i]
        enlarged = hs(R2, rest)
        assert d.subset_of(enlarged) and not enlarged.subset_of(d)


def test_support_of_cone_at_dual_generators():
    c_set = cone_upper_set(R2)
    for w in R2.dual_generators:
        assert c_set.support(w) == 0


def test_support_translated():
    d = point_plus_cone(R2, (1, 2))
    assert d.support((1, 1)) == 3
    assert d.support((1, 0)) == 1


def test_support_unbounded_direction():
    h = halfspace_set(R2, (1, 1), 0)
    # points (t, -t) lie in H((1,1)) and drive <., (1,0)> to -inf
    for t in range(5):
        assert h.member((t, -t))
    assert h.support((1, 0)) == NEG_INF


def test_support_empty_and_errors():
    assert UpperSet.empty(R2).support((1, 0)) == POS_INF
    with pytest.raises(ValidationError):
        point_plus_cone(R2, (0, 0)).support((0, 0))


def test_oplus_translates():
    a = point_plus_cone(R2, (1, 0))
    b = point_plus_cone(R2, (0, 2))
    assert a.oplus(b).set_equal(point_plus_cone(R2, (1, 2)))


def test_oplus_empty_absorbs():
    d = point_plus_cone(R2, (1, 0))
    assert d.oplus(UpperSet.empty(R2)).is_empty
    assert UpperSet.empty(R2).oplus(d).is_empty


@pytest.mark.parametrize("offset", [1, Fraction(1, 2), "1/2", 0.5], ids=["int", "Fraction", "str", "float"])
@pytest.mark.parametrize("cone", [R2, orthant(3)], ids=["orthant2", "orthant3"])
def test_an_offset_is_read_as_vec_reads_an_entry(cone, offset):
    # both H-rep entry points take an int, a Fraction or 'p/q' and refuse a
    # float; the normal 2·(1, ..., 1) halves the offset of the primitive facet
    w = (2,) * cone.dim
    if type(offset) is float:
        for build in (lambda: halfspace_set(cone, w, offset), lambda: hs(cone, [(w, offset)])):
            with pytest.raises(ValidationError, match="halfspace offset 0.5 is not"):
                build()
        return
    h = halfspace_set(cone, w, offset)
    assert h.halfspaces == (((1,) * cone.dim, Fraction(offset) / 2),)
    assert canonicalize(cone, halfspaces=[(w, offset)]) == h


def _vector_entries(cone, v, mixed):
    """Each entry point that reads an outside vector: v as a point or a normal,
    and mixed, with a negative entry, as a ray or a lineality vector."""
    one = (1,) * cone.dim
    d = point_plus_cone(cone, one)
    return {
        "support": lambda: d.support(v),
        "member": lambda: d.member(v),
        "translate": lambda: d.translate(v),
        "supporting_halfspace": lambda: d.supporting_halfspace(v),
        "canonicalize-points": lambda: canonicalize(cone, points=[v, one]),
        "canonicalize-rays": lambda: canonicalize(cone, points=[one], rays=[mixed]),
        "canonicalize-lineality": lambda: canonicalize(cone, points=[one], lineality=[mixed]),
        "canonicalize-halfspaces": lambda: canonicalize(cone, halfspaces=[(v, 1)]),
        "point_plus_cone": lambda: point_plus_cone(cone, v),
        "halfspace_set": lambda: halfspace_set(cone, v, 1),
    }


@pytest.mark.parametrize("entry", list(_vector_entries(R2, (1, 2), (1, -2))))
@pytest.mark.parametrize("container", [list, tuple], ids=["list", "tuple"])
@pytest.mark.parametrize(
    "unit, read",
    [
        (1, int),
        (Fraction(1, 2), Fraction),
        (Fraction(1, 2), lambda x: f"{x.numerator}/{x.denominator}"),
        (Fraction(1, 2), float),
    ],
    ids=["int", "Fraction", "str", "float"],
)
@pytest.mark.parametrize("cone", [R2, orthant(3)], ids=["orthant2", "orthant3"])
def test_a_vector_is_read_as_vec_reads_its_entries(cone, unit, read, container, entry):
    # every entry point takes ints, Fractions and 'p/q' strings, in a list or a
    # tuple, and answers as for the same entries as Fractions; it refuses floats
    v, mixed = ([unit * Fraction(k) for k in u[: cone.dim]] for u in ((1, 3, 2), (1, -3, 2)))
    read_v, read_mixed = (container(read(x) for x in u) for u in (v, mixed))
    if read is float:
        with pytest.raises(ValidationError, match=r"entry 0\.5 is not an int, a Fraction"):
            _vector_entries(cone, read_v, read_mixed)[entry]()
        return
    expected = _vector_entries(cone, tuple(v), tuple(mixed))[entry]()
    assert _vector_entries(cone, read_v, read_mixed)[entry]() == expected


@pytest.mark.parametrize(
    "cone, lineality",
    [(R2, (1,)), (R2, (1, -1, 0)), (orthant(3), (1, -1)), (orthant(3), (1, -1, 0, 5))],
    ids=["orthant2-short", "orthant2-long", "orthant3-short", "orthant3-long"],
)
def test_canonicalize_checks_the_lineality_dimension(cone, lineality):
    with pytest.raises(DimensionMismatchError, match=f"lineality vector has dimension {len(lineality)}"):
        canonicalize(cone, points=[(0,) * cone.dim], lineality=[lineality])


def test_oplus_halfspace_with_translate():
    h = halfspace_set(R2, (1, 1), 0)
    d = point_plus_cone(R2, (1, 1))
    out = h.oplus(d)
    assert out.set_equal(halfspace_set(R2, (1, 1), 2))
    # sampled sums land inside
    for t in range(-3, 4):
        p = (Fraction(t), Fraction(-t))  # in H((1,1))
        assert out.member((p[0] + 1, p[1] + 1))
    assert out.support((1, 1)) == h.support((1, 1)) + d.support((1, 1))


def test_oplus_opposite_halfspaces_fill_space():
    a = halfspace_set(R2, (1, 0), 0)
    b = halfspace_set(R2, (0, 1), 0)
    assert a.oplus(b).is_full


def test_scale_conventions():
    assert UpperSet.empty(R2).scale(0).set_equal(cone_upper_set(R2))
    assert UpperSet.full(R2).scale(0).set_equal(cone_upper_set(R2))
    d = point_plus_cone(R2, (1, 2))
    assert d.scale(2).set_equal(point_plus_cone(R2, (2, 4)))
    h = halfspace_set(R2, (1, 1), 0)
    assert h.scale(Fraction(1, 2)).set_equal(h)
    with pytest.raises(ValidationError):
        d.scale(-1)


def test_inf_of_two_translates_is_staircase():
    d = inf_set(R2, [point_plus_cone(R2, (1, 0)), point_plus_cone(R2, (0, 1))])
    expected = hs(R2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1)])
    assert d.set_equal(expected)
    # grid brute force: the hull contains exactly the points dominating a
    # convex combination of (1,0) and (0,1)
    for z in product(range(-2, 4), repeat=2):
        zf = vec(z)
        oracle = any(
            zf[0] >= lam and zf[1] >= 1 - lam
            for lam in [Fraction(k, 16) for k in range(17)]
        )
        assert d.member(z) == oracle, z


def test_sup_of_two_translates():
    d = sup_set(R2, [point_plus_cone(R2, (1, 0)), point_plus_cone(R2, (0, 1))])
    assert d.set_equal(point_plus_cone(R2, (1, 1)))


def test_lattice_conventions_for_empty_family():
    assert inf_set(R2, []).is_empty
    assert sup_set(R2, []).is_full
    assert sup_set(R2, [UpperSet.empty(R2)]).is_empty


def test_supporting_halfspace():
    d = point_plus_cone(R2, (1, 2))
    s = d.supporting_halfspace((1, 0))
    assert s.set_equal(halfspace_set(R2, (1, 0), 1))
    h = halfspace_set(R2, (1, 1), 0)
    assert h.supporting_halfspace((1, 1)).set_equal(h)
    stair = inf_set(R2, [point_plus_cone(R2, (1, 0)), point_plus_cone(R2, (0, 1))])
    assert stair.supporting_halfspace((1, 1)).set_equal(halfspace_set(R2, (1, 1), 1))
    assert d.subset_of(s)


def test_supporting_halfspace_validation():
    d = point_plus_cone(R2, (1, 2))
    with pytest.raises(ValidationError):
        d.supporting_halfspace((-1, 0))
    with pytest.raises(ValidationError):
        UpperSet.empty(R2).supporting_halfspace((1, 0))
    assert UpperSet.full(R2).supporting_halfspace((1, 0)).is_full


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: canonicalize(R2), "canonicalize needs an H-rep or a V-rep"),
        (lambda: hs(R2, [((0, 0), 1)]), "halfspace normal must be nonzero"),
        (lambda: halfspace_set(R2, (1, -1), 0), "halfspace normal must lie in C+ \\ {0}"),
        (lambda: halfspace_set(R2, (0, 0), 0), "halfspace normal must lie in C+ \\ {0}"),
        (lambda: inf_set(R2, [cone_upper_set(WEDGE)]), "family member over a different cone"),
        (lambda: sup_set(R2, [cone_upper_set(R2), cone_upper_set(WEDGE)]), "family member over a different cone"),
    ],
)
def test_representation_normal_and_cone_checks(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message


@pytest.mark.parametrize("cone", [R2, WEDGE, orthant(3)], ids=["orthant2", "wedge2", "orthant3"])
@pytest.mark.parametrize("seed", range(4))
def test_weighted_sum_has_the_weighted_supports(cone, seed):
    # σ of Σ λ·S is Σ λ·σ_S at every normal of the sum and of the terms; in the
    # plane the merge of all terms at once also equals pairwise ⊕, which takes
    # the translate and halfspace rules
    rng = random.Random(seed)
    w = cone.dual_generators
    sets = [hs(cone, [(vadd(w[0], w[-1]), 0)]), halfspace_set(cone, w[0], Fraction(1, 3))]
    for _ in range(4):
        pts = [[Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(cone.dim)] for _ in range(rng.randint(1, 4))]
        sets.append(canonicalize(cone, points=pts))
    for k in range(1, 5):
        terms = [(Fraction(rng.randint(1, 5), rng.randint(1, 3)), s) for s in rng.sample(sets, k)]
        value = weighted_sum(cone, terms)
        for u in {*value.facet_normals(), *(n for _, s in terms for n in s.facet_normals())}:
            assert value.support(u) == sum(lam * s.support(u) for lam, s in terms), (terms, u)
        if cone.dim == 2:
            fold = terms[0][1].scale(terms[0][0])
            for lam, s in terms[1:]:
                fold = fold.oplus(s.scale(lam))
            assert value == fold, terms
    assert weighted_sum(cone, [(1, UpperSet.full(cone)), (2, sets[2])]).is_full
    assert weighted_sum(cone, [(1, UpperSet.empty(cone)), (2, sets[2])]).is_empty


def test_member_subset_equal():
    h = halfspace_set(R2, (1, 1), 0)
    assert h.member((0, 0))
    assert point_plus_cone(R2, (1, 1)).subset_of(point_plus_cone(R2, (0, 0)))
    c = (1, 1)
    two_c = point_plus_cone(R2, (2, 2))
    assert two_c.set_equal(point_plus_cone(R2, (2, 2)))
    assert not two_c.set_equal(point_plus_cone(R2, (3, 3)))


def test_separation_identity():
    # every canonical nonempty set equals the intersection of its
    # facet-supporting halfspaces
    sets = [
        point_plus_cone(R2, (1, 2)),
        halfspace_set(R2, (1, 1), -3),
        inf_set(R2, [point_plus_cone(R2, (2, -1)), point_plus_cone(R2, (0, 1))]),
        cone_upper_set(WEDGE),
    ]
    for d in sets:
        rebuilt = sup_set(d.cone, [d.supporting_halfspace(w) for w in d.facet_normals()])
        assert rebuilt.set_equal(d)


def test_wedge_cone_upper_set():
    c = cone_upper_set(WEDGE)
    assert c.member((2, 1)) and c.member((1, 1)) and not c.member((0, 1))
    assert sorted(h.normal for h in c.halfspaces) == [(0, 1), (1, -1)]


def test_literal_round_trip_shape():
    d = point_plus_cone(R2, (Fraction(1, 2), 2))
    assert d.literal() == "halfspaces: [[0, 1, 2], [1, 0, 1/2]]"
    assert UpperSet.empty(R2).literal() == "empty"
    assert UpperSet.full(R2).literal() == "full"


def test_halfspace_neg_inf_offset_gives_full():
    assert halfspace_set(R2, (1, 0), NEG_INF).is_full


def test_trivial_sets_at_the_edges():
    # every offset absent: no constraint is left
    assert hs(R2, [((1, 0), NEG_INF), ((0, 1), NEG_INF)]).is_full
    assert inf_set(R2, [point_plus_cone(R2, (1, 0)), UpperSet.full(R2)]).is_full
    for d in (UpperSet.empty(R2), UpperSet.full(R2)):
        assert d.translate((1, -2)) is d
    assert not UpperSet.empty(R2).member((0, 0))


def test_lineality_vrep_for_halfspace():
    h = halfspace_set(R2, (1, 1), 5)
    assert len(h.lineality) == 1
    assert dot(h.lineality[0], (1, 1)) == 0
    assert len(h.points) == 1
    assert dot(h.points[0], (1, 1)) == 5


HALF_PLANE = Cone(2, ((1, 1), (1, -1), (-1, 1)), (1, 1))


def runs_of(calls, make):
    before = len(calls)
    make()
    return len(calls) - before


def sums_of(ddm_runs, fan_merges, make):
    """(DDM runs, 3-D fan merges) that ``make`` costs."""
    runs, merges = len(ddm_runs), len(fan_merges)
    make()
    return len(ddm_runs) - runs, len(fan_merges) - merges


def test_one_ddm_run_per_canonical_form(ddm_runs, fan_merges):
    # over R3 a canonical form costs one run, two for an H-rep with a normal
    # outside C+, and a general ⊕ one fan merge instead; the plane takes the
    # staircase hull, the angular sweep and the chain merge
    for cone, run in ((orthant(3), 1), (R2, 0)):
        pad = (0,) * (cone.dim - 2)
        units = [tuple(int(i == j) for j in range(cone.dim)) for i in range(cone.dim)]
        a = canonicalize(cone, points=[(1, 2, *pad), (2, 1, *pad)])
        b = hs(cone, [(u, 0) for u in units] + [((1, 1, *pad), 3)])
        w = (1, 2, *pad)
        # translates of a cached C and H(w, 0) are closed forms: no run
        cone_upper_set(cone), halfspace_set(cone, w, 0)
        assert runs_of(ddm_runs, lambda: point_plus_cone(cone, (3, 1, *pad))) == 0
        assert sums_of(ddm_runs, fan_merges, lambda: a.oplus(b)) == (0, run)
        assert runs_of(ddm_runs, lambda: a.oplus(point_plus_cone(cone, (3, 1, *pad)))) == 0
        assert runs_of(ddm_runs, lambda: halfspace_set(cone, w, 5).oplus(b)) == 0
        assert runs_of(ddm_runs, lambda: inf_set(cone, [a, b])) == run
        assert runs_of(ddm_runs, lambda: halfspace_set(cone, w, 5)) == 0
        assert runs_of(ddm_runs, lambda: b.supporting_halfspace(w)) == 0
        assert runs_of(ddm_runs, lambda: sup_set(cone, [a, b])) == run
        outside = [((1, 1, *pad), 0), ((-1, 0, *pad), 0)]  # (-1, 0, ...) is not in C+
        assert runs_of(ddm_runs, lambda: hs(cone, outside)) == run + 1
        both = dict(halfspaces=list(zip(units, (1, 2, 0))), points=[(1, 2, *pad)])
        assert runs_of(ddm_runs, lambda: canonicalize(cone, **both)) == 2 * run
        # the fold starts at the first positive-weight piece and skips weight 0
        atoms = space("x1", "x2", "x3")
        F = SimpleSetFunction(atoms, (a, b, a))
        mu = AtomicMeasure(atoms, (1, 2, 0))
        assert sums_of(ddm_runs, fan_merges, lambda: aumann_integral(F, mu)) == (0, run)
    halfspace_set(HALF_PLANE, (1, 1), 0)
    assert runs_of(ddm_runs, lambda: halfspace_set(HALF_PLANE, (1, 1), 5)) == 0
    assert runs_of(ddm_runs, lambda: canonicalize(HALF_PLANE, points=[(0, 1), (2, -1)])) == 0


FOUR_CONES = pytest.mark.parametrize(
    "cone", [R2, WEDGE, orthant(3), HALF_PLANE], ids=["orthant2", "wedge", "orthant3", "half-plane"]
)


def stored(d):
    return d.kind, d.halfspaces, repr(d.points), repr(d.rays), repr(d.lineality)


def ddm_sum(d, e):
    """D ⊕ E the double-description way: one run over all pair sums."""
    sums = [vadd(p, q) for p in d.points for q in e.points]
    return _from_vrep(d.cone, *clear_denominators(sums), d.rays + e.rays, d.lineality + e.lineality)


def random_point(rng, cone):
    return tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(cone.dim))


def random_normal(rng, cone):
    """A nonzero integer w in C+, a combination of the dual generators."""
    while True:
        ks = [rng.randint(0, 2) for _ in cone.dual_generators]
        w = tuple(sum(k * g[i] for k, g in zip(ks, cone.dual_generators)) for i in range(cone.dim))
        if any(w):
            return w


def random_operand(rng, cone):
    """A staircase of points, two halfspaces, one halfspace or a translate of C."""
    kind = rng.randrange(4)
    if kind == 0:
        return canonicalize(cone, points=[random_point(rng, cone) for _ in range(rng.randint(2, 3))])
    if kind == 1:
        rows = [(random_normal(rng, cone), Fraction(rng.randint(-6, 6), 2)) for _ in range(2)]
        return canonicalize(cone, halfspaces=rows)
    if kind == 2:
        return halfspace_set(cone, random_normal(rng, cone), Fraction(rng.randint(-6, 6), 3))
    return point_plus_cone(cone, random_point(rng, cone))


@FOUR_CONES
def test_translate_rule_matches_the_ddm_path(cone, ddm_runs):
    rng = random.Random(41)
    for _ in range(16):
        d = random_operand(rng, cone)
        e = point_plus_cone(cone, random_point(rng, cone))
        expected = stored(ddm_sum(d, e))
        runs = len(ddm_runs)
        assert stored(d.oplus(e)) == expected
        assert stored(e.oplus(d)) == expected
        assert len(ddm_runs) == runs


@FOUR_CONES
def test_halfspace_rule_matches_the_ddm_path(cone, ddm_runs):
    rng = random.Random(43)
    unbounded = 0
    for _ in range(16):
        d = random_operand(rng, cone)
        e = halfspace_set(cone, random_normal(rng, cone), Fraction(rng.randint(-6, 6), 5))
        expected = stored(ddm_sum(d, e))
        runs = len(ddm_runs)
        assert stored(d.oplus(e)) == expected
        assert stored(e.oplus(d)) == expected
        assert len(ddm_runs) == runs
        unbounded += d.support(e.halfspaces[0].normal) == NEG_INF
    # C+ is a ray only for the half-plane cone, where every support is finite
    assert (unbounded > 0) == (len(cone.dual_generators) > 1)


@FOUR_CONES
def test_constructors_match_the_ddm_path(cone):
    rng = random.Random(47)
    for _ in range(16):
        p = random_point(rng, cone)
        assert stored(point_plus_cone(cone, p)) == stored(canonicalize(cone, points=[p]))
        scale = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        w = tuple(scale * x for x in random_normal(rng, cone))
        b = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 5)))
        assert stored(halfspace_set(cone, w, b)) == stored(canonicalize(cone, halfspaces=[(w, b)]))
    assert halfspace_set(cone, w, POS_INF).is_empty and halfspace_set(cone, w, NEG_INF).is_full


def moved_vrep(d, move):
    """canonicalize of d's V-rep with every point moved."""
    return canonicalize(d.cone, points=[move(p) for p in d.points], rays=d.rays, lineality=d.lineality)


def stored_numerators(d):
    return d.denominator, d.numerators


@FOUR_CONES
def test_translate_and_scale_match_canonicalize_of_the_moved_vrep(cone):
    rng = random.Random(53)
    for _ in range(16):
        d = random_operand(rng, cone)
        v = random_point(rng, cone)
        lam = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        translated = moved_vrep(d, lambda p: vadd(p, v))
        for got in (d.translate(v), d.oplus(point_plus_cone(cone, v))):
            assert stored(got) == stored(translated)
            assert stored_numerators(got) == stored_numerators(translated)
        scaled = moved_vrep(d, lambda p: tuple(lam * x for x in p))
        assert stored(d.scale(lam)) == stored(scaled)
        assert stored_numerators(d.scale(lam)) == stored_numerators(scaled)


@FOUR_CONES
def test_translating_back_restores_the_numerators(cone):
    rng = random.Random(59)
    for _ in range(16):
        d = random_operand(rng, cone)
        v = random_point(rng, cone)
        back = d.translate(v).translate(tuple(-x for x in v))
        assert stored_numerators(back) == stored_numerators(d)
        assert stored(back) == stored(d)


PLANAR_CONES = pytest.mark.parametrize("cone", [R2, WEDGE, HALF_PLANE], ids=["orthant2", "wedge", "half-plane"])


def ddm_vrep(cone, d, points, rays, lineality):
    """``_from_vrep`` the double-description way."""
    facets, *vrep = ddm.vrep_to_hrep(points, (*rays, *cone.generators), lineality, cone.dim, d)
    return _proper(cone, facets, *vrep) if facets else UpperSet.full(cone)


def ddm_hrep(cone, pairs):
    """The C+ branch of ``_from_hrep`` the double-description way."""
    rows = [(vscale(e, w), n) for w, n, e in (primitive_halfspace(vec(w), b) for w, b in pairs)]
    d, points, rays, lineality, facets = ddm.hrep_to_vrep(rows, cone.dim, with_facets=True)
    return _proper(cone, facets, d, points, rays, lineality)


def random_fraction(rng, bound):
    return Fraction(rng.randint(-bound, bound), rng.choice((1, 2, 3, 6)))


@PLANAR_CONES
def test_planar_vrep_matches_the_ddm_path(cone, ddm_runs):
    rng = random.Random(67)
    cases = [
        ([(0, 2), (1, 1), (2, 0), (1, 1), (2, 2), (3, 3)], [], []),  # collinear and repeated
        ([(Fraction(1, 2), 3), (Fraction(2, 3), 1), (Fraction(7, 6), 0)], [], []),  # denominators 2, 3, 6
        ([(0, 0), (1, -2)], [(-1, 2), (Fraction(1, 2), 0)], []),  # a ray outside C
        ([(1, 0), (0, 1)], [], [(1, -1)]),  # lineality
        ([(1, 0)], [(-1, 0), (0, -1)], []),  # the full plane
    ]
    for _ in range(150):
        points = [(random_fraction(rng, 4), random_fraction(rng, 4)) for _ in range(rng.randint(1, 6))]
        rays = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(rng.choice((0, 0, 1, 2)))]
        cases.append((points, rays, [(rng.randint(-1, 1), 1) for _ in range(rng.choice((0, 0, 0, 1)))]))
    kinds = set()
    for points, rays, lineality in cases:
        d, numerators = clear_denominators([vec(p) for p in points])
        expected = ddm_vrep(cone, d, numerators, rays, lineality)
        runs = len(ddm_runs)
        for given in (numerators, set(numerators)):
            got = _from_vrep(cone, d, given, rays, lineality)
            assert (stored(got), stored_numerators(got)) == (stored(expected), stored_numerators(expected))
        assert len(ddm_runs) == runs
        kinds.add((got.kind, len(got.lineality)))
    assert kinds >= {("full", 2), ("proper", 1)}
    assert (("proper", 0) in kinds) == (len(cone.dual_generators) > 1)  # pointed unless C+ is a ray


@PLANAR_CONES
def test_planar_hrep_matches_the_ddm_path(cone, ddm_runs):
    rng = random.Random(71)
    g, h = cone.dual_generators[0], cone.dual_generators[-1]
    cases = [
        [(g, Fraction(1, 2)), (vadd(g, g), 3), (g, Fraction(-1, 3)), (h, Fraction(5, 6))],  # parallel normals
        [(g, 1), (h, 2), (vadd(g, h), 3)],  # a line through the meet of the other two
    ]
    for _ in range(150):
        ks = [(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(rng.randint(1, 5))]
        cases.append([(vadd(vscale(i, g), vscale(j, h)), random_fraction(rng, 8)) for i, j in ks if i or j])
    for pairs in filter(None, cases):
        expected = ddm_hrep(cone, pairs)
        runs = len(ddm_runs)
        got = canonicalize(cone, halfspaces=pairs)
        assert (stored(got), stored_numerators(got)) == (stored(expected), stored_numerators(expected))
        assert len(ddm_runs) == runs


@FOUR_CONES
def test_equal_sets_from_different_paths_hash_equal(cone):
    rng = random.Random(61)
    for _ in range(8):
        d = random_operand(rng, cone).translate(random_point(rng, cone))
        paths = [
            d,
            canonicalize(cone, halfspaces=list(d.halfspaces)),
            canonicalize(cone, points=d.points, rays=d.rays, lineality=d.lineality),
            d.scale(2).scale(Fraction(1, 2)),
        ]
        assert all(e == d for e in paths)
        assert len({hash(e) for e in paths + paths}) == 1
    same = Cone(cone.dim, tuple(reversed(cone.generators)), cone.interior_point)
    assert same == cone and hash(same) == hash(cone)


def test_translate_and_scale_make_no_canonical_form_pass(monkeypatch):
    from uppersets import ddm, upperset

    d = canonicalize(HALF_PLANE, points=[(0, 1), (2, -1)])
    assert d.lineality
    d.translate((1, 0))  # caches the pivots of d's lineality
    calls = []
    for module, name in ((ddm, "rref_basis"), (upperset, "_proper")):
        original = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, f=original, n=name: calls.append(n) or f(*args)
        )
    moved = d.translate((Fraction(1, 3), 2)).scale(Fraction(5, 2)).translate((-1, Fraction(1, 7)))
    assert calls == []
    assert moved == canonicalize(HALF_PLANE, halfspaces=list(moved.halfspaces))
    assert calls  # the probes see the canonical-form pass


def test_translate_is_canonical_over_a_cone_with_lineality():
    c = Cone(2, ((1, 1), (1, -1), (-1, 1)), (1, 0))
    moved = cone_upper_set(c).translate((0, 1))
    assert moved.points == point_plus_cone(c, (0, 1)).points == ((1, 0),)
    assert moved == point_plus_cone(c, (0, 1))


LINE_CONE = Cone(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1)), (1, 1, 0))


def mixed_points(rng, count):
    """Points near the surface x1·x2 = 12/d² whose coordinates mix the
    denominators 2, 3 and 5; many of them are vertices."""
    points = []
    for _ in range(count):
        t, d = rng.randint(1, 12), rng.choice((2, 3, 5))
        x3 = Fraction(rng.randint(-6, 6), rng.choice((2, 3, 5)))
        points.append((Fraction(t, d), Fraction(12, t * d), x3))
    return points


@pytest.mark.parametrize(
    "cone, lineality",
    [(orthant(3), []), (orthant(3), [(1, -1, 0)]), (LINE_CONE, [])],
    ids=["pointed", "set-lineality", "cone-lineality"],
)
@pytest.mark.parametrize("seed", range(4))
def test_points_are_stored_in_fraction_order_on_every_path(cone, lineality, seed):
    # Sorting by integer numerators is the Fractions' order only over one
    # common denominator; every constructor must store sorted Fraction points.
    rng = random.Random(seed)
    a = canonicalize(cone, points=mixed_points(rng, 6), lineality=lineality)
    b = canonicalize(cone, points=mixed_points(rng, 6), lineality=lineality)
    built = {
        "vrep": a,
        "hrep": canonicalize(cone, halfspaces=list(a.halfspaces)),
        "both": canonicalize(
            cone, halfspaces=list(a.halfspaces), points=a.points, rays=a.rays, lineality=a.lineality
        ),
        "oplus": a.oplus(b),
        "translate": a.translate((Fraction(1, 3), Fraction(-2, 5), Fraction(1, 2))),
        "scale": a.scale(Fraction(3, 7)),
        "inf_set": inf_set(cone, [a, b]),
        "sup_set": sup_set(cone, [a, b]),
    }
    for path, d in built.items():
        assert all(type(x) is Fraction for p in d.points for x in p), path
        assert list(d.points) == sorted(d.points), path
        assert list(d.rays) == sorted(d.rays), path
    assert built["hrep"].points == a.points and built["both"].points == a.points
    # the check has teeth: several vertices with mixed denominators
    assert any(
        len(d.points) > 2 and len({x.denominator for p in d.points for x in p}) > 1
        for d in built.values()
    )

