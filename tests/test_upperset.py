"""Upper-set construction and lattice operations against hand/grid oracles."""

from fractions import Fraction
from itertools import product

import pytest

from uppersets import Cone, ValidationError, ddm, orthant
from uppersets.linalg import NEG_INF, POS_INF, dot, vec
from uppersets.upperset import (
    UpperSet,
    canonicalize,
    cone_upper_set,
    halfspace_set,
    inf_set,
    point_plus_cone,
    sup_set,
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
    again = canonicalize(R2, halfspaces=d.hrep_rows())
    assert again == d
    via_vrep = canonicalize(R2, points=d.points, rays=d.rays, lineality=d.lineality)
    assert via_vrep == d


def test_halfspace_irredundant():
    # each facet must be non-removable: dropping it strictly enlarges the set
    d = hs(R2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 1), ((1, 1), 0)])
    assert len(d.halfspaces) == 3  # the slack (1,1) >= 0 constraint is gone
    for i in range(len(d.halfspaces)):
        rest = [p for j, p in enumerate(d.hrep_rows()) if j != i]
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


def test_pointwise_negate_rows():
    d = point_plus_cone(R2, (1, 2))
    rows = d.pointwise_negate()
    # -D = {z : z <= (-1,-2)} componentwise
    assert all(dot(w, (-1, -2)) >= b for w, b in rows)
    assert not all(dot(w, (0, 0)) >= b for w, b in rows)


def test_literal_round_trip_shape():
    d = point_plus_cone(R2, (Fraction(1, 2), 2))
    assert d.literal() == "halfspaces: [[0, 1, 2], [1, 0, 1/2]]"
    assert UpperSet.empty(R2).literal() == "empty"
    assert UpperSet.full(R2).literal() == "full"


def test_halfspace_neg_inf_offset_gives_full():
    assert halfspace_set(R2, (1, 0), NEG_INF).is_full


def test_lineality_vrep_for_halfspace():
    h = halfspace_set(R2, (1, 1), 5)
    assert len(h.lineality) == 1
    assert dot(h.lineality[0], (1, 1)) == 0
    assert len(h.points) == 1
    assert dot(h.points[0], (1, 1)) == 5


HALF_PLANE = Cone(2, ((1, 1), (1, -1), (-1, 1)), (1, 1))


@pytest.fixture
def ddm_runs(monkeypatch):
    """The calls made to the module attribute ``ddm.cone_vrep`` from now on."""
    calls = []
    original = ddm.cone_vrep

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(ddm, "cone_vrep", counted)
    return calls


def runs_of(calls, make):
    before = len(calls)
    make()
    return len(calls) - before


def test_one_ddm_run_per_canonical_form(ddm_runs):
    a = point_plus_cone(R2, (1, 2))
    b = hs(R2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 3)])
    w = (1, 2)
    assert runs_of(ddm_runs, lambda: point_plus_cone(R2, (3, 1))) == 1
    assert runs_of(ddm_runs, lambda: a.oplus(b)) == 1
    assert runs_of(ddm_runs, lambda: inf_set(R2, [a, b])) == 1
    assert runs_of(ddm_runs, lambda: halfspace_set(R2, w, 5)) == 1
    assert runs_of(ddm_runs, lambda: halfspace_set(HALF_PLANE, (1, 1), 5)) == 1
    assert runs_of(ddm_runs, lambda: b.supporting_halfspace(w)) == 1
    assert runs_of(ddm_runs, lambda: sup_set(R2, [a, b])) == 1
    outside = [((1, 1), 0), ((-1, 0), 0)]  # (-1, 0) is not in C+
    assert runs_of(ddm_runs, lambda: hs(R2, outside)) == 2
    both = dict(halfspaces=[((1, 0), 1), ((0, 1), 2)], points=[(1, 2)])
    assert runs_of(ddm_runs, lambda: canonicalize(R2, **both)) == 2
