"""Ordering cone: duality, membership, base polytope."""

from fractions import Fraction
from itertools import product

import pytest

from uppersets import Cone, ValidationError, dual_cone, orthant
from uppersets.linalg import dot, vec


def cones_equal(gens_a, gens_b, dim):
    """Mutual containment of generated cones, decided via dual descriptions."""
    ca = Cone(dim, tuple(gens_a), interior_point=_interior_guess(gens_a))
    cb = Cone(dim, tuple(gens_b), interior_point=_interior_guess(gens_b))
    return all(cb.contains(g) for g in ca.generators) and all(
        ca.contains(g) for g in cb.generators
    )


def _interior_guess(gens):
    # the sum of generators is interior for a full-dimensional cone
    total = [Fraction(0)] * len(gens[0])
    for g in gens:
        total = [t + x for t, x in zip(total, g)]
    return tuple(total)


def test_orthant_self_dual():
    rays = dual_cone([(1, 0), (0, 1)])
    assert sorted(rays) == [(0, 1), (1, 0)]
    rays3 = dual_cone([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert sorted(rays3) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_wedge_dual_cone_and_double_duality():
    rays = dual_cone([(1, 0), (1, 1)])
    assert sorted(rays) == [(0, 1), (1, -1)]
    # facet count by brute force over the sign patterns of <g, w> on a grid:
    # extreme dual directions are those tight against some generator
    grid = [g for g in product(range(-3, 4), repeat=2) if any(g)]
    members = [w for w in grid if dot((1, 0), w) >= 0 and dot((1, 1), w) >= 0]
    tight = {w for w in members if dot((1, 0), w) == 0 or dot((1, 1), w) == 0}
    assert {(0, 1), (1, -1)} <= tight
    back = dual_cone(rays)
    assert cones_equal(back, [(1, 0), (1, 1)], 2)


@pytest.mark.parametrize(
    "gens,dim",
    [
        ([(1, 0), (0, 1)], 2),
        ([(1, 0), (1, 1)], 2),
        ([(2, 1), (1, 3)], 2),
        ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 3),
        ([(1, 0, 0), (0, 1, 0), (1, 1, 1)], 3),
        ([(1, 0), (-1, 2), (0, 1)], 2),
    ],
)
def test_double_duality(gens, dim):
    assert cones_equal(dual_cone(dual_cone(gens, dim), dim), gens, dim)


def test_dual_rejects_degenerate():
    with pytest.raises(ValidationError):
        dual_cone([(1, 0)], 2)  # not full-dimensional
    with pytest.raises(ValidationError):
        dual_cone([(1, 0), (-1, 0), (0, 1), (0, -1)], 2)  # the whole plane
    with pytest.raises(ValidationError):
        dual_cone([(0, 0)], 2)


def test_cone_refuses_generators_that_are_all_zero():
    with pytest.raises(ValidationError, match="^cone has no nonzero generators$"):
        Cone(2, [(0, 0)], (1, 1))


def test_cone_contains():
    c = orthant(2)
    assert c.contains((1, 1))
    assert not c.contains((-1, 0))
    wedge = Cone(2, ((1, 0), (1, 1)), (2, 1))
    assert wedge.contains((2, 1))  # 1*(1,0) + 1*(1,1)
    assert not wedge.contains((0, 1))
    assert wedge.contains((1, 1)) and wedge.contains((1, 0))


def test_cone_contains_dimension_mismatch():
    with pytest.raises(ValidationError):
        orthant(2).contains((1, 1, 1))


def test_interior_point_validation():
    with pytest.raises(ValidationError):
        Cone(2, ((1, 0), (0, 1)), (1, 0))  # boundary point
    with pytest.raises(ValidationError):
        Cone(2, ((1, 0), (0, 1)), (-1, 1))
    Cone(2, ((1, 0), (0, 1)), (1, 1))  # fine


def test_base_polytope_orthant():
    assert orthant(2).base_polytope() == [vec((0, 1)), vec((1, 0))]
    c = Cone(2, ((1, 0), (0, 1)), (2, 1))
    assert c.base_polytope() == [vec((0, 1)), vec(("1/2", 0))]


def test_base_polytope_wedge():
    c = Cone(2, ((1, 0), (1, 1)), (2, 1))
    # dual rays (0,1) and (1,-1); <c,(0,1)> = 1, <c,(1,-1)> = 1
    assert c.base_polytope() == [vec((0, 1)), vec((1, -1))]


def test_base_polytope_positive_on_c_and_bounded():
    for cone in (orthant(3), Cone(2, ((1, 0), (1, 2)), (3, 2))):
        verts = cone.base_polytope()
        assert verts
        for w in verts:
            assert dot(cone.interior_point, w) == 1
            assert all(abs(x) < 10**6 for x in w)


def test_halfspace_cone_is_valid_ordering_cone():
    # C = {z : z1 + z2 >= 0} is closed convex with interior, not the plane
    c = Cone(2, ((1, 1), (1, -1), (-1, 1)), (1, 1))
    assert c.dual_generators == ((1, 1),)
    assert not c.is_pointed()
    assert orthant(2).is_pointed()


def test_dimension_cap():
    with pytest.raises(ValidationError):
        orthant(9)
