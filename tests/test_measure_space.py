"""Atomic spaces, measures, set functions, preimages and selections."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uppersets import Cone, ValidationError, ddm, orthant
from uppersets.linalg import NEG_INF
from uppersets.measure_space import (
    AtomicMeasure,
    AtomicSpace,
    ScalarFunction,
    SimpleSetFunction,
    VectorFunction,
    cone_translates,
    constant_function,
    halfspace_function,
    indicator_modify,
    pick_selection,
    point_minus_cone_rows,
    preimage,
    preimage_identity_check,
    space,
    vector_plus_cone,
)
from uppersets.upperset import (
    UpperSet,
    canonicalize,
    cone_upper_set,
    halfspace_set,
    point_plus_cone,
)

R2 = orthant(2)
X2 = space("x1", "x2")


def staircase(cone, pts):
    return canonicalize(cone, points=pts)


def test_space_validation():
    with pytest.raises(ValidationError):
        AtomicSpace(())
    with pytest.raises(ValidationError):
        AtomicSpace(("a", "a"))
    assert X2.index("x2") == 1
    with pytest.raises(ValidationError):
        X2.index("nope")


def test_measure_validation_and_totals():
    mu = AtomicMeasure.from_map(X2, {"x1": 1, "x2": Fraction(3, 2)})
    assert mu.total() == Fraction(5, 2)
    assert mu.mass_of(["x2"]) == Fraction(3, 2)
    assert AtomicMeasure.from_map(X2, {"x1": 2}).weight("x2") == 0
    with pytest.raises(ValidationError):
        AtomicMeasure.from_map(X2, {"x1": -1})


def test_set_function_rejects_empty_values():
    with pytest.raises(ValidationError):
        SimpleSetFunction(X2, (UpperSet.empty(R2), cone_upper_set(R2)))


X3 = space("x1", "x2", "x3")
WEDGE = Cone(2, ((1, 0), (1, 1)), (2, 1))
C2 = cone_upper_set(R2)
F2 = constant_function(X2, C2)
F3 = constant_function(X3, C2)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: AtomicMeasure(X2, (1,)), "measure must assign a weight per atom"),
        (lambda: ScalarFunction(X2, (1,)), "scalar function must cover every atom"),
        (lambda: VectorFunction(X2, ((1, 0),)), "vector function must cover every atom"),
        (lambda: VectorFunction(X2, ((1, 0), (1, 0, 0))), "vector function values must share one dimension"),
        (lambda: SimpleSetFunction(X2, (C2,)), "set function must cover every atom"),
        (lambda: SimpleSetFunction(X2, (C2, cone_upper_set(WEDGE))), "set function values must share one ordering cone"),
        (lambda: F2.oplus(F3), "set functions live on different spaces"),
        (lambda: F2.translate(VectorFunction(X3, ((0, 0),) * 3)), "set function and vector function spaces differ"),
        (lambda: F2.pointwise_subset_of(F3), "set functions live on different spaces"),
        (lambda: halfspace_function(X2, R2, (1, 0), ScalarFunction(X3, (0, 0, 0))), "scalar function lives on a different space"),
        (lambda: cone_translates(ScalarFunction(X2, (1, NEG_INF)), R2), "cone translate needs finite scalars"),
    ],
)
def test_length_dimension_cone_space_and_finiteness_checks(build, message):
    with pytest.raises(ValidationError) as exc:
        build()
    assert str(exc.value) == message


def test_indicator_modify_cases():
    f = SimpleSetFunction(X2, (point_plus_cone(R2, (1, 0)), point_plus_cone(R2, (0, 1))))
    all_atoms = indicator_modify(f, ["x1", "x2"])
    assert all_atoms == f
    none = indicator_modify(f, [])
    assert none == constant_function(X2, cone_upper_set(R2))
    only_first = indicator_modify(f, ["x1"])
    assert only_first.value("x1").set_equal(point_plus_cone(R2, (1, 0)))
    assert only_first.value("x2").set_equal(cone_upper_set(R2))
    with pytest.raises(ValidationError):
        indicator_modify(f, ["bogus"])


def test_preimage_basics():
    const_c = constant_function(X2, cone_upper_set(R2))
    assert preimage(const_c, point_minus_cone_rows(R2, (1, 1))) == ("x1", "x2")
    single = SimpleSetFunction(space("x1"), (point_plus_cone(R2, (1, 0)),))
    assert preimage(single, point_minus_cone_rows(R2, (0, 0))) == ()
    # D = R^m hits every atom
    assert preimage(const_c, UpperSet.full(R2)) == ("x1", "x2")
    assert preimage(const_c, UpperSet.empty(R2)) == ()


@pytest.mark.parametrize("offset", [Fraction(-1, 2), "-1/2", -0.5], ids=["Fraction", "str", "float"])
def test_preimage_reads_a_row_offset_as_fraction_does(offset):
    # the row -z1 >= -1/2 meets C at 0 but not (1, 0) + C, and so does the row
    # -3/2·z1 >= -1/2, its normal given as 'p/q'; a float offset is refused
    f = SimpleSetFunction(X2, (cone_upper_set(R2), point_plus_cone(R2, (1, 0))))
    if type(offset) is float:
        with pytest.raises(ValidationError, match="region offset -0.5 is not"):
            preimage(f, [((-1, 0), offset)])
        return
    assert preimage(f, [((-1, 0), offset)]) == ("x1",)
    assert preimage(f, [(("-3/2", 0), offset)]) == ("x1",)


def test_preimage_refuses_a_zero_region_normal():
    # as every H-rep does: 0 >= -1 and 0 >= 1 are no regions to read
    f = constant_function(X2, cone_upper_set(R2))
    for offset in (-1, 1):
        with pytest.raises(ValidationError, match="^halfspace normal must be nonzero$"):
            preimage(f, [((0, 0), offset)])


def kernel_preimage(F, region):
    """The reference: atoms whose joint H-rep with the region the kernel finds feasible."""
    if isinstance(region, UpperSet):
        if region.is_empty:
            return ()
        region = region.halfspaces
    return tuple(
        a for a, v in zip(F.space.atoms, F.values) if ddm.hrep_to_vrep([*v.halfspaces, *region], F.cone.dim)[1]
    )


@pytest.mark.parametrize(
    "cone", [R2, Cone(2, ((1, 0), (1, 1)), (2, 1)), orthant(3)], ids=["orthant2", "wedge2", "orthant3"]
)
def test_preimage_agrees_with_the_kernels_feasibility(cone):
    # canonicalizing F(x) ∩ region closes it under C, which keeps it empty or
    # not; regions with normals outside C+, disjoint from some values, and
    # upper sets (the empty set among them) are each seen to keep and drop atoms
    rng = random.Random(34)
    dim = cone.dim

    def number():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 2))

    def upper_set():
        if rng.random() < 0.3:
            return halfspace_set(cone, rng.choice(cone.dual_generators), number())
        return canonicalize(cone, points=[tuple(number() for _ in range(dim)) for _ in range(rng.randint(1, 3))])

    def normal():
        w = (0,) * dim
        while not any(w):
            w = tuple(rng.randint(-2, 2) for _ in range(dim))
        return w

    regions = {
        "point-minus-cone": lambda: point_minus_cone_rows(cone, tuple(number() for _ in range(dim))),
        "any-normals": lambda: [(normal(), number()) for _ in range(rng.randint(1, 3))],
        "upper-bound": lambda: [(tuple(-x for x in rng.choice(cone.dual_generators)), number())],
        "upper-set": upper_set,
    }
    kept_and_dropped = {kind: [0, 0] for kind in regions}
    for trial in range(25):
        atoms = space(*[f"a{i}" for i in range(rng.randint(1, 3))])
        f = SimpleSetFunction(atoms, tuple(upper_set() for _ in atoms.atoms))
        for kind, draw in regions.items():
            region = UpperSet.empty(cone) if kind == "upper-set" and trial % 5 == 0 else draw()
            kept = preimage(f, region)
            assert kept == kernel_preimage(f, region), (kind, f, region)
            kept_and_dropped[kind][0] += len(kept)
            kept_and_dropped[kind][1] += len(atoms) - len(kept)
    assert all(kept and dropped for kept, dropped in kept_and_dropped.values()), kept_and_dropped


def test_preimage_identity_examples():
    f = SimpleSetFunction(space("x1"), (halfspace_set(R2, (1, 1), 0),))
    assert preimage_identity_check(f, (2, -1))
    g = SimpleSetFunction(space("x1"), (point_plus_cone(R2, (1, 1)),))
    assert preimage_identity_check(g, (0, 0))


def test_preimage_identity_randomized():
    rng = random.Random(7)
    cones = [R2, Cone(2, ((1, 0), (1, 1)), (2, 1))]
    for _ in range(60):
        cone = rng.choice(cones)
        atoms = space(*[f"a{i}" for i in range(rng.randint(1, 3))])
        values = []
        for _ in range(len(atoms)):
            pts = [
                tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(2))
                for _ in range(rng.randint(1, 3))
            ]
            values.append(staircase(cone, pts))
        f = SimpleSetFunction(atoms, tuple(values))
        y = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(2))
        assert preimage_identity_check(f, y)


def test_pick_selection_examples():
    f = constant_function(X2, point_plus_cone(R2, (1, 2)))
    sel = pick_selection(f)
    assert sel.values == ((1, 2), (1, 2))
    g = constant_function(X2, halfspace_set(R2, (1, 1), 0))
    assert pick_selection(g).values == ((0, 0), (0, 0))
    mixed = SimpleSetFunction(
        X2, (staircase(R2, [(1, 0), (0, 1)]), halfspace_set(R2, (1, 2), 3))
    )
    for atom in X2.atoms:
        assert mixed.value(atom).member(pick_selection(mixed).value(atom))


def test_scalar_function_integral_conventions():
    xi = ScalarFunction(X2, (NEG_INF, 3))
    mu = AtomicMeasure.from_map(X2, {"x1": 0, "x2": 2})
    assert xi.integral(mu) == 6  # zero-weight -inf atom is ignored
    with pytest.raises(ValidationError):
        xi.integral(AtomicMeasure.from_map(X2, {"x1": 1, "x2": 1}))


def test_vector_function_integral():
    f = VectorFunction(X2, ((1, 0), (0, 1)))
    mu = AtomicMeasure.from_map(X2, {"x1": 1, "x2": 2})
    assert f.integral(mu) == (1, 2)


def test_builders():
    xi = ScalarFunction(X2, (1, 3))
    hw = halfspace_function(X2, R2, (1, 1), xi)
    assert hw.value("x1").set_equal(halfspace_set(R2, (1, 1), 1))
    ct = cone_translates(ScalarFunction(X2, (2, 0)), R2)
    assert ct.value("x1").set_equal(point_plus_cone(R2, (2, 2)))
    assert ct.value("x2").set_equal(cone_upper_set(R2))
    vf = vector_plus_cone(VectorFunction(X2, ((1, 0), (0, 1))), R2)
    assert vf.value("x2").set_equal(point_plus_cone(R2, (0, 1)))


def test_pointwise_ops():
    f = SimpleSetFunction(X2, (point_plus_cone(R2, (1, 0)), point_plus_cone(R2, (0, 1))))
    g = f.oplus(f)
    assert g.value("x1").set_equal(point_plus_cone(R2, (2, 0)))
    assert f.scale(0) == constant_function(X2, cone_upper_set(R2))
    fw = f.supporting((1, 1))
    assert fw.value("x1").set_equal(halfspace_set(R2, (1, 1), 1))
    assert f.pointwise_subset_of(f.supporting((1, 1)))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)
        ),
        min_size=1,
        max_size=3,
    ),
    st.tuples(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)),
)
def test_preimage_identity_property(pts, y):
    f = SimpleSetFunction(space("a"), (staircase(R2, pts),))
    assert preimage_identity_check(f, y)


def test_indicator_composition_pointwise():
    f = SimpleSetFunction(X2, (point_plus_cone(R2, (1, 0)), halfspace_set(R2, (0, 1), 2)))
    a_then_b = indicator_modify(indicator_modify(f, ["x1", "x2"]), ["x1"])
    meet = indicator_modify(f, ["x1"])
    assert a_then_b == meet
    # the two-case definition, pointwise
    for atom in X2.atoms:
        expected = f.value(atom) if atom == "x1" else cone_upper_set(R2)
        assert meet.value(atom).set_equal(expected)
