"""Aumann integral: worked values, laws, oracle, monotone convergence."""

import random
from fractions import Fraction

import pytest

from uppersets import Cone, ValidationError, orthant
from uppersets.integral import (
    ExplicitChain,
    aumann_integral,
    harmonic_cone_chain,
    integral_over,
    monotone_limit_check,
    selection_oracle,
    weighted_support_sum,
)
from uppersets.linalg import dot, vec
from uppersets.measure_space import (
    AtomicMeasure,
    ScalarFunction,
    SimpleSetFunction,
    VectorFunction,
    constant_function,
    halfspace_function,
    space,
    vector_plus_cone,
)
from uppersets.upperset import (
    canonicalize,
    cone_upper_set,
    halfspace_set,
    point_plus_cone,
    sup_set,
)

R2 = orthant(2)
X2 = space("x1", "x2")
MU11 = AtomicMeasure.from_map(X2, {"x1": 1, "x2": 1})


def random_staircase(rng, cone):
    pts = [
        tuple(Fraction(rng.randint(-4, 4), rng.choice([1, 2])) for _ in range(cone.dim))
        for _ in range(rng.randint(1, 3))
    ]
    return canonicalize(cone, points=pts)


def random_set_function(rng, sp, cone):
    return SimpleSetFunction(sp, tuple(random_staircase(rng, cone) for _ in sp.atoms))


def test_integral_of_constant_cone_is_cone():
    f = constant_function(X2, cone_upper_set(R2))
    res = aumann_integral(f, MU11)
    assert res.value.set_equal(cone_upper_set(R2))
    assert res.certificate_ok()


def test_halfspace_valued_integral():
    # offsets 1 and 3 on two unit-weight atoms: total offset 4
    xi = ScalarFunction(X2, (1, 3))
    f = halfspace_function(X2, R2, (1, 1), xi)
    res = aumann_integral(f, MU11)
    assert res.value.set_equal(halfspace_set(R2, (1, 1), 4))
    assert res.certificate_ok()
    # the all-zero case reproduces the homogeneous halfspace
    zero = halfspace_function(X2, R2, (1, 1), ScalarFunction.constant(X2, 0))
    assert aumann_integral(zero, MU11).value.set_equal(halfspace_set(R2, (1, 1), 0))


def test_point_plus_cone_integral():
    f = vector_plus_cone(VectorFunction(X2, ((1, 0), (0, 1))), R2)
    mu = AtomicMeasure.from_map(X2, {"x1": 1, "x2": 2})
    res = aumann_integral(f, mu)
    assert res.value.set_equal(point_plus_cone(R2, (1, 2)))


def test_zero_measure_rejected():
    f = constant_function(X2, cone_upper_set(R2))
    with pytest.raises(ValidationError):
        aumann_integral(f, AtomicMeasure.from_map(X2, {}))


def test_integral_over_cases():
    f = SimpleSetFunction(X2, (point_plus_cone(R2, (1, 0)), point_plus_cone(R2, (0, 1))))
    assert integral_over(f, MU11, ["x1"]).value.set_equal(point_plus_cone(R2, (1, 0)))
    assert integral_over(f, MU11, X2.atoms).value.set_equal(
        aumann_integral(f, MU11).value
    )
    mu0 = AtomicMeasure.from_map(X2, {"x2": 3})
    assert integral_over(f, mu0, ["x1"]).value.set_equal(cone_upper_set(R2))


def test_integral_over_partition_recomposes():
    rng = random.Random(5)
    for _ in range(10):
        f = random_set_function(rng, X2, R2)
        mu = AtomicMeasure.from_map(X2, {"x1": rng.randint(0, 3), "x2": rng.randint(1, 3)})
        left = integral_over(f, mu, ["x1"]).value
        right = integral_over(f, mu, ["x2"]).value
        assert left.oplus(right).set_equal(aumann_integral(f, mu).value)


def test_additivity_law():
    rng = random.Random(11)
    for _ in range(15):
        f = random_set_function(rng, X2, R2)
        g = random_set_function(rng, X2, R2)
        mu = AtomicMeasure.from_map(X2, {"x1": Fraction(rng.randint(1, 4), 2), "x2": rng.randint(0, 2)})
        lhs = aumann_integral(f.oplus(g), mu).value
        rhs = aumann_integral(f, mu).value.oplus(aumann_integral(g, mu).value)
        assert lhs.set_equal(rhs)


def test_positive_homogeneity_law():
    rng = random.Random(12)
    for lam in (Fraction(0), Fraction(1, 2), Fraction(3)):
        f = random_set_function(rng, X2, R2)
        lhs = aumann_integral(f.scale(lam), MU11).value
        rhs = aumann_integral(f, MU11).value.scale(lam)
        assert lhs.set_equal(rhs)
    # λ = 0 collapses to C regardless of f
    f = random_set_function(rng, X2, R2)
    assert aumann_integral(f.scale(0), MU11).value.set_equal(cone_upper_set(R2))


def test_support_commutation_on_random_directions():
    rng = random.Random(13)
    for _ in range(10):
        f = random_set_function(rng, X2, R2)
        mu = AtomicMeasure.from_map(X2, {"x1": 2, "x2": Fraction(1, 2)})
        res = aumann_integral(f, mu)
        assert res.certificate_ok()
        for _ in range(20):
            coeffs = [rng.randint(0, 3) for _ in R2.dual_generators]
            if not any(coeffs):
                coeffs[0] = 1
            w = tuple(
                sum(c * g[i] for c, g in zip(coeffs, R2.dual_generators))
                for i in range(2)
            )
            assert res.value.support(w) == weighted_support_sum(f, mu, w)


def test_supporting_halfspace_interchange():
    rng = random.Random(14)
    for _ in range(8):
        f = random_set_function(rng, X2, R2)
        res = aumann_integral(f, MU11).value
        normals = {w for v in f.values for w in v.facet_normals()}
        normals.update(R2.dual_generators)
        normals.update(res.facet_normals())
        pieces = [aumann_integral(f.supporting(w), MU11).value for w in sorted(normals)]
        assert sup_set(R2, pieces).set_equal(res)


def test_integral_value_is_canonical_fixed_point():
    rng = random.Random(15)
    f = random_set_function(rng, X2, R2)
    v = aumann_integral(f, MU11).value
    assert canonicalize(R2, halfspaces=v.hrep_rows()) == v
    assert v.oplus(cone_upper_set(R2)).set_equal(v)


def test_oracle_point_plus_cone_instance():
    f = vector_plus_cone(VectorFunction(X2, ((1, 0), (0, 1))), R2)
    mu = AtomicMeasure.from_map(X2, {"x1": 1, "x2": 2})
    report = selection_oracle(f, mu, trials=200, seed=3)
    assert report.passed, report.describe()
    # the single extreme point (1,2) decomposes as 1*(1,0) + 2*(0,1)
    [(point, selection)] = report.attainment_witnesses
    assert point == vec((1, 2))
    assert selection == (vec((1, 0)), vec((0, 1)))


def test_oracle_constant_cone_contains_zero():
    f = constant_function(X2, cone_upper_set(R2))
    report = selection_oracle(f, MU11, trials=50, seed=0)
    assert report.passed
    assert report.value.member((0, 0))


def test_oracle_random_instances():
    rng = random.Random(21)
    wedge = Cone(2, ((1, 0), (1, 1)), (2, 1))
    for cone in (R2, wedge):
        for _ in range(5):
            f = random_set_function(rng, X2, cone)
            mu = AtomicMeasure.from_map(
                X2, {"x1": Fraction(rng.randint(0, 4), 2), "x2": rng.randint(1, 3)}
            )
            report = selection_oracle(f, mu, trials=100, seed=rng.randint(0, 10**6))
            assert report.passed, report.describe()


R3 = orthant(3)
X3 = space("x1", "x2", "x3")


@pytest.mark.parametrize(
    "values, weights",
    [
        # a half-plane plus a point: the value keeps the half-plane's lineality
        ((halfspace_set(R2, (1, 1), 2), point_plus_cone(R2, (1, -1))), (1, 1)),
        # the value is full, and the residual needs both atoms' lineality
        (
            (
                halfspace_set(R3, (1, 0, 0), 2),
                halfspace_set(R3, (0, 1, 0), -3),
                point_plus_cone(R3, (5, 5, 5)),
            ),
            (Fraction(1, 2), 3, 0),
        ),
        # the value has the 2-D lineality of the common normal (1, 1, 0)
        (
            (
                halfspace_set(R3, (1, 1, 0), 2),
                halfspace_set(R3, (1, 1, 0), -3),
                point_plus_cone(R3, (1, -1, 4)),
            ),
            (1, 2, 1),
        ),
    ],
    ids=["orthant2", "orthant3-full", "orthant3-plane"],
)
def test_oracle_with_lineality_values(values, weights):
    atoms = X2 if len(values) == 2 else X3
    f = SimpleSetFunction(atoms, values)
    mu = AtomicMeasure(atoms, weights)
    report = selection_oracle(f, mu, trials=150, seed=9)
    assert report.passed, report.describe()
    assert len(report.attainment_witnesses) == len(report.value.points)
    for point, selection in report.attainment_witnesses:
        assert all(v.member(q) for v, q in zip(f.values, selection))
        assert VectorFunction(atoms, selection).integral(mu) == point


def test_oracle_attains_through_rays_orthogonal_to_the_normal():
    # A and B have no lineality, yet their sum is the half-plane
    # {x1 + x2 >= 0}: the rays (-1, 1) of A and (1, -1) of B cancel.  The
    # stored point (0, 0) is 1·(5, -5) + 2·(0, 0) plus 5·(-1, 1) along A's ray.
    a = canonicalize(R2, halfspaces=[((0, 1), -5), ((1, 1), 0)])
    b = canonicalize(R2, halfspaces=[((1, 0), 0), ((1, 1), 0)])
    f = SimpleSetFunction(X2, (a, b))
    mu = AtomicMeasure(X2, (1, 2))
    report = selection_oracle(f, mu, trials=20, seed=0)
    assert report.passed, report.describe()
    assert report.value.lineality and not a.lineality and not b.lineality
    assert report.attainment_witnesses == ((vec((0, 0)), (vec((0, 0)), vec((0, 0)))),)


def test_oracle_makes_one_ddm_run_beyond_its_integral(ddm_runs):
    # three staircases with edge slopes -2, -1/2 and -1: the value has four
    # vertices, and only its ⊕ C identity costs a run beyond the integral
    f = SimpleSetFunction(
        X3,
        tuple(
            canonicalize(R2, points=p)
            for p in ([(0, 2), (1, 0)], [(0, 1), (2, 0)], [(0, 1), (1, 0)])
        ),
    )
    mu = AtomicMeasure(X3, (1, 1, 1))
    cone_upper_set(R2)  # cached after its first run
    start = len(ddm_runs)
    aumann_integral(f, mu)
    integral_runs = len(ddm_runs) - start
    report = selection_oracle(f, mu, trials=5, seed=0)
    assert report.passed and len(report.value.points) == 4
    assert len(ddm_runs) - start == 2 * integral_runs + 1


def test_monotone_explicit_stabilizing_chain():
    base = SimpleSetFunction(X2, (point_plus_cone(R2, (1, 0)), point_plus_cone(R2, (0, 1))))
    c = R2.interior_point
    shifted = [base.translate(VectorFunction(X2, (tuple(t * x for x in c),) * 2)) for t in (1, Fraction(1, 2), 0, 0)]
    chain = ExplicitChain(tuple(shifted), base)
    report = monotone_limit_check(chain, MU11)
    assert report.ok, report.describe()


def test_monotone_constant_chain():
    base = constant_function(X2, point_plus_cone(R2, (2, 2)))
    chain = ExplicitChain((base, base, base), base)
    assert monotone_limit_check(chain, MU11).ok


def test_monotone_rejects_non_nested():
    a = constant_function(X2, point_plus_cone(R2, (0, 0)))
    b = constant_function(X2, point_plus_cone(R2, (1, 1)))
    chain = ExplicitChain((a, b), b)  # a ⊇ b pointwise, so not increasing
    report = monotone_limit_check(chain, MU11)
    assert not report.ok and not report.precondition_ok


def test_monotone_parametric_harmonic_chain():
    chain = harmonic_cone_chain(X2, R2, [1, 2, 4, 8, 16, 32, 64])
    report = monotone_limit_check(chain, MU11)
    assert report.ok, report.describe()
    # supports at the dual generators decay exactly like mass*<c,w>/n
    n = 8
    f = chain.factory(n)
    value = aumann_integral(f, MU11).value
    for w in R2.dual_generators:
        assert value.support(w) == MU11.total() * dot(R2.interior_point, w) / n


def test_certificate_reports_all_facets():
    f = SimpleSetFunction(X2, (point_plus_cone(R2, (1, 0)), point_plus_cone(R2, (0, 1))))
    res = aumann_integral(f, MU11)
    assert {w for w, _, _ in res.support_certificate} == set(res.value.facet_normals())
    assert "MISMATCH" not in res.certificate_table()


def test_one_dimensional_case_is_lebesgue():
    # m = 1, C = R+: upper sets are half-lines [a, inf) and the Aumann
    # integral reduces to the Lebesgue integral of the lower endpoints
    line = orthant(1)
    sp = space("x1", "x2", "x3")
    mu = AtomicMeasure.from_map(sp, {"x1": 1, "x2": Fraction(1, 2), "x3": 0})
    endpoints = (Fraction(3), Fraction(-4), Fraction(99))
    f = SimpleSetFunction(sp, tuple(point_plus_cone(line, (e,)) for e in endpoints))
    res = aumann_integral(f, mu)
    assert res.value.set_equal(point_plus_cone(line, (Fraction(1),)))  # 3 - 2 + 0
    assert res.certificate_ok()
    report = selection_oracle(f, mu, trials=50, seed=0)
    assert report.passed


def test_oplus_rejects_cone_mismatch():
    wedge = Cone(2, ((1, 0), (1, 1)), (2, 1))
    a = point_plus_cone(R2, (1, 0))
    b = point_plus_cone(wedge, (1, 0))
    with pytest.raises(ValidationError):
        a.oplus(b)
