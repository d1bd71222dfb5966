"""Aumann integral: worked values, laws, oracle, monotone convergence."""

import contextlib
import cProfile
import io
import pstats
import random
from fractions import Fraction
from pathlib import Path

import pytest

from uppersets import Cone, ValidationError, ddm, integral, orthant
from uppersets.integral import (
    ExplicitChain,
    IntegralResult,
    ParametricChain,
    aumann_integral,
    integral_over,
    integral_value,
    monotone_limit_check,
    selection_oracle,
    weighted_support_sum,
)
from uppersets.linalg import NEG_INF, dot, vec
from uppersets.measure_space import (
    AtomicMeasure,
    ScalarFunction,
    SimpleSetFunction,
    VectorFunction,
    constant_function,
    halfspace_function,
    pick_selection,
    space,
    vector_plus_cone,
)
from uppersets.upperset import (
    PROPER,
    Halfspace,
    UpperSet,
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


def test_integral_value_rejects_a_measure_on_another_space():
    f = constant_function(X2, cone_upper_set(R2))
    mu = AtomicMeasure.from_map(space("x1", "x2", "x3"), {"x1": 1})
    with pytest.raises(ValidationError, match="^measure and function live on different spaces$"):
        integral_value(f, mu)


def test_weighted_support_sum_rejects_a_measure_on_another_space():
    # two weights over (y1, y2) were read against F's atoms (x1, x2) by position
    f = constant_function(X2, point_plus_cone(R2, (1, 0)))
    mu = AtomicMeasure.from_map(space("y1", "y2"), {"y1": 1, "y2": 2})
    with pytest.raises(ValidationError, match="^measure and function live on different spaces$"):
        weighted_support_sum(f, mu, (1, 1))


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


@pytest.mark.parametrize("weights, expected", [((1, 2), float("-inf")), ((0, 2), 2)])
def test_weighted_support_sum_skips_zero_weight_atoms_before_minus_inf(weights, expected):
    # F(x1) = H((1, 0), 0) has support -inf at w = (0, 1); F(x2) = (1, 1) + C has 1
    f = SimpleSetFunction(X2, (halfspace_set(R2, (1, 0), 0), point_plus_cone(R2, (1, 1))))
    assert weighted_support_sum(f, AtomicMeasure(X2, weights), (0, 1)) == expected


CERTIFICATE_CONES = {
    "orthant2": R2,
    "wedge2": Cone(2, ((1, 0), (1, 1)), (2, 1)),
    "orthant3": orthant(3),
    "half-plane": Cone(2, ((1, 1), (1, -1), (-1, 1)), (1, 1)),
}


def support_sum_through_support(f, mu, w):
    """Σ μ(x)·support(F(x), w) over positive-weight atoms by the public
    ``support``: -inf if any is -inf, else +inf if any atom is empty."""
    terms = [weight * value.support(w) for weight, value in zip(mu.weights, f.values) if weight]
    return NEG_INF if NEG_INF in terms else sum(terms, Fraction(0))


@pytest.mark.parametrize("shape", sorted(CERTIFICATE_CONES))
def test_certificate_rows_equal_the_public_supports(shape):
    # the certificate reads supports as integer numerators; each row must be
    # what the public support gives, at zero and fractional weights, and so
    # must weighted_support_sum at fractional directions, -inf ones included
    cone = CERTIFICATE_CONES[shape]
    sp = space("x1", "x2", "x3")
    rng = random.Random(5)
    for _ in range(10):
        f = random_set_function(rng, sp, cone)
        weights = [rng.choice([0, Fraction(1, 2), 1, Fraction(5, 3)]) for _ in sp.atoms]
        mu = AtomicMeasure(sp, weights if any(weights) else [Fraction(1, 3), 0, 0])
        res = aumann_integral(f, mu)
        assert [w for w, _, _ in res.support_certificate] == res.value.facet_normals()
        for w, lhs, rhs in res.support_certificate:
            assert (lhs, rhs) == (res.value.support(w), weighted_support_sum(f, mu, w))
            assert rhs == support_sum_through_support(f, mu, w)
        for _ in range(5):
            w = [Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(cone.dim)]
            w[0] = w[0] or 1
            assert weighted_support_sum(f, mu, w) == support_sum_through_support(f, mu, w)


@pytest.mark.parametrize("reverse", [False, True])
def test_weighted_support_sum_is_minus_inf_at_an_unbounded_atom(reverse):
    # in either atom order: H((1, 0), 0) or the full set (both -inf at (0, 1))
    # beside (1, 1) + C sums to -inf; SimpleSetFunction refuses an empty value,
    # so no atom's support is +inf
    def at_0_1(*values):
        return weighted_support_sum(SimpleSetFunction(X2, values[::-1] if reverse else values), MU11, (0, 1))

    with pytest.raises(ValidationError, match="is empty"):
        SimpleSetFunction(X2, (UpperSet.empty(R2), UpperSet.full(R2)))
    finite = point_plus_cone(R2, (1, 1))
    assert at_0_1(finite, halfspace_set(R2, (1, 0), 0)) == NEG_INF
    assert at_0_1(finite, UpperSet.full(R2)) == NEG_INF
    assert at_0_1(finite, finite) == 2


def test_weighted_support_sum_refuses_a_zero_direction():
    f = SimpleSetFunction(X2, (point_plus_cone(R2, (1, 1)), point_plus_cone(R2, (0, 2))))
    with pytest.raises(ValidationError, match="support direction must be nonzero"):
        weighted_support_sum(f, MU11, (0, Fraction(0)))


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
    assert canonicalize(R2, halfspaces=list(v.halfspaces)) == v
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


def test_oracle_makes_no_ddm_run_beyond_its_integral(ddm_runs, fan_merges):
    # three staircases in the plane x3 = 0 of R3 with edge slopes -2, -1/2
    # and -1: the value has four vertices, and its ⊕ C identity is read off
    # its facet normals (a planar value would take no run at all); each
    # general 3-D sum is a fan merge, and the oracle adds none of its own
    f = SimpleSetFunction(
        X3,
        tuple(
            canonicalize(R3, points=[(*p, 0) for p in ps])
            for ps in ([(0, 2), (1, 0)], [(0, 1), (2, 0)], [(0, 1), (1, 0)])
        ),
    )
    mu = AtomicMeasure(X3, (1, 1, 1))
    cone_upper_set(R3)  # cached after its first run
    start, merged = len(ddm_runs), len(fan_merges)
    aumann_integral(f, mu)
    integral_sums = (len(ddm_runs) - start, len(fan_merges) - merged)
    report = selection_oracle(f, mu, trials=5, seed=0)
    assert report.passed and len(report.value.points) == 4
    assert integral_sums == (0, 2)  # one merge per general sum of the fold
    assert (len(ddm_runs) - start, len(fan_merges) - merged) == (0, 2 * integral_sums[1])


def test_oracle_identity_fails_on_a_normal_outside_the_dual_cone():
    # {x1 >= x2}, built by hand, is not closed under the orthant: its normal
    # (1, -1) lies outside C+, so value ⊕ C = value must fail
    x1 = space("x1")
    value = UpperSet(R2, PROPER, (Halfspace((1, -1), Fraction(0)),), 1, ((0, 0),), ((1, 0),), ((1, 1),))
    report = selection_oracle(SimpleSetFunction(x1, (value,)), AtomicMeasure(x1, (1,)), trials=5, seed=0)
    assert report.value.halfspaces == value.halfspaces
    assert not report.upper_set_ok and not report.passed
    assert "upper-set identity (value ⊕ C = value): FAIL" in report.describe()


STAIRCASE = canonicalize(R2, points=[(0, 2), (Fraction(1, 2), 1), (3, 0)])


@pytest.mark.parametrize(
    "values, violations",
    [
        (
            (STAIRCASE, point_plus_cone(R2, (1, -1))),
            [
                "((Fraction(28, 13), Fraction(12, 13)), (Fraction(3, 2), Fraction(-1, 2)))"
                " integrates to [151/52, 35/52]",
            ],
        ),
        (
            (halfspace_set(R2, (1, 1), 2), STAIRCASE),
            [
                "((Fraction(1, 1), Fraction(1, 1)), (Fraction(39, 32), Fraction(49, 16)))"
                " integrates to [103/64, 81/32]",
                "((Fraction(11, 2), Fraction(-3, 1)), (Fraction(27, 10), Fraction(9, 10)))"
                " integrates to [137/20, -51/20]",
                "((Fraction(11, 2), Fraction(-3, 1)), (Fraction(2, 1), Fraction(15, 7)))"
                " integrates to [13/2, -27/14]",
            ],
        ),
    ],
    ids=["staircase", "half-plane"],
)
def test_oracle_reports_selections_outside_a_too_small_value(values, violations, monkeypatch):
    # value + c is a strict subset of the true value, so some random
    # selections integrate outside it; the report prints the first three
    real = integral.aumann_integral

    def shifted(F, mu):
        result = real(F, mu)
        return IntegralResult(result.value.translate(F.cone.interior_point), result.support_certificate)

    monkeypatch.setattr(integral, "aumann_integral", shifted)
    f = SimpleSetFunction(X2, values)
    report = selection_oracle(f, AtomicMeasure(X2, (1, Fraction(1, 2))), trials=10, seed=5)
    lines = report.describe().splitlines()
    start = lines.index("containment: FAIL (10 random selections)")
    assert lines[start + 1 : start + 1 + len(violations)] == [
        f"  violating selection {v}" for v in violations
    ]
    assert lines[start + 1 + len(violations)].startswith("attainment: ")
    assert not report.passed


@pytest.mark.parametrize(
    "selection, reasons",
    [
        (
            lambda F: ((-9, -9),) + pick_selection(F).values[1:],
            {
                "[0, 2]": "decomposed piece at x1 leaves F(x1)",
                "[1/2, 1]": "decomposed piece at x1 leaves F(x1)",
                "[3, 0]": "decomposed piece at x1 leaves F(x1)",
            },
        ),
        (
            lambda F: pick_selection(F).values,
            {
                "[1/2, 1]": "decomposition does not resum to the point",
                "[3, 0]": "decomposition does not resum to the point",
            },
        ),
    ],
    ids=["piece-outside", "no-resum"],
)
def test_oracle_reports_a_wrong_decomposition(selection, reasons, monkeypatch):
    # the oracle re-checks each decomposition it is handed: every piece lies
    # in its atom's value and the pieces integrate back to the point
    monkeypatch.setattr(integral, "_attaining_selection", lambda F, mu, value, p: selection(F))
    f = SimpleSetFunction(X2, (STAIRCASE, cone_upper_set(R2)))
    report = selection_oracle(f, MU11, trials=5, seed=0)
    lines = report.describe().splitlines()
    start = lines.index(f"attainment: FAIL ({3 - len(reasons)} extreme points decomposed)")
    assert lines[start + 1 : start + 1 + len(reasons)] == [
        f"  point {p}: {reason}" for p, reason in reasons.items()
    ]
    assert lines[start + 1 + len(reasons)].startswith("upper-set identity")
    assert not report.passed


def fraction_split(residual, generators):
    """``integral._split``'s coefficients by the elimination on Fractions it replaced."""
    dim, n = len(residual), len(generators)
    rows = [tuple(g) + tuple(int(i == j) for i in range(n)) for j, g in enumerate(generators)]
    x = tuple(residual) + (0,) * n
    for b in ddm.rref_basis(rows, dim + n):
        c = next(i for i, t in enumerate(b) if t)
        if c >= dim:
            break
        x = tuple(xi - Fraction(x[c]) / b[c] * bi for xi, bi in zip(x, b))
    return None if any(x[:dim]) else [-t for t in x[dim:]]


def test_split_returns_the_fraction_elimination_coefficients_from_integers():
    rng = random.Random(83)
    outcomes = set()
    for _ in range(300):
        dim = rng.randint(1, 4)
        generators = [
            tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(dim))
            for _ in range(rng.randint(1, 4))
        ]
        residual = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 5))) for _ in range(dim))
        if rng.random() < 0.7:  # in the span: a rational combination of the generators
            ks = [Fraction(rng.randint(-4, 4), rng.choice((1, 3))) for _ in generators]
            residual = tuple(sum(k * g[i] for k, g in zip(ks, generators)) for i in range(dim))
        expected = fraction_split(residual, generators)
        profile = cProfile.Profile()
        got = profile.runcall(integral._split, residual, generators)
        assert not [k for k in pstats.Stats(profile).stats if k[2] == "__new__" and k[0].endswith("fractions.py")]
        if expected is None:
            assert got is None
        else:
            s, t = got
            assert s > 0 and [Fraction(x, s) for x in t] == expected
        outcomes.add(expected is None)
    assert outcomes == {True, False}


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
    assert not report.ok
    assert report.lines == (
        "precondition: step 1 is not pointwise contained in step 2",
        "precondition: pointwise hull at x1 differs from the declared limit",
        "precondition: pointwise hull at x2 differs from the declared limit",
    )


def test_monotone_parametric_harmonic_chain():
    chain = ParametricChain(X2, R2, [1, 2, 4, 8, 16, 32, 64])
    report = monotone_limit_check(chain, MU11)
    assert report.ok, report.describe()
    # supports at the dual generators decay exactly like mass*<c,w>/n
    n = 8
    f = chain.steps[chain.indices.index(n)]
    value = aumann_integral(f, MU11).value
    for w in R2.dual_generators:
        assert value.support(w) == MU11.total() * dot(R2.interior_point, w) / n


def test_parametric_chain_reports_an_image_that_breaks_monotonicity():
    # the index-4 image is answered with the index-1 integral, c + C ⊉ c/2 + C
    chain = ParametricChain(X2, R2, (1, 2, 4))
    evaluate = lambda F: integral_value(chain.steps[0] if F == chain.steps[2] else F, MU11)
    report = chain.check(evaluate, MU11)
    assert not report.ok
    assert report.lines == (
        "integral at index 4 breaks monotonicity",
        "n=4 normal [0, 1]: deviation 2 exceeds schedule 1/2",
        "n=4 normal [1, 0]: deviation 2 exceeds schedule 1/2",
        "checked indices [1, 2, 4] at 2 facet normals of the limit",
    )


@pytest.mark.parametrize("limit_image", [UpperSet.empty, UpperSet.full], ids=["empty", "full"])
def test_a_parametric_chain_whose_limit_image_has_no_facets_reads_the_dual_generators(limit_image):
    # the images (3/n)c + C do not converge to a limit image ∅ or R^2, which has
    # no facet normals to read the supports at, so C⁺'s generators are read
    mu = AtomicMeasure.from_map(X2, {"x1": 2, "x2": 1})
    chain = ParametricChain(X2, R2, (1, 2, 4, 8))
    report = chain.check(lambda F: limit_image(R2) if F == chain.limit else integral_value(F, mu), mu)
    assert not report.ok
    assert report.lines == (
        *(
            f"n={n} normal {w}: deviation inf exceeds schedule {bound}"
            for n, bound in ((1, "3"), (2, "3/2"), (4, "3/4"), (8, "3/8"))
            for w in ("[0, 1]", "[1, 0]")
        ),
        "checked indices [1, 2, 4, 8] at 2 generators of C⁺ (the limit's image has no facets)",
    )


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


CONES = pytest.mark.parametrize(
    "cone",
    [
        orthant(2),
        Cone(2, ((1, 0), (1, 1)), (2, 1)),
        orthant(3),
        Cone(2, ((1, 1), (1, -1), (-1, 1)), (1, 1)),
    ],
    ids=["orthant2", "wedge", "orthant3", "half-plane"],
)


@CONES
def test_integral_value_is_the_value_of_the_certified_integral(cone):
    rng = random.Random(29)
    sp = space("x1", "x2", "x3")
    for _ in range(8):
        F = random_set_function(rng, sp, cone)
        weights = [Fraction(rng.randint(0, 3), rng.choice([1, 2])) for _ in sp.atoms]
        weights[rng.randrange(3)] += 1
        mu = AtomicMeasure(sp, tuple(weights))
        a, b = integral_value(F, mu), aumann_integral(F, mu).value
        assert (a.kind, a.halfspaces, a.points, a.rays, a.lineality) == (
            b.kind,
            b.halfspaces,
            b.points,
            b.rays,
            b.lineality,
        )


@CONES
def test_harmonic_steps_nest_and_lie_in_the_limit(cone):
    # the invariants that make a runtime precondition on the family redundant
    chain = ParametricChain(X2, cone, (1, 2, 3, 5, 8))
    for F, G in zip(chain.steps, chain.steps[1:]):
        assert F.pointwise_subset_of(G)
    assert chain.steps[-1].pointwise_subset_of(chain.limit)
    assert chain.limit == constant_function(X2, cone_upper_set(cone))


def test_parametric_chain_builds_its_steps_once_and_lazily(monkeypatch):
    built = []
    translates = integral.cone_translates
    monkeypatch.setattr(integral, "cone_translates", lambda *args: built.append(args) or translates(*args))
    chain = ParametricChain(X2, R2, (1, 2, 4))
    assert built == [] and "steps" not in chain.__dict__
    steps = chain.steps
    assert len(built) == 3
    assert chain.steps is steps and len(built) == 3


def test_a_schedule_rate_keeps_the_indices():
    chain = ParametricChain(X2, R2, (1, 3, 9))
    tight = ParametricChain(chain.space, chain.cone, chain.indices, rate=Fraction(1, 3))
    assert tight.indices == (1, 3, 9) and tight.rate == Fraction(1, 3)
    assert tight.schedule(3, (1, 0), MU11) == Fraction(1, 9)
    assert chain.schedule(3, (1, 0), MU11) == Fraction(2, 3)


def test_a_parametric_chain_reads_its_rate_and_indices():
    # a float rate is refused when the chain is built, not in its report; a
    # 'p/q' rate is read as its Fraction; a float or a bool index is refused
    with pytest.raises(ValidationError, match="parametric chain rate 0.001 is not an int, a Fraction"):
        ParametricChain(X2, R2, (1, 2), rate=0.001)
    chain = ParametricChain(X2, R2, (1, 3), rate="1/3")
    assert type(chain.rate) is Fraction and chain.rate == Fraction(1, 3)
    assert chain.schedule(3, (1, 0), MU11) == Fraction(1, 9)
    report = chain.check(lambda F: integral_value(F, MU11), MU11)
    assert not report.ok and report.lines[-1] == "checked indices [1, 3] at 2 facet normals of the limit"
    assert report.lines[0] == "n=1 normal [0, 1]: deviation 2 exceeds schedule 1/3"
    for index in (1.0, True):
        with pytest.raises(ValidationError, match=f"parametric chain index {index!r} is not an integer"):
            ParametricChain(X2, R2, (index, 2))


def test_a_parametric_chain_refuses_a_negative_rate():
    # the chain owns the check, so a chain built through the API and one whose
    # rate --epsilon-schedule replaces are refused alike
    with pytest.raises(ValidationError, match="^parametric chain rate must be nonnegative$"):
        ParametricChain(X2, R2, (1, 2), rate=-1)
    chain = ParametricChain(X2, R2, (1, 2), rate=0)
    with pytest.raises(ValidationError, match="^parametric chain rate must be nonnegative$"):
        ParametricChain(chain.space, chain.cone, chain.indices, rate=Fraction(-1, 2))


def test_readme_library_example_prints_its_comments():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert expected == ["halfspaces: [[0, 1, 2], [1, 0, 1]]", "True", "True"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
