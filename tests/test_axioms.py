"""Axiom checks, measure reconstruction, representation and the mutants."""

import copy
from fractions import Fraction

import pytest

from uppersets import Cone, ValidationError, orthant
from uppersets.axioms import (
    AXIOM_ORDER,
    MUTANT_NAMES,
    SampleSet,
    SetFunctional,
    check_additivity,
    cone_translate_coefficients,
    check_indicator,
    check_interchange,
    check_nullity,
    check_positive_homogeneity,
    decompose_nonneg,
    extract_scalar,
    indicator_measure,
    integral_functional,
    interchange_directions,
    mutant_catalog,
    reconstruct_measure,
    run_axiom_checks,
    verify_representation,
)
from uppersets.integral import aumann_integral
from uppersets.measure_space import (
    AtomicMeasure,
    ScalarFunction,
    SimpleSetFunction,
    VectorFunction,
    cone_translates,
    constant_function,
    halfspace_function,
    space,
)
from uppersets.upperset import (
    UpperSet,
    cone_upper_set,
    halfspace_set,
    point_plus_cone,
)

R2 = orthant(2)
X2 = space("x1", "x2")
MU = AtomicMeasure.from_map(X2, {"x1": 2, "x2": 1})


@pytest.fixture(scope="module")
def samples():
    return SampleSet(X2, R2, seed=0, count=12)


def test_extract_scalar_cases():
    assert extract_scalar(point_plus_cone(R2, (2, 2)), R2) == 2
    assert extract_scalar(cone_upper_set(R2), R2) == 0
    assert extract_scalar(halfspace_set(R2, (1, 1), 0), R2) == "not_of_form"
    assert extract_scalar(UpperSet.empty(R2), R2) == "empty"
    assert extract_scalar(UpperSet.full(R2), R2) == "not_of_form"
    assert extract_scalar(point_plus_cone(R2, (-1, -1)), R2) == "not_of_form"
    for k in (Fraction(0), Fraction(1, 3), Fraction(7, 2)):
        s = point_plus_cone(R2, tuple(k * x for x in R2.interior_point))
        assert extract_scalar(s, R2) == k


def test_integral_passes_all_axioms(samples):
    phi = integral_functional(MU)
    report = run_axiom_checks(phi, samples)
    assert report.passed, report.describe()
    assert tuple(r.axiom for r in report.results) == AXIOM_ORDER


def test_shifted_functional_fails_additivity(samples):
    # phi(F) = ∫F dμ ⊕ B with B = (1,0)+C carries one B on the left and two
    # on the right of the additivity identity
    bump = point_plus_cone(R2, (1, 0))
    phi = SetFunctional("shifted", lambda F: aumann_integral(F, MU).value.oplus(bump))
    result = check_additivity(phi, samples)
    assert result.status == "fail"


def test_translating_functional_fails_homogeneity(samples):
    shift = (1, 1)
    phi = SetFunctional(
        "translated", lambda F: aumann_integral(F, MU).value.translate(shift)
    )
    result = check_positive_homogeneity(phi, samples)
    assert result.status == "fail"


def test_padded_functional_fails_nullity(samples):
    c = R2.interior_point
    pad = point_plus_cone(R2, c)
    phi = SetFunctional("padded", lambda F: aumann_integral(F, MU).value.oplus(pad))
    result = check_nullity(phi, samples)
    assert result.status == "fail"
    # H(w) ⊕ (c+C) is strictly inside H(w) because <c, w> > 0
    w = R2.dual_generators[0]
    padded = halfspace_set(R2, w, 0).oplus(pad)
    assert padded.subset_of(halfspace_set(R2, w, 0))
    assert not halfspace_set(R2, w, 0).subset_of(padded)


def test_halfspace_projection_fails_indicator(samples):
    w0 = (1, 1)
    phi = SetFunctional(
        "projected", lambda F: aumann_integral(F, MU).value.supporting_halfspace(w0)
    )
    result = check_indicator(phi, samples)
    assert result.status == "fail"
    assert any("form" in line for line in result.details)


def test_extraneous_constraint_fails_interchange(samples):
    # an extraneous halfspace applied on multi-facet inputs only: the left
    # side is strictly smaller than the intersection of the halfspace images,
    # which never see the extra constraint
    extra = halfspace_set(R2, (2, 1), 4)

    def evaluator(F):
        from uppersets.upperset import sup_set

        value = aumann_integral(F, MU).value
        # halfspace-valued: every value full or one facet, and not all full
        finite = [v for v in F.values if not v.is_full]
        if finite and all(len(v.halfspaces) == 1 for v in finite):
            return value
        return sup_set(R2, [value, extra])

    phi = SetFunctional("tightened", evaluator)
    result = check_interchange(phi, samples)
    assert result.status == "fail"


def test_indicator_measure_matches_measure(samples):
    phi = integral_functional(MU)
    result = check_indicator(phi, samples)
    assert result.status == "pass"
    assert indicator_measure(phi, X2, R2) == MU


def _integral_except(overrides: dict):
    """The integral of MU, except φ(ξc + C) = overrides[ξ] for the listed ξ;
    returns the functional and the list of inputs it evaluates."""
    fixed = {cone_translates(ScalarFunction(X2, xi), R2): v for xi, v in overrides.items()}
    seen = []

    def evaluator(F):
        seen.append(F)
        return fixed[F] if F in fixed else aumann_integral(F, MU).value

    return SetFunctional("overridden", evaluator), seen


@pytest.mark.parametrize(
    "overrides, evaluated",
    [
        ({(0, 0): UpperSet.full(R2)}, 1),  # φ(1_∅ c + C) is not of the form
        ({(1, 0): UpperSet.empty(R2)}, 2),  # a singleton classifies as empty
        ({(1, 0): cone_upper_set(R2), (0, 1): cone_upper_set(R2)}, 3),  # total 0
    ],
    ids=["empty-set-not-of-form", "singleton-empty", "zero-total"],
)
def test_indicator_measure_is_none_at_the_first_input_that_rules_it_out(overrides, evaluated):
    phi, seen = _integral_except(overrides)
    assert indicator_measure(phi, X2, R2) is None
    assert len(seen) == evaluated


def test_no_indicator_measure_skips_the_parametric_chain(samples):
    # every singleton is of the form, φ(1_∅ c + C) is not
    phi, _ = _integral_except({(0, 0): UpperSet.full(R2)})
    report = run_axiom_checks(phi, samples)
    assert report.result("I").status == "fail"
    c_result = report.result("C")
    assert c_result.status == "pass" and (c_result.checked, c_result.skipped) == (1, 1)
    assert c_result.details == (
        "parametric chain skipped: no candidate measure for the deviation schedule",
    )


def test_indicator_example_values():
    mu = AtomicMeasure.from_map(X2, {"x1": 2, "x2": 5})
    phi = integral_functional(mu)
    one_x1 = ScalarFunction.indicator(X2, ["x1"])
    assert extract_scalar(phi(cone_translates(one_x1, R2)), R2) == 2
    zero = ScalarFunction.constant(X2, 0)
    assert extract_scalar(phi(cone_translates(zero, R2)), R2) == 0


def test_reconstruct_measure_exact():
    sp = space("a", "b", "c")
    mu = AtomicMeasure.from_map(sp, {"a": 1, "b": 2, "c": 3})
    rec = reconstruct_measure(integral_functional(mu), sp, R2)
    assert rec.ok and rec.measure == mu
    mu0 = AtomicMeasure.from_map(sp, {"a": 1})
    rec0 = reconstruct_measure(integral_functional(mu0), sp, R2)
    assert rec0.ok and rec0.measure == mu0
    single = space("only")
    mu5 = AtomicMeasure.from_map(single, {"only": 5})
    rec5 = reconstruct_measure(integral_functional(mu5), single, R2)
    assert rec5.ok and rec5.measure.weights == (5,)


def test_reconstruct_flags_infinite_atom():
    def evaluator(F):
        # claim non-integrability whenever the first atom's value moves
        if not F.value("x1").set_equal(cone_upper_set(R2)):
            return UpperSet.empty(R2)
        return aumann_integral(F, MU).value

    rec = reconstruct_measure(SetFunctional("spiky", evaluator), X2, R2)
    assert not rec.ok
    assert rec.weights[0] == "infinite"


def test_reconstruct_rejects_non_additive():
    def evaluator(F):
        # a superadditive corruption: squares the singleton masses
        value = aumann_integral(F, MU).value
        k = extract_scalar(value, R2)
        if isinstance(k, Fraction) and k > 1:
            return point_plus_cone(R2, tuple(k * k * x for x in R2.interior_point))
        return value

    rec = reconstruct_measure(SetFunctional("squared", evaluator), X2, R2)
    assert not rec.ok and rec.additivity_failures


def test_reconstruct_failure_lines_print_rationals():
    sp = space("x1", "x2", "x3")
    mu = AtomicMeasure.from_map(sp, {"x1": 1, "x2": 2, "x3": 3})
    pair = cone_translates(ScalarFunction.indicator(sp, ["x1", "x2"]), R2)

    def pair_shifted(F):
        # the integral, except that the pair indicator's value moves by c
        value = aumann_integral(F, mu).value
        return value.translate(R2.interior_point) if F == pair else value

    phi = SetFunctional("pair-shifted", pair_shifted)
    # the six checks never probe the pair indicator at sample seed 0
    assert run_axiom_checks(phi, SampleSet(sp, R2, seed=0)).passed
    lines = reconstruct_measure(phi, sp, R2).describe().splitlines()
    assert "  additivity failure: phi(1_A) for A = {x1, x2} is 4, expected 3" in lines

    zero = constant_function(sp, cone_upper_set(R2))

    def zero_shifted(F):
        value = aumann_integral(F, mu).value
        return value.translate(R2.interior_point) if F == zero else value

    rec = reconstruct_measure(SetFunctional("zero-shifted", zero_shifted), sp, R2)
    assert rec.additivity_failures == ("phi(1_∅) = 1, expected 0",)


SINGLETONS_THEN_EMPTY = [("x1",), ("x2",), ("x3",), ()]
EVERY_SUBSET_READ = SINGLETONS_THEN_EMPTY + [
    ("x1", "x2"), ("x1", "x3"), ("x2", "x3"), ("x1", "x2", "x3")
]


@pytest.mark.parametrize(
    "overrides, report, evaluated",
    [
        (
            {},
            ["mu({x1}) = 1", "mu({x2}) = 2", "mu({x3}) = 3",
             "phi(1_{x1}) = 1", "phi(1_{x2}) = 2", "phi(1_{x3}) = 3", "status: ok"],
            EVERY_SUBSET_READ,
        ),
        (
            {("x2",): UpperSet.full(R2)},
            ["mu({x1}) = 1", "mu({x2}) = infinite", "mu({x3}) = 3",
             "phi(1_{x1}) = 1", "phi(1_{x3}) = 3",
             "additivity failure: phi(1_{x2} c + C) is not of the form k c + C", "status: FAILED"],
            SINGLETONS_THEN_EMPTY,
        ),
        (
            {("x3",): UpperSet.empty(R2), (): point_plus_cone(R2, R2.interior_point)},
            ["mu({x1}) = 1", "mu({x2}) = 2", "mu({x3}) = infinite",
             "phi(1_{x1}) = 1", "phi(1_{x2}) = 2", "phi(1_{x3}) = infinite (empty value)",
             "additivity failure: phi(1_∅) = 1, expected 0", "status: FAILED"],
            SINGLETONS_THEN_EMPTY,
        ),
        (
            dict.fromkeys(EVERY_SUBSET_READ, cone_upper_set(R2)),
            ["mu({x1}) = 0", "mu({x2}) = 0", "mu({x3}) = 0",
             "phi(1_{x1}) = 0", "phi(1_{x2}) = 0", "phi(1_{x3}) = 0",
             "additivity failure: reconstructed measure has zero total mass", "status: FAILED"],
            EVERY_SUBSET_READ,
        ),
    ],
    ids=["ok", "singleton-not-of-form", "singleton-empty-and-empty-set-shifted", "zero-mass"],
)
def test_reconstruct_report_and_evaluation_order(overrides, report, evaluated):
    # the integral of mu = (1, 2, 3), except φ(1_A c + C) = overrides[A]
    mu = AtomicMeasure(X3, (1, 2, 3))
    indicator = {
        names: cone_translates(ScalarFunction.indicator(X3, list(names)), R2)
        for names in EVERY_SUBSET_READ
    }
    fixed = {indicator[names]: value for names, value in overrides.items()}
    seen = []

    def evaluator(F):
        seen.append(F)
        return fixed[F] if F in fixed else aumann_integral(F, mu).value

    rec = reconstruct_measure(SetFunctional("overridden", evaluator), X3, R2)
    assert rec.describe().splitlines() == ["reconstructed measure:"] + [f"  {line}" for line in report]
    assert seen == [indicator[names] for names in evaluated]
    assert rec.ok == (report[-1] == "status: ok")


def test_indicator_nontriviality_clause_rejects_a_zero_reading():
    phi = SetFunctional("constant-C", lambda F: cone_upper_set(R2))
    result = check_indicator(phi, SampleSet(X2, R2, seed=0))
    assert (result.status, result.checked) == ("fail", 7)
    assert result.details == (
        "nontriviality clause: the strictly positive xi = {x1: 1, x2: 1} classifies as 0, "
        "expected a finite strictly positive k",
    )


def test_verify_representation_same_measure():
    phi = integral_functional(MU)
    report = verify_representation(phi, MU, X2, R2, seed=4)
    assert report.passed, report.describe()


def test_verify_representation_detects_corruption():
    corrupted = AtomicMeasure.from_map(X2, {"x1": 3, "x2": 1})  # +1 on one atom
    phi = integral_functional(MU)
    report = verify_representation(phi, corrupted, X2, R2, seed=4)
    assert not report.passed
    assert any("point-plus-cone" in f or "constant" not in f for f in report.failures)


def test_decompose_nonneg_examples():
    f = VectorFunction(space("a"), ((-1, 2),))
    xi, g = decompose_nonneg(f, R2)
    assert xi.values == (2,)
    assert g.values == ((3, 0),)
    f2 = VectorFunction(space("a"), ((-2, -3),))
    xi2, g2 = decompose_nonneg(f2, R2)
    assert xi2.values == (0,) and g2.values == ((2, 3),)
    f3 = VectorFunction(space("a"), (R2.interior_point,))
    xi3, g3 = decompose_nonneg(f3, R2)
    assert xi3.values == (1,) and g3.values == ((0, 0),)


def test_decompose_nonneg_minimality_random():
    import random

    rng = random.Random(3)
    wedge = Cone(2, ((1, 0), (1, 1)), (2, 1))
    for cone in (R2, wedge):
        c = cone.interior_point
        for _ in range(25):
            f = VectorFunction(
                space("a"),
                ((Fraction(rng.randint(-8, 8), 2), Fraction(rng.randint(-8, 8), 2)),),
            )
            xi, g = decompose_nonneg(f, cone)
            x = xi.values[0]
            assert x >= 0 and cone.contains(g.values[0])
            recomposed = tuple(x * ci - gi for ci, gi in zip(c, g.values[0]))
            assert recomposed == f.values[0]
            if x > 0:
                for delta in (Fraction(1, 1000), x / 2, x):
                    smaller = x - delta
                    candidate = tuple(
                        smaller * ci - fi for ci, fi in zip(c, f.values[0])
                    )
                    assert not cone.contains(candidate)


def _assert_each_mutant_fails_exactly_its_axiom(samples, mu):
    catalog = mutant_catalog(samples, mu)
    assert set(catalog) == set(MUTANT_NAMES)
    targets = {
        "additivity-shift": "A",
        "homogeneity-translate": "P",
        "continuity-jump": "C",
        "nullity-pad": "N",
        "indicator-deform": "I",
        "interchange-tighten": "S",
    }
    for name, phi in catalog.items():
        report = run_axiom_checks(phi, samples)
        statuses = {r.axiom: r.status for r in report.results}
        expected_fail = targets[name]
        assert statuses[expected_fail] == "fail", f"{name}: {report.describe()}"
        for axiom, status in statuses.items():
            if axiom != expected_fail:
                assert status == "pass", f"{name} leaked into ({axiom}): {report.describe()}"
        if name == "interchange-tighten":
            # every supporting input of sample #0 is in the home, the facet
            # normals of its integral among them, so (S) trips there first
            assert report.result("S").details[0] == "counterexample sample #0:"


def test_mutants_fail_exactly_their_axiom(samples):
    _assert_each_mutant_fails_exactly_its_axiom(samples, MU)


@pytest.mark.parametrize("seed", [8, 19])
def test_mutant_catalog_builds_where_a_pair_sum_is_a_nonconstant_cone_translate(seed):
    # a pair sum of this sample set is ξc + C with ξ not constant, but no
    # indicator input: it lies outside indicator-deform's home inputs
    samples = SampleSet(X2, R2, seed=seed)
    indicators = [cone_translates(xi, R2) for xi in samples.indicator_xis]
    xis = [cone_translate_coefficients(F) for F in samples.pair_sums.values() if F not in indicators]
    assert any(xi is not None and len(set(xi)) > 1 for xi in xis)
    _assert_each_mutant_fails_exactly_its_axiom(samples, MU)


def test_mutant_catalog_requires_pointed_cone(samples):
    halfplane = Cone(2, ((1, 1), (1, -1), (-1, 1)), (1, 1))
    sp = space("x1", "x2")
    mu = AtomicMeasure.from_map(sp, {"x1": 1, "x2": 1})
    flat_samples = SampleSet(sp, halfplane, seed=1, count=4)
    with pytest.raises(ValidationError):
        mutant_catalog(flat_samples, mu)


def _replaced(samples, family, key, F):
    """A copy of ``samples`` whose ``family`` dict holds F at ``key``."""
    out = copy.copy(samples)
    setattr(out, family, {**getattr(samples, family), key: F})
    return out


def _trigger_inputs(samples):
    """Per mutant: an input of its home and a foreign slot for it."""
    w = integral_functional(MU)(samples.functions[0]).facet_normals()[0]
    return {
        "additivity-shift": ("scaled", (5, 1), samples.pair_sums[(0, 1)]),
        "homogeneity-translate": ("pair_sums", (3, 4), samples.scaled[(2, Fraction(3))]),
        "continuity-jump": ("scaled", (5, 1), samples.stabilizing_limit),
        "nullity-pad": ("pair_sums", (3, 4), constant_function(X2, halfspace_set(R2, (1, 0), 0))),
        "indicator-deform": ("scaled", (5, 1), cone_translates(ScalarFunction.indicator(X2, ["x1"]), R2)),
        "interchange-tighten": ("pair_sums", (3, 4), samples.supporting(samples.functions[0], w)),
    }


@pytest.mark.parametrize("name", MUTANT_NAMES)
def test_mutant_catalog_refuses_a_trigger_in_a_foreign_family(samples, name):
    mutant_catalog(samples, MU)  # the unmodified samples are isolated
    family, key, F = _trigger_inputs(samples)[name]
    with pytest.raises(ValidationError, match=f"mutant {name}:"):
        mutant_catalog(_replaced(samples, family, key, F), MU)


def test_mutant_catalog_ignores_trigger_shapes_outside_the_sample_inputs(samples):
    # a non-constant cone translate and a halfspace-valued function that no
    # check probes: a trigger is its home's inputs, not every input of a shape
    translate = cone_translates(ScalarFunction(X2, (1, 2)), R2)
    halfspaces = halfspace_function(X2, R2, (1, 1), ScalarFunction(X2, (1, 2)))
    base = integral_functional(MU)
    assert translate not in [cone_translates(xi, R2) for xi in samples.indicator_xis]
    assert halfspaces not in [
        samples.supporting(F, w)
        for F in samples.functions
        for w in interchange_directions(F, base(F), R2)
    ]
    modified = _replaced(samples, "scaled", (5, 1), translate)
    modified = _replaced(modified, "pair_sums", (3, 4), halfspaces)
    catalog = mutant_catalog(modified, MU)
    for F in (translate, halfspaces):
        for phi in catalog.values():
            assert phi(F) == base(F)


def test_mutant_catalog_refuses_a_second_pair_sum_equal_to_the_shift_trigger(samples):
    trigger = samples.pair_sums[(0, 1)]
    with pytest.raises(ValidationError, match="mutant additivity-shift:"):
        mutant_catalog(_replaced(samples, "pair_sums", (3, 4), trigger), MU)


@pytest.mark.parametrize("seed", [2, 3, 5])
def test_mutant_catalog_refuses_a_pair_sum_equal_to_an_indicator_input(seed):
    # (p + C, q + C) ⊕ (c - p + C, -q + C) = 1_{x1} c + C, which is also an
    # input of the indicator check; indicator-deform would corrupt it inside
    # (A) as well as (I), so the catalog must refuse the sample set
    mu = AtomicMeasure.from_map(X2, {"x1": 1, "x2": 2})
    samples = SampleSet(X2, R2, seed=seed)
    mutant_catalog(samples, mu)
    p, q, c = (3, -2), (2, 5), R2.interior_point
    F = SimpleSetFunction(X2, (point_plus_cone(R2, p), point_plus_cone(R2, q)))
    G = SimpleSetFunction(
        X2,
        (
            point_plus_cone(R2, tuple(ci - pi for ci, pi in zip(c, p))),
            point_plus_cone(R2, tuple(-qi for qi in q)),
        ),
    )
    indicator = cone_translates(ScalarFunction.indicator(X2, ["x1"]), R2)
    assert F.oplus(G) == indicator and indicator in [
        cone_translates(xi, R2) for xi in samples.indicator_xis
    ]
    modified = copy.copy(samples)
    modified.functions = samples.functions[:3] + [F, G] + samples.functions[5:]
    modified.pair_sums = {
        (i, j): modified.functions[i].oplus(modified.functions[j]) for i, j in samples.pairs
    }
    modified.scaled = {(i, lam): modified.functions[i].scale(lam) for i, lam in samples.scaled}
    with pytest.raises(ValidationError, match="mutant indicator-deform: .* pair-sums"):
        mutant_catalog(modified, mu)


X3 = space("x1", "x2", "x3")
PROBE_FIXTURES = {
    "X2-R2": (X2, R2, MU),
    "X3-orthant3": (X3, orthant(3), AtomicMeasure.from_map(X3, {"x1": 1, "x2": 2, "x3": 1})),
}


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("fixture", PROBE_FIXTURES)
def test_checks_probe_exactly_the_catalog_inputs(fixture, seed):
    # the collision rule is sound only if the catalog's inputs are exactly
    # the inputs the six checks evaluate, neither more nor fewer
    sp, cone, mu = PROBE_FIXTURES[fixture]
    samples = SampleSet(sp, cone, seed=seed)
    base = integral_functional(mu)
    evaluated = set()
    run_axiom_checks(SetFunctional("recorded", lambda F: evaluated.add(F) or base(F)), samples)
    assert evaluated == {F for _, _, F in samples.probes(base)}


def test_report_renders_deterministically(samples):
    phi = integral_functional(MU)
    a = run_axiom_checks(phi, samples).describe()
    b = run_axiom_checks(integral_functional(MU), samples).describe()
    assert a == b
    assert "overall: PASS" in a


def test_homogeneity_worked_instance():
    # lambda = 3 on the constant c+C function with total mass 2: both sides 6c+C
    mu2 = AtomicMeasure.from_map(X2, {"x1": 1, "x2": 1})
    phi = integral_functional(mu2)
    from uppersets.measure_space import constant_function

    F = constant_function(X2, point_plus_cone(R2, R2.interior_point))
    lhs = phi(F.scale(3))
    rhs = phi(F).scale(3)
    six_c = point_plus_cone(R2, tuple(6 * x for x in R2.interior_point))
    assert lhs.set_equal(rhs) and lhs.set_equal(six_c)


def test_run_axiom_checks_skips_parametric_without_measure(samples):
    # a functional that defeats measure extraction: nonconstant cone
    # translates map to the full space, so singleton indicators classify as
    # not_of_form and no candidate measure exists
    def evaluator(F):
        coeffs = cone_translate_coefficients(F)
        if coeffs is not None and len(set(coeffs)) > 1:
            return UpperSet.full(R2)
        return aumann_integral(F, MU).value

    report = run_axiom_checks(SetFunctional("weird", evaluator), samples)
    assert report.result("I").status == "fail"
    c_result = report.result("C")
    assert c_result.skipped >= 1 or c_result.status == "fail"


def test_cone_translate_coefficients_over_a_half_plane_cone():
    # C = {z1 + z2 >= 0} has a lineality line, so the stored point of ξc + C
    # is one representative of a line rather than ξc itself
    half_plane = Cone(2, ((1, 1), (1, -1), (-1, 1)), (1, 1))
    F = cone_translates(ScalarFunction(X2, (1, Fraction(-1, 2))), half_plane)
    assert F.values[0].points == ((2, 0),)
    assert cone_translate_coefficients(F) == [1, Fraction(-1, 2)]
    G = SimpleSetFunction(X2, (halfspace_set(half_plane, (1, 1), 3), UpperSet.full(half_plane)))
    assert cone_translate_coefficients(G) is None
    H = SimpleSetFunction(X2, (halfspace_set(half_plane, (1, 1), 3), cone_upper_set(half_plane)))
    assert cone_translate_coefficients(H) == [Fraction(3, 2), 0]


def test_cone_translate_coefficients_over_a_pointed_cone():
    F = cone_translates(ScalarFunction(X2, (3, Fraction(-2, 5))), R2)
    assert cone_translate_coefficients(F) == [3, Fraction(-2, 5)]
    G = SimpleSetFunction(X2, (F.values[0], point_plus_cone(R2, (1, 2))))
    assert cone_translate_coefficients(G) is None
    H = SimpleSetFunction(X2, (F.values[0], halfspace_set(R2, (1, 1), 1)))
    assert cone_translate_coefficients(H) is None
