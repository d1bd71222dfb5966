"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact rational arithmetic; no tolerances appear anywhere
except the declared deviation schedule of the parametric chain, which is
itself exact.
"""

import random
from fractions import Fraction

import pytest

from uppersets import Cone, orthant
from uppersets.axioms import (
    SampleSet,
    integral_functional,
    decompose_nonneg,
    mutant_catalog,
    reconstruct_measure,
    run_axiom_checks,
    verify_representation,
)
from uppersets.integral import (
    ExplicitChain,
    ParametricChain,
    aumann_integral,
    integral_over,
    monotone_limit_check,
    selection_oracle,
    weighted_support_sum,
)
from uppersets.linalg import NEG_INF
from uppersets.measure_space import (
    AtomicMeasure,
    ScalarFunction,
    SimpleSetFunction,
    VectorFunction,
    constant_function,
    halfspace_function,
    space,
    vector_plus_cone,
    preimage_identity_check,
)
from uppersets.upperset import (
    canonicalize,
    cone_upper_set,
    halfspace_set,
    point_plus_cone,
)

R2 = orthant(2)
R3 = orthant(3)
WEDGE = Cone(2, ((1, 0), (1, 1)), (2, 1))
CONES = (R2, WEDGE, R3)


def report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def rnd_rational(rng, lo=-5, hi=5, dens=(1, 2)):
    return Fraction(rng.randint(lo, hi), rng.choice(dens))


def rnd_space(rng, max_atoms=5):
    return space(*[f"a{i}" for i in range(rng.randint(2, max_atoms))])


def rnd_measure(rng, sp, allow_zero=True):
    weights = {}
    for a in sp.atoms:
        w = rng.randint(0 if allow_zero else 1, 4)
        weights[a] = Fraction(w, rng.choice((1, 2)))
    if all(v == 0 for v in weights.values()):
        weights[sp.atoms[0]] = Fraction(1)
    return AtomicMeasure.from_map(sp, weights)


def rnd_dual_direction(rng, cone):
    coeffs = [rng.randint(0, 3) for _ in cone.dual_generators]
    if not any(coeffs):
        coeffs[0] = 1
    return tuple(
        sum(c * w[i] for c, w in zip(coeffs, cone.dual_generators))
        for i in range(cone.dim)
    )


def rnd_staircase(rng, cone, max_points=3):
    pts = [
        tuple(rnd_rational(rng, -4, 4) for _ in range(cone.dim))
        for _ in range(rng.randint(1, max_points))
    ]
    return canonicalize(cone, points=pts)


def rnd_set_function(rng, sp, cone):
    return SimpleSetFunction(sp, tuple(rnd_staircase(rng, cone) for _ in sp.atoms))


def test_criterion_1_halfspace_valued_integrals():
    rng = random.Random(101)
    ok = True
    for trial in range(25):
        cone = CONES[trial % len(CONES)]
        sp = rnd_space(rng)
        mu = rnd_measure(rng, sp)
        w = rnd_dual_direction(rng, cone)
        values = []
        for a in sp.atoms:
            if mu.weight(a) == 0 and rng.random() < 0.5:
                values.append(NEG_INF)  # -inf offsets only on zero-weight atoms
            elif trial == 0:
                values.append(Fraction(0))  # the xi ≡ 0 case gives H(w)
            else:
                values.append(rnd_rational(rng))
        xi = ScalarFunction(sp, tuple(values))
        F = halfspace_function(sp, cone, w, xi)
        got = aumann_integral(F, mu).value
        expected = halfspace_set(cone, w, xi.integral(mu))
        ok = ok and got.set_equal(expected)
    report(1, "halfspace-valued integrals reproduce the offset integral", ok)


def test_criterion_2_point_plus_cone_integrals():
    rng = random.Random(202)
    ok = True
    for trial in range(25):
        cone = CONES[trial % len(CONES)]
        sp = rnd_space(rng)
        mu = rnd_measure(rng, sp)
        f = VectorFunction(
            sp,
            tuple(
                tuple(rnd_rational(rng) for _ in range(cone.dim)) for _ in sp.atoms
            ),
        )
        got = aumann_integral(vector_plus_cone(f, cone), mu).value
        expected = point_plus_cone(cone, f.integral(mu))
        ok = ok and got.set_equal(expected)
    report(2, "point-plus-cone integrals translate by the vector integral", ok)


def test_criterion_3_integral_laws():
    rng = random.Random(303)
    ok = True
    for trial in range(50):
        cone = CONES[trial % 2]  # keep the law sweep at m = 2 for speed
        sp = rnd_space(rng, max_atoms=4)
        mu = rnd_measure(rng, sp)
        F = rnd_set_function(rng, sp, cone)
        G = rnd_set_function(rng, sp, cone)
        # additivity
        lhs = aumann_integral(F.oplus(G), mu).value
        rhs = aumann_integral(F, mu).value.oplus(aumann_integral(G, mu).value)
        ok = ok and lhs.set_equal(rhs)
        # positive homogeneity including the zero convention
        lam = rng.choice((Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3)))
        ok = ok and aumann_integral(F.scale(lam), mu).value.set_equal(
            aumann_integral(F, mu).value.scale(lam)
        )
        # the cone integrates to itself
        ok = ok and aumann_integral(constant_function(sp, cone_upper_set(cone)), mu).value.set_equal(
            cone_upper_set(cone)
        )
        # null sets integrate to the cone
        null_atoms = [a for a in sp.atoms if mu.weight(a) == 0]
        ok = ok and integral_over(F, mu, null_atoms).value.set_equal(cone_upper_set(cone))
    report(3, "additivity, homogeneity, cone neutrality, null subsets", ok)


def test_criterion_4_support_certificates():
    rng = random.Random(404)
    ok = True
    for trial in range(50):
        cone = CONES[trial % len(CONES)]
        sp = rnd_space(rng, max_atoms=4)
        mu = rnd_measure(rng, sp)
        F = rnd_set_function(rng, sp, cone)
        res = aumann_integral(F, mu)
        ok = ok and res.certificate_ok()
        for _ in range(100):
            w = rnd_dual_direction(rng, cone)
            ok = ok and res.value.support(w) == weighted_support_sum(F, mu, w)
    report(4, "support certificates at facets and random dual directions", ok)


def test_criterion_5_selection_oracle():
    rng = random.Random(505)
    ok = True
    for trial in range(50):
        cone = CONES[trial % 2]
        sp = rnd_space(rng, max_atoms=4)
        mu = rnd_measure(rng, sp)
        F = rnd_set_function(rng, sp, cone)
        if trial % 7 == 0:  # mix in values with lineality
            w = rnd_dual_direction(rng, cone)
            F = SimpleSetFunction(
                sp,
                (halfspace_set(cone, w, rnd_rational(rng)),) + F.values[1:],
            )
        rep = selection_oracle(F, mu, trials=1000, seed=rng.randint(0, 10**6))
        ok = ok and rep.passed
    report(5, "selection oracle: containment, attainment, upper-set identity", ok)


def test_criterion_6_monotone_convergence():
    rng = random.Random(606)
    ok = True
    # stabilizing chains: exact equality of the inf with the limit integral
    for trial in range(10):
        cone = CONES[trial % 2]
        sp = rnd_space(rng, max_atoms=4)
        mu = rnd_measure(rng, sp)
        limit = rnd_set_function(rng, sp, cone)
        c = cone.interior_point
        steps = []
        for t in (Fraction(2), Fraction(1), Fraction(0), Fraction(0)):
            shift = VectorFunction(sp, (tuple(t * x for x in c),) * len(sp))
            steps.append(limit.translate(shift))
        rep = monotone_limit_check(ExplicitChain(tuple(steps), limit), mu)
        ok = ok and rep.ok
    # the parametric chain meets its declared schedule at every n <= 64
    for cone in (R2, WEDGE):
        sp = space("x1", "x2", "x3")
        mu = rnd_measure(rng, sp, allow_zero=False)
        chain = ParametricChain(sp, cone, tuple(range(1, 65)))
        rep = monotone_limit_check(chain, mu)
        ok = ok and rep.ok
    report(6, "monotone convergence, exact and scheduled", ok)


@pytest.fixture(scope="module")
def five_atom_setups():
    sp1 = space("a0", "a1", "a2", "a3", "a4")
    sp2 = space("b0", "b1", "b2", "b3", "b4")
    return (
        (sp1, R2, SampleSet(sp1, R2, seed=11)),
        (sp2, WEDGE, SampleSet(sp2, WEDGE, seed=12)),
    )


def test_criterion_7_integral_satisfies_theorem(five_atom_setups):
    rng = random.Random(707)
    ok = True
    cases = [five_atom_setups[0]] * 3 + [five_atom_setups[1]] * 2
    for idx, (sp, cone, samples) in enumerate(cases):
        mu = rnd_measure(rng, sp)
        phi = integral_functional(mu)
        axioms = run_axiom_checks(phi, samples)
        ok = ok and axioms.passed
        rec = reconstruct_measure(phi, sp, cone)
        ok = ok and rec.ok and rec.measure == mu
        rep = verify_representation(phi, rec.measure, sp, cone, seed=idx)
        ok = ok and rep.passed
    report(7, "integral passes all six axioms; measure reconstructed exactly", ok)


def test_criterion_8_mutants_are_singly_detected(five_atom_setups):
    sp, cone, samples = five_atom_setups[0]
    mu = AtomicMeasure.from_map(
        sp, {"a0": 1, "a1": 2, "a2": Fraction(1, 2), "a3": 1, "a4": 3}
    )
    catalog = mutant_catalog(samples, mu)
    targets = {
        "additivity-shift": "A",
        "homogeneity-translate": "P",
        "continuity-jump": "C",
        "nullity-pad": "N",
        "indicator-deform": "I",
        "interchange-tighten": "S",
    }
    ok = True
    detections = 0
    false_positives = 0
    for name, phi in catalog.items():
        result = run_axiom_checks(phi, samples)
        statuses = {r.axiom: r.status for r in result.results}
        if statuses[targets[name]] == "fail":
            detections += 1
        false_positives += sum(
            1 for ax, st in statuses.items() if ax != targets[name] and st != "pass"
        )
    ok = detections == 6 and false_positives == 0
    print(f"  mutant detections: {detections}/6, false positives: {false_positives}")
    report(8, "each mutant fails exactly its targeted axiom", ok)


def test_criterion_9_decomposition_lemma():
    rng = random.Random(909)
    ok = True
    for trial in range(100):
        cone = CONES[trial % len(CONES)]
        sp = rnd_space(rng, max_atoms=4)
        f = VectorFunction(
            sp,
            tuple(
                tuple(rnd_rational(rng, -8, 8) for _ in range(cone.dim))
                for _ in sp.atoms
            ),
        )
        xi, g = decompose_nonneg(f, cone)
        c = cone.interior_point
        for a in sp.atoms:
            x, gv, fv = xi.value(a), g.value(a), f.value(a)
            ok = ok and x >= 0 and cone.contains(gv)
            ok = ok and tuple(x * ci - gi for ci, gi in zip(c, gv)) == fv
            if x > 0:
                for delta in (Fraction(1, 1000), x / 2, x):
                    candidate = tuple((x - delta) * ci - fi for ci, fi in zip(c, fv))
                    ok = ok and not cone.contains(candidate)
    report(9, "decomposition f = xi*c - g with minimal nonnegative xi", ok)


def test_criterion_10_preimage_identity():
    rng = random.Random(1010)
    ok = True
    for trial in range(500):
        cone = CONES[trial % len(CONES)]
        sp = rnd_space(rng, max_atoms=3)
        values = []
        for _ in sp.atoms:
            if rng.random() < 0.2:
                w = rnd_dual_direction(rng, cone)
                values.append(halfspace_set(cone, w, rnd_rational(rng)))
            else:
                values.append(rnd_staircase(rng, cone, max_points=2))
        F = SimpleSetFunction(sp, tuple(values))
        y = tuple(rnd_rational(rng) for _ in range(cone.dim))
        ok = ok and preimage_identity_check(F, y)
    report(10, "preimage of point-minus-cone equals the membership set", ok)
