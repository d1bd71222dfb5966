"""Conformance checker for set-valued functionals against the six
integral-representation axioms, with measure reconstruction.

A functional Φ mapping simple set-valued functions to upper sets is an Aumann
integral for some measure exactly when it is additive, positively
homogeneous, continuous from above, maps homogeneous halfspaces to
themselves, maps cone translates ξc+C to cone translates, and commutes with
pointwise supporting halfspaces.  The checker tests each property on a
seeded, replayable sample set, the set equalities (A), (P), (N) and (S) in
one loop up to their first counterexample; (C) checks its parametric chain
against the measure μ({x}) = k of φ(1_x c + C) = k c + C
(``indicator_measure``).  It reconstructs that measure from the singleton
indicators, and re-verifies the representation on a suite that mirrors how
a general function decomposes into halfspace and point-plus-cone pieces.

Six built-in mutants each corrupt the integral on their trigger, so that
exactly one check fails on the default samples.  One table holds each
mutant's home, a test on a probed input, and its corruption; the trigger is
the set of inputs the home selects from ``SampleSet.probes``, the inputs the
checks evaluate.  One collision rule refuses an input of a home that is
probed again outside that home.
"""

from __future__ import annotations

import functools
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .cone import Cone, ValidationError
from .integral import ExplicitChain, ParametricChain, integral_value
from .linalg import NEG_INF, Vec, clear_denominators, dot, format_rational, format_vector
from .measure_space import (
    AtomicMeasure,
    AtomicSpace,
    ScalarFunction,
    SimpleSetFunction,
    VectorFunction,
    cone_translates,
    constant_function,
    halfspace_function,
    vector_plus_cone,
)
from .upperset import (
    UpperSet,
    canonicalize,
    cone_upper_set,
    halfspace_set,
    sup_set,
)

AXIOM_ORDER = ("A", "P", "C", "N", "I", "S")
AXIOM_TITLES = {
    "A": "additivity",
    "P": "positive homogeneity",
    "C": "continuity from above",
    "N": "nullity on homogeneous halfspaces",
    "I": "indicator property",
    "S": "interchange with supporting halfspaces",
}


class SetFunctional:
    """A deterministic black-box map from set functions to upper sets.

    Evaluations are memoized on the canonical input, which is sound because
    equal canonical inputs must yield equal outputs.
    """

    def __init__(self, name: str, evaluator: Callable[[SimpleSetFunction], UpperSet]):
        self.name = name
        self._evaluator = evaluator
        self._memo: dict[SimpleSetFunction, UpperSet] = {}

    def __call__(self, F: SimpleSetFunction) -> UpperSet:
        cached = self._memo.get(F)
        if cached is None:
            cached = self._evaluator(F)
            if not isinstance(cached, UpperSet):
                raise ValidationError(f"functional {self.name} returned {type(cached).__name__}")
            self._memo[F] = cached
        return cached

    def close(self) -> None:
        """Close the evaluator when it holds a resource, such as a child process."""
        close = getattr(self._evaluator, "close", None)
        if close is not None:
            close()


def integral_functional(mu: AtomicMeasure, name: str | None = None) -> SetFunctional:
    return SetFunctional(name or "integral", lambda F: integral_value(F, mu))


# ---------------------------------------------------------------------------
# default sample set


def random_staircase(rng: random.Random, cone: Cone, max_points: int = 3) -> UpperSet:
    pts = [
        tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(cone.dim))
        for _ in range(rng.randint(1, max_points))
    ]
    return canonicalize(cone, points=pts)


def random_dual_direction(rng: random.Random, cone: Cone) -> Vec:
    coeffs = [rng.randint(0, 3) for _ in cone.dual_generators]
    if not any(coeffs):
        coeffs[rng.randrange(len(coeffs))] = 1
    return tuple(
        sum(c * w[i] for c, w in zip(coeffs, cone.dual_generators))
        for i in range(cone.dim)
    )


def cone_translate_scalar(S: UpperSet, cone: Cone) -> Fraction | None:
    """The λ with S = λc + C, or None.

    λc + C has the facets of C with each offset raised by <λc, w>; c interior
    makes <c, w> > 0, so the first facet fixes λ and the others verify it.
    """
    facets = cone_upper_set(cone).facets  # C's offsets are 0
    if S.kind != "proper" or len(S.facets) != len(facets):
        return None
    e, (c,) = clear_denominators([cone.interior_point])  # S's offsets n/d are λ<c, w>/e
    (_, n0), s0 = S.facets[0], dot(c, facets[0][0])
    if any(w != u or n * s0 != n0 * dot(c, u) for (w, n), (u, _) in zip(S.facets, facets)):
        return None
    return Fraction(n0 * e, S.denominator * s0)


def cone_translate_coefficients(F: SimpleSetFunction) -> list[Fraction] | None:
    """The ξ with F = ξc + C, or None when F is not of that shape."""
    coeffs = [cone_translate_scalar(v, F.cone) for v in F.values]
    return None if None in coeffs else coeffs


class SampleSet:
    """Seeded, replayable default samples for the six checks.

    Twenty random staircase-valued functions (at most six facets per value),
    all unordered pairs for additivity, the λ-grid {0, 1/2, 1, 3}, the dual
    generators plus random dual directions for nullity, every singleton
    indicator plus a strictly positive ξ for the indicator check, and two
    chains (one stabilizing, one parametric harmonic) for continuity.
    """

    LAMBDA_GRID = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3))
    CHAIN_INDICES = (1, 2, 4, 8)

    def __init__(
        self,
        space: AtomicSpace,
        cone: Cone,
        seed: int = 0,
        count: int = 20,
        extra_directions: int = 2,
    ):
        if count < 1:
            raise ValidationError("the sample set needs at least one function")
        if extra_directions < 0:
            raise ValidationError("the number of extra dual directions must be nonnegative")
        self.space = space
        self.cone = cone
        self.seed = seed
        self.count = count
        rng = random.Random(seed)
        # draws avoid single-facet values and cone translates, which keeps the
        # sample functions off the shapes that (N), (I) and (S) probe; multi-facet
        # values exist only over pointed cones in dimension >= 2
        min_facets = 2 if cone.is_pointed() and cone.dim >= 2 else 1
        self.functions: list[SimpleSetFunction] = []
        guard = 0
        while len(self.functions) < count:
            guard += 1
            if guard > 100 * count:
                raise ValidationError("sample generator failed to produce admissible functions")
            F = SimpleSetFunction(
                space, tuple(random_staircase(rng, cone) for _ in space.atoms)
            )
            if any(len(v.facets) < min_facets or len(v.facets) > 6 for v in F.values):
                continue
            if min_facets > 1 and cone_translate_coefficients(F) is not None:
                continue
            self.functions.append(F)
        self.pairs = list(itertools.combinations(range(count), 2))
        self.pair_sums = {
            (i, j): self.functions[i].oplus(self.functions[j]) for i, j in self.pairs
        }
        self.scaled = {
            (i, lam): self.functions[i].scale(lam)
            for i in range(count)
            for lam in self.LAMBDA_GRID
        }
        self.nullity_normals = list(cone.dual_generators) + [
            random_dual_direction(rng, cone) for _ in range(extra_directions)
        ]
        self.nullity_inputs = [
            constant_function(space, halfspace_set(cone, w, 0)) for w in self.nullity_normals
        ]
        singletons = [ScalarFunction.indicator(space, [atom]) for atom in space.atoms]
        randoms = [
            ScalarFunction(
                space, tuple(Fraction(rng.randint(0, 4), rng.choice((1, 2))) for _ in space.atoms)
            )
            for _ in range(2)
        ]
        self.positive_xi = ScalarFunction.constant(space, 1)
        self.indicator_xis = (
            [ScalarFunction.constant(space, 0)] + singletons + [self.positive_xi] + randoms
        )
        self.indicator_inputs = [cone_translates(xi, cone) for xi in self.indicator_xis]
        self.positive_input = self.indicator_inputs[1 + len(singletons)]
        # stabilizing chain: translates of a fresh limit function descend to it
        c = cone.interior_point
        self.stabilizing_limit = self.functions[5 % count].translate(
            VectorFunction(space, (tuple(Fraction(1, 7) * x for x in c),) * len(space))
        )
        steps = []
        for t in (Fraction(1), Fraction(1, 2), Fraction(0), Fraction(0)):
            shift = VectorFunction(space, (tuple(t * x for x in c),) * len(space))
            steps.append(self.stabilizing_limit.translate(shift))
        self.stabilizing_chain = ExplicitChain(tuple(steps), self.stabilizing_limit)
        self.parametric_chain = ParametricChain(space, cone, self.CHAIN_INDICES)
        self.chains = (self.stabilizing_chain, self.parametric_chain)
        # F.supporting(w), built once per (F, w); keyed on F itself, a copy with
        # replaced sample functions never reads a stale entry
        self.supporting = functools.cache(lambda F, w: F.supporting(w))

    def supporting_inputs(self, F: SimpleSetFunction, phi_value: UpperSet) -> list:
        """(w, F^w) for each of F's ``interchange_directions`` given φ(F)."""
        return [(w, self.supporting(F, w)) for w in interchange_directions(F, phi_value, self.cone)]

    def probes(self, phi: SetFunctional) -> list:
        """Every input the six checks evaluate, as (family, key, F), read off the
        families when called; (S)'s directions are taken under ``phi``."""
        out = [("functions", i, F) for i, F in enumerate(self.functions)]
        out += [("pair-sums", k, F) for k, F in self.pair_sums.items()]
        out += [("scaled", k, F) for k, F in self.scaled.items()]
        for family, chain in zip(("stabilizing-chain", "parametric-chain"), self.chains):
            out += [(family, k, F) for k, F in [*enumerate(chain.steps), ("limit", chain.limit)]]
        out += [("indicators", k, F) for k, F in enumerate(self.indicator_inputs)]
        out += [("nullity", k, F) for k, F in enumerate(self.nullity_inputs)]
        for i, F in enumerate(self.functions):
            inputs = self.supporting_inputs(F, phi(F))
            out += [("supporting-halfspace", (i, w), G) for w, G in inputs]
        return out

    def header_lines(self) -> list[str]:
        return [
            f"sample set: seed={self.seed} functions={self.count} "
            f"pairs={len(self.pairs)} lambda-grid={[str(l) for l in self.LAMBDA_GRID]}",
            f"nullity normals: {[format_vector(w) for w in self.nullity_normals]}",
            f"indicator samples: {len(self.indicator_xis)} "
            f"(singletons, zero, strictly positive, random)",
            f"chains: stabilizing (4 steps) and harmonic cone translates "
            f"at n={list(self.parametric_chain.indices)}",
        ]


# ---------------------------------------------------------------------------
# individual checks


@dataclass(frozen=True)
class CheckResult:
    axiom: str
    status: str  # pass | fail
    checked: int
    skipped: int = 0
    details: tuple[str, ...] = ()

    def describe(self) -> str:
        head = (
            f"({self.axiom}) {AXIOM_TITLES[self.axiom]}: {self.status.upper()} "
            f"[{self.checked} checked, {self.skipped} skipped]"
        )
        return "\n".join([head, *("    " + line for line in self.details)])


def _first_mismatch(axiom: str, cases) -> CheckResult:
    """Run a set-equality check over its cases up to the first mismatch.

    A case is None, when skipped, or (φ(input), expected, where, named sample
    functions, (label of φ(input), label of expected)); the report strings
    are built only for the failing case, and no case after it is drawn.
    """
    checked = skipped = 0
    for case in cases:
        if case is None:
            skipped += 1
            continue
        got, expected, where, named, (got_label, expected_label) = case
        checked += 1
        if not got.set_equal(expected):
            return CheckResult(axiom, "fail", checked, skipped, (
                f"counterexample {where}:",
                *(f"{name} = {F.describe()}" for name, F in named),
                f"{got_label} = {got.literal()}",
                f"{expected_label} = {expected.literal()}",
            ))
    return CheckResult(axiom, "pass", checked, skipped)


def check_additivity(phi: SetFunctional, samples: SampleSet) -> CheckResult:
    def cases():
        for i, j in samples.pairs:
            F, G = samples.functions[i], samples.functions[j]
            a, b = phi(F), phi(G)
            yield None if a.is_empty or b.is_empty else (
                phi(samples.pair_sums[(i, j)]), a.oplus(b), f"pair #{i},#{j}",
                (("F", F), ("G", G)), ("phi(F ⊕ G)", "phi(F) ⊕ phi(G)"),
            )

    return _first_mismatch("A", cases())


def check_positive_homogeneity(phi: SetFunctional, samples: SampleSet) -> CheckResult:
    def cases():
        for i, F in enumerate(samples.functions):
            base = phi(F)
            for lam in samples.LAMBDA_GRID:
                # scale already carries the conventions: 0·D = C and λ·∅ = ∅
                yield (
                    phi(samples.scaled[(i, lam)]), base.scale(lam),
                    f"at lambda = {format_rational(lam)}, sample #{i}",
                    (("F", F),), ("phi(lambda F)", "lambda phi(F)"),
                )

    return _first_mismatch("P", cases())


def check_continuity_from_above(phi: SetFunctional, samples: SampleSet) -> CheckResult:
    schedule_measure = indicator_measure(phi, samples.space, samples.cone)
    checked = skipped = 0
    details: list[str] = []
    for chain in samples.chains:
        if chain.needs_measure and schedule_measure is None:
            skipped += 1
            details.append(
                f"{chain.mode} chain skipped: no candidate measure for the deviation schedule"
            )
            continue
        if phi(chain.steps[0]).is_empty:
            skipped += 1
            details.append(f"{chain.mode} chain skipped: phi(F_1) is empty")
            continue
        report = chain.check(phi, schedule_measure)
        checked += 1
        if not report.ok:
            return CheckResult(
                "C", "fail", checked, skipped, tuple([f"{report.mode} chain:"] + list(report.lines))
            )
    return CheckResult("C", "pass", checked, skipped, tuple(details))


def check_nullity(phi: SetFunctional, samples: SampleSet) -> CheckResult:
    return _first_mismatch("N", (
        (phi(F), F.values[0], f"normal w = {format_vector(w)}", (),
         ("phi(constant H(w))", "expected H(w)"))
        for w, F in zip(samples.nullity_normals, samples.nullity_inputs)
    ))


def extract_scalar(S: UpperSet, cone: Cone):
    """The k >= 0 with S = k·c + C, or 'empty', or 'not_of_form'."""
    if S.is_empty:
        return "empty"
    k = cone_translate_scalar(S, cone)
    return "not_of_form" if k is None or k < 0 else k


def _shown(x) -> str:
    """An ``extract_scalar`` outcome or a weight as a report shows it."""
    return x if isinstance(x, str) else format_rational(x)


def _indicator_scalar(phi: SetFunctional, space: AtomicSpace, cone: Cone, names):
    """``extract_scalar`` of φ(1_A c + C) for the atoms A = ``names``."""
    return extract_scalar(phi(cone_translates(ScalarFunction.indicator(space, names), cone)), cone)


def indicator_measure(phi: SetFunctional, space: AtomicSpace, cone: Cone) -> AtomicMeasure | None:
    """The measure μ({x}) = k where φ(1_x c + C) = k c + C, which (C) checks
    its parametric chain against.  None, at the first input that rules it
    out, when φ(1_∅ c + C) or a singleton's value is not of that form or a
    singleton's value is empty; None as well when the total is 0."""
    if _indicator_scalar(phi, space, cone, []) == "not_of_form":
        return None
    weights = []
    for atom in space.atoms:
        k = _indicator_scalar(phi, space, cone, [atom])
        if isinstance(k, str):
            return None
        weights.append(k)
    mu = AtomicMeasure(space, tuple(weights))
    return mu if mu.total() > 0 else None


def check_indicator(phi: SetFunctional, samples: SampleSet) -> CheckResult:
    checked = 0
    for xi, F in zip(samples.indicator_xis, samples.indicator_inputs):
        out = extract_scalar(phi(F), samples.cone)
        checked += 1
        if out == "not_of_form":
            return CheckResult(
                "I",
                "fail",
                checked,
                0,
                (
                    f"counterexample xi = {xi.describe()}:",
                    f"phi(xi c + C) = {phi(F).literal()}",
                    "which is neither empty nor of the form k c + C with k >= 0",
                ),
            )
    pos_value = extract_scalar(phi(samples.positive_input), samples.cone)
    checked += 1
    if pos_value in ("empty", "not_of_form") or pos_value == 0:
        return CheckResult(
            "I",
            "fail",
            checked,
            0,
            (
                "nontriviality clause: the strictly positive xi = "
                f"{samples.positive_xi.describe()} classifies as {_shown(pos_value)}, "
                "expected a finite strictly positive k",
            ),
        )
    return CheckResult("I", "pass", checked, 0)


def interchange_directions(F: SimpleSetFunction, phi_value: UpperSet, cone: Cone) -> list[Vec]:
    """Finite surrogate for the quantifier over all dual directions.

    Facet normals of all values of F, the dual generators, and the facet
    normals of phi(F) itself; the last group makes the test exact for the
    integral in every dimension while staying sound for black boxes.
    """
    normals = {w for v in F.values for w in v.facet_normals()}
    normals.update(cone.dual_generators)
    if not phi_value.is_empty:
        normals.update(phi_value.facet_normals())
    return sorted(normals)


def check_interchange(phi: SetFunctional, samples: SampleSet) -> CheckResult:
    def cases():
        for i, F in enumerate(samples.functions):
            base = phi(F)
            if base.is_empty:
                yield None
                continue
            inputs = samples.supporting_inputs(F, base)
            yield (
                base, sup_set(samples.cone, [phi(G) for _, G in inputs]), f"sample #{i}",
                (("F", F),), ("phi(F)", f"sup over {len(inputs)} supporting-halfspace images"),
            )

    return _first_mismatch("S", cases())


# ---------------------------------------------------------------------------
# report, runner, reconstruction


@dataclass(frozen=True)
class AxiomReport:
    functional: str
    results: tuple[CheckResult, ...]
    header: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.results)

    def result(self, axiom: str) -> CheckResult:
        return next(r for r in self.results if r.axiom == axiom)

    def describe(self) -> str:
        lines = [f"axiom check: functional = {self.functional}"]
        lines += list(self.header)
        for r in self.results:
            lines.append(r.describe())
        lines.append(f"overall: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def run_axiom_checks(phi: SetFunctional, samples: SampleSet) -> AxiomReport:
    """All six checks, run and reported in axiom order."""
    results = (
        check_additivity(phi, samples),
        check_positive_homogeneity(phi, samples),
        check_continuity_from_above(phi, samples),
        check_nullity(phi, samples),
        check_indicator(phi, samples),
        check_interchange(phi, samples),
    )
    return AxiomReport(phi.name, results, tuple(samples.header_lines()))


@dataclass(frozen=True)
class ReconstructedMeasure:
    """The measure read off the singleton indicators, with its audit trail."""

    space: AtomicSpace
    outcomes: tuple  # per atom, extract_scalar of φ(1_x c + C)
    measure: AtomicMeasure | None
    failures: tuple[str, ...]  # report lines, each with its label

    @property
    def weights(self) -> tuple:
        """μ({x}) per atom, "infinite" where φ(1_x c + C) is not k c + C."""
        return tuple("infinite" if isinstance(k, str) else k for k in self.outcomes)

    @property
    def ok(self) -> bool:
        return self.measure is not None

    def describe(self) -> str:
        atoms = self.space.atoms
        lines = ["reconstructed measure:"]
        lines += [f"  mu({{{atom}}}) = {_shown(w)}" for atom, w in zip(atoms, self.weights)]
        lines += [
            f"  phi(1_{{{atom}}}) = {'infinite (empty value)' if k == 'empty' else _shown(k)}"
            for atom, k in zip(atoms, self.outcomes)
            if k != "not_of_form"
        ]
        lines += [f"  {f}" for f in self.failures]
        lines.append(f"  status: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def reconstruct_measure(phi: SetFunctional, space: AtomicSpace, cone: Cone) -> ReconstructedMeasure:
    """Read μ({x}) = φ(1_x) off the functional and re-verify additivity.

    Sampled subsets are every singleton, the empty set, every pair, and the
    whole space, in that order; an 'empty' classification marks an atom of
    infinite mass, and it or a failure stops the reading after the empty set.
    """
    outcomes = tuple(_indicator_scalar(phi, space, cone, [atom]) for atom in space.atoms)
    failures = [
        f"reading failure: phi(1_{{{atom}}} c + C) is not of the form k c + C"
        for atom, k in zip(space.atoms, outcomes)
        if k == "not_of_form"
    ]
    zero = _indicator_scalar(phi, space, cone, [])
    if zero != 0:
        failures.append(f"additivity failure: phi(1_∅) = {_shown(zero)}, expected 0")
    if failures or "empty" in outcomes:
        return ReconstructedMeasure(space, outcomes, None, tuple(failures))
    mu = AtomicMeasure(space, outcomes)
    for names in [*itertools.combinations(space.atoms, 2), space.atoms]:
        out, expected = _indicator_scalar(phi, space, cone, names), mu.mass_of(names)
        if out != expected:
            failures.append(
                f"additivity failure: phi(1_A) for A = {{{', '.join(names)}}} is {_shown(out)}, "
                f"expected {format_rational(expected)}"
            )
    if not failures and mu.total() == 0:
        failures.append("reading failure: reconstructed measure has zero total mass")
    return ReconstructedMeasure(space, outcomes, None if failures else mu, tuple(failures))


# ---------------------------------------------------------------------------
# representation suite


def representation_suite(space: AtomicSpace, cone: Cone, seed: int = 0):
    """Named families mirroring the decomposition of a general function:
    constant halfspaces, halfspace-valued with offsets (including an absent
    one), point-plus-cone, negative set-valued, and general mixtures."""
    rng = random.Random(seed)
    suite: list[tuple[str, SimpleSetFunction]] = []
    for w in list(cone.dual_generators) + [random_dual_direction(rng, cone)]:
        suite.append(
            (f"constant-halfspace {format_vector(w)}", constant_function(space, halfspace_set(cone, w, 0)))
        )
    for k in range(3):
        w = random_dual_direction(rng, cone)
        values = tuple(
            Fraction(rng.randint(-6, 6), rng.choice((1, 2))) for _ in space.atoms
        )
        suite.append(
            (f"halfspace-offsets #{k}", halfspace_function(space, cone, w, ScalarFunction(space, values)))
        )
    w = cone.dual_generators[0]
    absent = [NEG_INF] + [Fraction(rng.randint(-2, 2)) for _ in range(len(space) - 1)]
    suite.append(
        ("halfspace-with-absent-offset", halfspace_function(space, cone, w, ScalarFunction(space, tuple(absent))))
    )
    for k in range(3):
        f = VectorFunction(
            space,
            tuple(
                tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2))) for _ in range(cone.dim))
                for _ in space.atoms
            ),
        )
        suite.append((f"point-plus-cone #{k}", vector_plus_cone(f, cone)))
    for k in range(3):
        values = []
        for _ in space.atoms:
            pts = [tuple(Fraction(0) for _ in range(cone.dim))]
            for _ in range(rng.randint(1, 2)):
                coeffs = [Fraction(rng.randint(0, 3), 2) for _ in cone.generators]
                p = tuple(
                    -sum(c * g[i] for c, g in zip(coeffs, cone.generators))
                    for i in range(cone.dim)
                )
                pts.append(p)
            values.append(canonicalize(cone, points=pts))
        suite.append((f"negative-function #{k}", SimpleSetFunction(space, tuple(values))))
    negatives = [F for name, F in suite if name.startswith("negative-function")]
    for k, G in enumerate(negatives):
        f = VectorFunction(
            G.space,
            tuple(
                tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(cone.dim))
                for _ in space.atoms
            ),
        )
        suite.append((f"mixture #{k}", G.translate(f)))
    return suite


@dataclass(frozen=True)
class RepresentationReport:
    functional: str
    checked: int
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        lines = [
            f"representation check: functional = {self.functional} "
            f"({self.checked} suite members)"
        ]
        lines += [f"  {f}" for f in self.failures]
        lines.append(f"  status: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def verify_representation(
    phi: SetFunctional, mu_hat: AtomicMeasure, space: AtomicSpace, cone: Cone, seed: int = 0
) -> RepresentationReport:
    """Assert phi(F) = ∫F dμ̂ across the decomposition suite."""
    failures = []
    suite = representation_suite(space, cone, seed)
    for name, F in suite:
        lhs = phi(F)
        rhs = integral_value(F, mu_hat)
        if not lhs.set_equal(rhs):
            failures.append(
                f"{name}: phi(F) = {lhs.literal()} but ∫F dμ̂ = {rhs.literal()}"
            )
    return RepresentationReport(phi.name, len(suite), tuple(failures))


# ---------------------------------------------------------------------------
# the decomposition lemma


def decompose_nonneg(f: VectorFunction, cone: Cone) -> tuple[ScalarFunction, VectorFunction]:
    """Split f = ξc - g with ξ >= 0 and g valued in C, atom by atom.

    ξ(x) is the smallest admissible scalar: the positive part of the maximum
    of <f(x), w> over the vertices of the base polytope D(c).
    """
    base = cone.base_polytope()
    c = cone.interior_point
    xs = []
    gs = []
    for v in f.values:
        xi = max(Fraction(0), max(dot(v, w) for w in base))
        g = tuple(xi * ci - vi for ci, vi in zip(c, v))
        if not cone.contains(g):
            raise ValidationError("internal: decomposition left the cone")
        xs.append(xi)
        gs.append(g)
    return ScalarFunction(f.space, tuple(xs)), VectorFunction(f.space, tuple(gs))


# ---------------------------------------------------------------------------
# mutant catalog


MUTANT_NAMES = (
    "additivity-shift",
    "homogeneity-translate",
    "continuity-jump",
    "nullity-pad",
    "indicator-deform",
    "interchange-tighten",
)


def mutant_catalog(samples: SampleSet, mu: AtomicMeasure) -> dict[str, SetFunctional]:
    """Six corruptions of the integral, each tripping exactly one check.

    Each row of the table is name -> (home, corruption).  A home is a test on
    a probed sample input (family, key, F), and the mutant answers
    corruption(∫F dμ) on the inputs its home selects, ∫F dμ elsewhere.  An
    input of a home that is probed again outside that home is refused.
    """
    cone, space = samples.cone, samples.space
    if len(space) < 2:
        raise ValidationError("the mutant catalog needs at least two atoms")
    if not cone.is_pointed() or cone.dim < 2:
        raise ValidationError("the mutant catalog needs a pointed cone in dimension >= 2")
    if samples.count < 3:
        raise ValidationError("the mutant catalog needs at least three sample functions")
    base = integral_functional(mu)
    c, w0, xis = cone.interior_point, cone.dual_generators[0], samples.indicator_xis

    def shifted(v: UpperSet) -> UpperSet:
        return v.translate(c)

    table = {  # name -> (home, corruption)
        "additivity-shift": (lambda fam, key, F: (fam, key) == ("pair-sums", (0, 1)), shifted),
        "homogeneity-translate": (lambda fam, key, F: (fam, key) == ("scaled", (2, 3)), shifted),
        "continuity-jump": (
            lambda fam, key, F: fam == "stabilizing-chain" and F == samples.stabilizing_limit,
            lambda v: UpperSet.empty(cone),
        ),
        "nullity-pad": (lambda fam, key, F: fam == "nullity", shifted),
        "indicator-deform": (
            lambda fam, key, F: fam == "indicators" and len(set(xis[key].values)) > 1,
            lambda v: v.supporting_halfspace(w0),
        ),
        "interchange-tighten": (lambda fam, key, F: fam == "supporting-halfspace", shifted),
    }
    # (family, F, homes selecting it) per probe, with (S)'s directions the integral's
    probes = [
        (family, F, {name for name, (home, _) in table.items() if home(family, key, F)})
        for family, key, F in samples.probes(base)
    ]
    homes: dict[SimpleSetFunction, set[str]] = {}
    for _, F, selected in probes:
        homes.setdefault(F, set()).update(selected)
    for family, F, selected in probes:
        for name in table:
            if name in homes[F] - selected:
                raise ValidationError(f"mutant {name}: trigger fires on a {family} sample")
    return {
        name: SetFunctional(
            f"mutant:{name}",
            lambda F, name=name, bad=bad: bad(base(F)) if name in homes.get(F, ()) else base(F),
        )
        for name, (_, bad) in table.items()
    }
