"""Conformance checker for set-valued functionals against the six
integral-representation axioms, with measure reconstruction.

A functional Φ mapping simple set-valued functions to upper sets is an Aumann
integral for some measure exactly when it is additive, positively
homogeneous, continuous from above, maps homogeneous halfspaces to
themselves, maps cone translates ξc+C to cone translates, and commutes with
pointwise supporting halfspaces.  The checker tests each property on a
seeded, replayable sample set, reconstructs the measure from the singleton
indicators, and re-verifies the representation on a suite that mirrors how a
general function decomposes into halfspace and point-plus-cone pieces.

Six built-in mutants each corrupt the integral where a trigger fires, so that
exactly one check fails on the default samples.  One table holds each
mutant's trigger, corruption and home sample family, and the catalog
constructor asserts one isolation rule: no trigger fires on a default input
outside its home.
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
from .linalg import NEG_INF, Vec, dot, format_rational, format_vector
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
    Halfspace,
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


def is_halfspace_valued(F: SimpleSetFunction) -> bool:
    """Every value has at most one facet, at least one being a halfspace."""
    any_halfspace = False
    for v in F.values:
        if v.is_full:
            continue
        if len(v.halfspaces) != 1:
            return False
        any_halfspace = True
    return any_halfspace


def is_constant_zero_halfspace(F: SimpleSetFunction) -> bool:
    """F ≡ H(w): one identical zero-offset halfspace at every atom."""
    first = F.values[0]
    if first.is_full or len(first.halfspaces) != 1 or first.halfspaces[0].offset != 0:
        return False
    return all(v == first for v in F.values)


def cone_translate_scalar(S: UpperSet, cone: Cone) -> Fraction | None:
    """The λ with S = λc + C, or None.

    λc + C has the facets of C with each offset raised by <λc, w>; c interior
    makes <c, w> > 0, so the first facet fixes λ and the others verify it.
    """
    facets = cone_upper_set(cone).halfspaces
    if S.kind != "proper" or len(S.halfspaces) != len(facets):
        return None
    c = cone.interior_point
    lam = S.halfspaces[0].offset / dot(c, facets[0].normal)
    if S.halfspaces != tuple(Halfspace(w, b + lam * dot(c, w)) for w, b in facets):
        return None
    return lam


def cone_translate_coefficients(F: SimpleSetFunction) -> list[Fraction] | None:
    """The ξ with F = ξc + C, or None when F is not of that shape."""
    coeffs = [cone_translate_scalar(v, F.cone) for v in F.values]
    return None if None in coeffs else coeffs


def is_nonconstant_cone_translate(F: SimpleSetFunction) -> bool:
    coeffs = cone_translate_coefficients(F)
    return coeffs is not None and len(set(coeffs)) > 1


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
        # multi-facet values exist only over pointed cones in dimension >= 2;
        # there the generator avoids the mutant trigger families outright
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
            if any(len(v.halfspaces) < min_facets or len(v.halfspaces) > 6 for v in F.values):
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
    status: str  # pass | fail | skipped
    checked: int
    skipped: int = 0
    details: tuple[str, ...] = ()

    def describe(self) -> str:
        head = (
            f"({self.axiom}) {AXIOM_TITLES[self.axiom]}: {self.status.upper()} "
            f"[{self.checked} checked, {self.skipped} skipped]"
        )
        return "\n".join([head, *("    " + line for line in self.details)])


def check_additivity(phi: SetFunctional, samples: SampleSet) -> CheckResult:
    checked = skipped = 0
    for i, j in samples.pairs:
        F, G = samples.functions[i], samples.functions[j]
        a, b = phi(F), phi(G)
        if a.is_empty or b.is_empty:
            skipped += 1
            continue
        lhs = phi(samples.pair_sums[(i, j)])
        rhs = a.oplus(b)
        checked += 1
        if not lhs.set_equal(rhs):
            return CheckResult(
                "A",
                "fail",
                checked,
                skipped,
                (
                    f"counterexample pair #{i},#{j}:",
                    f"F = {F.describe()}",
                    f"G = {G.describe()}",
                    f"phi(F ⊕ G) = {lhs.literal()}",
                    f"phi(F) ⊕ phi(G) = {rhs.literal()}",
                ),
            )
    return CheckResult("A", "pass", checked, skipped)


def check_positive_homogeneity(phi: SetFunctional, samples: SampleSet) -> CheckResult:
    checked = 0
    for i in range(samples.count):
        F = samples.functions[i]
        base = phi(F)
        for lam in samples.LAMBDA_GRID:
            lhs = phi(samples.scaled[(i, lam)])
            # scale already carries the conventions: 0·D = C and λ·∅ = ∅
            rhs = base.scale(lam)
            checked += 1
            if not lhs.set_equal(rhs):
                return CheckResult(
                    "P",
                    "fail",
                    checked,
                    0,
                    (
                        f"counterexample at lambda = {format_rational(lam)}, sample #{i}:",
                        f"F = {F.describe()}",
                        f"phi(lambda F) = {lhs.literal()}",
                        f"lambda phi(F) = {rhs.literal()}",
                    ),
                )
    return CheckResult("P", "pass", checked, 0)


def check_continuity_from_above(
    phi: SetFunctional, samples: SampleSet, schedule_measure: AtomicMeasure | None
) -> CheckResult:
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
    checked = 0
    for w in samples.nullity_normals:
        target = halfspace_set(samples.cone, w, 0)
        F = constant_function(samples.space, target)
        got = phi(F)
        checked += 1
        if not got.set_equal(target):
            return CheckResult(
                "N",
                "fail",
                checked,
                0,
                (
                    f"counterexample normal w = {format_vector(w)}:",
                    f"phi(constant H(w)) = {got.literal()}",
                    f"expected H(w) = {target.literal()}",
                ),
            )
    return CheckResult("N", "pass", checked, 0)


def extract_scalar(S: UpperSet, cone: Cone):
    """The k >= 0 with S = k·c + C, or 'empty', or 'not_of_form'."""
    if S.is_empty:
        return "empty"
    k = cone_translate_scalar(S, cone)
    return "not_of_form" if k is None or k < 0 else k


def _shown(x) -> str:
    """An ``extract_scalar`` outcome or a weight as a report shows it."""
    return x if isinstance(x, str) else format_rational(x)


def check_indicator(phi: SetFunctional, samples: SampleSet):
    """Classify phi on cone translates; returns the check and the φ table."""
    cone, space = samples.cone, samples.space
    table: list[tuple[ScalarFunction, object]] = []
    checked = 0
    for xi in samples.indicator_xis:
        F = cone_translates(xi, cone)
        out = extract_scalar(phi(F), cone)
        checked += 1
        if out == "not_of_form":
            result = CheckResult(
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
            return result, table
        table.append((xi, "infinite" if out == "empty" else out))
    pos_value = extract_scalar(phi(cone_translates(samples.positive_xi, cone)), cone)
    checked += 1
    if pos_value in ("empty", "not_of_form") or pos_value == 0:
        result = CheckResult(
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
        return result, table
    return CheckResult("I", "pass", checked, 0), table


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
    checked = skipped = 0
    for i in range(samples.count):
        F = samples.functions[i]
        base = phi(F)
        if base.is_empty:
            skipped += 1
            continue
        directions = interchange_directions(F, base, samples.cone)
        pieces = [phi(samples.supporting(F, w)) for w in directions]
        rhs = sup_set(samples.cone, pieces)
        checked += 1
        if not base.set_equal(rhs):
            return CheckResult(
                "S",
                "fail",
                checked,
                skipped,
                (
                    f"counterexample sample #{i}:",
                    f"F = {F.describe()}",
                    f"phi(F) = {base.literal()}",
                    f"sup over {len(directions)} supporting-halfspace images = {rhs.literal()}",
                ),
            )
    return CheckResult("S", "pass", checked, skipped)


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


def candidate_measure_from_table(table, space: AtomicSpace) -> AtomicMeasure | None:
    """Measure with μ({x}) = φ(1_x), when every singleton value is finite."""
    weights = {}
    for xi, value in table:
        atoms = [a for a in space.atoms if xi.value(a) == 1]
        zeros = [a for a in space.atoms if xi.value(a) == 0]
        if len(atoms) == 1 and len(zeros) == len(space) - 1:
            if value == "infinite":
                return None
            weights[atoms[0]] = value
    if len(weights) != len(space):
        return None
    mu = AtomicMeasure(space, tuple(weights[a] for a in space.atoms))
    if mu.total() == 0:
        return None
    return mu


def run_axiom_checks(phi: SetFunctional, samples: SampleSet) -> AxiomReport:
    """All six checks, reported in axiom order.

    The indicator check runs first internally: its φ table supplies the
    candidate measure that the parametric continuity schedule is checked
    against.
    """
    indicator_result, table = check_indicator(phi, samples)
    schedule_measure = candidate_measure_from_table(table, samples.space)
    results = (
        check_additivity(phi, samples),
        check_positive_homogeneity(phi, samples),
        check_continuity_from_above(phi, samples, schedule_measure),
        check_nullity(phi, samples),
        indicator_result,
        check_interchange(phi, samples),
    )
    return AxiomReport(phi.name, results, tuple(samples.header_lines()))


@dataclass(frozen=True)
class ReconstructedMeasure:
    """The measure read off the singleton indicators, with its audit trail."""

    space: AtomicSpace
    weights: tuple  # Fraction or the string "infinite"
    measure: AtomicMeasure | None
    phi_table: tuple[tuple[str, str], ...]
    additivity_failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.measure is not None and not self.additivity_failures

    def describe(self) -> str:
        lines = ["reconstructed measure:"]
        for atom, w in zip(self.space.atoms, self.weights):
            lines.append(f"  mu({{{atom}}}) = {_shown(w)}")
        for name, value in self.phi_table:
            lines.append(f"  phi({name}) = {value}")
        for f in self.additivity_failures:
            lines.append(f"  additivity failure: {f}")
        lines.append(f"  status: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines)


def reconstruct_measure(phi: SetFunctional, space: AtomicSpace, cone: Cone) -> ReconstructedMeasure:
    """Read μ({x}) = φ(1_x) off the functional and re-verify additivity.

    Sampled subsets are the empty set, every singleton, every pair, and the
    whole space; an 'empty' classification marks an atom of infinite mass.
    """

    def phi_of(names) -> object:
        xi = ScalarFunction.indicator(space, names)
        return extract_scalar(phi(cone_translates(xi, cone)), cone)

    weights = []
    table = []
    failures = []
    infinite = False
    for atom in space.atoms:
        out = phi_of([atom])
        if out == "not_of_form":
            failures.append(f"phi(1_{{{atom}}} c + C) is not of the form k c + C")
            weights.append("infinite")
            continue
        if out == "empty":
            infinite = True
            weights.append("infinite")
            table.append((f"1_{{{atom}}}", "infinite (empty value)"))
            continue
        weights.append(out)
        table.append((f"1_{{{atom}}}", format_rational(out)))

    zero = phi_of([])
    if zero != 0:
        failures.append(f"phi(1_∅) = {_shown(zero)}, expected 0")
    subsets = [list(pair) for pair in itertools.combinations(space.atoms, 2)] + [list(space.atoms)]
    finite = not infinite and not failures
    if finite:
        for names in subsets:
            out = phi_of(names)
            expected = sum(
                (weights[space.index(a)] for a in names), Fraction(0)
            )
            if out != expected:
                failures.append(
                    f"phi(1_A) for A = {{{', '.join(names)}}} is {_shown(out)}, "
                    f"expected {format_rational(expected)}"
                )
    measure = None
    if finite and not failures:
        mu = AtomicMeasure(space, tuple(weights))
        if mu.total() > 0:
            measure = mu
        else:
            failures.append("reconstructed measure has zero total mass")
    return ReconstructedMeasure(space, tuple(weights), measure, tuple(table), tuple(failures))


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

    Each row of the table is name -> (trigger, corruption, home): the mutant
    answers corruption(∫F dμ) where trigger(F) holds and ∫F dμ elsewhere.  A
    home is a sample family, or one (family, key) sample of it, and
    `_assert_isolation` verifies that no trigger fires outside its home.
    """
    cone, space = samples.cone, samples.space
    if len(space) < 2:
        raise ValidationError("the mutant catalog needs at least two atoms")
    if not cone.is_pointed() or cone.dim < 2:
        raise ValidationError("the mutant catalog needs a pointed cone in dimension >= 2")
    if samples.count < 3:
        raise ValidationError("the mutant catalog needs at least three sample functions")
    base = integral_functional(mu)
    c, w0 = cone.interior_point, cone.dual_generators[0]
    f_shift = samples.pair_sums[(0, 1)]
    f_scaled = samples.scaled[(2, Fraction(3))]
    f_jump = samples.stabilizing_limit

    def shifted(v: UpperSet) -> UpperSet:
        return v.translate(c)

    table = {
        "additivity-shift": (lambda F: F == f_shift, shifted, ("pair-sums", (0, 1))),
        "homogeneity-translate": (lambda F: F == f_scaled, shifted, ("scaled", (2, Fraction(3)))),
        "continuity-jump": (
            lambda F: F == f_jump, lambda v: UpperSet.empty(cone), ("stabilizing-chain", None)
        ),
        "nullity-pad": (is_constant_zero_halfspace, shifted, ("nullity", None)),
        "indicator-deform": (
            is_nonconstant_cone_translate,
            lambda v: v.supporting_halfspace(w0),
            ("indicators", None),
        ),
        "interchange-tighten": (
            lambda F: is_halfspace_valued(F) and not is_constant_zero_halfspace(F),
            shifted,
            ("supporting-halfspace", None),
        ),
    }
    _assert_isolation(samples, base, table)
    return {
        name: SetFunctional(
            f"mutant:{name}",
            lambda F, hit=trigger, bad=corruption: bad(base(F)) if hit(F) else base(F),
        )
        for name, (trigger, corruption, _) in table.items()
    }


def _assert_isolation(samples: SampleSet, base: SetFunctional, table) -> None:
    """No trigger of ``table`` fires on a default input outside its home.

    The inputs are every sample family the checks probe, with the supporting
    halfspaces of each sample function under ``base``, the integral the
    mutants corrupt.  A tightened direction must also bind on sample #0.
    """
    cone, space = samples.cone, samples.space
    entries = [("functions", i, F) for i, F in enumerate(samples.functions)]
    entries += [("pair-sums", k, F) for k, F in samples.pair_sums.items()]
    entries += [("scaled", k, F) for k, F in samples.scaled.items()]
    for family, chain in zip(("stabilizing-chain", "parametric-chain"), samples.chains):
        entries += [(family, k, F) for k, F in enumerate(chain.steps)]
        entries += [(family, "limit", chain.limit)]
    entries += [
        ("indicators", k, cone_translates(xi, cone)) for k, xi in enumerate(samples.indicator_xis)
    ]
    entries += [
        ("nullity", k, constant_function(space, halfspace_set(cone, w, 0)))
        for k, w in enumerate(samples.nullity_normals)
    ]
    tightened = table["interchange-tighten"][0]
    binding = False
    for i, F in enumerate(samples.functions):
        value = base(F)
        facets = set(value.facet_normals())
        for w in interchange_directions(F, value, cone):
            Fw = samples.supporting(F, w)
            entries.append(("supporting-halfspace", (i, w), Fw))
            binding = binding or (i == 0 and w in facets and tightened(Fw))

    for family, key, F in entries:
        for name, (trigger, _, home) in table.items():
            if trigger(F) and home not in ((family, None), (family, key)):
                raise ValidationError(f"mutant {name}: trigger fires on a {family} sample")
    if not binding:
        raise ValidationError("mutant interchange-tighten: no tightened direction binds on sample #0")
