"""Aumann integrals of simple set-valued functions on finite atomic spaces.

The integral is computed as the exact Minkowski sum of the measure-scaled
values; the support-function representation is carried along as a certificate
(one equality per facet normal) rather than used as the constructor, so every
computed integral cross-checks itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Sequence

from .cone import ValidationError
from .ddm import rref_basis
from .linalg import (
    NEG_INF,
    Vec,
    dot,
    ext_add,
    format_rational,
    format_vector,
    vadd,
    vscale,
    vsub,
)
from .measure_space import (
    AtomicMeasure,
    ScalarFunction,
    SimpleSetFunction,
    VectorFunction,
    cone_translates,
    constant_function,
    indicator_modify,
    pick_selection,
)
from .upperset import UpperSet, cone_upper_set, inf_set


@dataclass(frozen=True)
class IntegralResult:
    """The integral's value plus the support-representation certificate.

    Each certificate row holds the facet normal, the support of the computed
    value there, and the measure-weighted sum of the pointwise supports; the
    two must be equal.
    """

    value: UpperSet
    support_certificate: tuple[tuple[Vec, Fraction, Fraction], ...]

    def certificate_ok(self) -> bool:
        return all(lhs == rhs for _, lhs, rhs in self.support_certificate)

    def certificate_table(self) -> str:
        lines = ["normal | support of integral | weighted sum of supports"]
        for w, lhs, rhs in self.support_certificate:
            mark = "" if lhs == rhs else "  << MISMATCH"
            lines.append(
                f"{format_vector(w)} | {format_rational(lhs)} | {format_rational(rhs)}{mark}"
            )
        return "\n".join(lines)


def weighted_support_sum(F: SimpleSetFunction, mu: AtomicMeasure, w) -> Fraction | float:
    """Σ μ(x)·support(F(x), w) with the zero-weight and -inf conventions.

    Zero-weight atoms contribute the support of C, which is 0 for w in the
    dual cone; a -inf support on a positive-weight atom forces -inf.
    """
    total: Fraction | float = Fraction(0)
    for weight, value in zip(mu.weights, F.values):
        if weight == 0:
            continue
        sigma = value.support(w)
        if sigma == NEG_INF:
            return NEG_INF
        total = ext_add(total, weight * sigma)
    return total


def aumann_integral(F: SimpleSetFunction, mu: AtomicMeasure) -> IntegralResult:
    """⊕ over atoms of μ(x)·F(x); zero-weight atoms contribute C, the
    neutral element, and are skipped."""
    if mu.space != F.space:
        raise ValidationError("measure and set function live on different spaces")
    if mu.total() == 0:
        raise ValidationError("the measure must be nonzero")
    value, *rest = [piece.scale(weight) for weight, piece in zip(mu.weights, F.values) if weight]
    for piece in rest:
        value = value.oplus(piece)
    certificate = tuple(
        (w, value.support(w), weighted_support_sum(F, mu, w)) for w in value.facet_normals()
    )
    return IntegralResult(value, certificate)


def integral_over(F: SimpleSetFunction, mu: AtomicMeasure, atoms) -> IntegralResult:
    """Integral of F over a subset of atoms: the integral of its C-modification."""
    return aumann_integral(indicator_modify(F, atoms), mu)


# ---------------------------------------------------------------------------
# selection oracle


@dataclass(frozen=True)
class OracleReport:
    trials: int
    seed: int
    value: UpperSet
    containment_failures: tuple = ()
    attainment_failures: tuple = ()
    attainment_witnesses: tuple = ()
    upper_set_ok: bool = True
    certificate_ok: bool = True

    @property
    def passed(self) -> bool:
        return (
            not self.containment_failures
            and not self.attainment_failures
            and self.upper_set_ok
            and self.certificate_ok
        )

    def describe(self) -> str:
        lines = [
            f"selection oracle: trials={self.trials} seed={self.seed}",
            f"integral value: {self.value.literal()}",
            f"containment: {'pass' if not self.containment_failures else 'FAIL'}"
            f" ({self.trials} random selections)",
        ]
        for point, sel in self.containment_failures[:3]:
            lines.append(f"  violating selection {sel} integrates to {format_vector(point)}")
        lines.append(
            f"attainment: {'pass' if not self.attainment_failures else 'FAIL'}"
            f" ({len(self.attainment_witnesses)} extreme points decomposed)"
        )
        for point, reason in self.attainment_failures[:3]:
            lines.append(f"  point {format_vector(point)}: {reason}")
        lines.append(f"upper-set identity (value ⊕ C = value): {'pass' if self.upper_set_ok else 'FAIL'}")
        lines.append(f"support certificate: {'pass' if self.certificate_ok else 'FAIL'}")
        return "\n".join(lines)


def _random_member(rng: random.Random, value: UpperSet) -> Vec:
    """A random point of a nonempty canonical set, exact."""
    pts = value.points
    weights = [rng.randint(0, 8) for _ in pts]
    if sum(weights) == 0:
        weights[rng.randrange(len(pts))] = 1
    total = sum(weights)
    point = tuple(
        sum((Fraction(w) * p[i] for w, p in zip(weights, pts)), Fraction(0)) / total
        for i in range(value.dim)
    )
    for r in value.rays:
        k = Fraction(rng.randint(0, 6), 2)
        if k:
            point = vadd(point, vscale(k, r))
    for l in value.lineality:
        k = Fraction(rng.randint(-3, 3))
        if k:
            point = vadd(point, vscale(k, l))
    return point


def _split(residual: Vec, generators: Sequence[Vec]) -> list[Fraction] | None:
    """Coefficients c with Σ c_j·g_j = residual, or None: one exact elimination
    over the rows (g_j ‖ e_j), which reduces (residual ‖ 0) to (0 ‖ -c)."""
    dim, n = len(residual), len(generators)
    rows = [tuple(g) + tuple(int(i == j) for i in range(n)) for j, g in enumerate(generators)]
    x = tuple(residual) + (0,) * n
    for b in rref_basis(rows, dim + n):
        c = next(i for i, t in enumerate(b) if t)
        if c >= dim:
            break
        x = vsub(x, vscale(Fraction(x[c]) / b[c], b))
    if any(x[:dim]):
        return None
    return [-t for t in x[dim:]]


def _attaining_selection(
    F: SimpleSetFunction, mu: AtomicMeasure, value: UpperSet, p: Vec
) -> tuple[Vec, ...] | None:
    """A selection f with Σ μ(x)·f(x) = p for a stored point p of the value.

    u, the sum of the facet normals tight at p, is interior to the normal
    cone of p's minimal face, and that face is the sum of the atoms' faces
    minimising <·, u> (Fukuda 2004).  Each positive-weight atom contributes
    its first stored minimiser; the residual, in the value's lineality space,
    is split over the atoms' lineality bases plus the fewest rays orthogonal
    to u that make the ray coefficients nonnegative.  Zero-weight atoms keep
    ``pick_selection``.
    """
    tight = [h.normal for h in value.halfspaces if dot(p, h.normal) == h.offset]
    u = tuple(map(sum, zip((0,) * F.cone.dim, *tight)))
    positive = [i for i, w in enumerate(mu.weights) if w]
    selection = list(pick_selection(F).values)
    for i in positive:
        selection[i] = min(F.values[i].points, key=lambda q: dot(q, u))
    residual = vsub(p, VectorFunction(F.space, selection).integral(mu))
    lineality = [(i, l) for i in positive for l in F.values[i].lineality]
    rays = [(i, r) for i in positive for r in F.values[i].rays if dot(r, u) == 0]
    for k in range(len(value.lineality) + 1):  # Carathéodory: dim L rays suffice
        for chosen in combinations(rays, k):
            generators = lineality + list(chosen)
            coeffs = _split(residual, [vscale(mu.weights[i], g) for i, g in generators])
            if coeffs is None or any(c < 0 for c in coeffs[len(lineality):]):
                continue
            for (i, g), c in zip(generators, coeffs):
                selection[i] = vadd(selection[i], vscale(c, g))
            return tuple(selection)
    return None


def selection_oracle(
    F: SimpleSetFunction, mu: AtomicMeasure, trials: int, seed: int
) -> OracleReport:
    """Check the selection-based definition against the computed integral.

    (a) containment: random integrable selections integrate into the value;
    (b) attainment: every stored point is the integral of a selection of
        pointwise minimisers (``_attaining_selection``), checked for
        pointwise membership and resummed exactly;
    (c) the value is a fixed point of ⊕ C.
    """
    if trials < 1:
        raise ValidationError("the oracle needs at least one trial")
    result = aumann_integral(F, mu)
    value = result.value
    rng = random.Random(seed)
    containment_failures = []
    for _ in range(trials):
        picks = tuple(_random_member(rng, v) for v in F.values)
        point = VectorFunction(F.space, picks).integral(mu)
        if not value.member(point):
            containment_failures.append((point, picks))

    attainment_failures = []
    witnesses = []
    for p in value.points:
        selection = _attaining_selection(F, mu, value, p)
        if selection is None:
            attainment_failures.append((p, "no exact decomposition across atoms"))
            continue
        outside = [a for a, v, q in zip(F.space.atoms, F.values, selection) if not v.member(q)]
        if outside:
            attainment_failures.append((p, f"decomposed piece at {outside[0]} leaves F({outside[0]})"))
        elif VectorFunction(F.space, selection).integral(mu) != p:
            attainment_failures.append((p, "decomposition does not resum to the point"))
        else:
            witnesses.append((p, selection))

    upper_ok = value.oplus(cone_upper_set(F.cone)).set_equal(value)
    return OracleReport(
        trials,
        seed,
        value,
        tuple(containment_failures),
        tuple(attainment_failures),
        tuple(witnesses),
        upper_ok,
        result.certificate_ok(),
    )


# ---------------------------------------------------------------------------
# decreasing chains (in the lattice order: pointwise growing sets)


@dataclass(frozen=True)
class ExplicitChain:
    """A finite nested family with its declared limit (the pointwise hull)."""

    steps: tuple[SimpleSetFunction, ...]
    limit: SimpleSetFunction

    def __post_init__(self):
        if not self.steps:
            raise ValidationError("a chain needs at least one step")


@dataclass(frozen=True)
class ParametricChain:
    """An index-parametrized nested family with a declared limit and schedule.

    ``factory(n)`` yields the n-th function; ``schedule(n, w, mu)`` bounds
    |support(∫F_n, w) - support(∫F_limit, w)| at facet normals w of the limit
    integral.
    """

    factory: Callable[[int], SimpleSetFunction]
    limit: SimpleSetFunction
    schedule: Callable[[int, Vec, AtomicMeasure], Fraction]
    indices: tuple[int, ...]

    def __post_init__(self):
        if not self.indices or any(n < 1 for n in self.indices):
            raise ValidationError("parametric chain indices must be positive")
        if list(self.indices) != sorted(set(self.indices)):
            raise ValidationError("parametric chain indices must be strictly increasing")


def harmonic_cone_chain(space, cone, indices: Sequence[int]) -> ParametricChain:
    """F_n ≡ (1/n)·c + C decreasing to the constant-C function.

    The exact deviation of the integrals' supports is mass·<c, w>/n, which is
    the declared schedule.
    """
    c = cone.interior_point

    def factory(n: int) -> SimpleSetFunction:
        xi = ScalarFunction.constant(space, Fraction(1, n))
        return cone_translates(xi, cone)

    def schedule(n: int, w, mu: AtomicMeasure) -> Fraction:
        return mu.total() * dot(c, w) / n

    return ParametricChain(factory, constant_function(space, cone_upper_set(cone)), schedule, tuple(indices))


@dataclass(frozen=True)
class ChainReport:
    mode: str
    ok: bool
    precondition_ok: bool
    lines: tuple[str, ...]

    def describe(self) -> str:
        status = "pass" if self.ok else "FAIL"
        head = f"chain check ({self.mode}): {status}"
        return "\n".join([head, *self.lines])


def _chain_precondition_explicit(chain: ExplicitChain) -> list[str]:
    problems = []
    for i in range(len(chain.steps) - 1):
        if not chain.steps[i].pointwise_subset_of(chain.steps[i + 1]):
            problems.append(f"step {i + 1} is not pointwise contained in step {i + 2}")
    last = chain.steps[-1]
    space, cone = last.space, last.cone
    for atom in space.atoms:
        family = [F.value(atom) for F in chain.steps]
        hull = inf_set(cone, family)
        if not hull.set_equal(chain.limit.value(atom)):
            problems.append(f"pointwise hull at {atom} differs from the declared limit")
    return problems


def monotone_limit_check(chain, mu: AtomicMeasure | None, functional=None) -> ChainReport:
    """Monotone convergence of integrals along a decreasing chain.

    Explicit chains are checked exactly; parametric chains check the declared
    support-deviation schedule at every facet normal of the limit integral.
    ``functional`` defaults to the Aumann integral for the given measure and
    may be any map from set functions to upper sets; an explicit chain given
    a functional never reads ``mu``.
    """
    evaluate = functional or (lambda F: aumann_integral(F, mu).value)
    lines: list[str] = []
    if isinstance(chain, ExplicitChain):
        problems = _chain_precondition_explicit(chain)
        if problems:
            return ChainReport("explicit", False, False, tuple(f"precondition: {p}" for p in problems))
        integrals = [evaluate(F) for F in chain.steps]
        limit_integral = evaluate(chain.limit)
        ok = True
        for i in range(len(integrals) - 1):
            if not integrals[i].subset_of(integrals[i + 1]):
                ok = False
                lines.append(f"integral at step {i + 1} not contained in step {i + 2}")
        hull = inf_set(chain.limit.cone, integrals)
        if not hull.set_equal(limit_integral):
            ok = False
            lines.append(
                f"inf of integrals {hull.literal()} differs from the limit integral "
                f"{limit_integral.literal()}"
            )
        else:
            lines.append(f"inf of {len(integrals)} integrals equals the limit integral exactly")
        return ChainReport("explicit", ok, True, tuple(lines))

    if isinstance(chain, ParametricChain):
        steps = [(n, chain.factory(n)) for n in chain.indices]
        for (n1, f1), (n2, f2) in zip(steps, steps[1:]):
            if not f1.pointwise_subset_of(f2):
                return ChainReport(
                    "parametric",
                    False,
                    False,
                    (f"precondition: step {n1} is not pointwise contained in step {n2}",),
                )
        if not steps[-1][1].pointwise_subset_of(chain.limit):
            return ChainReport(
                "parametric",
                False,
                False,
                (f"precondition: step {steps[-1][0]} is not pointwise contained in the limit",),
            )
        limit_integral = evaluate(chain.limit)
        normals = limit_integral.facet_normals()
        ok = True
        previous = None
        for n, F in steps:
            current = evaluate(F)
            if previous is not None and not previous.subset_of(current):
                ok = False
                lines.append(f"integral at index {n} breaks monotonicity")
            previous = current
            for w in normals:
                gap = abs(current.support(w) - limit_integral.support(w))
                bound = chain.schedule(n, w, mu)
                if gap > bound:
                    ok = False
                    lines.append(
                        f"n={n} normal {format_vector(w)}: deviation {format_rational(gap)} "
                        f"exceeds schedule {format_rational(bound)}"
                    )
        lines.append(
            f"checked indices {list(chain.indices)} at {len(normals)} facet normals of the limit"
        )
        return ChainReport("parametric", ok, True, tuple(lines))

    raise ValidationError(f"unknown chain type {type(chain).__name__}")
