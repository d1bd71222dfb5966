"""Aumann integrals of simple set-valued functions on finite atomic spaces.

The integral is computed as the exact Minkowski sum of the measure-scaled
values (``integral_value``); ``aumann_integral`` carries the support-function
representation along as a certificate, so every integral it computes
cross-checks itself: at each stored facet (w, n) of the value, its offset n/d
against the weighted sum of the atoms' supports at w, integer numerators each.
Every sum over atoms reads them through ``AtomicMeasure.pairs``.  The
selection oracle splits a point over generators by the kernel's ``modulo``.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import Sequence

from .cone import Cone, ValidationError, checked_vector
from .ddm import modulo, rref_basis
from .linalg import (
    INEXACT,
    NEG_INF,
    Value,
    Vec,
    clear_denominators,
    dot,
    format_rational,
    format_vector,
    read_number,
    vadd,
    vscale,
    vsub,
)
from .measure_space import (
    AtomicMeasure,
    AtomicSpace,
    ScalarFunction,
    SimpleSetFunction,
    VectorFunction,
    cone_translates,
    constant_function,
    indicator_modify,
    pick_selection,
)
from .upperset import UpperSet, cone_upper_set, in_dual_cone, inf_set, weighted_sum


class IntegralResult:
    """The integral's value plus the support-representation certificate.

    Each certificate row holds the facet normal, the support of the computed
    value there, and the measure-weighted sum of the pointwise supports; the
    two must be equal.
    """

    def __init__(self, value: UpperSet, support_certificate: tuple[tuple[Vec, Fraction, Fraction], ...]):
        self.value, self.support_certificate = value, support_certificate

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
    """Σ μ(x)·support(F(x), w) with the zero-weight and infinite conventions.

    Zero-weight atoms contribute C's support, 0 for w in the dual cone; a -inf
    support forces -inf.  The supports at the integer e·w are integer
    numerators (e > 0), summed over one common denominator.
    """
    e, (w,) = clear_denominators([checked_vector(F.cone.dim, w, "direction")])
    if not any(w):
        raise ValidationError("support direction must be nonzero")
    terms = mu.pairs(F.space, F.values)
    sigmas = [value._support_numerator(w) for _, value in terms]
    if None in sigmas:
        return NEG_INF
    d = lcm(*(q.denominator * v.denominator for q, v in terms))
    total = sum(s * q.numerator * d // (q.denominator * v.denominator) for (q, v), s in zip(terms, sigmas))
    return Fraction(total, d * e)


def integral_value(F: SimpleSetFunction, mu: AtomicMeasure) -> UpperSet:
    """⊕ over atoms of μ(x)·F(x), one ``weighted_sum``, which chooses how to
    add; zero-weight atoms contribute C, the neutral element, and are skipped."""
    terms = mu.pairs(F.space, F.values)
    if not terms:
        raise ValidationError("the measure must be nonzero")
    return weighted_sum(F.cone, terms)


def aumann_integral(F: SimpleSetFunction, mu: AtomicMeasure) -> IntegralResult:
    """The integral's value with its support certificate."""
    value = integral_value(F, mu)
    certificate = tuple(
        (w, Fraction(n, value.denominator), weighted_support_sum(F, mu, w)) for w, n in value.facets
    )
    return IntegralResult(value, certificate)


def integral_over(F: SimpleSetFunction, mu: AtomicMeasure, atoms) -> IntegralResult:
    """Integral of F over a subset of atoms: the integral of its C-modification."""
    return aumann_integral(indicator_modify(F, atoms), mu)


# ---------------------------------------------------------------------------
# selection oracle


class OracleReport:
    def __init__(
        self,
        trials: int,
        seed: int,
        value: UpperSet,
        containment_failures: tuple = (),
        attainment_failures: tuple = (),
        attainment_witnesses: tuple = (),
        upper_set_ok: bool = True,
        certificate_ok: bool = True,
    ):
        self.trials, self.seed, self.value = trials, seed, value
        self.containment_failures, self.attainment_failures = containment_failures, attainment_failures
        self.attainment_witnesses = attainment_witnesses
        self.upper_set_ok, self.certificate_ok = upper_set_ok, certificate_ok

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


def _random_member(rng: random.Random, value: UpperSet) -> tuple[int, Vec]:
    """A random point y/t of a nonempty canonical set, exact: y an integer
    vector over t = 2·d·Σ weights, d the denominator of the stored points."""
    pts = value.numerators
    weights = [rng.randint(0, 8) for _ in pts]
    if sum(weights) == 0:
        weights[rng.randrange(len(pts))] = 1
    half = value.denominator * sum(weights)
    y = [2 * sum(map(mul, weights, column)) for column in zip(*pts)]
    for r in value.rays:
        k = rng.randint(0, 6) * half
        y = [a + k * b for a, b in zip(y, r)]
    for l in value.lineality:
        k = rng.randint(-3, 3) * 2 * half
        y = [a + k * b for a, b in zip(y, l)]
    return 2 * half, tuple(y)


def _split(residual: Vec, generators: Sequence[Vec]) -> tuple[int, list[int]] | None:
    """(s, t) with Σ (t_j/s)·g_j = residual and s > 0, or None: ``modulo``
    reduces e·(residual ‖ 0), e its denominator, by the reduced basis vectors
    of the rows (g_j ‖ e_j) that pivot before column dim, to (0 ‖ -t) over s/e."""
    dim, n = len(residual), len(generators)
    rows = [tuple(g) + tuple(int(i == j) for i in range(n)) for j, g in enumerate(generators)]
    pivots = [(next(i for i, t in enumerate(b) if t), b) for b in rref_basis(rows, dim + n) if any(b[:dim])]
    e, (x,) = clear_denominators([residual])
    x, s = modulo(x + (0,) * n, pivots)
    if any(x[:dim]):
        return None
    return e * s, [-t for t in x[dim:]]


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
    e, (q,) = clear_denominators([p])  # p = q/e on the facet (w, n) iff <q, w>·d = n·e
    tight = [w for w, n in value.facets if dot(q, w) * value.denominator == n * e]
    u = tuple(map(sum, zip((0,) * F.cone.dim, *tight)))
    positive = mu.pairs(F.space, range(len(F.space)))
    selection = list(pick_selection(F).values)
    for _, i in positive:
        selection[i] = min(F.values[i].points, key=lambda q: dot(q, u))
    residual = vsub(p, VectorFunction(F.space, selection).integral(mu))
    lineality = [(m, i, l) for m, i in positive for l in F.values[i].lineality]
    rays = [(m, i, r) for m, i in positive for r in F.values[i].rays if dot(r, u) == 0]
    for k in range(len(value.lineality) + 1):  # Carathéodory: dim L rays suffice
        for chosen in combinations(rays, k):
            generators = lineality + list(chosen)
            split = _split(residual, [vscale(m, g) for m, _, g in generators])
            if split is None or any(t < 0 for t in split[1][len(lineality):]):
                continue
            s, coeffs = split
            for (_, i, g), t in zip(generators, coeffs):
                selection[i] = vadd(selection[i], vscale(Fraction(t, s), g))
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
    (c) the value is a fixed point of ⊕ C: every facet normal lies in C⁺.
    """
    if trials < 1:
        raise ValidationError("the oracle needs at least one trial")
    result = aumann_integral(F, mu)
    value = result.value
    rng = random.Random(seed)
    positive = [(i, w.numerator, w.denominator) for w, i in mu.pairs(F.space, range(len(F.space)))]
    containment_failures = []
    for _ in range(trials):
        picks = [_random_member(rng, v) for v in F.values]
        # Σ μ(x)·y/t over one denominator e: an atom of weight p/q adds p·e/(q·t)·y
        e = lcm(*(q * picks[i][0] for i, _, q in positive))
        terms = [(p * (e // (q * picks[i][0])), picks[i][1]) for i, p, q in positive]
        point = tuple(sum(k * y[j] for k, y in terms) for j in range(F.cone.dim))
        if not value.member_numerators(e, point):
            selection = tuple(tuple(Fraction(x, t) for x in y) for t, y in picks)
            containment_failures.append((tuple(Fraction(x, e) for x in point), selection))

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

    upper_ok = all(in_dual_cone(F.cone, w) for w in value.facet_normals())
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


class ExplicitChain(Value):
    """A finite nested family with its declared limit (the pointwise hull)."""

    FIELDS = ("steps", "limit")
    mode = "explicit"
    needs_measure = False

    def __init__(self, steps: tuple[SimpleSetFunction, ...], limit: SimpleSetFunction):
        if not steps:
            raise ValidationError("a chain needs at least one step")
        self.__dict__.update(steps=steps, limit=limit)

    def check(self, evaluate, mu: AtomicMeasure | None) -> ChainReport:
        """The steps nest with the declared limit as their pointwise hull, and
        so do their images; ``mu`` is not read."""
        problems = []
        for i in range(len(self.steps) - 1):
            if not self.steps[i].pointwise_subset_of(self.steps[i + 1]):
                problems.append(f"step {i + 1} is not pointwise contained in step {i + 2}")
        last = self.steps[-1]
        for atom in last.space.atoms:
            hull = inf_set(last.cone, [F.value(atom) for F in self.steps])
            if not hull.set_equal(self.limit.value(atom)):
                problems.append(f"pointwise hull at {atom} differs from the declared limit")
        if problems:
            return ChainReport(self.mode, False, tuple(f"precondition: {p}" for p in problems))
        integrals = [evaluate(F) for F in self.steps]
        limit_integral = evaluate(self.limit)
        ok = True
        lines = []
        for i in range(len(integrals) - 1):
            if not integrals[i].subset_of(integrals[i + 1]):
                ok = False
                lines.append(f"integral at step {i + 1} not contained in step {i + 2}")
        hull = inf_set(self.limit.cone, integrals)
        if not hull.set_equal(limit_integral):
            ok = False
            lines.append(
                f"inf of integrals {hull.literal()} differs from the limit integral "
                f"{limit_integral.literal()}"
            )
        else:
            lines.append(f"inf of {len(integrals)} integrals equals the limit integral exactly")
        return ChainReport(self.mode, ok, tuple(lines))


class ParametricChain(Value):
    """The harmonic family F_n ≡ (1/n)·c + C at the given indices, decreasing
    to the constant-C function.

    The family nests: for n < m, (1/n)c + C ⊆ (1/m)c + C since
    (1/n - 1/m)c ∈ C, and every step lies in the limit C.  ``schedule(n, w,
    mu)`` bounds |support(∫F_n, w) - support(∫C, w)| at facet normals w of
    the limit integral by ``rate``/n, a rate >= 0, or by the exact deviation
    mass·<c, w>/n when ``rate`` is None.
    """

    FIELDS = ("space", "cone", "indices", "rate")
    mode = "parametric"
    needs_measure = True

    def __init__(self, space: AtomicSpace, cone: Cone, indices: tuple[int, ...], rate: Fraction | None = None):
        error = "parametric chain index {!r} is not an integer"
        indices = tuple(read_number(n, error, True) for n in indices)
        if not indices or any(n < 1 for n in indices):
            raise ValidationError("parametric chain indices must be positive")
        if list(indices) != sorted(set(indices)):
            raise ValidationError("parametric chain indices must be strictly increasing")
        if rate is not None:
            rate = read_number(rate, "parametric chain rate " + INEXACT)
            if rate < 0:
                raise ValidationError("parametric chain rate must be nonnegative")
        self.__dict__.update(space=space, cone=cone, indices=indices, rate=rate)

    @functools.cached_property
    def steps(self) -> tuple[SimpleSetFunction, ...]:
        return tuple(
            cone_translates(ScalarFunction.constant(self.space, Fraction(1, n)), self.cone)
            for n in self.indices
        )

    @functools.cached_property
    def limit(self) -> SimpleSetFunction:
        return constant_function(self.space, cone_upper_set(self.cone))

    def schedule(self, n: int, w: Vec, mu: AtomicMeasure) -> Fraction:
        w = checked_vector(self.cone.dim, w, "direction")
        if self.rate is not None:
            return self.rate / n
        return mu.total() * dot(self.cone.interior_point, w) / n

    def check(self, evaluate, mu: AtomicMeasure) -> ChainReport:
        """The images nest and meet the schedule at every facet normal of the
        limit's image, or at C⁺'s generators when that image is ∅ or R^d."""
        limit_integral = evaluate(self.limit)
        normals, where = limit_integral.facet_normals(), "facet normals of the limit"
        if not normals:
            normals, where = self.cone.dual_generators, "generators of C⁺ (the limit's image has no facets)"
        lines: list[str] = []
        previous = None
        for n, F in zip(self.indices, self.steps):
            current = evaluate(F)
            if previous is not None and not previous.subset_of(current):
                lines.append(f"integral at index {n} breaks monotonicity")
            previous = current
            for w in normals:
                gap = abs(current.support(w) - limit_integral.support(w))
                bound = self.schedule(n, w, mu)
                if gap > bound:
                    lines.append(
                        f"n={n} normal {format_vector(w)}: deviation {format_rational(gap)} "
                        f"exceeds schedule {format_rational(bound)}"
                    )
        ok = not lines
        lines.append(f"checked indices {list(self.indices)} at {len(normals)} {where}")
        return ChainReport(self.mode, ok, tuple(lines))


class ChainReport:
    def __init__(self, mode: str, ok: bool, lines: tuple[str, ...]):
        self.mode, self.ok, self.lines = mode, ok, lines

    def describe(self) -> str:
        status = "pass" if self.ok else "FAIL"
        head = f"chain check ({self.mode}): {status}"
        return "\n".join([head, *self.lines])


def monotone_limit_check(chain, mu: AtomicMeasure) -> ChainReport:
    """Monotone convergence of the Aumann integrals for ``mu`` along a
    decreasing chain; ``chain.check(evaluate, mu)`` takes any other map."""
    return chain.check(lambda F: integral_value(F, mu), mu)
