"""Finite atomic measurable spaces and simple set-valued functions.

The σ-algebra is the power set of a finite atom list, so measurability is
automatic and the classical preimage identities become testable facts.  All
values are exact; functions are immutable and hashable, which the functional
checker uses for memoization.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .cone import Cone, ValidationError, checked_vector
from .linalg import INEXACT, NEG_INF, Value, Vec, dot, format_rational, read_number, vec
from .upperset import UpperSet, canonicalize, cone_upper_set, halfspace_set, point_plus_cone, sup_set


class AtomicSpace(Value):
    """Ordered finite list of atom identifiers; the σ-algebra is its power set."""

    FIELDS = ("atoms",)

    def __init__(self, atoms: tuple[str, ...]):
        if not atoms:
            raise ValidationError("a measurable space needs at least one atom")
        if len(set(atoms)) != len(atoms):
            raise ValidationError("atom identifiers must be distinct")
        self.__dict__["atoms"] = atoms

    def index(self, atom: str) -> int:
        try:
            return self.atoms.index(atom)
        except ValueError:
            raise ValidationError(f"unknown atom {atom!r}") from None

    def check_subset(self, names: Iterable[str]) -> tuple[str, ...]:
        """Validate a subset and return it in atom order, deduplicated."""
        chosen = set()
        for name in names:
            self.index(name)
            chosen.add(name)
        return tuple(a for a in self.atoms if a in chosen)

    def __len__(self) -> int:
        return len(self.atoms)


def space(*atoms: str) -> AtomicSpace:
    return AtomicSpace(tuple(atoms))


class AtomicMeasure(Value):
    """Nonnegative rational weight per atom."""

    FIELDS = ("space", "weights")

    def __init__(self, space: AtomicSpace, weights: tuple[Fraction, ...]):
        if len(weights) != len(space):
            raise ValidationError("measure must assign a weight per atom")
        ws = tuple(read_number(w, "measure weight " + INEXACT) for w in weights)
        for atom, w in zip(space.atoms, ws):
            if w < 0:
                raise ValidationError(f"negative weight {format_rational(w)} at atom {atom!r}")
        self.__dict__.update(space=space, weights=ws)

    @staticmethod
    def from_map(space: AtomicSpace, mapping: dict) -> "AtomicMeasure":
        """Missing atoms get weight zero."""
        space.check_subset(mapping)  # an unknown atom is refused
        return AtomicMeasure(space, tuple(mapping.get(a, 0) for a in space.atoms))

    def weight(self, atom: str) -> Fraction:
        return self.weights[self.space.index(atom)]

    def pairs(self, space: AtomicSpace, values) -> list[tuple[Fraction, object]]:
        """(μ(x), v) for each positive-weight atom x, in atom order, v the entry of
        ``values`` at x: the atoms every sum over μ reads, for a function on ``space``."""
        if space != self.space:
            raise ValidationError("measure and function live on different spaces")
        return [(w, v) for w, v in zip(self.weights, values) if w]

    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    def mass_of(self, names: Iterable[str]) -> Fraction:
        subset = self.space.check_subset(names)
        return sum((self.weight(a) for a in subset), Fraction(0))


class ScalarFunction(Value):
    """Atom-indexed exact scalars; -inf is allowed where a use site permits it."""

    FIELDS = ("space", "values")

    def __init__(self, space: AtomicSpace, values: tuple):
        if len(values) != len(space):
            raise ValidationError("scalar function must cover every atom")
        error = "scalar value " + INEXACT
        vals = tuple(v if type(v) is float and v == NEG_INF else read_number(v, error) for v in values)
        self.__dict__.update(space=space, values=vals)

    @staticmethod
    def constant(space: AtomicSpace, value) -> "ScalarFunction":
        return ScalarFunction(space, tuple(value for _ in space.atoms))

    @staticmethod
    def indicator(space: AtomicSpace, names: Iterable[str]) -> "ScalarFunction":
        subset = set(space.check_subset(names))
        return ScalarFunction(space, tuple(1 if a in subset else 0 for a in space.atoms))

    def value(self, atom: str):
        return self.values[self.space.index(atom)]

    def integral(self, mu: AtomicMeasure) -> Fraction:
        """Σ μ(x)·ξ(x); zero-weight atoms contribute nothing, even at -inf."""
        terms = mu.pairs(self.space, self.values)
        if any(v == NEG_INF for _, v in terms):
            raise ValidationError("integral of -inf over a positive-weight atom")
        return sum((w * v for w, v in terms), Fraction(0))

    def describe(self) -> str:
        parts = ", ".join(
            f"{a}: {format_rational(v)}" for a, v in zip(self.space.atoms, self.values)
        )
        return "{" + parts + "}"


class VectorFunction(Value):
    """Atom-indexed exact vectors."""

    FIELDS = ("space", "values")

    def __init__(self, space: AtomicSpace, values: tuple[Vec, ...]):
        if len(values) != len(space):
            raise ValidationError("vector function must cover every atom")
        vals = tuple(vec(v) for v in values)
        dims = {len(v) for v in vals}
        if len(dims) > 1:
            raise ValidationError("vector function values must share one dimension")
        self.__dict__.update(space=space, values=vals)

    def value(self, atom: str) -> Vec:
        return self.values[self.space.index(atom)]

    def integral(self, mu: AtomicMeasure) -> Vec:
        """Σ μ(x)·f(x)."""
        terms = mu.pairs(self.space, self.values)
        return tuple(sum((w * v[i] for w, v in terms), Fraction(0)) for i in range(len(self.values[0])))


class SimpleSetFunction(Value):
    """Atom-indexed family of nonempty upper sets over one cone."""

    FIELDS = ("space", "values")

    def __init__(self, space: AtomicSpace, values: tuple[UpperSet, ...]):
        if len(values) != len(space):
            raise ValidationError("set function must cover every atom")
        cones = {v.cone for v in values}
        if len(cones) != 1:
            raise ValidationError("set function values must share one ordering cone")
        for atom, v in zip(space.atoms, values):
            if v.is_empty:
                raise ValidationError(f"set function value at {atom!r} is empty")
        self.__dict__.update(space=space, values=values)

    @property
    def cone(self) -> Cone:
        return self.values[0].cone

    def value(self, atom: str) -> UpperSet:
        return self.values[self.space.index(atom)]

    def oplus(self, other: "SimpleSetFunction") -> "SimpleSetFunction":
        if self.space != other.space:
            raise ValidationError("set functions live on different spaces")
        return SimpleSetFunction(
            self.space, tuple(a.oplus(b) for a, b in zip(self.values, other.values))
        )

    def scale(self, lam) -> "SimpleSetFunction":
        return SimpleSetFunction(self.space, tuple(v.scale(lam) for v in self.values))

    def translate(self, f: VectorFunction) -> "SimpleSetFunction":
        if self.space != f.space:
            raise ValidationError("set function and vector function spaces differ")
        return SimpleSetFunction(
            self.space, tuple(v.translate(x) for v, x in zip(self.values, f.values))
        )

    def supporting(self, w) -> "SimpleSetFunction":
        """The pointwise supporting-halfspace function F^w."""
        return SimpleSetFunction(self.space, tuple(v.supporting_halfspace(w) for v in self.values))

    def pointwise_subset_of(self, other: "SimpleSetFunction") -> bool:
        if self.space != other.space:
            raise ValidationError("set functions live on different spaces")
        return all(a.subset_of(b) for a, b in zip(self.values, other.values))

    def describe(self) -> str:
        parts = "; ".join(
            f"{a}: {v.literal()}" for a, v in zip(self.space.atoms, self.values)
        )
        return "{" + parts + "}"


def constant_function(space: AtomicSpace, value: UpperSet) -> SimpleSetFunction:
    return SimpleSetFunction(space, tuple(value for _ in space.atoms))


def vector_plus_cone(f: VectorFunction, cone: Cone) -> SimpleSetFunction:
    """The function x ↦ f(x) + C."""
    return SimpleSetFunction(f.space, tuple(point_plus_cone(cone, v) for v in f.values))


def halfspace_function(space: AtomicSpace, cone: Cone, w, xi: ScalarFunction) -> SimpleSetFunction:
    """x ↦ {z : <z, w> >= ξ(x)}; ξ(x) = -inf gives the full space there."""
    if xi.space != space:
        raise ValidationError("scalar function lives on a different space")
    return SimpleSetFunction(space, tuple(halfspace_set(cone, w, v) for v in xi.values))


def cone_translates(xi: ScalarFunction, cone: Cone) -> SimpleSetFunction:
    """x ↦ ξ(x)·c + C with c the cone's distinguished interior point."""
    if NEG_INF in xi.values:
        raise ValidationError("cone translate needs finite scalars")
    c = cone.interior_point
    return SimpleSetFunction(
        xi.space,
        tuple(point_plus_cone(cone, tuple(v * x for x in c)) for v in xi.values),
    )


def indicator_modify(F: SimpleSetFunction, names: Iterable[str]) -> SimpleSetFunction:
    """The modification that keeps F on the given atoms and is C elsewhere."""
    subset = set(F.space.check_subset(names))
    background = cone_upper_set(F.cone)
    return SimpleSetFunction(
        F.space,
        tuple(v if a in subset else background for a, v in zip(F.space.atoms, F.values)),
    )


def point_minus_cone_rows(cone: Cone, y) -> list[tuple[Vec, Fraction]]:
    """H-rep rows of y - C, the 'point minus cone' test set."""
    y = checked_vector(cone.dim, y)
    return [(tuple(-x for x in w), -dot(y, w)) for w in cone.dual_generators]


def preimage(F: SimpleSetFunction, region) -> tuple[str, ...]:
    """Atoms x with F(x) ∩ region ≠ ∅, by canonicalizing the joint H-rep, which closing
    under C leaves empty or not; region is an UpperSet over F's cone, met by ``sup_set``,
    or rows (normal, offset), read beside F(x)'s stored facets as any H-rep is."""
    if isinstance(region, UpperSet):
        meets = (sup_set(F.cone, [v, region]) for v in F.values)
    else:
        region = list(region)
        meets = (canonicalize(F.cone, region, rows=[(w, n, v.denominator) for w, n in v.facets]) for v in F.values)
    return tuple(a for a, meet in zip(F.space.atoms, meets) if not meet.is_empty)


def preimage_identity_check(F: SimpleSetFunction, y) -> bool:
    """Whether F⁻¹(y - C) = {x : y ∈ F(x)}; a tested theorem, not a branch."""
    lhs = preimage(F, point_minus_cone_rows(F.cone, y))
    rhs = tuple(a for a, v in zip(F.space.atoms, F.values) if v.member(y))
    return lhs == rhs


def pick_selection(F: SimpleSetFunction) -> VectorFunction:
    """Deterministic selection: the lexicographically smallest stored point.

    Every canonical nonempty set carries at least one representative point
    (one per minimal face), so this always succeeds and the result satisfies
    pointwise membership.
    """
    return VectorFunction(F.space, tuple(v.points[0] for v in F.values))
