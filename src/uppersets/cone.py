"""The fixed ordering cone, its positive dual, and the compact base polytope."""

from __future__ import annotations

from fractions import Fraction

from .ddm import cone_vrep, rref_basis
from .linalg import ValidationError, Value, Vec, dot, format_vector, is_zero, primitive, read_number, vec

MAX_DIMENSION = 8


class DimensionMismatchError(ValidationError):
    """Operands live in different ambient dimensions."""


def checked_vector(dim: int, v, what: str = "vector") -> Vec:
    """A vector given from outside, checked to have ``dim`` entries (``what``
    names it in the error): as a tuple when every entry is an int, else by ``vec``."""
    v = tuple(v)
    if any(type(x) is not int for x in v):
        v = vec(v, what)
    if len(v) != dim:
        raise DimensionMismatchError(f"{what} has dimension {len(v)}, expected {dim}")
    return v


def dual_cone(generators: list, dim: int | None = None) -> list[Vec]:
    """Extreme rays of {w : <z, w> >= 0 for all z in cone(generators)}.

    The generated cone must be full-dimensional and different from the whole
    space, which makes the dual pointed and its extreme rays canonical.
    Applying the operation twice returns a generating set of the input cone.
    """
    if not generators:
        raise ValidationError("a cone needs at least one generator")
    dim = dim if dim is not None else len(generators[0])
    gens = [checked_vector(dim, g, "generator") for g in generators]
    if all(is_zero(g) for g in gens):
        raise ValidationError("all generators are zero")
    lineality, rays, *_ = cone_vrep(sorted(map(primitive, gens)), dim)
    if lineality:
        raise ValidationError(
            "cone has empty interior (its span is not the whole space); dual is not pointed"
        )
    if not rays:
        raise ValidationError("cone is the whole space; dual is trivial")
    return sorted(rays)  # the order of C+'s generators


class Cone(Value):
    """A closed convex ordering cone C with 0 ∈ C, C ≠ R^m and int C ≠ ∅.

    Stored by generating rays; the dual generators (equivalently the inward
    facet normals of C) are computed, and the distinguished interior point c
    is validated against them.  Immutable and safe to share.
    """

    FIELDS = ("dim", "generators", "interior_point")

    def __init__(self, dim: int, generators: tuple[Vec, ...], interior_point: Vec):
        self.__dict__.update(dim=dim, generators=generators, interior_point=interior_point)
        self.__post_init__()

    def __post_init__(self):
        dim = read_number(self.dim, "cone dimension {!r} is not an int", True)
        if not 1 <= dim <= MAX_DIMENSION:
            raise ValidationError(f"dimension must be in 1..{MAX_DIMENSION}, got {dim}")
        seen: dict[Vec, None] = {}
        for g in self.generators:
            g = primitive(checked_vector(dim, g, "cone generator"))
            if not is_zero(g):
                seen.setdefault(g, None)
        if not seen:
            raise ValidationError("cone has no nonzero generators")
        gens = tuple(sorted(seen))
        c = checked_vector(dim, self.interior_point, "interior point")
        duals = tuple(dual_cone(gens, dim))
        for g in gens:
            for w in duals:
                if dot(g, w) < 0:
                    raise ValidationError("dual generator fails <g, w> >= 0")
        for w in duals:
            if dot(c, w) <= 0:
                raise ValidationError(
                    f"interior point {format_vector(c)} is not interior: "
                    f"<c, {format_vector(w)}> = {dot(c, w)} is not > 0"
                )
        key = (dim, gens, tuple((x.numerator, x.denominator) for x in c))  # all int
        self.__dict__.update(
            dim=dim, generators=gens, interior_point=c, dual_generators=duals, _key=key, _hash=hash((dim, gens, c))
        )

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        """Identity first, then the hash and the all-int key, with no Fraction comparison."""
        if self is other:
            return True
        return isinstance(other, Cone) and self._hash == other._hash and self._key == other._key

    def contains(self, z) -> bool:
        """Exact membership z ∈ C, via the dual description."""
        z = checked_vector(self.dim, z)
        return all(dot(z, w) >= 0 for w in self.dual_generators)

    def base_polytope(self) -> list[Vec]:
        """Vertices of D(c) = {w ∈ C⁺ : <c, w> = 1}.

        C⁺ is pointed and <c, ·> is strictly positive on it, so D(c) is a
        compact base of C⁺ and its vertices are the normalized extreme rays.
        """
        c = self.interior_point
        return sorted(tuple(Fraction(x, 1) / dot(c, w) for x in w) for w in self.dual_generators)

    def is_pointed(self) -> bool:
        """Whether C contains no line (equivalently C⁺ is full-dimensional)."""
        return len(rref_basis(self.dual_generators, self.dim)) == self.dim


def orthant(dim: int) -> Cone:
    """The nonnegative orthant with interior point (1, ..., 1)."""
    gens = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    return Cone(dim, tuple(gens), tuple(1 for _ in range(dim)))
