"""Seeded input generation for the benchmark workloads.

Every input is a pure function of the benchmark seed and the operation index,
so one seed always yields the same workspaces, arguments and set functions.
The cones carry their facet normals as hand-derived data, which the checks in
``bench_check`` use instead of anything the library computes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

MUTANT_AXIOM = {
    "additivity-shift": "A",
    "homogeneity-translate": "P",
    "continuity-jump": "C",
    "nullity-pad": "N",
    "indicator-deform": "I",
    "interchange-tighten": "S",
}


@dataclass(frozen=True)
class ConeSpec:
    name: str
    generators: tuple[tuple[int, ...], ...]
    interior: tuple[int, ...]
    facets: tuple[tuple[int, ...], ...]  # inward facet normals: C = {z : <z, f> >= 0}

    @property
    def dim(self) -> int:
        return len(self.interior)


def _unit(dim: int, i: int) -> tuple[int, ...]:
    return tuple(int(j == i) for j in range(dim))


def orthant_spec(dim: int) -> ConeSpec:
    units = tuple(_unit(dim, i) for i in range(dim))
    return ConeSpec(f"orthant{dim}", units, (1,) * dim, units)


def square_spec(dim: int) -> ConeSpec:
    """Pointed, not simplicial: a cone over a square in the first three
    coordinates (generators e1, e2, e1+e3, e2+e3, four facets) times the
    remaining coordinate axes."""
    e = [_unit(dim, i) for i in range(dim)]
    plus = lambda a, b: tuple(x + y for x, y in zip(a, b))
    gens = (e[0], e[1], plus(e[0], e[2]), plus(e[1], e[2])) + tuple(e[3:])
    tilt = (1, 1, -1) + (0,) * (dim - 3)
    return ConeSpec(f"square{dim}", gens, (1,) * dim, tuple(e) + (tilt,))


WEDGE2 = ConeSpec("wedge2", ((1, 0), (1, 1)), (2, 1), ((0, 1), (1, -1)))

# checker shapes: (cone, atom count)
SHAPES = {
    "orthant2": (orthant_spec(2), 2),
    "wedge2": (WEDGE2, 3),
    "orthant3": (orthant_spec(3), 3),
}

# integrate-large configurations, one integral each per round: (cone, atoms,
# generating points per value, the vector whose permutations they are).
# Distinct permutations of one vector lie on a sphere and a hyperplane
# <1, z> = const with 1 in the interior of C+, so every generating point is a
# vertex of F(x): the vertex count is fixed, and so is most of the cost, which
# for uniformly random points varies tenfold.  The configurations cost about
# the same (0.35-0.65 s each on the reference host), so the median integral
# does not sit in a gap between them.  Five or six atoms in dimension 5 cost
# 2-30 s per integral, too few for a median in one run.
LARGE_CONFIGS = (
    (orthant_spec(4), 4, 5, (0, 1, 2, 3)),
    (square_spec(4), 4, 5, (0, 1, 2, 3)),
    (orthant_spec(4), 5, 4, (0, 1, 2, 3)),
    (orthant_spec(4), 6, 4, (0, 0, 1, 2)),
    (orthant_spec(5), 4, 4, (0, 0, 0, 1, 2)),
    (square_spec(5), 4, 4, (0, 0, 0, 1, 2)),
)


def rng_for(seed: int, *labels) -> random.Random:
    """An independent stream per (seed, labels); str seeds hash stably."""
    return random.Random(f"{seed}/" + "/".join(str(x) for x in labels))


def fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def fmt_vec(v) -> str:
    return "[" + ", ".join(fmt(x) for x in v) + "]"


def random_measure(rng: random.Random, n: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(rng.randint(1, 6), rng.choice((1, 2))) for _ in range(n))


def random_points(rng: random.Random, dim: int, count: int):
    return tuple(
        tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2))) for _ in range(dim))
        for _ in range(count)
    )


@dataclass(frozen=True)
class WorkspaceInput:
    """One generated workspace: its text plus the facts the checks need."""

    shape: str
    cone: ConeSpec
    atoms: tuple[str, ...]
    mu: tuple[Fraction, ...]
    setfunctions: dict  # name -> per-atom tuples of generating points
    text: str


def workspace_input(seed: int, shape: str, index: int, external: tuple[str, ...] = ()) -> WorkspaceInput:
    """A workspace for ``shape`` with measure ``mu``, set functions F and G
    (conv(points) + C per atom) and, given the command prefix ``external``,
    functionals ``ext`` and ``ext-shift`` served by that command."""
    cone, n = SHAPES[shape]
    rng = rng_for(seed, "workspace", shape, index)
    atoms = tuple(f"x{i + 1}" for i in range(n))
    mu = random_measure(rng, n)
    setfunctions = {
        name: tuple(
            random_points(rng, cone.dim, rng.randint(1, 3)) for _ in atoms
        )
        for name in ("F", "G")
    }
    lines = [
        f"dimension: {cone.dim}",
        "cone:",
        "    generators: " + " ".join(fmt_vec(g) for g in cone.generators),
        f"    interior_point: {fmt_vec(cone.interior)}",
        "atoms: " + " ".join(atoms),
        "measure mu:",
    ]
    lines += [f"    {a}: {fmt(w)}" for a, w in zip(atoms, mu)]
    for name, values in setfunctions.items():
        lines.append(f"setfunction {name}:")
        lines += [
            f"    {a}: points: [" + ", ".join(fmt_vec(p) for p in pts) + "]"
            for a, pts in zip(atoms, values)
        ]
    for name, extra in (("ext", ()), ("ext-shift", ("shift",))):
        if external:
            lines += [
                f"functional {name}:",
                "    kind: external",
                "    command: " + " ".join(external + extra),
            ]
    return WorkspaceInput(shape, cone, atoms, mu, setfunctions, "\n".join(lines) + "\n")


@dataclass(frozen=True)
class IntegralInput:
    cone: ConeSpec
    mu: tuple[Fraction, ...]
    points: tuple  # per atom, the generating points of F(x)


def permutation_points(rng: random.Random, base: tuple[int, ...], count: int):
    """``count`` distinct permutations of ``base``, translated by one random
    integer offset."""
    chosen: set[tuple[int, ...]] = set()
    while len(chosen) < count:
        p = list(base)
        rng.shuffle(p)
        chosen.add(tuple(p))
    offset = [rng.randint(-2, 2) for _ in base]
    return tuple(
        tuple(Fraction(x + o) for x, o in zip(p, offset)) for p in sorted(chosen)
    )


def integral_input(seed: int, index: int) -> IntegralInput:
    cone, n, k, base = LARGE_CONFIGS[index % len(LARGE_CONFIGS)]
    rng = rng_for(seed, "integral", index)
    mu = random_measure(rng, n)
    return IntegralInput(cone, mu, tuple(permutation_points(rng, base, k) for _ in range(n)))
