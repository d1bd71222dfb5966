"""The double-description kernel against its mask-scan reference, on recorded runs.

Records the input of every ``ddm.cone_vrep`` run made by

* the golden transcripts' commands, run in-process (an external functional's
  child makes its own runs, which are not recorded);
* integrate-large at benchmark seeds 1-3: the 54 integrals of its first
  three rounds, values canonicalized and each integral taken with
  ``aumann_integral``, from ``perfbench/bench_inputs.py`` (read, not changed);
* two desk-size cases in dimensions 7 and 8: over the orthant, k values each
  canonicalized from n points with coordinates ``rng.randint(-3, 3)`` drawn
  in order from ``random.Random(seed)``, then one ``weighted_sum`` with
  weights 1 (dim 8, 4 x 4 at seed 5; dim 7, 3 x 5 at seed 4),

and then, per corpus,

* runs each input through the kernel and through ``mask_scan_vrep``, the
  kernel as it was when adjacency counted over every current ray's mask, and
  compares ``(lineality, rays, masks, rows)``;
* times both over the corpus, in CPU seconds, alternating which goes first,
  and prints the median of the kernel's share of the reference's time.

    PYTHONPATH=src python tests/kernel_gate.py

Exits 1 when an output differs, else 0: CPU shares vary from host to host,
so they are printed, not enforced.  pytest does not collect this file.
"""

from __future__ import annotations

import random
import sys
import tempfile
from operator import mul
from pathlib import Path

from gates import shares, summary
from test_golden import CORPUS, copy_workspaces, transcript
from uppersets import AtomicMeasure, Cone, SimpleSetFunction, canonicalize, cone, ddm, space
from uppersets.integral import aumann_integral
from uppersets.linalg import Vec, coprime, is_zero, primitive, vneg
from uppersets.upperset import weighted_sum

PERFBENCH = Path(__file__).parent.parent / "perfbench"
LARGE_SEEDS = (1, 2, 3)
LARGE_INTEGRALS = 18  # three rounds of the six configurations
DESK_CASES = ((8, 4, 4, 5), (7, 3, 5, 4))  # (dim, values k, points n, seed)
ALTERNATIONS = {"golden": 10, "integrate-large": 10, "dims 7-8": 4}  # the last reference pass takes seconds


def mask_scan_vrep(rows, dim: int):
    """``ddm.cone_vrep`` with the adjacency test that counts, for each
    candidate pair, the current rays whose mask contains the pair's meet.
    It processes the rows in the kernel's order, so that the CPU share
    measures the adjacency test alone."""
    prows = list(dict.fromkeys(primitive(r) for r in map(tuple, rows) if not is_zero(r)))
    lin: list[Vec] = [ddm._unit(dim, i) for i in range(dim)]
    rays: list[list] = []  # [vector, zero-set bitmask over processed rows]

    for k, a in enumerate(prows):
        bit = 1 << k
        lin_vals = [sum(map(mul, a, v)) for v in lin]
        pivot = next((i for i, val in enumerate(lin_vals) if val != 0), None)
        if pivot is not None:
            v0, val0 = lin[pivot], lin_vals[pivot]
            if val0 < 0:
                v0, val0 = vneg(v0), -val0
            lin = [
                coprime(tuple(val0 * x - val * y for x, y in zip(v, v0))) if val else v
                for i, (v, val) in enumerate(zip(lin, lin_vals))
                if i != pivot
            ]
            for entry in rays:
                val = sum(map(mul, a, entry[0]))
                if val != 0:
                    entry[0] = coprime(tuple(val0 * x - val * y for x, y in zip(entry[0], v0)))
                entry[1] |= bit
            rays.append([v0, bit - 1])
        else:
            vals = [sum(map(mul, a, entry[0])) for entry in rays]
            pos = [(entry, v) for entry, v in zip(rays, vals) if v > 0]
            neg = [(entry, v) for entry, v in zip(rays, vals) if v < 0]
            zero = [entry for entry, v in zip(rays, vals) if v == 0]
            for entry in zero:
                entry[1] |= bit
            face_rank = dim - len(lin) - 2
            masks = [entry[1] for entry in rays]
            combined: dict[Vec, list] = {}
            for p, val_p in pos:
                for n, val_n in neg:
                    meet = p[1] & n[1]
                    if meet.bit_count() < face_rank:
                        continue
                    if list(map(meet.__and__, masks)).count(meet) != 2:
                        continue
                    vecq = coprime(tuple(val_p * x - val_n * y for x, y in zip(n[0], p[0])))
                    if is_zero(vecq) or vecq in combined:
                        continue
                    combined[vecq] = [vecq, meet | bit]
            rays = [entry for entry, _ in pos] + zero + list(combined.values())
            if len(rays) > ddm.MAX_RAYS:
                raise ddm.GeometryError(f"ray count exceeded desk scale ({ddm.MAX_RAYS})")

    rays.sort()
    masks, prows = ddm._in_sorted_order([entry[1] for entry in rays], prows)
    return ddm.rref_basis(lin, dim), [entry[0] for entry in rays], masks, prows


def recording(work) -> list[tuple]:
    """The (rows, dim) of every kernel run that ``work()`` makes."""
    runs = []
    kernel = ddm.cone_vrep

    def recorded(rows, dim):
        rows = [tuple(r) for r in rows]
        runs.append((rows, dim))
        return kernel(rows, dim)

    ddm.cone_vrep = cone.cone_vrep = recorded
    try:
        work()
    finally:
        ddm.cone_vrep = cone.cone_vrep = kernel
    return runs


def golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        copy_workspaces(Path(tmp))
        for command in CORPUS:
            transcript(command, Path(tmp))


def integrals() -> list[tuple]:
    """(F, mu) of each integrate-large integral, its values canonicalized as the workload's setup does."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import bench_inputs
    finally:
        sys.path.remove(str(PERFBENCH))
    items = [bench_inputs.integral_input(seed, index) for seed in LARGE_SEEDS for index in range(LARGE_INTEGRALS)]
    cones = {item.cone: Cone(item.cone.dim, item.cone.generators, item.cone.interior) for item in items}
    problems = []
    for item in items:
        atoms = space(*(f"x{i + 1}" for i in range(len(item.mu))))
        values = tuple(canonicalize(cones[item.cone], points=pts) for pts in item.points)
        problems.append((SimpleSetFunction(atoms, values), AtomicMeasure(atoms, item.mu)))
    return problems


def desk_case(dim: int, k: int, n: int, seed: int) -> tuple:
    """The orthant and k lists of n random points, drawn in order."""
    rng = random.Random(seed)
    points = [[[rng.randint(-3, 3) for _ in range(dim)] for _ in range(n)] for _ in range(k)]
    return Cone(dim, [tuple(int(i == j) for j in range(dim)) for i in range(dim)], (1,) * dim), points


def desk_sum(C, points) -> None:
    weighted_sum(C, [(1, canonicalize(C, points=pts)) for pts in points])


def corpora() -> list[tuple[str, list]]:
    problems = integrals()
    large = recording(lambda: [aumann_integral(F, mu) for F, mu in problems])
    cases = [desk_case(*case) for case in DESK_CASES]
    desk = recording(lambda: [desk_sum(*case) for case in cases])
    return [("golden", recording(golden)), ("integrate-large", large), ("dims 7-8", desk)]


def every_run(kernel, runs) -> None:
    for rows, dim in runs:
        kernel(rows, dim)


def run() -> int:
    failed = 0
    for name, runs in corpora():
        differing = [(rows, dim) for rows, dim in runs if ddm.cone_vrep(rows, dim) != mask_scan_vrep(rows, dim)]
        for rows, dim in differing[:3]:
            print(f"differs: dim {dim}, rows {rows}")
        ratios = shares(
            lambda: every_run(ddm.cone_vrep, runs), lambda: every_run(mask_scan_vrep, runs), ALTERNATIONS[name]
        )
        print(
            f"{name}: {len(runs)} runs, {sum(len(rows) for rows, _ in runs)} rows, {len(differing)} differ "
            f"from the mask scan; kernel/mask-scan CPU {summary(ratios)}"
        )
        failed += len(differing)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
