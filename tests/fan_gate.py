"""The 3-D fan merge against the double-description path, on recorded sums.

Runs the golden orthant3 ``check-axioms`` and ``reconstruct`` verdicts of
``integral:mu`` at seed 3 in-process, records every general 3-D sum that
``UpperSet.oplus`` hands to the fan merge, and then

* builds each recorded sum both ways, by the merge and by the pair sums
  through ``_from_vrep``, and compares every stored field;
* times both ways over all recorded sums, in CPU seconds, alternating which
  goes first, and prints the median of the merge's share of the DDM path's
  time and whether it is within the gate of 0.6.

    PYTHONPATH=src python tests/fan_gate.py

Exits 1 when a sum differs, else 0: CPU shares vary from host to host, so
the gate is printed, not enforced.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import sys
import time
from math import lcm
from pathlib import Path

from uppersets import upperset
from uppersets.cli import main

WORKSPACE = Path(__file__).parent / "golden" / "orthant3.ws"
VERDICTS = ("check-axioms", "reconstruct")
ALTERNATIONS = 10
GATE = 0.6


def record() -> list[tuple]:
    """The operand pairs of every general 3-D sum the golden verdicts make."""
    pairs = []
    merge = upperset._fan_sum

    def recorded(a, b):
        pairs.append((a, b))
        return merge(a, b)

    upperset._fan_sum = recorded
    try:
        for command in VERDICTS:
            with contextlib.redirect_stdout(io.StringIO()):
                main([command, str(WORKSPACE), "integral:mu", "--seed", "3"])
    finally:
        upperset._fan_sum = merge
    return pairs


def ddm_path(a, b):
    """A ⊕ B as the canonical form of the pair sums, one DDM run."""
    d = lcm(a.denominator, b.denominator)
    f, g = d // a.denominator, d // b.denominator
    sums = {tuple(f * x + g * y for x, y in zip(p, q)) for p in a.numerators for q in b.numerators}
    return upperset._from_vrep(a.cone, d, sums, a.rays + b.rays, a.lineality + b.lineality)


def merge_path(a, b):
    """A ⊕ B as ``oplus`` builds it: the merge, or the DDM path when the sum has lineality."""
    return upperset._fan_sum(a, b) or ddm_path(a, b)


def stored(s) -> tuple:
    return s.kind, s.facets, s.denominator, s.numerators, s.rays, s.lineality


def cpu(path, pairs) -> float:
    upperset._fan.cache_clear()  # each pass reads every fan afresh, as the verdicts did
    start = time.process_time()
    for a, b in pairs:
        path(a, b)
    return time.process_time() - start


def run() -> int:
    pairs = record()
    differing = [(a, b) for a, b in pairs if stored(merge_path(a, b)) != stored(ddm_path(a, b))]
    for a, b in differing[:3]:
        print(f"differs: {a.literal()} ⊕ {b.literal()}")
    ratios = []
    for k in range(ALTERNATIONS):
        if k % 2:
            merge_s = cpu(merge_path, pairs)
            ddm_s = cpu(ddm_path, pairs)
        else:
            ddm_s = cpu(ddm_path, pairs)
            merge_s = cpu(merge_path, pairs)
        ratios.append(merge_s / ddm_s)
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    merged = sum(upperset._fan_sum(a, b) is not None for a, b in pairs)
    print(
        f"{len(pairs)} general 3-D sums, {merged} merged, {len(differing)} differ from the DDM path; "
        f"merge/DDM CPU x{median:.3f} (q1 {q1:.3f}, q3 {q3:.3f}) over {ALTERNATIONS} alternations, "
        f"gate x{GATE}: {'met' if median <= GATE else 'not met'}"
    )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(run())
