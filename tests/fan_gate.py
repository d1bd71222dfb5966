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
import sys
from math import lcm
from pathlib import Path

from gates import shares, stored, summary
from uppersets import upperset
from uppersets.cli import main

WORKSPACE = Path(__file__).parent / "golden" / "orthant3.ws"
VERDICTS = ("check-axioms", "reconstruct")
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


def every_sum(path, pairs):
    """A pass of ``path`` over the recorded pairs, reading every fan afresh, as the verdicts did."""
    upperset._fan.cache_clear()
    for a, b in pairs:
        path(a, b)


def run() -> int:
    pairs = record()
    differing = [(a, b) for a, b in pairs if stored(merge_path(a, b)) != stored(ddm_path(a, b))]
    for a, b in differing[:3]:
        print(f"differs: {a.literal()} ⊕ {b.literal()}")
    ratios = shares(lambda: every_sum(merge_path, pairs), lambda: every_sum(ddm_path, pairs))
    merged = sum(upperset._fan_sum(a, b) is not None for a, b in pairs)
    print(
        f"{len(pairs)} general 3-D sums, {merged} merged, {len(differing)} differ from the DDM path; "
        f"merge/DDM CPU {summary(ratios, GATE)}"
    )
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(run())
