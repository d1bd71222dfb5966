"""General Minkowski sums with and without the vertex filter, on recorded sums.

Records the operands of every sum that ``UpperSet.oplus`` hands to its general
path, the double-description run over pair sums, in

* integrate-large at benchmark seeds 1-3: the 54 integrals of its first three
  rounds, as ``kernel_gate.py`` builds them from ``perfbench/bench_inputs.py``;
* ``kernel_gate.py``'s two desk-size sums in dimensions 7 and 8,

and then, per corpus,

* builds each sum as ``oplus`` does, from the pair sums that
  ``upperset._vertex_candidates`` keeps, and from every pair sum, and compares
  every stored field;
* prints the pair sums kept out of all distinct pair sums;
* times both ways over the corpus, in CPU seconds, alternating which goes
  first, and prints the median of the filtered path's share of the other's time.

    PYTHONPATH=src python tests/sum_gate.py

Exits 1 when a sum differs, else 0: CPU shares vary from host to host, so
they are printed, not enforced.  pytest does not collect this file.
"""

from __future__ import annotations

import sys
from math import lcm

from fan_gate import ddm_path
from gates import shares, stored, summary
from kernel_gate import DESK_CASES, desk_case, desk_sum, integrals
from uppersets import upperset
from uppersets.integral import aumann_integral

ALTERNATIONS = {"integrate-large": 10, "dims 7-8": 4}  # an unfiltered dims 7-8 pass takes seconds


def recording(work) -> list[tuple]:
    """The operand pairs of every sum that ``work()`` hands to the general path."""
    pairs = []
    candidates = upperset._vertex_candidates

    def recorded(a, b):
        pairs.append((a, b))
        return candidates(a, b)

    upperset._vertex_candidates = recorded
    try:
        work()
    finally:
        upperset._vertex_candidates = candidates
    return pairs


def kept(a, b) -> tuple[int, int]:
    """(distinct pair sums kept by the filter, all distinct pair sums)."""
    d = lcm(a.denominator, b.denominator)
    f, g = d // a.denominator, d // b.denominator
    sums = {(i, j): tuple(f * x + g * y for x, y in zip(p, q))
            for i, p in enumerate(a.numerators) for j, q in enumerate(b.numerators)}
    return len({sums[pair] for pair in upperset._vertex_candidates(a, b)}), len(set(sums.values()))


def corpora() -> list[tuple[str, list]]:
    problems = integrals()
    cases = [desk_case(*case) for case in DESK_CASES]
    return [
        ("integrate-large", recording(lambda: [aumann_integral(F, mu) for F, mu in problems])),
        ("dims 7-8", recording(lambda: [desk_sum(*case) for case in cases])),
    ]


def every_sum(path, pairs) -> None:
    for a, b in pairs:
        path(a, b)


def run() -> int:
    failed = 0
    for name, pairs in corpora():
        differing = [(a, b) for a, b in pairs if stored(a.oplus(b)) != stored(ddm_path(a, b))]
        for a, b in differing[:3]:
            print(f"differs: {a.literal()} ⊕ {b.literal()}")
        counts = [kept(a, b) for a, b in pairs]
        ratios = shares(
            lambda: every_sum(upperset.UpperSet.oplus, pairs), lambda: every_sum(ddm_path, pairs), ALTERNATIONS[name]
        )
        print(
            f"{name}: {len(pairs)} general sums, {len(differing)} differ from the unfiltered path; "
            f"{sum(k for k, _ in counts)} of {sum(n for _, n in counts)} pair sums kept; "
            f"filtered/unfiltered CPU {summary(ratios)}"
        )
        failed += len(differing)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
