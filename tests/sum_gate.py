"""General Minkowski sums with and without the vertex filter, and k-term sums
in one run against the pairwise fold, on recorded sums.

The corpora are

* integrate-large at benchmark seeds 1-3: the 54 integrals of its first three
  rounds, as ``kernel_gate.py`` builds them from ``perfbench/bench_inputs.py``;
* ``kernel_gate.py``'s two desk-size sums in dimensions 7 and 8.

Per corpus, the gate

* records the operands of every call to ``upperset._vertex_candidates``: the
  two operands of a general ``UpperSet.oplus``, and each pair of terms of a
  ``weighted_sum`` made in one run (441 calls on integrate-large, where the
  pairwise fold makes 189 general sums, most of them of partial sums);
* builds each recorded pair's sum as ``oplus`` does, from the pair sums the
  filter keeps, and from every pair sum, compares every stored field, prints
  the pair sums kept out of all distinct pair sums, and times both ways;
* builds each integral or desk sum by ``weighted_sum`` and by folding its
  scaled terms with ``oplus``, compares every stored field, and times both
  ways.

Times are CPU seconds over the corpus, alternating which way goes first; the
gate prints the median of the first-named way's share of the other's time.

    PYTHONPATH=src python tests/sum_gate.py

Exits 1 when a sum differs, else 0: CPU shares vary from host to host, so
they are printed, not enforced.  pytest does not collect this file.
"""

from __future__ import annotations

import functools
import sys
from math import lcm

from fan_gate import ddm_path
from gates import shares, stored, summary
from kernel_gate import DESK_CASES, desk_case, integrals
from uppersets import canonicalize, upperset

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
    """(name, the (cone, terms) of each sum) per corpus: an integral's terms
    as ``integral_value`` passes them, a desk sum's values with weight 1."""
    problems = [(F.cone, mu.pairs(F.space, F.values)) for F, mu in integrals()]
    cases = [desk_case(*case) for case in DESK_CASES]
    return [
        ("integrate-large", problems),
        ("dims 7-8", [(C, [(1, canonicalize(C, points=pts)) for pts in points]) for C, points in cases]),
    ]


def fold(cone, terms):
    """The scaled terms folded with ``oplus``, as ``weighted_sum`` did in every dimension above 2."""
    return functools.reduce(upperset.UpperSet.oplus, [s.scale(lam) for lam, s in terms])


def every_sum(path, pairs) -> None:
    for a, b in pairs:
        path(a, b)


def run() -> int:
    failed = 0
    for name, sums in corpora():
        pairs = recording(lambda: [upperset.weighted_sum(*case) for case in sums])
        differing = [(a, b) for a, b in pairs if stored(a.oplus(b)) != stored(ddm_path(a, b))]
        for a, b in differing[:3]:
            print(f"differs: {a.literal()} ⊕ {b.literal()}")
        counts = [kept(a, b) for a, b in pairs]
        ratios = shares(
            lambda: every_sum(upperset.UpperSet.oplus, pairs), lambda: every_sum(ddm_path, pairs), ALTERNATIONS[name]
        )
        print(
            f"{name}: {len(pairs)} filtered pairs, {len(differing)} differ from the unfiltered path; "
            f"{sum(k for k, _ in counts)} of {sum(n for _, n in counts)} pair sums kept; "
            f"filtered/unfiltered CPU {summary(ratios)}"
        )
        folds = [case for case in sums if stored(upperset.weighted_sum(*case)) != stored(fold(*case))]
        for _, terms in folds[:3]:
            print(f"differs: {' + '.join(f'{lam}·{s.literal()}' for lam, s in terms)}")
        ratios = shares(
            lambda: every_sum(upperset.weighted_sum, sums), lambda: every_sum(fold, sums), ALTERNATIONS[name]
        )
        print(
            f"{name}: {len(sums)} sums, {len(folds)} differ from the pairwise fold; "
            f"one-run/fold CPU {summary(ratios)}"
        )
        failed += len(differing) + len(folds)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(run())
