"""What the CI gates (``fan_gate.py``, ``literal_gate.py``, ``kernel_gate.py``,
``sum_gate.py``) share: the stored fields of a set, and timing a fast path
against its reference, alternating which goes first.  pytest does not collect
this file.
"""

from __future__ import annotations

import statistics
import time

ALTERNATIONS = 10


def stored(s) -> tuple:
    return s.kind, s.facets, s.denominator, s.numerators, s.rays, s.lineality


def cpu(work) -> float:
    start = time.process_time()
    work()
    return time.process_time() - start


def shares(fast, slow, alternations: int = ALTERNATIONS) -> list[float]:
    """fast's CPU time over slow's, once per alternation, the odd ones timing fast first."""
    ratios = []
    for k in range(alternations):
        if k % 2:
            fast_s = cpu(fast)
            slow_s = cpu(slow)
        else:
            slow_s = cpu(slow)
            fast_s = cpu(fast)
        ratios.append(fast_s / slow_s)
    return ratios


def summary(ratios: list[float], gate: float | None = None) -> str:
    """The median ratio with its quartiles, and whether it is within ``gate``."""
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    text = f"x{median:.3f} (q1 {q1:.3f}, q3 {q3:.3f}) over {len(ratios)} alternations"
    return text if gate is None else f"{text}, gate x{gate}: {'met' if median <= gate else 'not met'}"
