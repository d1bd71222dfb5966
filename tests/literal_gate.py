"""The one-pass literal read against the token path, on recorded round trips.

Runs the golden wedge2 ``check-axioms`` verdicts of the external functionals
``ext`` and ``ext-shift`` at seed 3 in-process, each evaluation served as its
child serves it, records every set literal of every request and every answer,
and then

* parses each literal both ways, as written (one regex pass) and with the
  one-pass read switched off (the tokenizer), and compares every stored field;
* times both ways over the request literals and over the answer literals, in
  CPU seconds, alternating which goes first, and prints the median of the
  one-pass read's share of the token path's time and whether it is within the
  gate of 0.6.

    PYTHONPATH=src python tests/literal_gate.py

Exits 1 when a literal differs, else 0: CPU shares vary from host to host, so
the gate is printed, not enforced.  pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import io
import sys
import tempfile
from pathlib import Path

from gates import shares, stored, summary
from test_golden import copy_workspaces, transcript
from uppersets import protocol, workspace
from uppersets.integral import integral_value
from uppersets.workspace import parse_set_literal, parse_workspace

FUNCTIONALS = ("ext", "ext-shift")  # the fixture child, the second shifting its answers
GATE = 0.6


def record(workdir: Path) -> tuple[list[str], list[str]]:
    """The request literals and the answer literals of the golden verdicts."""
    ws = parse_workspace(str(workdir / "wedge2.ws"))
    mu = ws.measure("mu")
    requests, answers = [], []

    def in_process(self, F):
        """One evaluation as the fixture child answers it, its literals recorded."""
        value = integral_value(F, mu)
        value = value.translate(ws.cone.interior_point) if self.command[-1] == "shift" else value
        requests.extend(v.literal() for v in F.values)
        answers.append(value.literal())
        return value

    call, protocol.ExternalFunctional.__call__ = protocol.ExternalFunctional.__call__, in_process
    try:
        for name in FUNCTIONALS:
            with contextlib.redirect_stdout(io.StringIO()):
                transcript(("check-axioms", "wedge2", name, "--seed", "3"), workdir)
    finally:
        protocol.ExternalFunctional.__call__ = call
    return requests, answers


def one_pass(literals, cone) -> list:
    return [parse_set_literal(text, cone) for text in literals]


def tokens(literals, cone) -> list:
    """The literals parsed with the one-pass read switched off."""
    written = workspace._written_rows
    workspace._written_rows = lambda text: None
    try:
        return one_pass(literals, cone)
    finally:
        workspace._written_rows = written


def run() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy_workspaces(Path(tmp))
        requests, answers = record(Path(tmp))
        cone = parse_workspace(str(Path(tmp) / "wedge2.ws")).cone
    literals = requests + answers
    differing = [
        text for text, a, b in zip(literals, one_pass(literals, cone), tokens(literals, cone)) if stored(a) != stored(b)
    ]
    for text in differing[:3]:
        print(f"differs: {text}")
    print(f"{len(requests)} request and {len(answers)} answer literals, {len(differing)} differ from the token path")
    for what, group in (("requests", requests), ("answers", answers)):
        ratios = shares(lambda: one_pass(group, cone), lambda: tokens(group, cone))
        print(f"{what}: one-pass/token CPU {summary(ratios, GATE)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(run())
