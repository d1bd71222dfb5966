"""Line protocol for driving an external set-valued functional.

One evaluation per request, ordering preserved, always serialized.  The CLI
wraps an ``ExternalFunctional`` in an ``axioms.SetFunctional``, whose memo
sends each distinct input once.  For each evaluation the runner writes

    eval <number-of-atoms>
    <atom> <set literal>
    ...
    end

to the process's stdin and reads back exactly one line holding a canonical
set literal (``empty``, ``full``, ``cone`` or ``halfspaces: [...]``).  The
process exits on end-of-input.  It is started once, at the first
evaluation; one that cannot start or has exited raises ``ProtocolError``.
"""

from __future__ import annotations

import subprocess

from .cone import Cone, ValidationError
from .measure_space import SimpleSetFunction
from .upperset import UpperSet
from .workspace import parse_set_literal


class ProtocolError(RuntimeError):
    pass


class ExternalFunctional:
    """A functional evaluated by a child process over the line protocol."""

    def __init__(self, command: tuple[str, ...], cone: Cone):
        if not command:
            raise ValidationError("external functional needs a command")
        self.name = "external:" + " ".join(command)
        self.command = tuple(command)
        self.cone = cone
        self._proc: subprocess.Popen | None = None

    def _ensure_process(self) -> subprocess.Popen:
        """The child, started on the first call; one that has exited is an error."""
        if self._proc is None:
            try:
                self._proc = subprocess.Popen(
                    self.command,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    text=True,
                    bufsize=1,
                )
            except OSError as exc:
                raise ProtocolError(f"cannot start {self.name}: {exc}") from exc
        code = self._proc.poll()
        if code is not None:
            raise ProtocolError(f"{self.name} exited with code {code}")
        return self._proc

    def __call__(self, F: SimpleSetFunction) -> UpperSet:
        """One round trip: send F, parse the answer."""
        proc = self._ensure_process()
        lines = [f"eval {len(F.space)}"]
        for atom, value in zip(F.space.atoms, F.values):
            lines.append(f"{atom} {value.literal()}")
        lines.append("end")
        try:
            proc.stdin.write("\n".join(lines) + "\n")
            proc.stdin.flush()
            answer = proc.stdout.readline()
        except (BrokenPipeError, OSError) as exc:
            raise ProtocolError(f"external functional died: {exc}") from exc
        if not answer:
            raise ProtocolError("external functional closed its output")
        try:
            return parse_set_literal(answer.strip(), self.cone)
        except (ValueError, ValidationError) as exc:
            raise ProtocolError(f"unparsable response {answer.strip()!r}: {exc}") from exc

    def close(self) -> None:
        """Close the child's input, wait up to 5 s for it to exit, else kill
        it; then close its output."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
            proc.wait(timeout=5)
        except (OSError, subprocess.TimeoutExpired):
            proc.kill()
            proc.wait()
        proc.stdout.close()


def serve(evaluate, cone: Cone, space, stdin, stdout) -> None:
    """Answer protocol requests; helper for implementing external functionals.

    ``evaluate`` maps a SimpleSetFunction to an UpperSet.  A malformed
    request raises ``ProtocolError``.
    """
    while True:
        header = stdin.readline()
        if not header:
            return
        header = header.strip()
        if not header:
            continue
        if not header.startswith("eval "):
            raise ProtocolError(f"bad request header {header!r}")
        try:
            count = int(header.split()[1])
        except ValueError as exc:
            raise ProtocolError(f"bad atom count in {header!r}") from exc
        values = {}
        for _ in range(count):
            line = stdin.readline()
            if not line:
                raise ProtocolError("truncated request")
            atom, _, literal = line.strip().partition(" ")
            if atom not in space.atoms:
                raise ProtocolError(f"unknown atom {atom!r}")
            try:
                values[atom] = parse_set_literal(literal, cone)
            except ValueError as exc:
                raise ProtocolError(f"unparsable value for {atom!r}: {exc}") from exc
        trailer = stdin.readline()
        if trailer.strip() != "end":
            raise ProtocolError("missing request trailer")
        if len(values) != len(space.atoms):
            raise ProtocolError("request does not give every atom a value")
        F = SimpleSetFunction(space, tuple(values[a] for a in space.atoms))
        stdout.write(evaluate(F).literal() + "\n")
        stdout.flush()
