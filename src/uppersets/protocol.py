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
atom count and the literals' numbers are read by the workspace number grammar;
at both ends a literal in the form ``UpperSet.literal`` writes is read in one pass.
The process exits on end-of-input.  It is started once, at the first
evaluation.  The request is written as the child's input takes it, so one
deadline covers the request and its answer: a child that cannot start, has
exited, or does not take and answer a request within ``ANSWER_DEADLINE_S``
seconds raises ``ProtocolError``, which names the child's exit code or the
deadline and quotes the end of the child's stderr, kept in a temporary file.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import tempfile
import time

from .cone import Cone, ValidationError
from .linalg import read_number
from .measure_space import SimpleSetFunction
from .upperset import UpperSet
from .workspace import parse_set_literal

ANSWER_DEADLINE_S = 60.0  # the longest round trip, request and child's start included


class ProtocolError(RuntimeError):
    pass


def request(F: SimpleSetFunction) -> str:
    """The request text of one evaluation of F."""
    lines = [f"{atom} {value.literal()}" for atom, value in zip(F.space.atoms, F.values)]
    return "\n".join([f"eval {len(F.space)}", *lines, "end", ""])


class ExternalFunctional:
    """A functional evaluated by a child process over the line protocol."""

    def __init__(self, command: tuple[str, ...], cone: Cone):
        if not command:
            raise ValidationError("external functional needs a command")
        self.name = "external:" + " ".join(command)
        self.command = tuple(command)
        self.cone = cone
        self._proc: subprocess.Popen | None = None
        self._stderr = None  # the child's stderr, a temporary file
        self._pending = b""  # what the child wrote after its last answer

    def _ensure_process(self) -> subprocess.Popen:
        """The child, started on the first call; one that has exited is an error."""
        if self._proc is None:
            self._stderr = tempfile.TemporaryFile()
            try:
                self._proc = subprocess.Popen(
                    self.command,
                    stdin=subprocess.PIPE,
                    stdout=subprocess.PIPE,
                    stderr=self._stderr,
                )
            except OSError as exc:
                self._stderr.close()
                raise ProtocolError(f"cannot start {self.name}: {exc}") from exc
            os.set_blocking(self._proc.stdin.fileno(), False)
        code = self._proc.poll()
        if code is not None:
            raise ProtocolError(f"{self.name} exited with code {code}{self._stderr_tail()}")
        return self._proc

    def __call__(self, F: SimpleSetFunction) -> UpperSet:
        """One round trip: send F, parse the answer."""
        proc = self._ensure_process()
        try:
            answer = self._answer(proc, request(F).encode())
        except OSError:  # a broken pipe
            answer = ""
        if not answer:  # the child has exited or is exiting: reap it for its code
            try:
                code = proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                raise ProtocolError(f"{self.name} closed its output{self._stderr_tail()}") from None
            raise ProtocolError(f"{self.name} exited with code {code}{self._stderr_tail()}")
        try:
            return parse_set_literal(answer.strip(), self.cone)
        except ValueError as exc:
            raise ProtocolError(f"unparsable response {answer.strip()!r}: {exc}") from exc

    def _answer(self, proc: subprocess.Popen, data: bytes) -> str:
        """Write ``data`` to the child as fast as its input takes it and
        return the child's next line, or '' once it closed its output.  A
        child that neither takes the request nor answers it within
        ANSWER_DEADLINE_S is killed, and that is a ProtocolError."""
        inp, out = proc.stdin.fileno(), proc.stdout.fileno()
        deadline = time.monotonic() + ANSWER_DEADLINE_S
        with selectors.DefaultSelector() as selector:
            selector.register(inp, selectors.EVENT_WRITE)
            selector.register(out, selectors.EVENT_READ)
            while data or b"\n" not in self._pending:
                ready = {key.fd for key, _ in selector.select(deadline - time.monotonic())}
                if not ready:
                    proc.kill()
                    proc.wait()
                    raise ProtocolError(
                        f"{self.name} gave no answer within {ANSWER_DEADLINE_S:g} s{self._stderr_tail()}"
                    )
                if inp in ready:
                    data = data[os.write(inp, data) :]
                    if not data:
                        selector.unregister(inp)
                if out in ready:
                    chunk = os.read(out, 65536)
                    if not chunk:
                        break
                    self._pending += chunk
        line, newline, self._pending = self._pending.partition(b"\n")
        return (line + newline).decode(errors="replace")

    def _stderr_tail(self) -> str:
        """The end of what the child wrote to stderr, quoted for an error; '' if nothing."""
        fd = self._stderr.fileno()
        size = os.fstat(fd).st_size
        text = os.pread(fd, 2000, max(0, size - 2000)).decode(errors="replace").strip()
        return f"; its stderr ends {text!r}" if text else ""

    def close(self) -> None:
        """Close the child's input, wait up to 5 s for it to exit, else kill
        it; then close its output and its stderr file."""
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
        self._stderr.close()
        self._pending = b""


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
        if not header.startswith("eval ") or len(header.split()) != 2:  # "eval <count>", nothing after
            raise ProtocolError(f"bad request header {header!r}")
        try:
            count = read_number(header.split()[1], "bad atom count {!r}", True)
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
            if atom in values:
                raise ProtocolError(f"duplicate atom {atom!r}")
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
