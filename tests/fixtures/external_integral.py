#!/usr/bin/env python3
"""External-functional fixture: serves the Aumann integral over the line
protocol.  Usage: external_integral.py WORKSPACE MEASURE [shift]

With the optional 'shift' argument every answer is translated by the cone's
interior point, which breaks most of the axioms on purpose.
"""

import sys
from pathlib import Path

# the checkout's own sources come first, whatever PYTHONPATH the child inherits
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

from uppersets.integral import integral_value
from uppersets.protocol import serve
from uppersets.workspace import parse_workspace


def main() -> None:
    ws = parse_workspace(sys.argv[1])
    mu = ws.measure(sys.argv[2])
    shift = len(sys.argv) > 3 and sys.argv[3] == "shift"

    def evaluate(F):
        value = integral_value(F, mu)
        if shift:
            value = value.translate(ws.cone.interior_point)
        return value

    serve(evaluate, ws.cone, ws.space, sys.stdin, sys.stdout)


if __name__ == "__main__":
    main()
