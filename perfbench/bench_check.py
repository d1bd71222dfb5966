"""Answers known independently of the code under test.

``integral_mismatch`` re-derives an Aumann integral of a simple function with
polyhedral values conv(P_x) + C from the generating points P_x, in exact
integer and ``Fraction`` arithmetic and without the double description engine:

* every facet offset equals the weighted sum of the pointwise supports,
  Σ μ(x)·min over P_x of <p, w>, so the true integral lies in the value;
* every stored vertex is a vertex of the value (tight on facets of full rank)
  and equals Σ μ(x)·p_x, with p_x the unique minimiser over P_x of the sum u of
  its tight facet normals, so it lies in the true integral;
* every stored ray lies in C and the value has no lineality.

Given that the stored V-representation describes the value, these prove that
the value is the true integral; the library's own ``certificate_ok`` only
checks the first item.  The verdict checks parse the CLI report and compare it
with the answer fixed by construction of the functional.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

from bench_inputs import MUTANT_AXIOM


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _integer_row(coefficients) -> tuple[list[int], int]:
    """(n, d) with n = d·coefficients all integers and d > 0 their common denominator."""
    fracs = [Fraction(x) for x in coefficients]
    d = lcm(*(f.denominator for f in fracs))
    return [int(f * d) for f in fracs], d


def _rank(rows) -> int:
    """Rank of integer rows, by fraction-free elimination."""
    mat = [list(row) for row in rows]
    rank = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][col]
            if f:
                row = [top[col] * x - f * y for x, y in zip(mat[i], top)]
                g = gcd(*row) or 1
                mat[i] = [x // g for x in row]
        rank += 1
    return rank


def support_sum(mu, points, w) -> Fraction:
    """Σ μ(x)·min over P_x of <p, w>: the support of the integral at w ∈ C⁺."""
    return sum(
        (m * min(_dot(p, w) for p in pts) for m, pts in zip(mu, points) if m),
        Fraction(0),
    )


def facet_mismatch(facets, cone_generators, mu, points) -> str | None:
    """The first facet (normal, offset) whose offset is not the true support."""
    for w, b in facets:
        if any(_dot(g, w) < 0 for g in cone_generators):
            return f"facet normal {list(w)} is not in the dual cone"
        expected = support_sum(mu, points, w)
        if Fraction(b) != expected:
            return f"facet {list(w)}: offset {b} but the integral's support is {expected}"
    return None


def integral_mismatch(value, cone_facets, cone_generators, mu, points) -> str | None:
    """None when ``value`` (an UpperSet) is the integral of conv(P_x) + C
    against ``mu``; otherwise the first discrepancy found."""
    if value.kind != "proper":
        return f"value is {value.kind}"
    facets = [(h.normal, h.offset) for h in value.halfspaces]
    problem = facet_mismatch(facets, cone_generators, mu, points)
    if problem:
        return problem
    if value.lineality:
        return "value of a pointed cone has lineality"
    for r in value.rays:
        if any(_dot(r, f) < 0 for f in cone_facets):
            return f"ray {list(r)} is not in C"
    if not value.points:
        return "value stores no vertex"
    dim = len(cone_facets[0])
    # facet i as the integer inequality <z, rows[i]> >= rhs[i]
    rows, rhs = [], []
    for w, b in facets:
        row, _ = _integer_row(tuple(w) + (b,))
        rows.append(row[:-1])
        rhs.append(row[-1])
    for v in value.points:
        vi, den = _integer_row(v)
        tight = []
        for row, b in zip(rows, rhs):
            slack = _dot(vi, row) - b * den
            if slack < 0:
                return f"stored vertex {list(v)} violates facet {row}"
            if slack == 0:
                tight.append(row)
        if _rank(tight) < dim:
            return f"stored point {list(v)} is not a vertex"
        u = [sum(col) for col in zip(*tight)]
        if any(_dot(g, u) <= 0 for g in cone_generators):
            return f"tight normals at {list(v)} do not sum into the interior of C⁺"
        total = [Fraction(0)] * dim
        for m, pts in zip(mu, points):
            if not m:
                continue
            values = [_dot(p, u) for p in pts]
            low = min(values)
            minimisers = {tuple(p) for p, val in zip(pts, values) if val == low}
            if len(minimisers) != 1:
                return f"vertex {list(v)}: its normal direction has no unique minimiser"
            (p,) = minimisers
            total = [t + m * x for t, x in zip(total, p)]
        if tuple(total) != tuple(v):
            return f"stored vertex {list(v)} is not a weighted sum of generating points"
    return None


_AXIOM_LINE = re.compile(r"^\(([APCNIS])\) [^:]+: (PASS|FAIL|SKIPPED) ", re.M)
_MU_LINE = re.compile(r"^  mu\(\{(\w+)\}\) = (\S+)$", re.M)
_VALUE_LINE = re.compile(r"^integral value: halfspaces: \[(.*)\]$", re.M)


def verdict_problem(command: str, functional: str, code: int, stdout: str, atoms, mu) -> str | None:
    """None when a check-axioms/reconstruct report is the known answer.

    ``functional`` is ``integral`` or ``ext`` (an integral: exit 0, all six
    axioms pass, ``reconstruct`` recovers ``mu`` exactly), ``ext-shift``
    (exit 1) or a mutant name (exit 1, only its target axiom fails)."""
    statuses = dict(_AXIOM_LINE.findall(stdout))
    if functional == "ext-shift":
        if code != 1 or "overall: FAIL" not in stdout:
            return f"shifted external functional: exit {code}, expected a FAIL verdict"
        return None
    if sorted(statuses) != sorted("APCNIS"):
        return f"report lists axioms {sorted(statuses)}"
    if functional in MUTANT_AXIOM:
        target = MUTANT_AXIOM[functional]
        failing = sorted(a for a, s in statuses.items() if s != "PASS")
        if code != 1 or failing != [target]:
            return f"mutant {functional}: exit {code}, non-passing axioms {failing}, expected [{target}]"
        if command == "reconstruct" and "reconstruction skipped" not in stdout:
            return "reconstruct of a mutant did not skip reconstruction"
        return None
    if code != 0 or any(s != "PASS" for s in statuses.values()):
        return f"integral functional: exit {code}, statuses {statuses}"
    if command == "reconstruct":
        recovered = dict(_MU_LINE.findall(stdout))
        for atom, weight in zip(atoms, mu):
            got = recovered.get(atom)
            if got is None or Fraction(got) != weight:
                return f"reconstructed mu({{{atom}}}) = {got}, expected {weight}"
        if "representation check" not in stdout or "status: PASS" not in stdout:
            return "representation check did not pass"
    return None


def oracle_problem(code: int, stdout: str, cone, mu, points) -> str | None:
    """The oracle passes every check, and the integral it prints has facet
    offsets equal to the weighted sums of supports of the generating points."""
    if code != 0:
        return f"oracle exit {code}"
    for check in ("containment", "attainment", "upper-set identity (value ⊕ C = value)", "support certificate"):
        if not re.search(rf"^{re.escape(check)}: pass", stdout, re.M):
            return f"oracle {check} did not pass"
    match = _VALUE_LINE.search(stdout)
    if not match:
        return "oracle printed no proper integral value"
    facets = []
    for row in re.findall(r"\[([^\[\]]*)\]", match.group(1)):
        entries = [Fraction(x) for x in row.split(",")]
        facets.append((tuple(entries[:-1]), entries[-1]))
    return facet_mismatch(facets, cone.generators, mu, points)
