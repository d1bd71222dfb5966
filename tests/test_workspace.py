"""Workspace parsing, validation diagnostics, and literal round-trips."""

import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from uppersets import Cone, orthant, workspace
from uppersets.linalg import NEG_INF, POS_INF
from uppersets.integral import ExplicitChain, ParametricChain
from uppersets.measure_space import constant_function, preimage, space
from uppersets.upperset import canonicalize, halfspace_set, point_plus_cone
from uppersets.workspace import (
    WorkspaceError,
    parse_set_literal,
    parse_vector,
    parse_workspace,
)

R2 = orthant(2)

MINIMAL = """
# a minimal workspace
dimension: 2
cone:
    generators: [1, 0] [0, 1]
    interior_point: [1, 1]
atoms: x1
measure mu:
    x1: 1
setfunction F:
    x1: cone
"""

FULL_FEATURED = """
dimension: 2
cone:
    generators: [1, 0] [0, 1]
    interior_point: [1, 1]
atoms: x1 x2
measure mu:
    x1: 1
    x2: 2
setfunction F:
    x1: halfspaces: [[1, 1, 1]]
    x2: points: [[0, 0], [2, -1]]
setfunction G:
    x1: points: [[1, 0]]
    x2: full
chain down:
    kind: explicit
    steps: F F
    limit: F
chain h:
    kind: harmonic-cone
    indices: 1 2 4
functional phi:
    kind: integral
    measure: mu
functional bad:
    kind: mutant
    name: nullity-pad
    measure: mu
functional ext:
    kind: external
    command: cat -
"""


def write(tmp_path, text, name="ws.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_minimal_workspace_loads(tmp_path):
    ws = parse_workspace(write(tmp_path, MINIMAL))
    assert ws.cone.dim == 2 and ws.space.atoms == ("x1",)
    assert ws.measures["mu"].total() == 1
    assert ws.setfunctions["F"].value("x1").set_equal(
        point_plus_cone(R2, (0, 0))
    )


def test_full_workspace_loads(tmp_path):
    ws = parse_workspace(write(tmp_path, FULL_FEATURED))
    assert set(ws.setfunctions) == {"F", "G"}
    assert ws.setfunctions["G"].value("x2").is_full
    assert isinstance(ws.chains["down"], ExplicitChain)
    assert isinstance(ws.chains["h"], ParametricChain)
    assert ws.functionals["ext"].command == ("cat", "-")
    assert ws.functionals["bad"].mutant == "nullity-pad"


def test_boundary_interior_point_rejected(tmp_path):
    bad = MINIMAL.replace("interior_point: [1, 1]", "interior_point: [1, 0]")
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(write(tmp_path, bad))
    assert "interior" in str(err.value)


def test_negative_weight_rejected(tmp_path):
    bad = MINIMAL.replace("x1: 1", "x1: -1", 1)
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(write(tmp_path, bad))
    assert "negative weight" in str(err.value)


def test_unknown_atom_rejected(tmp_path):
    bad = MINIMAL + "\nmeasure nu:\n    bogus: 1\n"
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(write(tmp_path, bad))
    assert "bogus" in str(err.value)


def test_empty_set_value_rejected(tmp_path):
    bad = MINIMAL + "\nsetfunction E:\n    x1: halfspaces: [[1, 0, 1], [-1, 0, 0]]\n"
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(write(tmp_path, bad))
    assert "empty" in str(err.value)


def test_missing_atom_in_setfunction_rejected(tmp_path):
    bad = FULL_FEATURED + "\nsetfunction H:\n    x1: cone\n"
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(write(tmp_path, bad))
    assert "missing atoms" in str(err.value)


def test_error_reports_line_numbers(tmp_path):
    path = write(tmp_path, MINIMAL.replace("x1: 1", "x1: oops", 1))
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(path)
    assert f"{path}:" in str(err.value)


def edited(old, new):
    """FULL_FEATURED with its first ``old`` replaced by ``new``; with ``old``
    None, ``new`` is appended (its first line is line 33)."""
    if old is None:
        return FULL_FEATURED + new
    assert old in FULL_FEATURED
    return FULL_FEATURED.replace(old, new, 1)


# (old, new, expected diagnostic after the path); line numbers refer to FULL_FEATURED
DIAGNOSTICS = {
    "missing-dimension": ("dimension: 2\n", "", ": missing required block 'dimension'"),
    "missing-cone": (
        "cone:\n    generators: [1, 0] [0, 1]\n    interior_point: [1, 1]\n",
        "",
        ": missing required block 'cone'",
    ),
    "missing-atoms": ("atoms: x1 x2\n", "", ": missing required block 'atoms'"),
    "duplicate-dimension": (None, "dimension: 3\n", ":33: duplicate block 'dimension'"),
    "duplicate-cone": (None, "cone:\n", ":33: duplicate block 'cone'"),
    "duplicate-atoms": (None, "atoms: x1\n", ":33: duplicate block 'atoms'"),
    "dimension-word": ("dimension: 2", "dimension: two", ":2: dimension must be an integer"),
    "dimension-empty": ("dimension: 2", "dimension:", ":2: dimension must be an integer"),
    "cone-unknown-entry": (
        "    interior_point: [1, 1]",
        "    apex: [1, 1]",
        ":5: unknown cone entry 'apex'",
    ),
    "cone-malformed-vector": (
        "interior_point: [1, 1]",
        "interior_point: [1, oops]",
        ":5: unexpected characters 'oops'",
    ),
    "cone-entry-without-colon": (
        "    interior_point: [1, 1]",
        "    interior_point [1, 1]",
        ":5: expected 'key: value', got 'interior_point [1, 1]'",
    ),
    "cone-no-generators": (
        "    generators: [1, 0] [0, 1]\n", "", ":3: cone block needs generators"
    ),
    "cone-no-interior": (
        "    interior_point: [1, 1]\n", "", ":3: cone block needs an interior_point"
    ),
    "cone-boundary-interior": (
        "interior_point: [1, 1]",
        "interior_point: [1, 0]",
        ":3: interior point [1, 0] is not interior: <c, [0, 1]> = 0 is not > 0",
    ),
    "atoms-empty": ("atoms: x1 x2", "atoms:", ":6: a measurable space needs at least one atom"),
    "atoms-duplicate": ("atoms: x1 x2", "atoms: x1 x1", ":6: atom identifiers must be distinct"),
    "indented-first-line": (
        "\ndimension: 2", "\n  dimension: 2", ":2: indented line outside any block"
    ),
    "header-three-words": (
        "measure mu:", "measure mu nu:", ":7: malformed header 'measure mu nu'"
    ),
    "header-without-colon": (
        "measure mu:", "measure mu", ":7: expected 'keyword:' or 'keyword name:'"
    ),
    "unknown-keyword": (None, "frobnicate x:\n", ":33: unknown block keyword 'frobnicate'"),
    # the scalar and vector blocks of earlier workspaces are unknown blocks too
    "unknown-keyword-scalar": (
        None, "scalar xi:\n    x1: 1\n    x2: -inf\n", ":33: unknown block keyword 'scalar'"
    ),
    "unknown-keyword-vector": (
        None, "vector f:\n    x1: [1, 0]\n", ":33: unknown block keyword 'vector'"
    ),
    "measure-no-name": ("measure mu:", "measure:", ":7: measure block needs a name"),
    "measure-duplicate": (None, "measure mu:\n    x1: 1\n", ":33: duplicate measure 'mu'"),
    "measure-unknown-atom": ("    x2: 2", "    x3: 2", ":9: unknown atom 'x3'"),
    "measure-bad-value": ("x2: 2", "x2: two", ":9: bad rational 'two'"),
    "measure-zero-denominator": ("x2: 2", "x2: 1/0", ":9: bad rational '1/0'"),
    "measure-inf": ("x2: 2", "x2: inf", ":9: bad rational 'inf'"),
    "measure-negative-weight": ("x2: 2", "x2: -2", ":7: negative weight -2 at atom 'x2'"),
    # a number is p or p/q in ASCII digits, with an optional leading '-'
    "measure-decimal": ("x2: 2", "x2: 0.5", ":9: bad rational '0.5'"),
    "measure-exponent": ("x2: 2", "x2: 1e1", ":9: bad rational '1e1'"),
    "measure-underscore": ("x2: 2", "x2: 1_000", ":9: bad rational '1_000'"),
    "dimension-underscore": ("dimension: 2", "dimension: 0_2", ":2: dimension must be an integer"),
    "chain-indices-plus": ("indices: 1 2 4", "indices: +1 2", ":22: indices must be integers"),
    "literal-non-ascii-digit": (
        "x2: points: [[0, 0], [2, -1]]",
        "x2: points: [[\u0663, 0], [2, -1]]",
        ":12: unexpected characters '\u0663'",
    ),
    "setfunction-no-name": (
        "setfunction F:", "setfunction:", ":10: set function block needs a name"
    ),
    "setfunction-duplicate": (
        "setfunction G:", "setfunction F:", ":13: duplicate set function 'F'"
    ),
    "setfunction-unknown-atom": (
        "    x2: points: [[0, 0], [2, -1]]",
        "    x3: points: [[0, 0], [2, -1]]",
        ":12: unknown atom 'x3'",
    ),
    "setfunction-bad-value": (
        "x2: points: [[0, 0], [2, -1]]",
        "x2: triangles: [[0, 0]]",
        ":12: unrecognized set literal 'triangles: [[0, 0]]'",
    ),
    "setfunction-missing-atom": (
        "    x2: points: [[0, 0], [2, -1]]\n",
        "",
        ":10: set function 'F' missing atoms ['x2']",
    ),
    "setfunction-empty-value": (
        "x2: points: [[0, 0], [2, -1]]",
        "x2: empty",
        ":10: set function value at 'x2' is empty",
    ),
    "setfunction-infinite-offset": (
        "x1: halfspaces: [[1, 1, 1]]",
        "x1: halfspaces: [[1, 1, inf]]",
        ":10: set function value at 'x1' is empty",
    ),
    "setfunction-wrong-dimension": (
        "x2: points: [[0, 0], [2, -1]]",
        "x2: points: [[0, 0, 0]]",
        ":12: point has dimension 3, expected 2",
    ),
    "chain-no-name": ("chain down:", "chain:", ":16: chain block needs a name"),
    "chain-duplicate": ("chain h:", "chain down:", ":20: duplicate chain 'down'"),
    "chain-no-kind": (
        "    kind: explicit\n",
        "",
        ":16: chain kind must be 'explicit' or 'harmonic-cone', got ''",
    ),
    "chain-bad-kind": (
        "kind: explicit",
        "kind: spiral",
        ":16: chain kind must be 'explicit' or 'harmonic-cone', got 'spiral'",
    ),
    "chain-no-limit": ("    limit: F\n", "", ":16: explicit chain needs steps and limit"),
    "chain-no-steps": ("steps: F F", "steps:", ":16: a chain needs at least one step"),
    "chain-unknown-step": (
        "steps: F F", "steps: F Q", ":18: unknown set function 'Q' (known: F, G)"
    ),
    "chain-unknown-limit": (
        "limit: F", "limit: Q", ":19: unknown set function 'Q' (known: F, G)"
    ),
    "chain-indices-word": ("indices: 1 2 4", "indices: 1 two", ":22: indices must be integers"),
    "chain-indices-decreasing": (
        "indices: 1 2 4",
        "indices: 4 2",
        ":20: parametric chain indices must be strictly increasing",
    ),
    "chain-indices-zero": (
        "indices: 1 2 4", "indices: 0 1", ":20: parametric chain indices must be positive"
    ),
    "functional-no-name": (
        "functional phi:", "functional:", ":23: functional block needs a name"
    ),
    "functional-duplicate": (
        "functional bad:", "functional phi:", ":26: duplicate functional 'phi'"
    ),
    "functional-no-kind": (
        "    kind: integral\n",
        "",
        ":23: functional kind must be integral, mutant or external, got ''",
    ),
    "functional-bad-kind": (
        "kind: integral",
        "kind: magic",
        ":23: functional kind must be integral, mutant or external, got 'magic'",
    ),
    "integral-no-measure": (
        "    measure: mu\nfunctional bad",
        "functional bad",
        ":23: functional 'phi' needs a measure",
    ),
    "integral-unknown-measure": (
        "    measure: mu\nfunctional bad",
        "    measure: nu\nfunctional bad",
        ":25: unknown measure 'nu' (known: mu)",
    ),
    "mutant-no-measure": (
        "    name: nullity-pad\n    measure: mu\n",
        "    name: nullity-pad\n",
        ":26: functional 'bad' needs a measure",
    ),
    "mutant-no-name": (
        "    name: nullity-pad\n", "", ":26: mutant functional 'bad' needs a mutant name"
    ),
    "external-no-command": (
        "    command: cat -\n", "", ":30: external functional 'ext' needs a command"
    ),
    # every entry is read: unknown or repeated keys, atoms and stray text are errors
    "chain-unknown-key": (
        "indices: 1 2 4", "indice: 1 2 4", ":22: unknown harmonic-cone chain entry 'indice'"
    ),
    "explicit-chain-unknown-key": (
        "    limit: F\n",
        "    limit: F\n    indices: 1 2\n",
        ":20: unknown explicit chain entry 'indices'",
    ),
    "chain-duplicate-key": (
        "    limit: F\n", "    limit: F\n    limit: G\n", ":20: duplicate chain entry 'limit'"
    ),
    "integral-unknown-key": (
        "    measure: mu\nfunctional bad",
        "    mesure: nu\nfunctional bad",
        ":25: unknown integral functional entry 'mesure'",
    ),
    "mutant-unknown-key": (
        "    name: nullity-pad\n",
        "    name: nullity-pad\n    command: cat -\n",
        ":29: unknown mutant functional entry 'command'",
    ),
    "external-unknown-key": (
        "    command: cat -\n",
        "    command: cat -\n    measure: mu\n",
        ":33: unknown external functional entry 'measure'",
    ),
    "functional-duplicate-key": (
        "    measure: mu\nfunctional bad",
        "    measure: mu\n    measure: mu\nfunctional bad",
        ":26: duplicate functional entry 'measure'",
    ),
    "measure-duplicate-atom": ("    x2: 2\n", "    x2: 2\n    x2: 5\n", ":10: duplicate atom 'x2'"),
    "setfunction-duplicate-atom": (
        "    x2: points: [[0, 0], [2, -1]]\n",
        "    x2: points: [[0, 0], [2, -1]]\n    x2: full\n",
        ":13: duplicate atom 'x2'",
    ),
    "cone-duplicate-entry": (
        "    interior_point: [1, 1]\n",
        "    interior_point: [1, 1]\n    interior_point: [2, 2]\n",
        ":6: duplicate cone entry 'interior_point'",
    ),
    "cone-generators-junk": (
        "generators: [1, 0] [0, 1]",
        "generators: [1, 0] junk [0, 1]",
        ":4: unexpected characters 'junk'",
    ),
    "cone-generators-bare-number": (
        "generators: [1, 0] [0, 1]",
        "generators: [1, 0] 2 [0, 1]",
        ":4: expected a nested vector in '[[1, 0] 2 [0, 1]]'",
    ),
    # values without a vector, or nested too deep, are diagnostics too
    "cone-empty-interior-point": ("interior_point: [1, 1]", "interior_point:", ":5: expected '['"),
    "setfunction-empty-points": (
        "x2: points: [[0, 0], [2, -1]]", "x2: points:", ":12: expected '['"
    ),
    "setfunction-point-nested-too-deep": (
        "x2: points: [[0, 0], [2, -1]]",
        "x2: points: [[[0, 0]]]",
        ":12: expected a nested vector in '[[[0, 0]]]'",
    ),
    "setfunction-point-nested-1200-deep": (
        "x2: points: [[0, 0], [2, -1]]",
        "x2: points: " + "[" * 1200 + "]" * 1200,
        ":12: expected a nested vector in " + repr("[" * 1200 + "]" * 1200),
    ),
    # inf and -inf: only a halfspace offset may be infinite
    "inf-generator": (
        "generators: [1, 0] [0, 1]",
        "generators: [inf, 0] [0, 1]",
        ":4: unexpected inf: only halfspace offsets may be infinite",
    ),
    "inf-interior-point": (
        "interior_point: [1, 1]",
        "interior_point: [1, -inf]",
        ":5: unexpected -inf: only halfspace offsets may be infinite",
    ),
    "inf-point": (
        "x2: points: [[0, 0], [2, -1]]",
        "x2: points: [[inf, 0]]",
        ":12: unexpected inf: only halfspace offsets may be infinite",
    ),
    "inf-ray": (
        "x2: points: [[0, 0], [2, -1]]",
        "x2: points: [[0, 0]] rays: [[1, -inf]]",
        ":12: unexpected -inf: only halfspace offsets may be infinite",
    ),
    "inf-halfspace-normal": (
        "x1: halfspaces: [[1, 1, 1]]",
        "x1: halfspaces: [[inf, 1, 1]]",
        ":11: unexpected inf: only halfspace offsets may be infinite",
    ),
    "literal-unterminated-bracket": (
        "    x1: points: [[1, 0]]", "    x1: points: [[0, 0]", ":14: unterminated '['"
    ),
    "cone-trailing-number": (
        "interior_point: [1, 1]",
        "interior_point: [1, 1] 2",
        ":5: malformed vector '[1, 1] 2'",
    ),
    "cone-nested-entry": (
        "interior_point: [1, 1]",
        "interior_point: [[1], 1]",
        ":5: malformed vector '[[1], 1]'",
    ),
    "literal-trailing-tokens": (
        "x2: points: [[0, 0], [2, -1]]",
        "x2: points: [[0, 0]] [1]",
        ":12: trailing tokens in '[[0, 0]] [1]'",
    ),
    "literal-duplicate-segment": (
        "x2: points: [[0, 0], [2, -1]]",
        "x2: points: [[0, 0]] points: [[1, 1]]",
        ":12: duplicate segment 'points'",
    ),
}


@pytest.mark.parametrize("old, new, expected", DIAGNOSTICS.values(), ids=DIAGNOSTICS)
def test_workspace_diagnostics(tmp_path, old, new, expected):
    path = write(tmp_path, edited(old, new))
    with pytest.raises(WorkspaceError) as err:
        parse_workspace(path)
    assert str(err.value) == path + expected


NUMBER_FIELDS = """
dimension: 2
cone:
    generators: [1, 0] [0, 1]
    interior_point: [1, 1]
atoms: x1
measure mu:
    x1: {weight}
setfunction F:
    x1: points: [[{text}, 0]]
"""


@settings(max_examples=40, deadline=None)
@given(st.integers(-10**20, 10**20), st.integers(1, 10**20))
def test_p_and_p_over_q_read_as_one_rational_in_every_field(p, q):
    """``p`` and ``p/q`` read as Fraction(p, q) as a measure weight, a literal
    entry and the CLI's ``--scalar`` (the weight and ``--scalar`` unsigned)."""
    import contextlib
    import io
    import tempfile

    from uppersets.cli import main

    for text, value in ((str(p), Fraction(p)), (f"{p}/{q}", Fraction(p, q))):
        unsigned = text.lstrip("-")
        with tempfile.TemporaryDirectory() as tmp:
            path = write(Path(tmp), NUMBER_FIELDS.format(weight=unsigned, text=text))
            ws = parse_workspace(path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["lattice", path, "scale", "F", "--scalar", unsigned]) == 0
        assert ws.measures["mu"].weight("x1") == abs(value)
        F = ws.setfunctions["F"]
        assert F.value("x1").set_equal(point_plus_cone(R2, (value, 0)))
        scaled = F.scale(abs(value)).value("x1").literal()
        assert out.getvalue() == f"pointwise scale of F:\nx1: {scaled}\n"


def test_readme_workspace_example_loads(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = [
        block.split("```", 1)[0]
        for block in readme.split("```text\n")[1:]
        if block.startswith("dimension:")
    ]
    ws = parse_workspace(write(tmp_path, example))
    assert set(ws.functionals) == {"bad", "ext", "phi"}
    assert set(ws.chains) == {"down", "h"}


def test_loading_a_harmonic_chain_makes_no_double_description_run(tmp_path, ddm_runs):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    (example,) = [
        block.split("```", 1)[0]
        for block in readme.split("```text\n")[1:]
        if block.startswith("dimension:")
    ]
    without = re.sub(r"chain h:\n(    .*\n)+", "", example)
    assert without != example and "harmonic-cone" not in without
    path = write(tmp_path, without, "without.txt")
    parse_workspace(path)  # the first load also fills caches keyed by the cone
    before = len(ddm_runs)
    parse_workspace(path)
    runs = len(ddm_runs) - before
    ws = parse_workspace(write(tmp_path, example))
    assert isinstance(ws.chains["h"], ParametricChain)
    assert len(ddm_runs) - before == 2 * runs


def test_parse_vector_rationals():
    assert parse_vector("[1/2, -3]") == (Fraction(1, 2), Fraction(-3))
    with pytest.raises(ValueError):
        parse_vector("[1, oops]")


def test_set_literal_forms():
    assert parse_set_literal("empty", R2).is_empty
    assert parse_set_literal("full", R2).is_full
    assert parse_set_literal("cone", R2).set_equal(point_plus_cone(R2, (0, 0)))
    d = parse_set_literal("halfspaces: [[1, 1, -inf], [1, 0, 2]]", R2)
    assert d.set_equal(halfspace_set(R2, (1, 0), 2))
    v = parse_set_literal("points: [[0, 0], [1, -1]] rays: [[2, 1]]", R2)
    assert v.member((1, -1)) and v.member((3, 0))


def test_set_literal_rejects_garbage():
    with pytest.raises(ValueError):
        parse_set_literal("triangles: [[1]]", R2)
    with pytest.raises(ValueError):
        parse_set_literal("halfspaces: [[1, 1]]", R2)  # missing offset
    with pytest.raises(ValueError):
        parse_set_literal("rays: [[1, 0]]", R2)  # rays without points


def test_literal_round_trip_random():
    rng = random.Random(0)
    for _ in range(40):
        pts = [
            tuple(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)) ) for _ in range(2))
            for _ in range(rng.randint(1, 3))
        ]
        d = canonicalize(R2, points=pts)
        assert parse_set_literal(d.literal(), R2).set_equal(d)
    for special in ("empty", "full"):
        assert parse_set_literal(special, R2).literal() == special


LITERAL_CONES = {
    "orthant2": R2,
    "wedge2": Cone(2, ((1, 0), (1, 1)), (2, 1)),
    "orthant3": orthant(3),
    "half-plane": Cone(2, ((1, 1), (1, -1), (-1, 1)), (1, 1)),
}
NUMBERS = st.tuples(st.integers(-4, 4), st.sampled_from((1, 1, 2, 3, 4)))  # (p, q), written p or p/q
OFFSETS = st.one_of(NUMBERS, NUMBERS, NUMBERS, st.sampled_from(("inf", "-inf")))


@st.composite
def halfspace_rows(draw):
    """A cone, rows (normal, offset) of numbers (p, q) or an infinite offset, and
    the text between entries: either normals in C+ or anywhere, each row
    possibly followed by a duplicate, a positive multiple or a looser copy, in
    a drawn order, or the rows of ``written_rows``."""
    cone = draw(st.sampled_from(list(LITERAL_CONES.values())))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):  # in C+, over a common denominator
            ks = [draw(st.integers(0, 2)) for _ in cone.dual_generators]
            q = draw(st.sampled_from((1, 2, 3)))
            normal = [(sum(k * g[i] for k, g in zip(ks, cone.dual_generators)), q) for i in range(cone.dim)]
        else:
            normal = [draw(NUMBERS) for _ in range(cone.dim)]
        if not any(p for p, _ in normal):
            continue
        offset = draw(OFFSETS)
        rows.append((normal, offset))
        finite = offset not in ("inf", "-inf")
        copy = draw(st.sampled_from(("none", "duplicate", "scaled", "looser")))
        if copy == "duplicate":
            rows.append((normal, offset))
        elif copy == "scaled":
            k = draw(st.integers(2, 3))
            rows.append(([(k * p, q) for p, q in normal], (k * offset[0], offset[1]) if finite else offset))
        elif copy == "looser" and finite:
            rows.append((normal, (offset[0] - offset[1], offset[1])))
    rows = draw(st.permutations(rows)) if draw(st.booleans()) else draw(written_rows(cone))
    return cone, rows, draw(st.sampled_from((", ", ", ", ", ", ",", " ,  ")))


@st.composite
def written_rows(draw, cone):
    """The facets of the canonical form of a set of drawn points, as rows
    (normal, offset) written as ``UpperSet.literal`` writes them, or with one
    change: a redundant row, an unsorted pair, a non-primitive normal or an
    offset not in lowest terms."""
    rational = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
    s = canonicalize(cone, points=draw(st.lists(st.tuples(*[rational] * cone.dim), min_size=1, max_size=4)))
    offsets = [Fraction(n, s.denominator) for _, n in s.facets]
    rows = [([(x, 1) for x in w], (b.numerator, b.denominator)) for (w, _), b in zip(s.facets, offsets)]
    change = draw(st.sampled_from(("none", "redundant", "unsorted", "non-primitive", "unreduced")))
    i = draw(st.integers(0, len(rows) - 1))
    k = draw(st.integers(2, 3))
    w, (p, q) = rows[i]
    if change == "redundant":  # a normal in C+ with an offset at or below the support there
        u = [sum(g[j] for g in cone.dual_generators) + x for j, (x, _) in enumerate(w)]
        if s.support(u) == NEG_INF:  # the set has more recession directions than C
            u = [x for x, _ in w]
        b = s.support(u) - draw(st.integers(0, 1))
        rows.insert(draw(st.integers(0, len(rows))), ([(x, 1) for x in u], (b.numerator, b.denominator)))
    elif change == "unsorted" and len(rows) > 1:
        rows[i - 1], rows[i] = rows[i], rows[i - 1]
    elif change == "non-primitive":
        rows[i] = ([(k * x, 1) for x, _ in w], (k * p, q))
    elif change == "unreduced":
        rows[i] = (w, (k * p, k * q))
    return rows


def written(number) -> str:
    if isinstance(number, str):
        return number
    p, q = number
    return str(p) if q == 1 else f"{p}/{q}"


def as_rational(number):
    if isinstance(number, str):
        return POS_INF if number == "inf" else NEG_INF
    return Fraction(*number)


@settings(max_examples=150, deadline=None)
@given(halfspace_rows())
def test_a_halfspace_literal_parses_to_the_set_of_its_rows_as_fractions(drawn):
    # drawn rows in any order, and the canonical rows of a set with one change
    # or none, each with ", " between entries as a literal is written (read in
    # one pass) or with other spacing (read as tokens)
    cone, rows, comma = drawn
    text = "halfspaces: [" + comma.join(
        "[" + comma.join(written(x) for x in (*normal, offset)) + "]" for normal, offset in rows
    ) + "]"
    pairs = [(tuple(as_rational(x) for x in normal), as_rational(offset)) for normal, offset in rows]
    parsed, expected = parse_set_literal(text, cone), canonicalize(cone, halfspaces=pairs)
    assert parsed == expected
    assert (parsed.numerators, parsed.rays, parsed.lineality) == (
        expected.numerators, expected.rays, expected.lineality
    )


# literals near the form ``UpperSet.literal`` writes: what each parses to, or
# the error it raises, as before the one-pass read; a row of the wrong length
# is refused by ``canonicalize``, the one checker of a row, as the API's is
NEAR_MISSES = {
    "zero-denominator": ("halfspaces: [[1, 1, 1/0]]", "ValidationError: bad rational literal '1/0'"),
    "zero-denominator-with-zeros": ("halfspaces: [[1, 1, 1/00]]", "ValidationError: bad rational literal '1/00'"),
    "short-row": (
        "halfspaces: [[1, 1, 1], [1, 1]]", "DimensionMismatchError: halfspace normal has dimension 1, expected 2"
    ),
    "long-row": ("halfspaces: [[1, 1, 1, 1]]", "DimensionMismatchError: halfspace normal has dimension 3, expected 2"),
    "empty-row": ("halfspaces: [[1, 1, 1], []]", "ValueError: halfspace row needs an offset"),
    "missing-bracket": ("halfspaces: [[1, 1, 1], [1, 0, 2]", "ValueError: unterminated '['"),
    "extra-bracket": ("halfspaces: [[1, 1, 1]]]", "ValueError: trailing tokens in '[[1, 1, 1]]]'"),
    "no-comma-between-rows": ("halfspaces: [[1, 1, 1] [1, 0, 2]]", "halfspaces: [[1, 0, 2], [1, 1, 1]]"),
    "trailing-comma": ("halfspaces: [[1, 1, 1], ]", "halfspaces: [[1, 1, 1]]"),
    "trailing-comma-in-a-row": ("halfspaces: [[1, 1, 1,]]", "halfspaces: [[1, 1, 1]]"),
    "minus-inf-offset": ("halfspaces: [[1, 1, 1], [1, 0, -inf]]", "halfspaces: [[1, 1, 1]]"),
    "minus-inf-entry": (
        "halfspaces: [[1, -inf, 1]]", "ValueError: unexpected -inf: only halfspace offsets may be infinite"
    ),
    "zero-normal": ("halfspaces: [[1, 1, 1], [0, 0, 1]]", "ValidationError: halfspace normal must be nonzero"),
    "fraction-in-a-normal": ("halfspaces: [[1/2, 1, 1]]", "halfspaces: [[1, 2, 2]]"),
    "leading-zeros": ("halfspaces: [[1, 1, 01/02]]", "halfspaces: [[1, 1, 1/2]]"),
    "two-segments": ("halfspaces: [[0, 1, 1], [1, 0, 1]] points: [[1, 1]]", "halfspaces: [[0, 1, 1], [1, 0, 1]]"),
}


@pytest.mark.parametrize("text, outcome", NEAR_MISSES.values(), ids=NEAR_MISSES)
def test_a_literal_near_the_written_form_reads_as_before(text, outcome):
    try:
        got = parse_set_literal(text, R2).literal()
    except ValueError as exc:
        got = f"{type(exc).__name__}: {exc}"
    assert got == outcome


# one malformed row each: as a pair (normal, offset), as an integer row (w, n, e)
# (None where a row has no such entry), as written in a literal, and the error
# ``canonicalize`` raises for it; a literal's float is the tokenizer's error
MALFORMED_ROWS = {
    "float-normal-entry": (
        ((0.5, 1), 1), ((0.5, 1), 1, 1), "[0.5, 1, 1]",
        "ValidationError: halfspace normal entry 0.5 is not an int, a Fraction or a string 'p' or 'p/q'",
    ),
    "float-offset": (
        ((1, 1), 0.5), None, "[1, 1, 0.5]",
        "ValidationError: halfspace offset 0.5 is not an int, a Fraction or a string 'p' or 'p/q'",
    ),
    "short-normal": (
        ((1,), 1), ((1,), 1, 1), "[1, 1]", "DimensionMismatchError: halfspace normal has dimension 1, expected 2"
    ),
    "zero-normal": (((0, 0), 1), ((0, 0), 1, 1), "[0, 0, 1]", "ValidationError: halfspace normal must be nonzero"),
}


def _error(build) -> str:
    with pytest.raises(ValueError) as exc:
        build()
    return f"{type(exc.value).__name__}: {exc.value}"


@pytest.mark.parametrize("pair, row, literal, error", MALFORMED_ROWS.values(), ids=MALFORMED_ROWS)
def test_a_malformed_row_is_refused_before_and_after_an_infinite_offset(monkeypatch, pair, row, literal, error):
    # canonicalize reads every row before it decides, so a row with offset +inf
    # does not end the read as the empty set, wherever it stands
    F = constant_function(space("x1", "x2"), canonicalize(R2, points=[(0, 0)]))
    for pairs in ([pair], [((1, 1), POS_INF), pair], [pair, ((1, 1), POS_INF)]):
        assert _error(lambda: canonicalize(R2, halfspaces=pairs)) == error
        assert _error(lambda: preimage(F, pairs)) == error
    for rows in ([row], [((1, 1), 1, 0), row], [row, ((1, 1), 1, 0)]) if row else ():
        assert _error(lambda: canonicalize(R2, rows=rows)) == error
    # the row alone is in the written form, read in one pass where it matches;
    # beside the +inf offset, and with the one-pass read off, it is tokenized
    alone = f"halfspaces: [{literal}]"
    texts = [alone, f"halfspaces: [[1, 1, inf], {literal}]", f"halfspaces: [{literal}, [1, 1, inf]]"]
    literal_error = _error(lambda: parse_set_literal(alone, R2))
    assert literal_error == (error if "." not in literal else "ValueError: unexpected characters '.'")
    assert [_error(lambda: parse_set_literal(t, R2)) for t in texts] == [literal_error] * 3
    monkeypatch.setattr(workspace, "_written_rows", lambda text: None)
    assert [_error(lambda: parse_set_literal(t, R2)) for t in texts] == [literal_error] * 3


def test_a_literal_as_written_is_read_without_tokens(monkeypatch):
    # the form UpperSet.literal writes is read in one pass, with no tokens
    sets = [
        canonicalize(cone, points=[(0,) * cone.dim, (1,) + (Fraction(-1, 2),) * (cone.dim - 1)])
        for cone in LITERAL_CONES.values()
    ]
    monkeypatch.setattr(workspace, "_tokenize", None)
    parsed = [parse_set_literal(s.literal(), s.cone) for s in sets]
    assert [(p, p.numerators, p.rays, p.lineality) for p in parsed] == [
        (s, s.numerators, s.rays, s.lineality) for s in sets
    ]
