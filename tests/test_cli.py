"""CLI commands end to end, including the external-functional protocol."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uppersets
from uppersets.cli import main

FIXTURES = Path(__file__).parent / "fixtures"

WS = """
dimension: 2
cone:
    generators: [1, 0] [0, 1]
    interior_point: [1, 1]
atoms: x1 x2
measure mu:
    x1: 1
    x2: 2
measure nu:
    x1: 1
    x2: 1
setfunction F:
    x1: points: [[1, 0]]
    x2: points: [[0, 1]]
setfunction G:
    x1: halfspaces: [[1, 1, 1]]
    x2: points: [[0, 0], [1, -1]]
chain h:
    kind: harmonic-cone
    indices: 1 2 4 8
chain stab:
    kind: explicit
    steps: F F
    limit: F
functional phi:
    kind: integral
    measure: mu
functional bad:
    kind: mutant
    name: additivity-shift
    measure: mu
"""


@pytest.fixture()
def ws_path(tmp_path):
    p = tmp_path / "ws.txt"
    p.write_text(WS)
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_integrate(ws_path, capsys):
    code, out, _ = run(capsys, "integrate", ws_path, "F", "mu")
    assert code == 0
    assert "value: halfspaces: [[0, 1, 2], [1, 0, 1]]" in out
    assert "certificate: pass" in out


def test_integrate_unknown_name(ws_path, capsys):
    code, _, err = run(capsys, "integrate", ws_path, "missing", "mu")
    assert code == 2
    assert "unknown set function" in err


@pytest.mark.parametrize(
    "old, new",
    [
        ("indices: 1 2 4 8", "indice: 1 2 4"),
        ("    measure: mu\nfunctional bad", "    mesure: nu\nfunctional bad"),
    ],
)
def test_unknown_workspace_entry_exits_2(tmp_path, capsys, old, new):
    p = tmp_path / "ws.txt"
    p.write_text(WS.replace(old, new, 1))
    code, out, err = run(capsys, "chain-check", str(p), "h", "mu")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "unknown" in err and err.count("\n") == 1


def test_integrate_over(ws_path, capsys):
    code, out, _ = run(capsys, "integrate-over", ws_path, "F", "mu", "x1")
    assert code == 0
    assert "value: halfspaces: [[0, 1, 0], [1, 0, 1]]" in out
    code, out, _ = run(capsys, "integrate-over", ws_path, "F", "nu", "x2")
    assert "[[0, 1, 1], [1, 0, 0]]" in out


def test_integrate_over_the_empty_subset(ws_path, capsys):
    code, out, err = run(capsys, "integrate-over", ws_path, "F", "mu", "--")
    assert (code, err) == (0, "")
    assert out.splitlines()[:3] == [
        "integral of F over {} with respect to mu",
        "mass of subset: 0",
        "value: halfspaces: [[0, 1, 0], [1, 0, 0]]",
    ]


def test_integrate_over_names_each_atom_once(ws_path, capsys):
    code, out, _ = run(capsys, "integrate-over", ws_path, "F", "mu", "x1", "x1")
    assert code == 0
    assert out.splitlines()[:2] == [
        "integral of F over {x1} with respect to mu",
        "mass of subset: 1",
    ]


def oracle_stdout(value):
    """The full report of ``oracle … --trials 50 --seed 7`` on a passing integral."""
    return (
        "flags: seed=7 trials=50\n"
        "selection oracle: trials=50 seed=7\n"
        f"integral value: {value}\n"
        "containment: pass (50 random selections)\n"
        "attainment: pass (1 extreme points decomposed)\n"
        "upper-set identity (value ⊕ C = value): pass\n"
        "support certificate: pass\n"
    )


def test_oracle(ws_path, capsys):
    code, out, _ = run(capsys, "oracle", ws_path, "G", "mu", "--trials", "50", "--seed", "7")
    assert code == 0
    assert out == oracle_stdout("halfspaces: [[1, 1, 1]]")
    code, out, _ = run(capsys, "oracle", ws_path, "F", "mu", "--trials", "50", "--seed", "7")
    assert code == 0
    assert out == oracle_stdout("halfspaces: [[0, 1, 2], [1, 0, 1]]")


def test_lattice_ops(ws_path, capsys):
    code, out, _ = run(capsys, "lattice", ws_path, "oplus", "F", "F")
    assert code == 0
    assert "x1: halfspaces: [[0, 1, 0], [1, 0, 2]]" in out
    code, out, _ = run(capsys, "lattice", ws_path, "scale", "F", "--scalar", "3/2")
    assert "x1: halfspaces: [[0, 1, 0], [1, 0, 3/2]]" in out
    code, out, _ = run(capsys, "lattice", ws_path, "inf", "F", "G")
    assert code == 0 and "x1:" in out
    code, out, _ = run(capsys, "lattice", ws_path, "sup", "F", "G")
    assert code == 0


def test_lattice_oplus_of_three_is_the_pairwise_sum(ws_path, capsys):
    ws = uppersets.parse_workspace(ws_path)
    F, G = ws.setfunction("F"), ws.setfunction("G")
    code, out, _ = run(capsys, "lattice", ws_path, "oplus", "F", "G", "F")
    assert code == 0
    assert out.splitlines()[1:] == [f"{a}: {v.literal()}" for a, v in zip(ws.space.atoms, F.oplus(G).oplus(F).values)]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["oplus", "F"], "oplus needs at least two set functions"),
        (["scale", "F"], "scale needs --scalar and exactly one set function"),
        (["scale", "F", "G", "--scalar", "2"], "scale needs --scalar and exactly one set function"),
    ],
)
def test_lattice_usage_errors_exit_2(ws_path, capsys, argv, message):
    code, out, err = run(capsys, "lattice", ws_path, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("seed", ["0", "1", "2", "3"])
def test_unknown_mutant_exits_2(ws_path, capsys, seed):
    # the name is looked up before the catalog is built, so no seed's refusal hides it
    code, _, err = run(capsys, "check-axioms", ws_path, "mutant:no-such-mutant:mu", "--seed", seed)
    assert code == 2
    assert err == (
        "error: unknown mutant 'no-such-mutant' (available: additivity-shift, continuity-jump, "
        "homogeneity-translate, indicator-deform, interchange-tighten, nullity-pad)\n"
    )


@pytest.mark.parametrize(
    "functional, message",
    [
        ("mutant:foo", "inline mutant form is mutant:NAME:MEASURE"),
        (
            "nope",
            "{ws}: unknown functional 'nope'; use a workspace name, integral:MEASURE "
            "or mutant:NAME:MEASURE",
        ),
    ],
    ids=["mutant-without-measure", "unknown-functional"],
)
def test_malformed_functional_name_exits_2(ws_path, capsys, functional, message):
    code, out, err = run(capsys, "check-axioms", ws_path, functional)
    assert (code, out, err) == (2, "", f"error: {message.format(ws=ws_path)}\n")


def test_chain_check(ws_path, capsys):
    code, out, _ = run(capsys, "chain-check", ws_path, "h", "mu")
    assert code == 0 and "parametric" in out
    code, out, _ = run(capsys, "chain-check", ws_path, "stab", "mu")
    assert code == 0 and "explicit" in out


def test_chain_check_schedule_override(ws_path, capsys):
    # mass * <c,w> = 3; a bound of 1/n is too tight for the harmonic chain
    code, out, _ = run(
        capsys, "chain-check", ws_path, "h", "mu", "--epsilon-schedule", "1"
    )
    assert code == 1
    assert "exceeds schedule" in out
    code, _, _ = run(capsys, "chain-check", ws_path, "h", "mu", "--epsilon-schedule", "3")
    assert code == 0
    code, out, _ = run(capsys, "chain-check", ws_path, "h", "mu", "--epsilon-schedule", "6/2")
    assert code == 0
    assert "epsilon-schedule=6/2" in out.splitlines()[0]


def test_chain_check_flags_line_has_no_seed(ws_path, capsys):
    # chain-check draws no random numbers, so it takes no --seed
    code, out, _ = run(capsys, "chain-check", ws_path, "h", "mu")
    assert code == 0
    assert out.splitlines()[0] == "flags: epsilon-schedule=auto"
    with pytest.raises(SystemExit) as exc:
        main(["chain-check", ws_path, "h", "mu", "--seed", "1"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["chain-check", "WS", "h", "mu", "--epsilon-schedule", "abc"],
        ["chain-check", "WS", "h", "mu", "--epsilon-schedule", "1/0"],
        ["lattice", "WS", "scale", "F", "--scalar", "abc"],
        ["lattice", "WS", "scale", "F", "--scalar", "1/0"],
        ["lattice", "WS", "inf", "F", "G", "--scalar", "abc"],
        ["lattice", "WS", "oplus", "F", "G", "--scalar", "3"],
        ["check-axioms", "WS", "phi", "--sample-count", "0"],
        ["check-axioms", "WS", "mutant:nullity-pad:mu", "--sample-count", "2"],
        ["check-axioms", "WS", "phi", "--w-samples", "-5"],
        ["chain-check", "WS", "h", "mu", "--epsilon-schedule", "-1"],
        ["chain-check", "WS", "stab", "mu", "--epsilon-schedule", "-1"],
        ["chain-check", "WS", "stab", "mu", "--epsilon-schedule", "1/3"],
        ["oracle", "WS", "F", "mu", "--trials", "0"],
        ["lattice", "WS", "scale", "F", "--scalar", "1.5"],
        ["chain-check", "WS", "h", "mu", "--epsilon-schedule", "0.5"],
    ],
)
def test_bad_option_values_exit_2(ws_path, capsys, argv):
    code, out, err = run(capsys, *(ws_path if a == "WS" else a for a in argv))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


MANY_DIGITS = "1" * 5000  # more than int() reads by default
has_digit_limit = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="int() reads any number of digits")


@has_digit_limit
def test_a_scalar_with_more_digits_than_int_reads_exits_2(ws_path, capsys):
    # Fraction() raised its own ValueError past the digit limit: exit 1 with a traceback
    code, out, err = run(capsys, "lattice", ws_path, "scale", "F", "--scalar", MANY_DIGITS)
    assert (code, out) == (2, "")
    assert err == f"error: --scalar expects a rational number, got {MANY_DIGITS!r}\n"


def test_check_axioms_integral(ws_path, capsys):
    code, out, _ = run(
        capsys, "check-axioms", ws_path, "phi", "--sample-count", "8", "--seed", "1"
    )
    assert code == 0
    assert "overall: PASS" in out
    assert "flags:" in out and "seed=1" in out


def test_check_axioms_inline_and_mutant(ws_path, capsys):
    code, out, _ = run(
        capsys, "check-axioms", ws_path, "integral:mu", "--sample-count", "8"
    )
    assert code == 0
    code, out, _ = run(
        capsys, "check-axioms", ws_path, "mutant:nullity-pad:mu", "--sample-count", "8"
    )
    assert code == 1
    assert "(N) nullity on homogeneous halfspaces: FAIL" in out
    assert "(A) additivity: PASS" in out


def test_reconstruct_integral(ws_path, capsys):
    code, out, _ = run(
        capsys, "reconstruct", ws_path, "phi", "--sample-count", "8", "--seed", "2"
    )
    assert code == 0
    assert "mu({x1}) = 1" in out and "mu({x2}) = 2" in out
    assert "representation check" in out and "status: PASS" in out


def test_reconstruct_mutant_stops_at_axioms(ws_path, capsys):
    code, out, _ = run(
        capsys, "reconstruct", ws_path, "bad", "--sample-count", "8"
    )
    assert code == 1
    assert "reconstruction skipped" in out


WS3 = """
dimension: 2
cone:
    generators: [1, 0] [0, 1]
    interior_point: [1, 1]
atoms: x1 x2 x3
measure mu:
    x1: 1
    x2: 2
    x3: 3
"""


def test_reconstruct_exits_1_when_the_reading_fails(tmp_path, capsys, monkeypatch):
    from uppersets import cli
    from uppersets.axioms import SetFunctional
    from uppersets.integral import aumann_integral
    from uppersets.measure_space import ScalarFunction, cone_translates

    def pair_shifted(ws, name, samples):
        # the integral, except that the pair indicator's value moves by c
        mu, cone = ws.measure("mu"), ws.cone
        pair = cone_translates(ScalarFunction.indicator(ws.space, ["x1", "x2"]), cone)

        def evaluate(F):
            value = aumann_integral(F, mu).value
            return value.translate(cone.interior_point) if F == pair else value

        return SetFunctional("pair-shifted", evaluate)

    monkeypatch.setattr(cli, "_build_functional", pair_shifted)
    p = tmp_path / "ws3.txt"
    p.write_text(WS3)
    code, out, err = run(capsys, "reconstruct", str(p), "integral:mu")
    assert (code, err) == (1, "")
    assert "overall: PASS" in out
    assert out.endswith(
        "  additivity failure: phi(1_A) for A = {x1, x2} is 4, expected 3\n  status: FAILED\n"
    )
    assert "representation check" not in out


def test_reports_are_deterministic(ws_path, capsys):
    _, first, _ = run(capsys, "check-axioms", ws_path, "phi", "--sample-count", "6")
    _, second, _ = run(capsys, "check-axioms", ws_path, "phi", "--sample-count", "6")
    assert first == second


def test_external_functional_passes(ws_path, capsys, tmp_path):
    fixture = FIXTURES / "external_integral.py"
    ws_text = WS + (
        f"functional ext:\n    kind: external\n"
        f"    command: {sys.executable} {fixture} {ws_path} mu\n"
    )
    p = tmp_path / "ws_ext.txt"
    p.write_text(ws_text)
    code, out, _ = run(
        capsys, "check-axioms", str(p), "ext", "--sample-count", "6", "--seed", "3"
    )
    assert code == 0, out
    assert "overall: PASS" in out


def test_external_functional_shifted_fails(ws_path, capsys, tmp_path):
    fixture = FIXTURES / "external_integral.py"
    ws_text = WS + (
        f"functional ext:\n    kind: external\n"
        f"    command: {sys.executable} {fixture} {ws_path} mu shift\n"
    )
    p = tmp_path / "ws_ext.txt"
    p.write_text(ws_text)
    code, out, _ = run(
        capsys, "check-axioms", str(p), "ext", "--sample-count", "6", "--seed", "3"
    )
    assert code == 1
    assert "FAIL" in out


def test_external_functional_garbage_is_protocol_error(ws_path, capsys, tmp_path):
    ws_text = WS + "functional ext:\n    kind: external\n    command: cat -\n"
    p = tmp_path / "ws_ext.txt"
    p.write_text(ws_text)
    code, _, err = run(capsys, "check-axioms", str(p), "ext", "--sample-count", "4")
    assert code == 2
    assert "error:" in err


def test_external_infinite_point_is_protocol_error(ws_path, capsys, tmp_path):
    child = tmp_path / "infinite_child.py"
    child.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == 'end':\n"
        "        print('points: [[inf, 0]]', flush=True)\n"
    )
    p = tmp_path / "ws_ext.txt"
    p.write_text(WS + f"functional ext:\n    kind: external\n    command: {sys.executable} {child}\n")
    code, out, err = run(capsys, "check-axioms", str(p), "ext", "--sample-count", "4")
    assert code == 2
    assert out.startswith("flags: ") and out.count("\n") == 1
    assert err == (
        "error: unparsable response 'points: [[inf, 0]]': "
        "unexpected inf: only halfspace offsets may be infinite\n"
    )


def test_external_command_that_cannot_start_exits_2(ws_path, capsys, tmp_path):
    missing = tmp_path / "no-such-child"
    p = tmp_path / "ws_ext.txt"
    p.write_text(WS + f"functional ext:\n    kind: external\n    command: {missing}\n")
    code, out, err = run(capsys, "check-axioms", str(p), "ext", "--sample-count", "4")
    assert code == 2
    assert out.startswith("flags: ") and out.count("\n") == 1
    assert err.startswith(f"error: cannot start external:{missing}: ") and err.count("\n") == 1


def one_shot_child(tmp_path):
    """A child that answers one request and exits."""
    child = tmp_path / "one_shot_child.py"
    child.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == 'end':\n"
        "        print('cone', flush=True)\n"
        "        break\n"
    )
    return child


def test_external_child_that_has_exited_is_a_protocol_error(tmp_path):
    from uppersets import orthant
    from uppersets.measure_space import constant_function, space
    from uppersets.protocol import ExternalFunctional, ProtocolError
    from uppersets.upperset import cone_upper_set

    child = one_shot_child(tmp_path)
    cone = orthant(2)
    F = constant_function(space("x1", "x2"), cone_upper_set(cone))
    external = ExternalFunctional((sys.executable, str(child)), cone)
    try:
        assert external(F).set_equal(cone_upper_set(cone))
        external._proc.wait(timeout=30)
        with pytest.raises(ProtocolError, match="exited with code 0"):
            external(F)
    finally:
        external.close()


def test_external_child_exiting_after_its_answer_reports_its_exit_code(tmp_path):
    # the second request may meet the exited child at the write, at the read
    # or before either; each way the error names the exit code
    from uppersets import orthant
    from uppersets.measure_space import constant_function, space
    from uppersets.protocol import ExternalFunctional, ProtocolError
    from uppersets.upperset import cone_upper_set

    child = one_shot_child(tmp_path)
    cone = orthant(2)
    F = constant_function(space("x1", "x2"), cone_upper_set(cone))
    external = ExternalFunctional((sys.executable, str(child)), cone)
    try:
        assert external(F).set_equal(cone_upper_set(cone))
        with pytest.raises(ProtocolError) as raised:
            external(F)
        assert str(raised.value) == f"external:{sys.executable} {child} exited with code 0"
    finally:
        external.close()


def test_external_child_exiting_after_its_answer_exits_2(ws_path, capsys, tmp_path):
    child = one_shot_child(tmp_path)
    p = tmp_path / "ws_ext.txt"
    p.write_text(WS + f"functional ext:\n    kind: external\n    command: {sys.executable} {child}\n")
    code, out, err = run(capsys, "check-axioms", str(p), "ext", "--sample-count", "4")
    assert code == 2
    assert out.startswith("flags: ") and out.count("\n") == 1
    assert err == f"error: external:{sys.executable} {child} exited with code 0\n"


def test_a_literal_nested_1200_deep_is_a_parse_error(ws_path, capsys, tmp_path):
    # the nested-list reader keeps a stack, not a recursion: no depth makes it
    # raise anything but its diagnostics, in a workspace or in a child's answer
    deep = "points: " + "[" * 1200 + "]" * 1200
    p = tmp_path / "ws_deep.txt"
    p.write_text(WS.replace("x1: points: [[1, 0]]", "x1: " + deep))
    code, out, err = run(capsys, "integrate", str(p), "F", "mu")
    assert (code, out) == (2, "")
    assert err == f"error: {p}:14: expected a nested vector in {deep[len('points: '):]!r}\n"

    child = tmp_path / "deep_child.py"
    child.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == 'end':\n"
        f"        print({deep!r}, flush=True)\n"
    )
    p.write_text(WS + f"functional ext:\n    kind: external\n    command: {sys.executable} {child}\n")
    code, out, err = run(capsys, "check-axioms", str(p), "ext", "--sample-count", "4")
    assert code == 2
    assert out.startswith("flags: ") and out.count("\n") == 1
    assert err.startswith(f"error: unparsable response {deep!r}: expected a nested vector in ")


@has_digit_limit
@pytest.mark.parametrize(
    "answer", [f"halfspaces: [[1, 1, {MANY_DIGITS}]]", f"halfspaces: [[1,1,{MANY_DIGITS}]]"], ids=["one-pass", "tokens"]
)
def test_an_offset_with_more_digits_than_int_reads_is_a_protocol_error(tmp_path, answer):
    # the first answer is in the form a literal is written, read in one pass;
    # the second, without spaces, is tokenized: both report int()'s refusal
    from uppersets import orthant
    from uppersets.measure_space import constant_function, space
    from uppersets.protocol import ExternalFunctional, ProtocolError
    from uppersets.upperset import cone_upper_set

    child = tmp_path / "long_child.py"
    child.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == 'end':\n"
        f"        print({answer!r}, flush=True)\n"
    )
    cone = orthant(2)
    external = ExternalFunctional((sys.executable, str(child)), cone)
    try:
        with pytest.raises(ProtocolError) as raised:
            external(constant_function(space("x1"), cone_upper_set(cone)))
    finally:
        external.close()
    assert str(raised.value).startswith(f"unparsable response {answer!r}: Exceeds the limit")


def test_external_child_that_never_answers_is_killed_at_the_deadline(tmp_path, monkeypatch):
    import time

    from uppersets import orthant, protocol
    from uppersets.measure_space import constant_function, space
    from uppersets.protocol import ExternalFunctional, ProtocolError
    from uppersets.upperset import cone_upper_set

    monkeypatch.setattr(protocol, "ANSWER_DEADLINE_S", 1.0)
    child = FIXTURES / "sleeping_child.py"
    cone = orthant(2)
    external = ExternalFunctional((sys.executable, str(child)), cone)
    try:
        start = time.monotonic()
        with pytest.raises(ProtocolError) as raised:
            external(constant_function(space("x1", "x2"), cone_upper_set(cone)))
        assert 1.0 <= time.monotonic() - start < 5
        assert str(raised.value) == (
            f"external:{sys.executable} {child} gave no answer within 1 s; "
            "its stderr ends 'sleeping instead of answering'"
        )
        assert external._proc.poll() is not None  # killed, not left sleeping
    finally:
        external.close()


def test_external_child_that_never_reads_a_large_request_is_killed_at_the_deadline(monkeypatch):
    # the request is larger than a pipe's buffer, so a blocking write would
    # wait forever; the watchdog kills the child after 10 s so that such a
    # write fails the test instead of hanging it
    import threading
    import time

    from uppersets import orthant, protocol
    from uppersets.measure_space import constant_function, space
    from uppersets.protocol import ExternalFunctional, ProtocolError
    from uppersets.upperset import point_plus_cone

    monkeypatch.setattr(protocol, "ANSWER_DEADLINE_S", 1.0)
    child = FIXTURES / "sleeping_child.py"
    cone = orthant(2)
    F = constant_function(space(*(f"x{i}" for i in range(4000))), point_plus_cone(cone, (1, 2)))
    assert len(protocol.request(F)) > 2 * 65536
    external = ExternalFunctional((sys.executable, str(child)), cone)
    watchdog = threading.Timer(10, external._ensure_process().kill)
    watchdog.start()
    try:
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="gave no answer within 1 s"):
            external(F)
        assert time.monotonic() - start < 5
        assert external._proc.returncode is not None  # killed and reaped
    finally:
        watchdog.cancel()
        external.close()


def test_external_child_that_never_answers_exits_2(ws_path, capsys, tmp_path, monkeypatch):
    from uppersets import protocol

    monkeypatch.setattr(protocol, "ANSWER_DEADLINE_S", 1.0)
    child = FIXTURES / "sleeping_child.py"
    p = tmp_path / "ws_ext.txt"
    p.write_text(WS + f"functional ext:\n    kind: external\n    command: {sys.executable} {child}\n")
    code, out, err = run(capsys, "check-axioms", str(p), "ext", "--sample-count", "4")
    assert code == 2
    assert out.startswith("flags: ") and out.count("\n") == 1
    assert err == (
        f"error: external:{sys.executable} {child} gave no answer within 1 s; "
        "its stderr ends 'sleeping instead of answering'\n"
    )


def test_external_child_that_streams_without_a_newline_exits_2_at_the_deadline(capsys, tmp_path, monkeypatch):
    # a child that always has written something more kept the parent reading
    # past the deadline, which was checked only when nothing was ready to read;
    # its small writes stay far below MAX_ANSWER_BYTES in the 1 s
    import time

    from uppersets import protocol

    monkeypatch.setattr(protocol, "ANSWER_DEADLINE_S", 1.0)
    child = tmp_path / "streaming_child.py"
    child.write_text("import os, sys\nsys.stdin.readline()\nwhile True:\n    os.write(1, b'x' * 8)\n")
    p = tmp_path / "ws_ext.txt"
    p.write_text(WS + f"functional ext:\n    kind: external\n    command: {sys.executable} {child}\n")
    start = time.monotonic()
    code, out, err = run(capsys, "check-axioms", str(p), "ext", "--sample-count", "4")
    assert code == 2
    assert time.monotonic() - start < 2.0
    assert err == f"error: external:{sys.executable} {child} gave no answer within 1 s\n"


def test_external_answer_line_past_the_bound_exits_2(capsys, tmp_path, monkeypatch):
    from uppersets import protocol

    monkeypatch.setattr(protocol, "MAX_ANSWER_BYTES", 1000)
    child = tmp_path / "long_line_child.py"
    child.write_text(
        "import sys\n"
        "for line in sys.stdin:\n"
        "    if line.strip() == 'end':\n"
        "        print('x' * 1001, flush=True)\n"
    )
    p = tmp_path / "ws_ext.txt"
    p.write_text(WS + f"functional ext:\n    kind: external\n    command: {sys.executable} {child}\n")
    code, out, err = run(capsys, "check-axioms", str(p), "ext", "--sample-count", "4")
    assert code == 2
    assert err == f"error: external:{sys.executable} {child} wrote an answer line longer than 1000 bytes\n"


def test_external_child_exit_quotes_its_stderr(ws_path, capsys, tmp_path):
    child = tmp_path / "failing_child.py"
    child.write_text("import sys\nsys.stdin.readline()\nsys.exit('no functional here\\nbye')\n")
    p = tmp_path / "ws_ext.txt"
    p.write_text(WS + f"functional ext:\n    kind: external\n    command: {sys.executable} {child}\n")
    code, _, err = run(capsys, "check-axioms", str(p), "ext", "--sample-count", "4")
    assert code == 2
    assert err == (
        f"error: external:{sys.executable} {child} exited with code 1; "
        "its stderr ends 'no functional here\\nbye'\n"
    )


def _external(child):
    from uppersets import orthant
    from uppersets.protocol import ExternalFunctional

    return ExternalFunctional((sys.executable, str(child)), orthant(2))


def _constant_cone():
    from uppersets import orthant
    from uppersets.measure_space import constant_function, space
    from uppersets.upperset import cone_upper_set

    return constant_function(space("x1", "x2"), cone_upper_set(orthant(2)))


def chatty_child(tmp_path):
    """A child that serves the integral for mu and writes an extra 'full'
    line after each answer, in the same write to its output."""
    child = tmp_path / "chatty_child.py"
    child.write_text(
        "import os, sys\n"
        f"sys.path.insert(0, {str(Path(uppersets.__file__).parents[1])!r})\n"
        "from uppersets.integral import integral_value\n"
        "from uppersets.protocol import serve\n"
        "from uppersets.workspace import parse_workspace\n"
        "class Chatty:\n"
        "    text = ''\n"
        "    def write(self, text):\n"
        "        self.text += text\n"
        "    def flush(self):\n"
        "        os.write(1, (self.text + 'full\\n').encode())\n"
        "        self.text = ''\n"
        "ws = parse_workspace(sys.argv[1])\n"
        "mu = ws.measure('mu')\n"
        "serve(lambda F: integral_value(F, mu), ws.cone, ws.space, sys.stdin, Chatty())\n"
    )
    return child


def test_external_child_writing_two_lines_per_request_exits_2(ws_path, capsys, tmp_path):
    # the runner keeps nothing between round trips: the extra line is not
    # taken as the next request's answer, which shifted every later answer
    child = chatty_child(tmp_path)
    p = tmp_path / "ws_ext.txt"
    p.write_text(WS + f"functional ext:\n    kind: external\n    command: {sys.executable} {child} {ws_path}\n")
    code, out, err = run(capsys, "check-axioms", str(p), "ext", "--sample-count", "4")
    assert code == 2
    assert out.startswith("flags: ") and out.count("\n") == 1
    assert err == (
        f"error: external:{sys.executable} {child} {ws_path} wrote more than one line for one request: "
        "'halfspaces: [[0, 1, -3], [1, 0, -2], [3, 2, 0], [8, 1, -13/2]]\\nfull\\n'\n"
    )


def test_external_child_writing_before_its_request_is_written_is_a_protocol_error(tmp_path):
    # a line already waiting when a request is sent is left from an earlier
    # answer, or written unasked: it is not taken as this request's answer
    import selectors

    from uppersets.protocol import ProtocolError

    child = tmp_path / "eager_child.py"
    child.write_text("import sys\nprint('cone', flush=True)\nsys.stdin.read()\n")
    external = _external(child)
    try:
        with selectors.DefaultSelector() as selector:
            selector.register(external._ensure_process().stdout, selectors.EVENT_READ)
            assert selector.select(30)
        with pytest.raises(ProtocolError) as raised:
            external(_constant_cone())
        assert str(raised.value) == (
            f"external:{sys.executable} {child} wrote more than one line for one request: 'cone\\n'"
        )
    finally:
        external.close()


def test_external_child_that_closed_its_input_is_reaped_for_its_exit_code(tmp_path):
    # the child closes its input and is still running when the request is
    # written: the write's broken pipe is followed by the wait for its exit
    import select
    import time

    from uppersets.protocol import ProtocolError

    child = tmp_path / "deaf_child.py"
    child.write_text("import os, sys, time\nos.close(0)\ntime.sleep(0.5)\nsys.exit(3)\n")
    external = _external(child)
    try:
        poller = select.poll()
        poller.register(external._ensure_process().stdin, select.POLLOUT)
        deadline = time.monotonic() + 30
        while not any(events & select.POLLERR for _, events in poller.poll(0)):  # the child's input is closed
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert external._proc.poll() is None
        with pytest.raises(ProtocolError) as raised:
            external(_constant_cone())
        assert str(raised.value) == f"external:{sys.executable} {child} exited with code 3"
        assert external._proc.returncode == 3
    finally:
        external.close()


def test_external_child_that_closed_its_output_is_killed_on_close(tmp_path, monkeypatch):
    # a child that closes its output but does not exit is reported once
    # EXIT_WAIT_S has passed, and close() kills it when it ignores its
    # closed input too
    import signal

    from uppersets import protocol
    from uppersets.protocol import ProtocolError

    monkeypatch.setattr(protocol, "EXIT_WAIT_S", 0.2)
    child = tmp_path / "mute_child.py"
    child.write_text("import os, time\nos.close(1)\ntime.sleep(60)\n")
    external = _external(child)
    proc = external._ensure_process()
    try:
        with pytest.raises(ProtocolError) as raised:
            external(_constant_cone())
        assert str(raised.value) == f"external:{sys.executable} {child} closed its output"
        assert proc.poll() is None
    finally:
        external.close()
    assert proc.returncode == -signal.SIGKILL


def test_external_functional_with_an_empty_command_exits_2(capsys, tmp_path):
    p = tmp_path / "ws_ext.txt"
    p.write_text(WS + "functional ext:\n    kind: external\n    command:\n")
    code, out, err = run(capsys, "check-axioms", str(p), "ext", "--sample-count", "4")
    assert (code, out, err) == (2, "", "error: external functional needs a command\n")


def test_round_trip_of_printed_values(ws_path, capsys):
    from uppersets import orthant
    from uppersets.workspace import parse_set_literal

    code, out, _ = run(capsys, "integrate", ws_path, "G", "mu")
    assert code == 0
    value_line = next(l for l in out.splitlines() if l.startswith("value: "))
    literal = value_line[len("value: ") :]
    parsed = parse_set_literal(literal, orthant(2))
    assert parsed.literal() == literal


def test_geometry_error_exits_2(tmp_path, capsys, monkeypatch):
    # A ray cap hit inside a command is an out-of-scale input, not a crash.
    # The plane takes no double-description run, so the workspace is 3-D.
    import uppersets.cli as cli
    import uppersets.ddm as ddm

    p = tmp_path / "ws3.txt"
    p.write_text(
        "dimension: 3\ncone:\n    generators: [1, 0, 0] [0, 1, 0] [0, 0, 1]\n"
        "    interior_point: [1, 1, 1]\natoms: x1 x2\n"
        "setfunction F:\n    x1: points: [[1, 0, 0]]\n    x2: points: [[0, 1, 0]]\n"
        "setfunction G:\n    x1: points: [[0, 0, 1]]\n    x2: points: [[0, 0, 0], [1, -1, 0]]\n"
    )
    parse_workspace = cli.parse_workspace

    def parse_then_cap(path):
        ws = parse_workspace(path)
        monkeypatch.setattr(ddm, "MAX_RAYS", 0)
        return ws

    monkeypatch.setattr(cli, "parse_workspace", parse_then_cap)
    code, out, err = run(capsys, "lattice", str(p), "inf", "F", "G")
    assert code == 2
    assert err.startswith("error: ray count exceeded desk scale")


def test_the_refused_inputs_are_one_family_of_errors():
    # cli.main maps ValidationError and ProtocolError to exit 2; a geometry
    # or workspace error is a ValidationError, a child's misbehaviour is not
    from uppersets.ddm import GeometryError
    from uppersets.protocol import ProtocolError

    assert issubclass(GeometryError, uppersets.ValidationError)
    assert issubclass(uppersets.WorkspaceError, uppersets.ValidationError)
    assert not issubclass(ProtocolError, ValueError)


def test_a_workspace_that_is_not_utf8_is_an_error_at_its_path(tmp_path, capsys):
    path = tmp_path / "bad.ws"
    path.write_bytes(b"dimension: 2\n\xff\xfe\n")
    code, out, err = run(capsys, "integrate", str(path), "F", "mu")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode") and err.count("\n") == 1


@pytest.mark.parametrize(
    "request_text",
    [
        "eval 2\nx1 cone\nx9 cone\nend\n",  # unknown atom
        "eval 1\nx1 cone\nend\n",  # missing atom
        "eval two\n",  # non-integer count
        "eval +2\nx1 cone\nx2 cone\nend\n",  # a count with a sign
        "eval 0_2\nx1 cone\nx2 cone\nend\n",  # a count with an underscore
        "eval 2\nx1 cone\nx2 [1, 2\nend\n",  # unparsable value
        "eval 3\nx1 cone\nx2 cone\nx1 full\nend\n",  # a repeated atom
        "eval 2 junk\nx1 cone\nx2 cone\nend\n",  # a trailing token in the header
    ],
)
def test_serve_rejects_malformed_requests(request_text):
    import io

    from uppersets import orthant
    from uppersets.measure_space import AtomicSpace
    from uppersets.protocol import ProtocolError, serve

    out = io.StringIO()
    with pytest.raises(ProtocolError):
        serve(None, orthant(2), AtomicSpace(("x1", "x2")), io.StringIO(request_text), out)
    assert out.getvalue() == ""


@pytest.mark.parametrize(
    "request_text, message",
    [
        ("hello\n", "bad request header 'hello'"),
        ("eval 2 junk\nx1 cone\nx2 cone\nend\n", "bad request header 'eval 2 junk'"),
        ("eval 2\nx1 cone\n", "truncated request"),
        ("eval 2\nx1 cone\nx2 cone\nfinish\n", "missing request trailer"),
        # refused at the repeated line, before its literal is parsed
        ("eval 3\nx1 cone\nx2 cone\nx1 [1, 2\nend\n", "duplicate atom 'x1'"),
    ],
)
def test_serve_names_what_is_malformed(request_text, message):
    import io

    from uppersets import orthant
    from uppersets.measure_space import AtomicSpace
    from uppersets.protocol import ProtocolError, serve

    with pytest.raises(ProtocolError) as exc:
        serve(None, orthant(2), AtomicSpace(("x1", "x2")), io.StringIO(request_text), io.StringIO())
    assert str(exc.value) == message


@pytest.mark.parametrize("request_text", ["", "\n\n"])
def test_serve_skips_blank_lines_and_returns_at_end_of_input(request_text):
    import io

    from uppersets import orthant
    from uppersets.measure_space import AtomicSpace
    from uppersets.protocol import serve

    answers = io.StringIO()
    text = request_text + "eval 2\nx1 cone\nx2 points: [[1, 0]]\nend\n" + request_text
    assert serve(lambda F: F.values[1], orthant(2), AtomicSpace(("x1", "x2")), io.StringIO(text), answers) is None
    assert answers.getvalue() == "halfspaces: [[0, 1, 0], [1, 0, 1]]\n"


def ext_workspace(tmp_path, ws_path) -> str:
    fixture = FIXTURES / "external_integral.py"
    p = tmp_path / "ws_ext.txt"
    p.write_text(
        WS + f"functional ext:\n    kind: external\n"
        f"    command: {sys.executable} {fixture} {ws_path} mu\n"
    )
    return str(p)


@pytest.mark.parametrize("command", ["check-axioms", "reconstruct"])
def test_mutant_verdict_builds_one_sample_set(ws_path, capsys, monkeypatch, command):
    from uppersets.axioms import SampleSet

    built = []
    init = SampleSet.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(SampleSet, "__init__", counted)
    code, out, _ = run(capsys, command, ws_path, "mutant:nullity-pad:mu", "--sample-count", "8")
    assert code == 1 and "(N) nullity on homogeneous halfspaces: FAIL" in out
    assert len(built) == 1


def test_mutant_verdict_integrates_each_set_function_once(ws_path, capsys, monkeypatch):
    # the catalog's isolation check and all six mutants share one memoized integral
    from collections import Counter

    import uppersets.axioms as axioms
    import uppersets.integral as integral

    inputs = Counter()
    original = integral.integral_value

    def counted(F, mu):
        inputs[F] += 1
        return original(F, mu)

    monkeypatch.setattr(axioms, "integral_value", counted)
    monkeypatch.setattr(integral, "integral_value", counted)
    code, _, _ = run(
        capsys, "check-axioms", ws_path, "mutant:nullity-pad:mu", "--sample-count", "8"
    )
    assert code == 1
    assert inputs and max(inputs.values()) == 1


def test_mutant_verdict_builds_each_supporting_function_once(ws_path, capsys, monkeypatch):
    # the catalog's isolation check and check S share one build per (F, w)
    from collections import Counter

    from uppersets.axioms import SampleSet
    from uppersets.measure_space import SimpleSetFunction

    argv = ("check-axioms", ws_path, "mutant:nullity-pad:mu", "--sample-count", "8")
    builds = Counter()
    original = SimpleSetFunction.supporting

    def counted(self, w):
        builds[self, w] += 1
        return original(self, w)

    monkeypatch.setattr(SimpleSetFunction, "supporting", counted)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert builds and max(builds.values()) == 1
    # the same verdict without the shared builds prints the same report
    init = SampleSet.__init__

    def unshared(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.supporting = lambda F, w: F.supporting(w)

    monkeypatch.setattr(SampleSet, "__init__", unshared)
    builds.clear()
    assert run(capsys, *argv) == (code, out, err)
    assert max(builds.values()) == 2


def test_integral_verdict_builds_no_support_certificate(ws_path, capsys, monkeypatch):
    import uppersets.integral as integral

    calls = []
    original = integral.weighted_support_sum

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(integral, "weighted_support_sum", counted)
    code, out, _ = run(capsys, "check-axioms", ws_path, "integral:mu", "--sample-count", "8")
    assert code == 0 and "overall: PASS" in out
    assert calls == []
    code, out, _ = run(capsys, "integrate", ws_path, "F", "mu")
    assert code == 0 and "certificate: pass" in out
    assert calls  # the certificate of ``integrate`` does read it


def test_external_functional_sends_each_input_once(ws_path, capsys, tmp_path, monkeypatch):
    from uppersets.protocol import ExternalFunctional

    sent, children = [], set()
    call = ExternalFunctional.__call__

    def counted(self, F):
        sent.append(F)
        result = call(self, F)
        children.add(self._proc)
        return result

    monkeypatch.setattr(ExternalFunctional, "__call__", counted)
    code, out, _ = run(
        capsys, "reconstruct", ext_workspace(tmp_path, ws_path), "ext", "--sample-count", "6"
    )
    assert code == 0, out
    assert sent and len(sent) == len(set(sent))
    assert len(children) == 1
    assert all(child.poll() is not None for child in children)


@pytest.mark.parametrize("flag", [["--serial-functional"], ["--epsilon-schedule", "1"]])
@pytest.mark.parametrize("command", ["check-axioms", "reconstruct"])
def test_removed_functional_flags_are_usage_errors(ws_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, ws_path, "phi", *flag])
    assert exc.value.code == 2


def test_readme_cli_block_lists_every_long_option():
    import argparse
    import re

    from uppersets.cli import build_parser

    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    (commands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {
        option
        for sub in commands.choices.values()
        for action in sub._actions
        if not isinstance(action, argparse._HelpAction)
        for option in action.option_strings
        if option.startswith("--")
    }
    assert set(re.findall(r"--[a-z][a-z-]*", block)) == options


def test_closed_stdout_exits_2_without_a_traceback(ws_path):
    # like `uppersets check-axioms WS integral:mu | head -1`: the reader
    # closes the pipe after the first line, while the checks still run
    env = {**os.environ, "PYTHONPATH": str(Path(uppersets.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "uppersets.cli", "check-axioms", ws_path, "integral:mu"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    with proc:
        assert proc.stdout.readline().startswith(b"flags: ")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    assert err == b""
