"""Golden CLI transcripts: every subcommand, run in-process on the workspaces in
``tests/golden/`` and compared byte for byte with its transcript in
``tests/golden/transcripts/`` (argv, exit code, stdout and stderr).

Paths are written as placeholders: ``<dir>`` for the directory the workspaces
are copied into, ``<fixtures>`` for ``tests/fixtures`` and ``<python>`` for
the interpreter.  After an intended change to a report, rewrite every
transcript with

    PYTHONPATH=src python tests/test_golden.py

and review the diff.
"""

import contextlib
import cProfile
import io
import pstats
import sys
import tempfile
from pathlib import Path

import pytest

from fan_gate import ddm_path
from gates import stored
from uppersets import protocol, upperset
from uppersets.cli import main
from uppersets.integral import integral_value
from uppersets.workspace import parse_set_literal, parse_workspace

HERE = Path(__file__).parent
GOLDEN = HERE / "golden"
TRANSCRIPTS = GOLDEN / "transcripts"
FIXTURES = HERE / "fixtures"

VERDICT_FUNCTIONALS = ("integral:mu",) + tuple(
    f"mutant:{name}:mu"
    for name in (
        "additivity-shift",
        "homogeneity-translate",
        "continuity-jump",
        "nullity-pad",
        "indicator-deform",
        "interchange-tighten",
    )
)


def _corpus():
    """argv per command, with the workspace given by its shape name."""
    commands = []
    for shape in ("orthant2", "wedge2"):
        commands += [
            (command, shape, functional, "--seed", "3")
            for functional in VERDICT_FUNCTIONALS
            for command in ("check-axioms", "reconstruct")
        ]
        commands += [
            ("oracle", shape, "F", "mu", "--seed", "3"),
            ("integrate", shape, "F", "mu"),
            ("integrate", shape, "G", "mu"),
            ("integrate-over", shape, "F", "mu", "x2"),
            ("lattice", shape, "oplus", "F", "G"),
            ("lattice", shape, "inf", "F", "G"),
            ("lattice", shape, "sup", "F", "G"),
            ("chain-check", shape, "h", "mu"),
            ("chain-check", shape, "e", "mu"),
        ]
    commands += [
        ("check-axioms", "orthant3", "integral:mu", "--seed", "3"),
        ("reconstruct", "orthant3", "integral:mu", "--seed", "3"),
        ("oracle", "orthant3", "F", "mu", "--seed", "3"),
        ("integrate", "orthant3", "F", "mu"),
        ("check-axioms", "wedge2", "ext", "--seed", "3"),
        ("check-axioms", "wedge2", "ext-shift", "--seed", "3"),
    ]
    return commands


CORPUS = _corpus()


def transcript_name(command) -> str:
    words = [command[1], command[0], *command[2:]]
    return "_".join(w.lstrip("-").replace(":", "-") for w in words) + ".txt"


def _placeholders(workdir: Path):
    return (("<dir>", str(workdir)), ("<fixtures>", str(FIXTURES)), ("<python>", sys.executable))


def copy_workspaces(workdir: Path) -> None:
    """The golden workspaces in ``workdir``, placeholders replaced."""
    for source in GOLDEN.glob("*.ws"):
        text = source.read_text(encoding="utf-8")
        for token, value in _placeholders(workdir):
            text = text.replace(token, value)
        (workdir / source.name).write_text(text, encoding="utf-8")


def transcript(command, workdir: Path) -> str:
    """Run ``command`` in-process on the workspaces in ``workdir``."""
    argv = [command[0], str(workdir / f"{command[1]}.ws"), *command[2:]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    text = (
        f"$ uppersets {' '.join(argv)}\n"
        f"exit: {code}\n"
        f"--- stdout\n{out.getvalue()}"
        f"--- stderr\n{err.getvalue()}"
    )
    for token, value in _placeholders(workdir):
        text = text.replace(value, token)
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    copy_workspaces(path)
    return path


@pytest.mark.parametrize("command", CORPUS, ids=transcript_name)
def test_transcript_is_unchanged(command, workdir):
    expected = (TRANSCRIPTS / transcript_name(command)).read_text(encoding="utf-8")
    assert transcript(command, workdir) == expected


def profiled_calls(command, workdir, function, module):
    """Calls of ``function`` defined in ``module`` while ``command`` runs."""
    profile = cProfile.Profile()
    profile.runcall(transcript, command, workdir)
    return calls_in(profile, function, module)


def calls_in(profile, function, module):
    """Calls of ``function`` defined in ``module`` that ``profile`` saw."""
    return sum(
        nc
        for (path, _, name), (_, nc, *_) in pstats.Stats(profile).stats.items()
        if name == function and Path(path).name == module
    )


def clear_module_caches():
    """So that a count does not depend on test order."""
    for cached in (upperset._pivots, upperset.cone_upper_set, upperset._homogeneous_halfspace):
        cached.cache_clear()


@pytest.mark.parametrize("workspace, bound", [("wedge2", 9000), ("orthant3", 4000)])
def test_a_verdict_builds_few_fractions(workspace, bound, workdir):
    # facet offsets are integers over the point denominator from the
    # double-description run to the stored set: wedge2 builds at most 9,000
    # Fractions (15,586 with stored Fraction offsets), orthant3 at most 4,000
    # (9,683 with Fraction offsets out of the run)
    clear_module_caches()
    command = ("check-axioms", workspace, "integral:mu", "--seed", "3")
    assert profiled_calls(command, workdir, "__new__", "fractions.py") <= bound


def test_a_second_workspace_compares_cones_on_integers(workdir, tmp_path):
    # each run parses a new Cone while the module caches keep the first one's
    # sets, so the second run compares equal cones that are distinct objects:
    # 3,503 Fraction comparisons when cone equality read the interior points
    # as Fractions, 339 on integer keys
    copy_workspaces(tmp_path)
    command = ("check-axioms", "wedge2", "mutant:nullity-pad:mu", "--seed", "3")
    transcript(command, workdir)
    assert profiled_calls(command, tmp_path, "__eq__", "fractions.py") <= 1000


def test_planar_sums_build_no_pair_sums(workdir):
    # a planar ⊕ merges the facet chains, so a V-rep hull is built only for
    # literal input: 71 calls, 563 when every sum hulled its pair sums
    clear_module_caches()
    command = ("check-axioms", "wedge2", "integral:mu", "--seed", "3")
    assert profiled_calls(command, workdir, "_planar_vrep", "upperset.py") <= 150


def test_the_external_round_trips_build_few_fractions(workdir, monkeypatch):
    # the requests golden wedge2 check-axioms ext sends, served in-process as
    # its child serves them, and the answers parsed as the CLI parses them:
    # 15,212 Fractions when set literals were read through Fraction, none
    # with halfspace rows read straight into integers
    ws = parse_workspace(str(workdir / "wedge2.ws"))
    mu = ws.measure("mu")
    evaluated = []

    def evaluate(F):
        return integral_value(F, mu)

    def in_process(self, F):
        evaluated.append(F)
        return evaluate(F)

    monkeypatch.setattr(protocol.ExternalFunctional, "__call__", in_process)
    transcript(("check-axioms", "wedge2", "ext", "--seed", "3"), workdir)
    assert len(evaluated) == 338

    def round_trips():
        requests, answers = io.StringIO("".join(map(protocol.request, evaluated))), io.StringIO()
        protocol.serve(evaluate, ws.cone, ws.space, requests, answers)
        return [parse_set_literal(line, ws.cone) for line in answers.getvalue().splitlines()]

    profile = cProfile.Profile()
    assert profile.runcall(round_trips) == list(map(evaluate, evaluated))
    assert calls_in(profile, "__new__", "fractions.py") <= 200


def test_fan_merges_equal_the_pair_sums_in_the_golden_orthant3_commands(workdir, monkeypatch):
    # a shadow of the 3-D fan merge: each set it builds is built again from
    # the pair sums through _from_vrep, the DDM path, and every stored field
    # must be equal; the two orthant3 verdicts make 1,014 merges, while oracle
    # and integrate add cone translates only
    merge, merged, differing = upperset._fan_sum, [], []

    def shadowed(a, b):
        got = merge(a, b)
        merged.append(got)
        if stored(got) != stored(ddm_path(a, b)):
            differing.append((a.literal(), b.literal()))
        return got

    monkeypatch.setattr(upperset, "_fan_sum", shadowed)
    for command in (c for c in CORPUS if c[1] == "orthant3"):
        assert transcript(command, workdir) == (TRANSCRIPTS / transcript_name(command)).read_text(encoding="utf-8")
    assert not differing and len(merged) > 1000


def test_every_transcript_belongs_to_the_corpus():
    assert sorted(p.name for p in TRANSCRIPTS.glob("*.txt")) == sorted(map(transcript_name, CORPUS))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        copy_workspaces(Path(tmp))
        for stale in TRANSCRIPTS.glob("*.txt"):
            stale.unlink()
        TRANSCRIPTS.mkdir(exist_ok=True)
        for command in CORPUS:
            (TRANSCRIPTS / transcript_name(command)).write_text(
                transcript(command, Path(tmp)), encoding="utf-8"
            )
    print(f"wrote {len(CORPUS)} transcripts to {TRANSCRIPTS}")
