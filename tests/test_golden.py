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

from uppersets import upperset
from uppersets.cli import main

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


@pytest.mark.parametrize("workspace, bound", [("wedge2", 9000), ("orthant3", 4000)])
def test_a_verdict_builds_few_fractions(workspace, bound, workdir):
    # facet offsets are integers over the point denominator from the
    # double-description run to the stored set: wedge2 builds at most 9,000
    # Fractions (15,586 with stored Fraction offsets), orthant3 at most 4,000
    # (9,683 with Fraction offsets out of the run); the module caches are
    # cleared so the count does not depend on test order
    for cached in (upperset._pivots, upperset.cone_upper_set, upperset._homogeneous_halfspace):
        cached.cache_clear()
    profile = cProfile.Profile()
    profile.runcall(transcript, ("check-axioms", workspace, "integral:mu", "--seed", "3"), workdir)
    calls = sum(
        nc
        for (path, _, name), (_, nc, *_) in pstats.Stats(profile).stats.items()
        if name == "__new__" and Path(path).name == "fractions.py"
    )
    assert calls <= bound


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
