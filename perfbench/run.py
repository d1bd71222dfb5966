#!/usr/bin/env python3
"""Closed-loop benchmark of ``uppersets``: one client, one process.

    python3 perfbench/run.py --workload checker --seed 1 --seconds 30 --trace 0

Workloads (``--workload all`` runs each in turn):

* ``checker``: ``check-axioms``/``reconstruct`` verdicts on ``integral:mu``
  and the six mutants, plus ``oracle`` commands, through ``uppersets.cli.main``
  in-process, on a dim-2 orthant (2 atoms), a dim-2 wedge (3 atoms) and a
  dim-3 orthant (3 atoms).  Many small canonicalizations with a high memo-hit
  share: DDM run count and per-call overhead dominate.
* ``integrate-large``: ``uppersets.integral.aumann_integral`` in dims 4-5 over
  the orthant and a non-simplicial pointed cone.  Few canonicalizations, each
  DDM carrying tens of rays and up to about a hundred; the axioms, memo and
  protocol layers are bypassed.
* ``external``: the same verdicts against ``tests/fixtures/external_integral.py``
  over the line protocol, one child process at a time, on the dim-2 wedge.

Every operation runs in a fixed per-round schedule whose inputs come from
``--seed`` and the round number; a run makes the number of rounds that takes
``--seconds`` on the reference host.  Every output is checked against an
answer known without the code under test.  Timings are wall-clock times of the
program calls alone, each after a garbage collection, as a fresh CLI process
would start; the process and its children keep to one CPU.  The shared
reference host runs the same code up to 1.7 times faster in one minute than in
another, so between operations the run also times a fixed calibration
workload that calls nothing of the program, and every reported time is scaled
by ``CALIBRATION_REFERENCE_S`` over the run's median calibration time: the
time the reference host would take at its usual speed.  The unscaled figures
are in the ``report`` line.  With ``--trace 1`` the run makes half the rounds
untraced, replays them with every layer wrapped (``bench_trace``), and
reports per-layer metrics instead.

End-to-end metrics: ``setup_s``, the median of five set-ups (a fresh import
of ``uppersets``, then generating, writing and loading round 0's inputs);
``op_p50_ms``, the median time of a correct primary operation (a verdict, or
one ``aumann_integral`` call with its certificate); ``ops_per_s``, correct
primary operations per second spent on all attempted ones; ``peak_rss_mb``,
the peak resident memory of the process.

Each workload prints its figures by name with their unit, a ``report`` line
(host facts, operation counts, the sha256 of round 0's program output) and,
last, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 when every output was correct and 1
otherwise; 2 when the program to benchmark is missing.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "fixtures" / "external_integral.py"
OUT = HERE / "out"
SETUP_REPEATS = 5
VERDICT_ATTEMPTS = 4
# seconds one round takes on the reference host (2-core Xeon, CPython 3.11)
ROUND_SECONDS = {"checker": 15.0, "integrate-large": 3.5, "external": 12.0}
# no round starts once a pass has run this share of --seconds
DEADLINE_SHARE = 1.5
# median seconds of one calibration sample on the reference host
CALIBRATION_REFERENCE_S = 0.022

sys.path.insert(0, str(HERE))

import bench_check  # noqa: E402
import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402

END_TO_END = ("setup_s", "op_p50_ms", "ops_per_s", "peak_rss_mb")

# (command, functional) pairs for verdicts; a round gives one to each verdict
# slot, in this order, so the first round already covers both integral verdicts
COMBOS = (
    ("check-axioms", "integral"),
    ("reconstruct", "integral"),
    ("check-axioms", "additivity-shift"),
    ("reconstruct", "homogeneity-translate"),
    ("check-axioms", "continuity-jump"),
    ("reconstruct", "nullity-pad"),
    ("check-axioms", "indicator-deform"),
    ("reconstruct", "interchange-tighten"),
    ("reconstruct", "additivity-shift"),
    ("check-axioms", "homogeneity-translate"),
    ("reconstruct", "continuity-jump"),
    ("check-axioms", "nullity-pad"),
    ("reconstruct", "indicator-deform"),
    ("check-axioms", "interchange-tighten"),
)
# external rounds: two verdicts of the served integral and one of its shifted
# variant (a fast FAIL), so the median verdict is always one of the integral's
EXTERNAL_ROUNDS = (
    (("check-axioms", "ext"), ("reconstruct", "ext"), ("check-axioms", "ext-shift")),
    (("check-axioms", "ext"), ("reconstruct", "ext"), ("reconstruct", "ext-shift")),
)


# ---------------------------------------------------------------------------
# timing


_CAL = random.Random(0)
CAL_VECTORS = tuple(tuple(_CAL.randint(-6, 6) for _ in range(5)) for _ in range(12))
CAL_NORMALS = tuple(tuple(_CAL.randint(-3, 3) for _ in range(5)) for _ in range(6))
CAL_MATRIX = tuple(
    tuple(Fraction(_CAL.randint(-5, 5), _CAL.randint(1, 3)) for _ in range(6)) for _ in range(6)
)


def calibration_sample() -> float:
    """Wall time of a fixed mix of the kinds of work the program does, which
    calls nothing of the program: ``Fraction`` sums with growing denominators,
    double-description steps on integer vectors (combine, divide by the gcd,
    deduplicate in a set) and ``Fraction`` Gaussian elimination."""
    start = perf_counter()
    for _ in range(6):
        total = Fraction(0)
        for i in range(1, 300):
            total += Fraction(1, i)
    for _ in range(4):
        rays = set(CAL_VECTORS)
        for normal in CAL_NORMALS:
            side = {r: sum(a * b for a, b in zip(r, normal)) for r in rays}
            rays = {r for r, d in side.items() if d >= 0}
            for p, dp in side.items():
                for n, dn in side.items():
                    if dp > 0 > dn:
                        v = tuple(-dn * a + dp * b for a, b in zip(p, n))
                        g = math.gcd(*v) or 1
                        rays.add(tuple(x // g for x in v))
            rays = set(sorted(rays)[:30])
    for _ in range(13):
        m = [list(row) for row in CAL_MATRIX]
        for c in range(len(m)):
            pivot = next((i for i in range(c, len(m)) if m[i][c]), None)
            if pivot is None:
                continue
            m[c], m[pivot] = m[pivot], m[c]
            for i in range(c + 1, len(m)):
                f = m[i][c] / m[c][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return perf_counter() - start


class Speedometer:
    """Calibration samples taken between operations, one or more before each
    so that they fill about SHARE of the elapsed time and follow the host's
    speed through a pass."""

    SHARE = 0.05

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self.start = perf_counter()

    def sample(self) -> None:
        while True:
            seconds = calibration_sample()
            self.samples.append(seconds)
            self.spent += seconds
            if self.spent >= self.SHARE * (perf_counter() - self.start):
                return

    def scale(self) -> float:
        """The factor that turns wall times of this pass into the times the
        reference host would take."""
        return CALIBRATION_REFERENCE_S / statistics.median(self.samples)


def pin_to_one_cpu() -> None:
    """Keep the process, and the protocol children it starts, on one CPU, so
    that the calibration samples time the CPU the program runs on."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def timed(speed: Speedometer, fn):
    """Call ``fn()`` after a garbage collection and calibration samples;
    returns its result and its wall time."""
    gc.collect()
    speed.sample()
    start = perf_counter()
    result = fn()
    return result, perf_counter() - start


@dataclass
class OpResult:
    kind: str  # verdict | oracle | integral: the metric family it feeds
    label: str
    seconds: float  # wall time
    status: str  # ok | failed (the program raised or exited 2) | wrong
    stdout: str
    problem: str | None = None


@dataclass
class Pass:
    speed: Speedometer
    rounds: int = 0
    ops: list[OpResult] = field(default_factory=list)
    digest: str = ""  # sha256 of round 0's concatenated program output

    def program_seconds(self) -> float:
        """Time spent in the program, scaled to the reference host's speed."""
        return self.speed.scale() * sum(op.seconds for op in self.ops)


# ---------------------------------------------------------------------------
# workloads


def call_cli(speed: Speedometer, argv: list[str]) -> tuple[int | None, float, str, str | None]:
    """Run ``uppersets.cli.main`` in-process: (exit code, wall time, stdout,
    error).  The module attribute is looked up per call so a traced run
    reaches the rebound wrapper."""
    import uppersets.cli

    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return uppersets.cli.main(argv), None
            except SystemExit as exc:
                return (exc.code if isinstance(exc.code, int) else 2), None
            except Exception as exc:  # an uncaught program error fails the operation
                return None, f"{type(exc).__name__}: {exc}"

    (code, error), seconds = timed(speed, call)
    if code == 2 and error is None:
        error = err.getvalue().strip() or "exit 2"
    return code, seconds, out.getvalue(), error


class Workload:
    """A fixed schedule of rounds; round r's inputs are generated from the seed
    and r once, outside the timed calls, and kept for a replay."""

    name = ""
    primary = "verdict"  # the operation kind the end-to-end figures describe

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.tracer = None  # set while a traced pass runs
        self.speed = Speedometer()  # calibration samples of the current pass
        self._inputs: dict[int, tuple[object, bytes]] = {}
        self._ops = 0

    def setup(self) -> bytes:
        """Everything the first round waits for; returns the generated bytes."""
        self._inputs.clear()
        return self.inputs(0)[1]

    def inputs(self, r: int) -> tuple[object, bytes]:
        if r not in self._inputs:
            self._inputs[r] = self.generate(r)
        return self._inputs[r]

    def placeholders(self, text: str) -> str:
        """``text`` with this run's paths replaced, so that output naming the
        workspace or the external command hashes alike in every checkout."""
        for path, token in ((self.workdir, "<workdir>"), (sys.executable, "<python>"), (ROOT, "<root>")):
            text = text.replace(str(path), token)
        return text

    def begin_op(self) -> None:
        self._ops += 1
        if self.tracer is not None:
            self.tracer.begin_op(self._ops)


class CheckerWorkload(Workload):
    name = "checker"
    shapes = tuple(bench_inputs.SHAPES)
    # the wedge takes two verdicts a round, so the median verdict is always
    # one of the wedge's, between the cheaper orthant2 and dearer orthant3 ones
    verdict_slots = ("orthant2", "wedge2", "wedge2", "orthant3")

    def workspace(self, shape: str, r: int, path: Path):
        return bench_inputs.workspace_input(self.seed, shape, r)

    def generate(self, r: int):
        """Write and load one workspace per shape."""
        from uppersets.workspace import parse_workspace

        entries, blob = {}, []
        for shape in self.shapes:
            path = self.workdir / f"{shape}-{r}.ws"
            ws = self.workspace(shape, r, path)
            path.write_text(ws.text, encoding="utf-8")
            parse_workspace(str(path))
            entries[shape] = (ws, str(path))
            blob.append(self.placeholders(ws.text))
        return entries, "".join(blob).encode()

    def cli_seed(self, *labels) -> int:
        return bench_inputs.rng_for(self.seed, "cli", *labels).randrange(1000)

    def verdict(self, ws, path: str, command: str, functional: str, *labels) -> list[OpResult]:
        """One verdict; a failed attempt (exit 2, such as the mutant catalog
        refusing its sample set) counts as failed and is retried with the
        next CLI seed, as a user would, up to VERDICT_ATTEMPTS in all."""
        inline = functional if functional.startswith("ext") else (
            "integral:mu" if functional == "integral" else f"mutant:{functional}:mu"
        )
        attempts = []
        for attempt in range(VERDICT_ATTEMPTS):
            cli_seed = self.cli_seed(*labels, attempt)
            self.begin_op()
            code, seconds, stdout, error = call_cli(
                self.speed, [command, path, inline, "--seed", str(cli_seed)]
            )
            label = f"{command} {ws.shape} {functional} --seed {cli_seed}"
            if error is not None:
                attempts.append(OpResult("verdict", label, seconds, "failed", stdout, error))
                continue
            problem = bench_check.verdict_problem(command, functional, code, stdout, ws.atoms, ws.mu)
            status = "wrong" if problem else "ok"
            attempts.append(OpResult("verdict", label, seconds, status, stdout, problem))
            break
        return attempts

    def oracle(self, ws, path: str, function: str, cli_seed: int) -> OpResult:
        self.begin_op()
        code, seconds, stdout, error = call_cli(
            self.speed, ["oracle", path, function, "mu", "--seed", str(cli_seed)]
        )
        label = f"oracle {ws.shape} {function} --seed {cli_seed}"
        if error is not None:
            return OpResult("oracle", label, seconds, "failed", stdout, error)
        problem = bench_check.oracle_problem(code, stdout, ws.cone, ws.mu, ws.setfunctions[function])
        status = "wrong" if problem else "ok"
        return OpResult("oracle", label, seconds, status, stdout, problem)

    def round(self, r: int) -> list[OpResult]:
        entries = self.inputs(r)[0]
        slots = self.verdict_slots
        results = []
        for k, shape in enumerate(slots):
            command, functional = COMBOS[(len(slots) * r + k) % len(COMBOS)]
            results += self.verdict(*entries[shape], command, functional, r, k)
        function = "FG"[r % 2]
        for shape in self.shapes:
            results.append(self.oracle(*entries[shape], function, self.cli_seed(r, shape)))
        return results


class ExternalWorkload(CheckerWorkload):
    name = "external"
    shapes = ("wedge2",)

    def workspace(self, shape: str, r: int, path: Path):
        command = (sys.executable, str(FIXTURE), str(path), "mu")
        if any(c.isspace() for part in command for c in part):
            raise RuntimeError("the external command line cannot hold paths with whitespace")
        return bench_inputs.workspace_input(self.seed, shape, r, external=command)

    def round(self, r: int) -> list[OpResult]:
        ws, path = self.inputs(r)[0]["wedge2"]
        results = []
        for k, (command, functional) in enumerate(EXTERNAL_ROUNDS[r % 2]):
            results += self.verdict(ws, path, command, functional, r, k)
        return results


class IntegrateLargeWorkload(Workload):
    name = "integrate-large"
    primary = "integral"

    def setup(self) -> bytes:
        """Build the cones, then generate round 0's set functions."""
        from uppersets import Cone

        self.cones = {}
        for spec, *_ in bench_inputs.LARGE_CONFIGS:
            if spec.name not in self.cones:
                cone = Cone(spec.dim, spec.generators, spec.interior)
                if sorted(cone.dual_generators) != sorted(spec.facets):
                    raise AssertionError(f"cone {spec.name}: dual generators {cone.dual_generators}")
                self.cones[spec.name] = cone
        return super().setup()

    def generate(self, r: int):
        """Canonicalize the values of one simple function per configuration."""
        from uppersets import AtomicMeasure, SimpleSetFunction, canonicalize, space

        n = len(bench_inputs.LARGE_CONFIGS)
        items, blob = [], []
        for index in range(r * n, (r + 1) * n):
            item = bench_inputs.integral_input(self.seed, index)
            cone = self.cones[item.cone.name]
            atoms = space(*(f"x{i + 1}" for i in range(len(item.mu))))
            F = SimpleSetFunction(
                atoms, tuple(canonicalize(cone, points=pts) for pts in item.points)
            )
            items.append((item, F, AtomicMeasure(atoms, item.mu)))
            blob.append(repr((item.cone.name, item.mu, item.points)))
        return items, "".join(blob).encode()

    def round(self, r: int) -> list[OpResult]:
        import uppersets.integral

        results = []
        for item, F, mu in self.inputs(r)[0]:
            label = f"integral {item.cone.name} atoms={len(item.mu)} points={len(item.points[0])}"
            self.begin_op()

            def call():
                try:
                    res = uppersets.integral.aumann_integral(F, mu)
                    return res, res.certificate_ok()
                except Exception as exc:  # an uncaught program error fails the operation
                    return exc, False

            (res, certified), seconds = timed(self.speed, call)
            if isinstance(res, Exception):
                results.append(OpResult("integral", label, seconds, "failed", "", repr(res)))
                continue
            stdout = res.value.literal() + "\n" + res.certificate_table() + "\n"
            problem = None if certified else "certificate_ok() is false"
            problem = problem or bench_check.integral_mismatch(
                res.value, item.cone.facets, item.cone.generators, item.mu, item.points
            )
            status = "wrong" if problem else "ok"
            results.append(OpResult("integral", label, seconds, status, stdout, problem))
        return results


WORKLOADS = {
    w.name: w for w in (CheckerWorkload, IntegrateLargeWorkload, ExternalWorkload)
}

# ---------------------------------------------------------------------------
# measuring


def rounds_for(name: str, seconds: float) -> int:
    """The fewest rounds that take ``seconds`` on the reference host.  A fixed
    count rather than a deadline: every run of a workload then measures the
    same schedule, whose verdicts differ in cost by up to eightfold."""
    return math.ceil(seconds / ROUND_SECONDS[name])


def run_rounds(workload, rounds: int, deadline: float = math.inf) -> Pass:
    """Run ``rounds`` rounds, or fewer when ``deadline`` seconds have passed
    before the next would start: a guard for a host far slower than the
    reference, which keeps every run within its time."""
    result = Pass(workload.speed)
    start = perf_counter()
    while result.rounds < rounds and (result.rounds == 0 or perf_counter() - start < deadline):
        ops = workload.round(result.rounds)
        if result.rounds == 0:
            text = workload.placeholders("".join(op.stdout for op in ops))
            result.digest = hashlib.sha256(text.encode()).hexdigest()
        result.ops.extend(ops)
        result.rounds += 1
    return result


def timed_setups(workload) -> tuple[float, bool]:
    """Median wall time of SETUP_REPEATS set-ups, and whether every one
    generated byte-identical inputs.  Each imports ``uppersets`` afresh (from
    its bytecode cache), then generates, writes and loads the inputs."""
    times, blobs = [], set()

    def setup():
        importlib.import_module("uppersets")
        return workload.setup()

    for _ in range(SETUP_REPEATS):
        for name in [n for n in sys.modules if n == "uppersets" or n.startswith("uppersets.")]:
            del sys.modules[name]
        blob, seconds = timed(workload.speed, setup)
        blobs.add(blob)
        times.append(seconds)
    return statistics.median(times), len(blobs) == 1


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it: (value,
    percentile, samples); below eleven samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return (ordered[-1] if ordered else 0.0), 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def summarize(primary: str, measured: Pass, scale: float) -> dict:
    """Every end-to-end figure of a pass by name, with the per-kind ones, from
    its wall times multiplied by ``scale``."""
    prim = [op for op in measured.ops if op.kind == primary]
    ok_times = [scale * op.seconds for op in prim if op.status == "ok"]
    attempted_time = sum(scale * op.seconds for op in prim)
    failed = [op for op in measured.ops if op.status != "ok"]
    out = {
        "op_p50_ms": 1000.0 * statistics.median(ok_times) if ok_times else 0.0,
        "ops_per_s": len(ok_times) / attempted_time if attempted_time else 0.0,
        "fail_ratio": len(failed) / len(measured.ops),
    }
    if primary == "verdict":
        out["verdict_p50_s"] = out["op_p50_ms"] / 1000.0
        out["verdicts_per_min"] = out["ops_per_s"] * 60.0
    else:
        value, pct, n = tail([1000.0 * t for t in ok_times])
        out.update(
            integrals_per_s=out["ops_per_s"],
            integral_p50_ms=out["op_p50_ms"],
            integral_tail_ms=value,
            integral_tail_percentile=pct,
            integral_tail_samples=n,
        )
    oracles = [scale * op.seconds for op in measured.ops if op.kind == "oracle" and op.status == "ok"]
    if oracles:
        out["oracle_p50_ms"] = 1000.0 * statistics.median(oracles)
    return out


UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fail_ratio": "ratio",
    "verdict_p50_s": "s",
    "verdicts_per_min": "1/min",
    "oracle_p50_ms": "ms",
    "integrals_per_s": "1/s",
    "integral_p50_ms": "ms",
    "integral_tail_ms": "ms",
    "integral_tail_percentile": "%",
    "integral_tail_samples": "count",
}


def host_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    """Run one workload; returns the final result object and report lines."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir()
    lines = []
    try:
        workload = WORKLOADS[name](seed, workdir)
        setup_wall, deterministic = timed_setups(workload)
        problems = [] if deterministic else ["set-up passes generated different inputs"]
        if not trace:
            measured = run_rounds(workload, rounds_for(name, seconds), DEADLINE_SHARE * seconds)
            passes = [measured]
        else:
            measured = run_rounds(
                workload, rounds_for(name, seconds / 2), DEADLINE_SHARE * seconds / 2
            )
            tracer = bench_trace.install()
            workload.tracer = tracer
            workload.speed = Speedometer()
            try:
                traced = run_rounds(workload, measured.rounds)
            finally:
                workload.tracer = None
                tracer.remove()
            passes = [measured, traced]
            if traced.digest != measured.digest:
                problems.append("program output differs between the traced and untraced pass")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for p in passes for op in p.ops]
    wrong = [op for op in ops if op.status == "wrong"]
    failed = [op for op in ops if op.status == "failed"]
    problems += [f"wrong answer: {op.label}: {op.problem}" for op in wrong]
    if not any(op.kind == workload.primary and op.status == "ok" for op in measured.ops):
        problems.append(f"no {workload.primary} succeeded")
    scale = measured.speed.scale()
    figures = summarize(workload.primary, measured, scale)
    figures["setup_s"] = scale * setup_wall
    wall_figures = summarize(workload.primary, measured, 1.0)
    wall_figures["setup_s"] = setup_wall
    figures["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    counts: dict[str, dict[str, int]] = {}
    for op in measured.ops:
        counts.setdefault(op.kind, {"ok": 0, "failed": 0, "wrong": 0})[op.status] += 1
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": measured.rounds,
        "operations": counts,
        "failed_operations": len(failed),
        "attempted_operations": len(ops),
        "digest_round0": measured.digest,
        "ops": [[op.label, round(op.seconds, 4), op.status] for op in measured.ops],
        "calibration_samples": len(measured.speed.samples),
        "calibration_median_s": statistics.median(measured.speed.samples),
        "speed_scale": scale,
        "host": host_facts(),
        "figures": figures,
        "wall_figures": wall_figures,
    }
    lines.append(f"workload {name} seed={seed} rounds={measured.rounds} trace={int(trace)}")
    for key, value in figures.items():
        lines.append(f"  {key} = {value:.6g} {UNITS[key]}")
    lines.append(
        f"  times above are scaled by {scale:.4f}: {CALIBRATION_REFERENCE_S} s over the median"
        f" of {len(measured.speed.samples)} calibration samples"
    )
    lines.append(f"  fail_ratio counts: failed={len(failed)} wrong={len(wrong)} attempted={len(ops)}")
    lines.append(f"  sha256(round 0 stdout) = {measured.digest}")
    for op in [op for op in measured.ops if op.status == "failed"][:5]:
        lines.append(f"  failed: {op.label}: {op.problem}")
    for problem in problems:
        lines.append(f"  INCORRECT: {problem}")

    if trace:
        overhead = traced.program_seconds() / measured.program_seconds() - 1.0
        traced_scale = traced.speed.scale()
        metrics = {
            metric: {"value": value * traced_scale if unit in ("s", "ms") else value, "unit": unit}
            for (metric, unit), value in zip(
                bench_trace.PER_LAYER, tracer.per_layer(overhead).values()
            )
        }
        trace_path = OUT / f"trace-{name}-seed{seed}.jsonl.gz"
        tracer.write(trace_path)
        lines.append(f"  spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics = {metric: {"value": figures[metric], "unit": UNITS[metric]} for metric in END_TO_END}
    lines.append("report " + json.dumps(report, sort_keys=True))
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed) + len(wrong),
        "metrics": metrics,
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "uppersets" / "__init__.py").is_file() or not FIXTURE.is_file():
        print(f"error: the uppersets sources are not under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the external fixture runs in a child process that imports uppersets too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    pin_to_one_cpu()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    all_correct = True
    for name in names:
        result, lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(lines))
        print(json.dumps(result), flush=True)
        all_correct = all_correct and result["correct"]
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
