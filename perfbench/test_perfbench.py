"""Tests of the benchmark itself: seeded inputs, the independent integral
check, the verdict checks, and the trace wrappers' install/remove."""

import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_check  # noqa: E402
import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402
import run  # noqa: E402

import uppersets  # noqa: E402
import uppersets.cli  # noqa: E402,F401  (every traced module is loaded)
from uppersets import (  # noqa: E402
    AtomicMeasure,
    SimpleSetFunction,
    aumann_integral,
    canonicalize,
    cone_upper_set,
    orthant,
    space,
)
from uppersets.integral import IntegralResult, weighted_support_sum  # noqa: E402

ORTHANT2 = bench_inputs.orthant_spec(2)


def test_inputs_are_a_function_of_the_seed():
    for shape in bench_inputs.SHAPES:
        first = bench_inputs.workspace_input(7, shape, 3)
        assert first == bench_inputs.workspace_input(7, shape, 3)
        assert first.text != bench_inputs.workspace_input(8, shape, 3).text
    for index in range(len(bench_inputs.LARGE_CONFIGS)):
        assert bench_inputs.integral_input(7, index) == bench_inputs.integral_input(7, index)
    assert bench_inputs.integral_input(7, 0) != bench_inputs.integral_input(8, 0)


def test_workload_setup_is_deterministic(tmp_path):
    blobs = set()
    for sub in ("a", "b"):
        workdir = tmp_path / sub
        workdir.mkdir()
        blobs.add(run.ExternalWorkload(3, workdir).setup())
    assert len(blobs) == 1


def test_times_scale_by_the_median_calibration_sample():
    speed = run.Speedometer()
    result, seconds = run.timed(speed, lambda: 42)
    assert result == 42 and seconds >= 0 and speed.samples
    speed.samples[:] = [0.01, 0.03, 0.05]
    assert speed.scale() == run.CALIBRATION_REFERENCE_S / 0.03


def test_cone_specs_match_the_library():
    for spec, *_ in bench_inputs.LARGE_CONFIGS:
        cone = uppersets.Cone(spec.dim, spec.generators, spec.interior)
        assert sorted(cone.dual_generators) == sorted(spec.facets)


def _counterexample():
    """F = (conv{(1,0),(0,1)} + C, C) over the 2-D orthant, mu = (1, 1)."""
    cone = orthant(2)
    points = (((1, 0), (0, 1)), ((0, 0),))
    sp = space("x1", "x2")
    F = SimpleSetFunction(sp, tuple(canonicalize(cone, points=p) for p in points))
    return cone, F, AtomicMeasure(sp, (1, 1)), points


def test_integral_check_rejects_what_the_certificate_accepts():
    cone, F, mu, points = _counterexample()
    wrong = cone_upper_set(cone)
    certificate = tuple(
        (w, wrong.support(w), weighted_support_sum(F, mu, w)) for w in wrong.facet_normals()
    )
    assert IntegralResult(wrong, certificate).certificate_ok()
    args = (ORTHANT2.facets, ORTHANT2.generators, mu.weights, points)
    assert bench_check.integral_mismatch(wrong, *args) is not None
    assert bench_check.integral_mismatch(aumann_integral(F, mu).value, *args) is None


def test_integral_check_rejects_a_shifted_value():
    cone, F, mu, points = _counterexample()
    value = aumann_integral(F, mu).value.translate((Fraction(1, 2), 0))
    problem = bench_check.integral_mismatch(
        value, ORTHANT2.facets, ORTHANT2.generators, mu.weights, points
    )
    assert problem is not None and "offset" in problem


def test_verdict_check_wants_only_the_target_axiom_to_fail():
    lines = [f"({a}) title: PASS [1 checked, 0 skipped]" for a in "APCNIS"]
    report = "\n".join(lines) + "\n"
    assert bench_check.verdict_problem("check-axioms", "integral", 0, report, (), ()) is None
    one = report.replace("(P) title: PASS", "(P) title: FAIL")
    assert bench_check.verdict_problem("check-axioms", "homogeneity-translate", 1, one, (), ()) is None
    assert bench_check.verdict_problem("check-axioms", "nullity-pad", 1, one, (), ()) is not None
    two = one.replace("(N) title: PASS", "(N) title: FAIL")
    assert bench_check.verdict_problem("check-axioms", "homogeneity-translate", 1, two, (), ()) is not None
    assert bench_check.verdict_problem("check-axioms", "integral", 1, one, (), ()) is not None


def _attribute_snapshot():
    """Every module attribute of uppersets, plus the traced classes' dicts."""
    snap = {}
    for name, module in sys.modules.items():
        if name == "uppersets" or name.startswith("uppersets."):
            snap.update({(name, attr): value for attr, value in vars(module).items()})
            for attr, value in vars(module).items():
                if isinstance(value, type) and value.__module__ == name:
                    snap.update({(name, attr, k): v for k, v in vars(value).items()})
    return snap


def test_removing_the_wrappers_restores_every_attribute():
    before = _attribute_snapshot()
    tracer = bench_trace.install()
    try:
        during = _attribute_snapshot()
        changed = {key for key in before if during.get(key) is not before[key]}
        assert ("uppersets.ddm", "cone_vrep") in changed
        assert ("uppersets.upperset", "hrep_to_vrep") not in changed
        assert ("uppersets.axioms", "canonicalize") in changed  # rebound in the importer
        assert ("uppersets.upperset", "UpperSet", "oplus") in changed
        cone, F, mu, _ = _counterexample()
        aumann_integral(F, mu)
    finally:
        tracer.remove()
    after = _attribute_snapshot()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    metrics = tracer.per_layer(0.0)
    assert [name for name, _ in bench_trace.PER_LAYER] == list(metrics)
    assert metrics["ddm.cone_vrep.calls"] > 0
    assert metrics["linalg.dot.calls"] > 0
