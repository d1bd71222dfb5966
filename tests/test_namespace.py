"""The package namespace: each public name is loaded from its module on first
use, and nothing is imported or cached that the caller did not ask for."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import uppersets

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC = """
    AtomicMeasure AtomicSpace AxiomReport Cone DimensionMismatchError ExplicitChain Halfspace
    IntegralResult MUTANT_NAMES ParametricChain SampleSet ScalarFunction SetFunctional
    SimpleSetFunction UpperSet ValidationError VectorFunction Workspace WorkspaceError
    aumann_integral canonicalize cone_translates cone_upper_set constant_function
    decompose_nonneg dual_cone extract_scalar halfspace_function halfspace_set indicator_modify
    inf_set integral_functional integral_over integral_value monotone_limit_check
    mutant_catalog orthant parse_set_literal parse_workspace pick_selection point_plus_cone
    preimage preimage_identity_check reconstruct_measure run_axiom_checks selection_oracle
    space sup_set vector_plus_cone verify_representation
""".split()


def fresh(code: str, *flags: str):
    """What ``code`` prints as JSON, run in a fresh interpreter on ``src`` with ``flags``."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, *flags, "-c", "import json, sys\n" + code],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(done.stdout)


LOADED = "print(json.dumps(sorted(m for m in sys.modules if m.startswith('uppersets'))))"


def test_importing_the_package_loads_no_submodule():
    assert fresh("import uppersets\n" + LOADED) == ["uppersets"]


def test_an_external_childs_imports_load_neither_the_checker_nor_the_cli():
    loaded = fresh("import uppersets.integral, uppersets.protocol, uppersets.workspace\n" + LOADED)
    assert "uppersets.protocol" in loaded
    assert "uppersets.axioms" not in loaded and "uppersets.cli" not in loaded


def test_an_external_childs_imports_load_none_of_the_parents_process_modules():
    # -S: no site, whose .pth files may import anything; the parent loads these on starting a child
    parents = ["selectors", "subprocess", "tempfile"]
    code = "import uppersets.integral, uppersets.protocol, uppersets.workspace\n"
    assert fresh(code + f"print(json.dumps([m for m in {parents!r} if m in sys.modules]))", "-S") == []


def test_no_process_imports_dataclasses():
    # -S: no site; the CLI and an external child import neither dataclasses
    # nor the inspect module it loads
    code = "import uppersets.cli, uppersets.protocol\n"
    modules = ["dataclasses", "inspect"]
    assert fresh(code + f"print(json.dumps([m for m in {modules!r} if m in sys.modules]))", "-S") == []


def test_a_name_imported_from_the_package_is_not_cached_in_it():
    code = "from uppersets import canonicalize\nimport uppersets\n"
    assert fresh(code + "print(json.dumps('canonicalize' in vars(uppersets)))") is False


def test_all_lists_the_public_names_and_star_imports_them():
    assert uppersets.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(uppersets))
    namespace = {}
    exec("from uppersets import *", namespace)
    assert set(PUBLIC) <= set(namespace)


def test_each_public_name_is_its_modules_attribute():
    modules = {name: importlib.import_module("uppersets." + uppersets._MODULE[name]) for name in PUBLIC}
    assert [name for name in PUBLIC if getattr(uppersets, name) is not getattr(modules[name], name)] == []


def test_a_function_rebound_in_its_module_is_read_through_the_package(monkeypatch):
    import uppersets.upperset

    marker = object()
    monkeypatch.setattr(uppersets.upperset, "canonicalize", marker)
    assert uppersets.canonicalize is marker


def test_an_unknown_name_is_an_error():
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        uppersets.nope
    with pytest.raises(ImportError, match="cannot import name 'nope'"):
        from uppersets import nope  # noqa: F401
