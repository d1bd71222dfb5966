"""Module layering: no module of the package imports a sibling's private name."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "uppersets"
MODULES = sorted(PACKAGE.glob("*.py"))


def private_imports(path: Path) -> list[str]:
    """'module.name' for each underscore-prefixed name that ``path`` imports
    from a sibling module, relatively or through the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != PACKAGE.name:
            continue
        found += [f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")]
    return found


def test_the_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_a_private_name_of_a_sibling(path):
    assert private_imports(path) == []


def test_a_private_import_is_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from .upperset import UpperSet, _planar_sum\nfrom uppersets.ddm import _halfspaces\n")
    assert private_imports(source) == ["upperset._planar_sum", "uppersets.ddm._halfspaces"]
