"""Module layering: no module of the package imports a sibling's private name,
only the kernel's clients import from ``ddm``, no module but ``linalg`` reads
a number with a ``Fraction(x)`` fallback, no module reads an upper set's
``halfspaces`` view, no module but the measure's own methods walks its
weights, only ``UpperSet.oplus`` calls the 3-D fan merge, no module
imports a name that it never reads, and every defaulted parameter is passed
by some call."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "uppersets"
MODULES = sorted(PACKAGE.glob("*.py"))
CALLERS = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


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


# the double-description kernel's clients and what each imports from it; every
# other module asks ``upperset`` or ``cone`` for a conversion
KERNEL_CLIENTS = {
    "cone": ["cone_vrep", "rref_basis"],
    "upperset": ["ddm"],
    "integral": ["modulo", "rref_basis"],
}


def kernel_imports(path: Path) -> list[str]:
    """The names ``path`` imports from ``ddm``, and 'ddm' for the module itself,
    relatively or through the package."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            found += ["ddm" for alias in node.names if alias.name == f"{PACKAGE.name}.ddm"]
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != PACKAGE.name:
            continue
        if module.split(".")[-1] == "ddm":
            found += [alias.name for alias in node.names]
        elif module in ("", PACKAGE.name):
            found += ["ddm" for alias in node.names if alias.name == "ddm"]
    return found


def fraction_fallbacks(path: Path) -> list[str]:
    """'line: call' for each one-argument ``Fraction(x)`` in ``path`` whose x is
    neither an integer literal nor a ``read_number(...)`` call: a number read
    outside ``linalg.read_number``, which would take floats and any string
    ``Fraction`` parses."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call) or _name(node.func) != "Fraction":
            continue
        args = [*node.args, *(k.value for k in node.keywords)]
        if len(args) != 1:
            continue
        (arg,) = args
        if isinstance(arg, ast.UnaryOp) and isinstance(arg.operand, ast.Constant):
            arg = arg.operand  # a negative literal
        if isinstance(arg, ast.Constant) and type(arg.value) is int:
            continue
        if not (isinstance(arg, ast.Call) and _name(arg.func) == "read_number"):
            found.append((node.lineno, f"{node.lineno}: {ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def halfspaces_reads(path: Path) -> list[str]:
    """'line: expression' for each read of a ``halfspaces`` attribute in
    ``path``: the view of the stored facets as Fraction offsets, which the
    library reads as the integer rows ``facets`` instead."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "halfspaces":
            found.append((node.lineno, f"{node.lineno}: {ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def weights_walks(path: Path) -> list[str]:
    """'line: call' for each ``zip(...)`` or ``enumerate(...)`` in ``path`` that
    takes a ``weights`` attribute of anything but ``self``: a sum over a measure's
    atoms read outside ``AtomicMeasure.pairs``, which checks the function's space."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call) or _name(node.func) not in ("zip", "enumerate"):
            continue
        if any(
            isinstance(arg, ast.Attribute) and arg.attr == "weights" and getattr(arg.value, "id", None) != "self"
            for arg in node.args
        ):
            found.append((node.lineno, f"{node.lineno}: {ast.unparse(node)}"))
    return [text for _, text in sorted(found)]


def fan_sum_uses(path: Path) -> list[str]:
    """'line: scope' for each use of ``_fan_sum`` in ``path`` outside
    ``UpperSet.oplus``, called or not: the merge does not check that the sum
    is pointed, and ``oplus`` routes a sum to it only once ``_pointed`` has."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, (ast.Name, ast.Attribute)) and _name(node) == "_fan_sum" and scope != "UpperSet.oplus":
            found.append((node.lineno, f"{node.lineno}: {scope or '<module>'}"))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(path.read_text(), str(path)), "")
    return [text for _, text in sorted(found)]


def unused_imports(path: Path) -> list[str]:
    """'line: name' for each name that ``path`` binds by an import and never
    reads; ``from __future__`` imports name compiler features, not bindings."""
    tree = ast.parse(path.read_text(), str(path))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        for name in names:
            bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{line}: {name}" for name, line in sorted(bound.items(), key=lambda item: item[1]) if name not in read]


def passed_arguments(paths: list[Path]) -> dict[str | None, set]:
    """Per called name, what its calls in ``paths`` pass: each keyword, each
    position from 0, and '*' for a call with ``*`` or ``**``, which may pass any."""
    passed: dict[str | None, set] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                slots = passed.setdefault(_name(node.func), set())
                slots.update(k.arg or "*" for k in node.keywords)
                slots.update("*" if isinstance(a, ast.Starred) else i for i, a in enumerate(node.args))
    return passed


def unpassed_options(path: Path, passed: dict[str | None, set]) -> list[str]:
    """'line: def(parameter)' for each defaulted parameter of a ``def`` in
    ``path`` that no call in ``passed`` passes, by keyword or by position: an
    option that no caller uses.  A method's calls are those of its name, less
    the ``self`` argument, and a constructor's those of its class name."""
    found = []

    def visit(node: ast.AST, cls: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                positional = [*a.posonlyargs, *a.args]
                if cls and "staticmethod" not in map(_name, child.decorator_list):
                    positional = positional[1:]
                options = [(i, p.arg) for i, p in enumerate(positional) if i >= len(positional) - len(a.defaults)]
                options += [(None, p.arg) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                slots = passed.get(cls if child.name == "__init__" else child.name, set())
                where = f"{child.lineno}: {cls + '.' if cls else ''}{child.name}"
                found.extend((child.lineno, f"{where}({p})") for i, p in options if not {i, p, "*"} & slots)
            visit(child, child.name if isinstance(child, ast.ClassDef) else None)

    visit(ast.parse(path.read_text(), str(path)), None)
    return [text for _, text in sorted(found)]


def _name(func: ast.expr) -> str | None:
    """The called name of ``f(...)`` or ``m.f(...)``."""
    return getattr(func, "id", getattr(func, "attr", None))


def test_the_package_has_modules():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_a_private_name_of_a_sibling(path):
    assert private_imports(path) == []


def test_a_private_import_is_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text("from .upperset import UpperSet, _planar_sum\nfrom uppersets.ddm import _halfspaces\n")
    assert private_imports(source) == ["upperset._planar_sum", "uppersets.ddm._halfspaces"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_the_kernel_clients_import_from_ddm(path):
    assert kernel_imports(path) == KERNEL_CLIENTS.get(path.stem, [])


def test_a_kernel_import_is_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from .ddm import hrep_to_vrep, rref_basis\nfrom . import ddm, linalg\nfrom uppersets import cone, ddm\n"
        "import uppersets.ddm\nfrom uppersets.ddm import GeometryError\nfrom .upperset import UpperSet\nimport ddm\n"
    )
    assert kernel_imports(source) == ["hrep_to_vrep", "rref_basis", "ddm", "ddm", "ddm", "GeometryError"]


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.stem != "linalg"], ids=[p.stem for p in MODULES if p.stem != "linalg"]
)
def test_no_module_but_linalg_reads_a_number_by_fraction(path):
    assert fraction_fallbacks(path) == []


def test_a_fraction_fallback_is_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from fractions import Fraction\nimport fractions\n"
        "a = Fraction(0), Fraction(-2), Fraction(1, 2), Fraction(read_number(x, e))\n"
        "b = Fraction(x)\nc = fractions.Fraction(w)\nd = Fraction(numerator=y)\ne = Fraction('1/2')\n"
    )
    assert fraction_fallbacks(source) == [
        "4: Fraction(x)", "5: fractions.Fraction(w)", "6: Fraction(numerator=y)", "7: Fraction('1/2')"
    ]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_reads_the_halfspaces_view(path):
    assert halfspaces_reads(path) == []


def test_a_halfspaces_read_is_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "def halfspaces(self):\n    return self.facets\n"
        "rows = list(region.halfspaces)\nmeets = [*v.halfspaces, *rows]\nu = canonicalize(c, halfspaces=rows)\n"
    )
    assert halfspaces_reads(source) == ["3: region.halfspaces", "4: v.halfspaces"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_walks_the_weights_of_another_measure(path):
    assert weights_walks(path) == []


def test_a_weights_walk_is_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "pairs = zip(self.weights, atoms)\ntotal = sum(mu.weights)\n"
        "terms = [w for w, v in zip(mu.weights, F.values) if w]\n"
        "positive = [i for i, w in enumerate(measure.weights) if w]\nw = mu.weights[0]\n"
    )
    assert weights_walks(source) == ["3: zip(mu.weights, F.values)", "4: enumerate(measure.weights)"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_only_oplus_calls_the_fan_merge(path):
    assert fan_sum_uses(path) == []


def test_a_fan_merge_outside_oplus_is_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "class UpperSet:\n    def oplus(self, other):\n        return _fan_sum(self, other)\n"
        "    def scale(self, lam):\n        return upperset._fan_sum(self, self)\n"
        "def weighted_sum(cone, terms):\n    merge = _fan_sum\n    return [lambda: _fan_sum(a, b) for a, b in terms]\n"
        "def _fan_sum(a, b):\n    return a\ntotal = _fan_sum(x, y)\n"
    )
    assert fan_sum_uses(source) == ["5: UpperSet.scale", "7: weighted_sum", "8: weighted_sum", "11: <module>"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_a_name_it_never_reads(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "from __future__ import annotations\nimport os.path\nimport re as regex\n"
        "from .linalg import NEG_INF, read_number\nfrom .cone import Cone, checked_vector\n"
        "def f(c: Cone, text):\n    checked_vector = None\n    return read_number(text), os.sep\n"
    )
    assert unused_imports(source) == ["3: regex", "4: NEG_INF", "5: checked_vector"]


@pytest.fixture(scope="module")
def passed():
    return passed_arguments(CALLERS)


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_option_is_passed_by_some_call(path, passed):
    assert unpassed_options(path, passed) == []


def test_an_unpassed_option_is_found(tmp_path):
    source = tmp_path / "m.py"
    source.write_text(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    def inner(x=0):\n        return x\n    return inner()\n"
        "class K:\n    def __init__(self, p, q=None, r=None):\n        pass\n"
        "    def m(self, s=1, t=2):\n        pass\n    @staticmethod\n    def n(u=1):\n        pass\n"
        "f(0, 1, d=2)\nK(0, r=1)\nK.n()\nobj.m(**options)\n"
    )
    assert unpassed_options(source, passed_arguments([source])) == [
        "1: f(c)", "1: f(e)", "2: inner(x)", "6: K.__init__(q)", "11: K.n(u)"
    ]
