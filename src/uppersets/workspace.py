"""Workspace files: a line-oriented text format binding one cone, one atom
list, and named measures, functions, chains and functionals.

The grammar is block-structured: a non-indented line opens a block
(``measure mu:``) or states a scalar fact (``dimension: 2``); indented lines
are block entries.  Set literals are one-liners (``halfspaces: [[1, 1, 0]]``,
``points: [[0, 0]] rays: [[1, 1]]``, ``full``, ``cone``) and the canonical
printed form of every set re-parses to an equal set.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction

from .cone import Cone, ValidationError
from .integral import ExplicitChain, harmonic_cone_chain
from .linalg import parse_rational
from .measure_space import (
    AtomicMeasure,
    AtomicSpace,
    ScalarFunction,
    SimpleSetFunction,
    VectorFunction,
)
from .upperset import UpperSet, canonicalize, cone_upper_set


class WorkspaceError(ValueError):
    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        where = f"{path or '<workspace>'}" + (f":{line}" if line else "")
        super().__init__(f"{where}: {message}")


DEFAULT_CHAIN_INDICES = (1, 2, 4, 8, 16, 32, 64)

_TOKEN = re.compile(r"-inf|inf|-?\d+/\d+|-?\d+|\[|\]|,")


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN.findall(text)
    leftover = _TOKEN.sub("", text).replace(" ", "")
    if leftover:
        raise ValueError(f"unexpected characters {leftover!r}")
    return tokens


def _parse_nested(tokens: list[str], pos: int):
    if tokens[pos] != "[":
        raise ValueError("expected '['")
    pos += 1
    items = []
    while True:
        if pos >= len(tokens):
            raise ValueError("unterminated '['")
        tok = tokens[pos]
        if tok == "]":
            return items, pos + 1
        if tok == ",":
            pos += 1
            continue
        if tok == "[":
            inner, pos = _parse_nested(tokens, pos)
            items.append(inner)
        else:
            items.append(parse_rational(tok))
            pos += 1


def parse_vector(text: str):
    """One bracketed vector of rationals."""
    items, end = _parse_nested(_tokenize(text), 0)
    if end != len(_tokenize(text)) or any(isinstance(x, list) for x in items):
        raise ValueError(f"malformed vector {text!r}")
    return tuple(items)


def parse_vector_list(text: str):
    """A bracketed list of bracketed vectors: [[...], [...]]."""
    tokens = _tokenize(text)
    items, end = _parse_nested(tokens, 0)
    if end != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    out = []
    for item in items:
        if not isinstance(item, list):
            raise ValueError(f"expected a nested vector in {text!r}")
        out.append(tuple(item))
    return out


_SEGMENT = re.compile(r"(halfspaces|points|rays)\s*:")


def parse_set_literal(text: str, cone: Cone) -> UpperSet:
    """Parse one set literal against the workspace cone and canonicalize."""
    body = text.strip()
    if body == "empty":
        return UpperSet.empty(cone)
    if body == "full":
        return UpperSet.full(cone)
    if body == "cone":
        return cone_upper_set(cone)
    matches = list(_SEGMENT.finditer(body))
    if not matches or matches[0].start() != 0:
        raise ValueError(f"unrecognized set literal {body!r}")
    segments = {}
    for i, m in enumerate(matches):
        end = matches[i + 1].start() if i + 1 < len(matches) else len(body)
        key = m.group(1)
        if key in segments:
            raise ValueError(f"duplicate segment {key!r}")
        segments[key] = body[m.end() : end].strip()
    halfspaces = points = rays = None
    if "halfspaces" in segments:
        rows = parse_vector_list(segments["halfspaces"])
        halfspaces = []
        for row in rows:
            if len(row) != cone.dim + 1:
                raise ValueError(
                    f"halfspace row needs {cone.dim} coordinates plus an offset"
                )
            halfspaces.append((row[: cone.dim], row[cone.dim]))
    if "points" in segments:
        points = parse_vector_list(segments["points"])
    if "rays" in segments:
        rays = parse_vector_list(segments["rays"])
        if points is None:
            raise ValueError("rays need accompanying points")
    return canonicalize(cone, halfspaces=halfspaces, points=points, rays=rays)


@dataclass
class FunctionalSpec:
    name: str
    kind: str  # integral | mutant | external
    measure: str | None = None
    mutant: str | None = None
    command: tuple[str, ...] = ()
    line: int = 0


@dataclass
class Workspace:
    path: str
    dim: int
    cone: Cone
    space: AtomicSpace
    measures: dict[str, AtomicMeasure] = field(default_factory=dict)
    scalars: dict[str, ScalarFunction] = field(default_factory=dict)
    vectors: dict[str, VectorFunction] = field(default_factory=dict)
    setfunctions: dict[str, SimpleSetFunction] = field(default_factory=dict)
    chains: dict[str, object] = field(default_factory=dict)
    functionals: dict[str, FunctionalSpec] = field(default_factory=dict)

    def measure(self, name: str) -> AtomicMeasure:
        return self._lookup(self.measures, name, "measure")

    def setfunction(self, name: str) -> SimpleSetFunction:
        return self._lookup(self.setfunctions, name, "set function")

    def chain(self, name: str):
        return self._lookup(self.chains, name, "chain")

    def functional_spec(self, name: str) -> FunctionalSpec:
        return self._lookup(self.functionals, name, "functional")

    def _lookup(self, table: dict, name: str, what: str):
        if name not in table:
            known = ", ".join(sorted(table)) or "none defined"
            raise WorkspaceError(f"unknown {what} {name!r} (known: {known})", self.path)
        return table[name]


@dataclass
class _Block:
    keyword: str
    name: str | None
    line: int
    inline: str | None
    entries: list[tuple[int, str]]


def _scan_blocks(text: str, path: str) -> list[_Block]:
    blocks: list[_Block] = []
    current: _Block | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        indented = line[0] in " \t"
        if indented:
            if current is None:
                raise WorkspaceError("indented line outside any block", path, lineno)
            current.entries.append((lineno, line.strip()))
            continue
        if ":" not in line:
            raise WorkspaceError("expected 'keyword:' or 'keyword name:'", path, lineno)
        head, _, rest = line.partition(":")
        parts = head.strip().split()
        if len(parts) == 1:
            keyword, name = parts[0], None
        elif len(parts) == 2:
            keyword, name = parts
        else:
            raise WorkspaceError(f"malformed header {head!r}", path, lineno)
        current = _Block(keyword, name, lineno, rest.strip() or None, [])
        blocks.append(current)
    return blocks


def _entries_as_map(block: _Block, path: str) -> list[tuple[int, str, str]]:
    out = []
    for lineno, entry in block.entries:
        if ":" not in entry:
            raise WorkspaceError(f"expected 'key: value', got {entry!r}", path, lineno)
        key, _, value = entry.partition(":")
        out.append((lineno, key.strip(), value.strip()))
    return out


def parse_workspace(path: str) -> Workspace:
    """Load and fully validate a workspace file.

    The first violated invariant is reported with its file location.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise WorkspaceError(str(exc), path) from exc
    blocks = _scan_blocks(text, path)
    by_keyword: dict[str, list[_Block]] = {}
    for b in blocks:
        by_keyword.setdefault(b.keyword, []).append(b)

    def single(keyword: str) -> _Block:
        found = by_keyword.get(keyword, [])
        if not found:
            raise WorkspaceError(f"missing required block {keyword!r}", path)
        if len(found) > 1:
            raise WorkspaceError(f"duplicate block {keyword!r}", path, found[1].line)
        return found[0]

    dim_block = single("dimension")
    try:
        dim = int(dim_block.inline or "")
    except ValueError:
        raise WorkspaceError("dimension must be an integer", path, dim_block.line) from None

    cone_block = single("cone")
    generators = None
    interior = None
    for lineno, key, value in _entries_as_map(cone_block, path):
        try:
            if key == "generators":
                generators = [parse_vector(v) for v in re.findall(r"\[[^\[\]]*\]", value)]
            elif key == "interior_point":
                interior = parse_vector(value)
            else:
                raise ValueError(f"unknown cone entry {key!r}")
        except ValueError as exc:
            raise WorkspaceError(str(exc), path, lineno) from None
    if not generators:
        raise WorkspaceError("cone block needs generators", path, cone_block.line)
    if interior is None:
        raise WorkspaceError("cone block needs an interior_point", path, cone_block.line)
    try:
        cone = Cone(dim, tuple(generators), interior)
    except ValidationError as exc:
        raise WorkspaceError(str(exc), path, cone_block.line) from None

    atoms_block = single("atoms")
    names = (atoms_block.inline or "").split()
    try:
        space = AtomicSpace(tuple(names))
    except ValidationError as exc:
        raise WorkspaceError(str(exc), path, atoms_block.line) from None

    ws = Workspace(path, dim, cone, space)

    def check_fresh(table: dict, name: str | None, block: _Block, what: str) -> str:
        if not name:
            raise WorkspaceError(f"{what} block needs a name", path, block.line)
        if name in table:
            raise WorkspaceError(f"duplicate {what} {name!r}", path, block.line)
        return name

    for block in by_keyword.get("measure", []):
        name = check_fresh(ws.measures, block.name, block, "measure")
        mapping = {}
        for lineno, key, value in _entries_as_map(block, path):
            _require_atom(space, key, path, lineno)
            try:
                mapping[key] = Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise WorkspaceError(f"bad rational {value!r}", path, lineno) from None
        try:
            ws.measures[name] = AtomicMeasure.from_map(space, mapping)
        except ValidationError as exc:
            raise WorkspaceError(str(exc), path, block.line) from None

    for block in by_keyword.get("scalar", []):
        name = check_fresh(ws.scalars, block.name, block, "scalar function")
        mapping = {}
        for lineno, key, value in _entries_as_map(block, path):
            _require_atom(space, key, path, lineno)
            try:
                mapping[key] = parse_rational(value)
            except ValueError as exc:
                raise WorkspaceError(str(exc), path, lineno) from None
        try:
            ws.scalars[name] = ScalarFunction.from_map(space, mapping)
        except ValidationError as exc:
            raise WorkspaceError(str(exc), path, block.line) from None

    for block in by_keyword.get("vector", []):
        name = check_fresh(ws.vectors, block.name, block, "vector function")
        mapping = {}
        for lineno, key, value in _entries_as_map(block, path):
            _require_atom(space, key, path, lineno)
            try:
                v = parse_vector(value)
            except ValueError as exc:
                raise WorkspaceError(str(exc), path, lineno) from None
            if len(v) != dim:
                raise WorkspaceError(f"vector has dimension {len(v)}, expected {dim}", path, lineno)
            mapping[key] = v
        try:
            ws.vectors[name] = VectorFunction.from_map(space, mapping)
        except ValidationError as exc:
            raise WorkspaceError(str(exc), path, block.line) from None

    for block in by_keyword.get("setfunction", []):
        name = check_fresh(ws.setfunctions, block.name, block, "set function")
        values = {}
        for lineno, key, value in _entries_as_map(block, path):
            _require_atom(space, key, path, lineno)
            try:
                values[key] = parse_set_literal(value, cone)
            except (ValueError, ValidationError) as exc:
                raise WorkspaceError(str(exc), path, lineno) from None
        missing = [a for a in space.atoms if a not in values]
        if missing:
            raise WorkspaceError(
                f"set function {name!r} missing atoms {missing}", path, block.line
            )
        try:
            ws.setfunctions[name] = SimpleSetFunction(
                space, tuple(values[a] for a in space.atoms)
            )
        except ValidationError as exc:
            raise WorkspaceError(str(exc), path, block.line) from None

    for block in by_keyword.get("chain", []):
        name = check_fresh(ws.chains, block.name, block, "chain")
        entries = {key: (lineno, value) for lineno, key, value in _entries_as_map(block, path)}
        kind = entries.get("kind", (block.line, ""))[1]
        if kind == "explicit":
            if "steps" not in entries or "limit" not in entries:
                raise WorkspaceError("explicit chain needs steps and limit", path, block.line)
            step_names = entries["steps"][1].split()
            steps = tuple(ws.setfunction(n) for n in step_names)
            limit = ws.setfunction(entries["limit"][1].strip())
            try:
                ws.chains[name] = ExplicitChain(steps, limit)
            except ValidationError as exc:
                raise WorkspaceError(str(exc), path, block.line) from None
        elif kind == "harmonic-cone":
            indices = DEFAULT_CHAIN_INDICES
            if "indices" in entries:
                lineno, value = entries["indices"]
                try:
                    indices = tuple(int(t) for t in value.split())
                except ValueError:
                    raise WorkspaceError("indices must be integers", path, lineno) from None
            try:
                ws.chains[name] = harmonic_cone_chain(space, cone, indices)
            except ValidationError as exc:
                raise WorkspaceError(str(exc), path, block.line) from None
        else:
            raise WorkspaceError(
                f"chain kind must be 'explicit' or 'harmonic-cone', got {kind!r}",
                path,
                block.line,
            )

    for block in by_keyword.get("functional", []):
        name = check_fresh(ws.functionals, block.name, block, "functional")
        entries = {key: (lineno, value) for lineno, key, value in _entries_as_map(block, path)}
        kind = entries.get("kind", (block.line, ""))[1]
        spec = FunctionalSpec(name, kind, line=block.line)
        if kind in ("integral", "mutant"):
            if "measure" not in entries:
                raise WorkspaceError(f"functional {name!r} needs a measure", path, block.line)
            spec.measure = entries["measure"][1].strip()
            ws.measure(spec.measure)  # resolve now
            if kind == "mutant":
                if "name" not in entries:
                    raise WorkspaceError(
                        f"mutant functional {name!r} needs a mutant name", path, block.line
                    )
                spec.mutant = entries["name"][1].strip()
        elif kind == "external":
            if "command" not in entries:
                raise WorkspaceError(
                    f"external functional {name!r} needs a command", path, block.line
                )
            spec.command = tuple(entries["command"][1].split())
        else:
            raise WorkspaceError(
                f"functional kind must be integral, mutant or external, got {kind!r}",
                path,
                block.line,
            )
        ws.functionals[name] = spec

    known = {
        "dimension",
        "cone",
        "atoms",
        "measure",
        "scalar",
        "vector",
        "setfunction",
        "chain",
        "functional",
    }
    for b in blocks:
        if b.keyword not in known:
            raise WorkspaceError(f"unknown block keyword {b.keyword!r}", path, b.line)
    return ws


def _require_atom(space: AtomicSpace, key: str, path: str, lineno: int) -> None:
    if key not in space.atoms:
        raise WorkspaceError(f"unknown atom {key!r}", path, lineno)
