"""Workspace files: a line-oriented text format binding one cone, one atom
list, and named measures, functions, chains and functionals.

The grammar is block-structured: a non-indented line opens a block
(``measure mu:``) or states a scalar fact (``dimension: 2``); indented lines
are ``key: value`` entries, read by one entry check; the per-atom blocks
(measure, scalar, vector, setfunction) load through one table and one builder,
which checks that a function covers every atom.  Set literals are one-liners
(``halfspaces: [[1, 1, 0]]``, ``points: [[0, 0]] rays: [[1, 1]]``, ``full``,
``cone``) and the canonical printed form of every set re-parses to an equal
set.  A number is ``p`` or ``p/q`` in ASCII digits with an optional leading
``-`` (``linalg.NUMBER``): a literal's tokens match it, and every other number
given as text (weights, scalar values, and ``dimension`` and chain
``indices``, which take ``p`` only) is read by ``linalg.read_number``, the
library's one reader.  ``inf``/``-inf`` may appear only as a halfspace offset,
and ``-inf`` as a scalar value.  A literal's numbers are read straight into
integers (p, q), q = 0 for ``inf``/``-inf``: each halfspace row becomes the
integer row (w, n, e), meaning <z, w> >= n/e, that ``canonicalize`` checks, no
``Fraction`` between; points and rays become ``Fraction``s.  Rows as
``UpperSet.literal`` writes them (integers, the offset ``p`` or ``p/q``, ``, ``
between) are read in one regex pass, else as tokens.
``Workspace.functional_spec`` resolves every functional name, inline
``integral:MEASURE`` and ``mutant:NAME:MEASURE`` forms included.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .cone import Cone, ValidationError, checked_vector
from .integral import ExplicitChain, ParametricChain
from .linalg import NEG_INF, NUMBER, read_number
from .measure_space import (
    AtomicMeasure,
    AtomicSpace,
    ScalarFunction,
    SimpleSetFunction,
    VectorFunction,
)
from .upperset import UpperSet, canonicalize, cone_upper_set


class WorkspaceError(ValidationError):
    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        where = f"{path or '<workspace>'}" + (f":{line}" if line else "")
        super().__init__(f"{where}: {message}")


DEFAULT_CHAIN_INDICES = (1, 2, 4, 8, 16, 32, 64)

_TOKEN = re.compile(rf"-inf|inf|{NUMBER.pattern}|\[|\]|,")


def _tokenize(text: str) -> list[str]:
    tokens = _TOKEN.findall(text)
    leftover = _TOKEN.sub("", text).replace(" ", "")
    if leftover:
        raise ValueError(f"unexpected characters {leftover!r}")
    return tokens


def _number(token: str) -> tuple[int, int]:
    """A number token of ``_TOKEN`` as integers (p, q) meaning p/q, q = 0 for inf and -inf."""
    p, _, q = token.partition("/")
    if p[-1] == "f":
        return (-1 if p[0] == "-" else 1), 0
    if not int(q or 1):
        raise ValidationError(f"bad rational literal {token!r}")
    return int(p), int(q or 1)


def _parse_nested(tokens: list[str], pos: int):
    """The list opened at tokens[pos] and the position after its ']', by a stack of open lists."""
    if pos >= len(tokens) or tokens[pos] != "[":
        raise ValueError("expected '['")
    stack = [[]]
    for end in range(pos + 1, len(tokens)):
        tok = tokens[end]
        if tok == "[":
            stack.append([])
        elif tok == "]":
            items = stack.pop()
            if not stack:
                return items, end + 1
            stack[-1].append(items)
        elif tok != ",":
            stack[-1].append(_number(tok))
    raise ValueError("unterminated '['")


def _finite(entries) -> tuple:
    for p, q in entries:
        if not q:
            raise ValueError(f"unexpected {'inf' if p > 0 else '-inf'}: only halfspace offsets may be infinite")
    return tuple(Fraction(p, q) for p, q in entries)


def parse_vector(text: str):
    """One bracketed vector of rationals."""
    tokens = _tokenize(text)
    items, end = _parse_nested(tokens, 0)
    if end != len(tokens) or any(isinstance(x, list) for x in items):
        raise ValueError(f"malformed vector {text!r}")
    return _finite(items)


def parse_vector_list(text: str):
    """A bracketed list of bracketed vectors, [[...], [...]], of numbers (p, q)."""
    tokens = _tokenize(text)
    items, end = _parse_nested(tokens, 0)
    if end != len(tokens):
        raise ValueError(f"trailing tokens in {text!r}")
    for item in items:
        if not isinstance(item, list) or any(isinstance(x, list) for x in item):
            raise ValueError(f"expected a nested vector in {text!r}")
    return [tuple(item) for item in items]


def _halfspace_row(row) -> tuple[tuple[int, ...], int, int]:
    """[w..., n/e] as the row (m·w, m·n, e), m the lcm of w's denominators, that ``canonicalize`` checks."""
    if not row:
        raise ValueError("halfspace row needs an offset")
    *w, (n, e) = row
    m = lcm(*(q for _, q in w)) or _finite(w)  # 0 for an infinite entry, which _finite refuses
    return tuple(p * (m // q) for p, q in w), n * m, e


_ROW = r"\[(?:-?[0-9]+, )*-?[0-9]+(?:/[0-9]*[1-9][0-9]*)?\]"  # integers, the last p or p/q, q > 0
_WRITTEN = re.compile(rf"\[{_ROW}(?:, {_ROW})*\]")  # a vector list as ``UpperSet.literal`` writes it


def _written_rows(text: str) -> list | None:
    """The rows of a list in ``_WRITTEN``'s form, read in one pass as (w, p, q),
    meaning [*w, p/q], numbers in the tokens' order; None for any other text."""
    if not _WRITTEN.fullmatch(text):
        return None
    rows = []
    for row in text[2:-2].split("], ["):
        *w, last = row.split(", ")
        rows.append((tuple(map(int, w)), *_number(last)))
    return rows


_SEGMENT = re.compile(r"(halfspaces|points|rays)\s*:")
_NAMED_SETS = {"empty": UpperSet.empty, "full": UpperSet.full, "cone": cone_upper_set}


def parse_set_literal(text: str, cone: Cone) -> UpperSet:
    """Parse one set literal against the workspace cone and canonicalize."""
    body = text.strip()
    if body in _NAMED_SETS:
        return _NAMED_SETS[body](cone)
    parts = _SEGMENT.split(body)  # [text before, key, segment, key, segment, ...]
    if len(parts) == 1 or parts[0]:
        raise ValueError(f"unrecognized set literal {body!r}")
    segments = {}
    for key, segment in zip(parts[1::2], parts[2::2]):
        if key in segments:
            raise ValueError(f"duplicate segment {key!r}")
        segments[key] = segment.strip()
    rows = points = rays = None
    if "halfspaces" in segments:
        hrep = segments["halfspaces"]
        rows = _written_rows(hrep) or [_halfspace_row(row) for row in parse_vector_list(hrep)]
    if "points" in segments:
        points = [_finite(p) for p in parse_vector_list(segments["points"])]
    if "rays" in segments:
        rays = [_finite(r) for r in parse_vector_list(segments["rays"])]
        if points is None:
            raise ValueError("rays need accompanying points")
    return canonicalize(cone, points=points, rays=rays, rows=rows)


@dataclass
class FunctionalSpec:
    name: str
    kind: str  # integral | mutant | external
    measure: str | None = None
    mutant: str | None = None
    command: tuple[str, ...] = ()


@dataclass
class Workspace:
    path: str
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
        """A workspace functional, or an inline ``integral:MEASURE`` or
        ``mutant:NAME:MEASURE``; an inline measure is resolved by its user."""
        if name in self.functionals:
            return self.functionals[name]
        if name.startswith("integral:"):
            return FunctionalSpec(name, "integral", name.split(":", 1)[1])
        if name.startswith("mutant:"):
            parts = name.split(":")
            if len(parts) != 3:
                raise ValidationError("inline mutant form is mutant:NAME:MEASURE")
            return FunctionalSpec(name, "mutant", parts[2], parts[1])
        raise WorkspaceError(
            f"unknown functional {name!r}; use a workspace name, integral:MEASURE "
            "or mutant:NAME:MEASURE",
            self.path,
        )

    def _lookup(self, table: dict, name: str, what: str, line: int | None = None):
        if name not in table:
            known = ", ".join(sorted(table)) or "none defined"
            raise WorkspaceError(f"unknown {what} {name!r} (known: {known})", self.path, line)
        return table[name]


_CONE_ENTRIES = {
    "generators": lambda text: tuple(_finite(v) for v in parse_vector_list(f"[{text}]")),
    "interior_point": parse_vector,
}

# per chain and functional kind: the entries it accepts besides ``kind``, each
# with its message if missing, or None if optional
_STEPS_AND_LIMIT = "explicit chain needs steps and limit"
_CHAIN_KEYS = {
    "explicit": (("steps", _STEPS_AND_LIMIT), ("limit", _STEPS_AND_LIMIT)),
    "harmonic-cone": (("indices", None),),
}
_FUNCTIONAL_KEYS = {
    "integral": (("measure", "functional {!r} needs a measure"),),
    "mutant": (
        ("measure", "functional {!r} needs a measure"),
        ("name", "mutant functional {!r} needs a mutant name"),
    ),
    "external": (("command", "external functional {!r} needs a command"),),
}


@dataclass
class _Block:
    keyword: str
    name: str | None
    line: int
    inline: str | None
    entries: list[tuple[int, str, str]]  # (line, key, value)


def _scan_blocks(text: str, path: str) -> list[_Block]:
    blocks: list[_Block] = []
    current: _Block | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line[0] in " \t":
            if current is None:
                raise WorkspaceError("indented line outside any block", path, lineno)
            key, colon, value = line.strip().partition(":")
            if not colon:
                raise WorkspaceError(f"expected 'key: value', got {line.strip()!r}", path, lineno)
            current.entries.append((lineno, key.strip(), value.strip()))
            continue
        if ":" not in line:
            raise WorkspaceError("expected 'keyword:' or 'keyword name:'", path, lineno)
        head, _, rest = line.partition(":")
        parts = head.split()
        if len(parts) not in (1, 2):
            raise WorkspaceError(f"malformed header {head!r}", path, lineno)
        name = parts[1] if len(parts) == 2 else None
        current = _Block(parts[0], name, lineno, rest.strip() or None, [])
        blocks.append(current)
    return blocks


def _scalar(text: str):
    if text == "inf":
        raise ValueError("unexpected inf: a scalar value is a rational or -inf")
    return NEG_INF if text == "-inf" else read_number(text, "bad rational literal {!r}")


def parse_workspace(path: str) -> Workspace:
    """Load and fully validate a workspace file.

    The first violated invariant is reported with its file location.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise WorkspaceError(str(exc), path) from exc
    blocks = _scan_blocks(text, path)
    # each block kind the loader dispatches is popped; what is left is unknown
    by_keyword: dict[str, list[_Block]] = {}
    for b in blocks:
        by_keyword.setdefault(b.keyword, []).append(b)

    def single(keyword: str) -> _Block:
        found = by_keyword.pop(keyword, [])
        if not found:
            raise WorkspaceError(f"missing required block {keyword!r}", path)
        if len(found) > 1:
            raise WorkspaceError(f"duplicate block {keyword!r}", path, found[1].line)
        return found[0]

    def located(line: int, fn, *args):
        """fn(*args), with a ValueError it raises reported at ``line``."""
        try:
            return fn(*args)
        except ValueError as exc:
            raise WorkspaceError(str(exc), path, line) from None

    def parse_entries(block: _Block, parsers: dict, what: str, unknown: str = "") -> dict:
        """The block's entries, each parsed by the parser its key selects; a key
        with no parser is an unknown ``unknown`` (``what`` if not given)."""
        parsed = {}
        for lineno, key, value in block.entries:
            if key not in parsers:
                raise WorkspaceError(f"unknown {unknown or what} {key!r}", path, lineno)
            if key in parsed:
                raise WorkspaceError(f"duplicate {what} {key!r}", path, lineno)
            parsed[key] = located(lineno, parsers[key], value)
        return parsed

    def kind_entries(block: _Block, accepted: dict, kinds: str) -> tuple[str, dict]:
        """The block's kind and its entries by key as (line, text), checked against ``accepted``."""
        entries = {key: (lineno, value) for lineno, key, value in block.entries}
        kind = entries.get("kind", (block.line, ""))[1]
        if kind not in accepted:
            message = f"{block.keyword} kind must be {kinds}, got {kind!r}"
            raise WorkspaceError(message, path, block.line)
        what = f"{block.keyword} entry"
        keys = ("kind", *(key for key, _ in accepted[kind]))
        parse_entries(block, dict.fromkeys(keys, str), what, f"{kind} {what}")
        for key, missing in accepted[kind]:
            if missing and key not in entries:
                raise WorkspaceError(missing.format(block.name), path, block.line)
        return kind, entries

    dim_block, error = single("dimension"), "dimension must be an integer"
    dim = located(dim_block.line, read_number, dim_block.inline or "", error, True)

    cone_block = single("cone")
    found = parse_entries(cone_block, _CONE_ENTRIES, "cone entry")
    if not found.get("generators"):
        raise WorkspaceError("cone block needs generators", path, cone_block.line)
    if "interior_point" not in found:
        raise WorkspaceError("cone block needs an interior_point", path, cone_block.line)
    cone = located(cone_block.line, Cone, dim, found["generators"], found["interior_point"])

    atoms_block = single("atoms")
    space = located(atoms_block.line, AtomicSpace, tuple((atoms_block.inline or "").split()))
    ws = Workspace(path, cone, space)

    def named_blocks(keyword: str, table: dict, what: str):
        """(name, block) for each block of ``keyword``, its name not yet in ``table``."""
        for block in by_keyword.pop(keyword, []):
            if not block.name:
                raise WorkspaceError(f"{what} block needs a name", path, block.line)
            if block.name in table:
                raise WorkspaceError(f"duplicate {what} {block.name!r}", path, block.line)
            yield block.name, block

    # per-atom blocks, loaded in this order: (keyword, label, table, entry
    # parser, class, message for the atoms a block leaves out, None if they weigh 0)
    per_atom = (
        ("measure", "measure", ws.measures,
         lambda text: read_number(text, "bad rational {!r}"), AtomicMeasure, None),
        ("scalar", "scalar function", ws.scalars,
         _scalar, ScalarFunction, "scalar function missing atoms {}"),
        ("vector", "vector function", ws.vectors,
         lambda text: checked_vector(dim, parse_vector(text)), VectorFunction,
         "vector function missing atoms {}"),
        ("setfunction", "set function", ws.setfunctions,
         lambda text: parse_set_literal(text, cone), SimpleSetFunction,
         "set function {name!r} missing atoms {}"),
    )
    for keyword, label, table, parse_entry, build, missing in per_atom:
        for name, block in named_blocks(keyword, table, label):
            given = parse_entries(block, dict.fromkeys(space.atoms, parse_entry), "atom")
            left_out = [a for a in space.atoms if a not in given]
            if missing and left_out:
                raise WorkspaceError(missing.format(left_out, name=name), path, block.line)
            values = tuple(given.get(a, 0) for a in space.atoms)
            table[name] = located(block.line, build, space, values)

    for name, block in named_blocks("chain", ws.chains, "chain"):
        kind, entries = kind_entries(block, _CHAIN_KEYS, "'explicit' or 'harmonic-cone'")
        if kind == "explicit":
            (steps_line, steps), (limit_line, limit) = entries["steps"], entries["limit"]
            steps = tuple(
                ws._lookup(ws.setfunctions, n, "set function", steps_line) for n in steps.split()
            )
            limit = ws._lookup(ws.setfunctions, limit, "set function", limit_line)
            ws.chains[name] = located(block.line, ExplicitChain, steps, limit)
        else:
            indices = DEFAULT_CHAIN_INDICES
            if "indices" in entries:
                lineno, value = entries["indices"]
                error = "indices must be integers"
                indices = tuple(located(lineno, read_number, t, error, True) for t in value.split())
            ws.chains[name] = located(block.line, ParametricChain, space, cone, indices)

    for name, block in named_blocks("functional", ws.functionals, "functional"):
        kind, entries = kind_entries(block, _FUNCTIONAL_KEYS, "integral, mutant or external")
        value = {key: entries[key][1] for key, _ in _FUNCTIONAL_KEYS[kind]}
        if "measure" in value:
            ws._lookup(ws.measures, value["measure"], "measure", entries["measure"][0])
        command = tuple(value.get("command", "").split())
        ws.functionals[name] = FunctionalSpec(
            name, kind, value.get("measure"), value.get("name"), command
        )

    for b in blocks:
        if b.keyword in by_keyword:
            raise WorkspaceError(f"unknown block keyword {b.keyword!r}", path, b.line)
    return ws
