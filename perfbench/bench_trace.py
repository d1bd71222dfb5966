"""Outside-in tracing of the ``uppersets`` layers for the traced benchmark run.

``install`` rebinds the traced functions in every ``uppersets`` module that
holds them (``from .ddm import cone_vrep`` copies the name into the importer,
so each copy is rebound) and wraps the traced methods on their classes;
``Tracer.remove`` puts every original back.  Nothing under ``src/`` changes.

Each call of a traced function becomes a span: name, start, end, parent span
and operation id, kept in flat in-memory arrays and written out once, when the
run ends.  The linalg kernels are called hundreds of thousands of times per
verdict, so they are counted and timed in aggregate instead: their time is
charged to the enclosing span, which keeps every other span's self time exact.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import statistics
import sys
from array import array
from time import perf_counter

PACKAGE = "uppersets"
# (module, attribute path, span name); a dotted path names a method
SPANNED = (
    ("ddm", "cone_vrep", "ddm.cone_vrep"),
    ("cone", "Cone.__post_init__", "cone.Cone"),
    ("upperset", "canonicalize", "upperset.canonicalize"),
    ("upperset", "UpperSet.oplus", "upperset.oplus"),
    ("upperset", "UpperSet.support", "upperset.support"),
    ("upperset", "UpperSet.member", "upperset.member"),
    ("measure_space", "SimpleSetFunction.oplus", "measure_space.SimpleSetFunction.oplus"),
    ("measure_space", "SimpleSetFunction.supporting", "measure_space.SimpleSetFunction.supporting"),
    ("integral", "aumann_integral", "integral.aumann_integral"),
    ("integral", "weighted_support_sum", "integral.weighted_support_sum"),
    ("integral", "selection_oracle", "integral.selection_oracle"),
    ("axioms", "SampleSet.__init__", "axioms.SampleSet"),
    ("axioms", "mutant_catalog", "axioms.mutant_catalog"),
    ("axioms", "check_additivity", "axioms.check_A"),
    ("axioms", "check_positive_homogeneity", "axioms.check_P"),
    ("axioms", "check_continuity_from_above", "axioms.check_C"),
    ("axioms", "check_nullity", "axioms.check_N"),
    ("axioms", "check_indicator", "axioms.check_I"),
    ("axioms", "check_interchange", "axioms.check_S"),
    ("axioms", "reconstruct_measure", "axioms.reconstruct_measure"),
    ("axioms", "verify_representation", "axioms.verify_representation"),
    ("axioms", "SetFunctional.__call__", "axioms.evals"),
    ("workspace", "parse_workspace", "workspace.parse_workspace"),
    ("workspace", "parse_set_literal", "workspace.parse_set_literal"),
    ("protocol", "ExternalFunctional.__call__", "protocol.eval"),
    ("cli", "main", "cli.main"),
)
AGGREGATED = (
    ("linalg", "primitive", "linalg.primitive"),
    ("linalg", "dot", "linalg.dot"),
)
# memoizing callables: distinct inputs are counted per instance
MEMOIZED = ("axioms.evals", "protocol.eval")

# (metric, unit) in the order BENCHMARK.json lists them
PER_LAYER = (
    ("linalg.primitive.calls", "count"),
    ("linalg.primitive.self_s", "s"),
    ("linalg.dot.calls", "count"),
    ("linalg.dot.self_s", "s"),
    ("ddm.cone_vrep.calls", "count"),
    ("ddm.cone_vrep.self_s", "s"),
    ("ddm.cone_vrep.rays_out_max", "count"),
    ("ddm.cone_vrep.rays_out_mean", "count"),
    ("ddm.runs_per_canonicalize", "ratio"),
    ("upperset.canonicalize.calls", "count"),
    ("upperset.canonicalize.self_s", "s"),
    ("upperset.oplus.calls", "count"),
    ("upperset.support.calls", "count"),
    ("upperset.member.calls", "count"),
    ("integral.aumann_integral.calls", "count"),
    ("integral.aumann_integral.self_s", "s"),
    ("integral.weighted_support_sum.self_s", "s"),
    ("integral.selection_oracle.s", "s"),
    ("measure_space.SimpleSetFunction.oplus.s", "s"),
    ("measure_space.SimpleSetFunction.supporting.s", "s"),
    ("axioms.SampleSet.s", "s"),
    ("axioms.mutant_catalog.s", "s"),
    ("axioms.check_A.s", "s"),
    ("axioms.check_P.s", "s"),
    ("axioms.check_C.s", "s"),
    ("axioms.check_N.s", "s"),
    ("axioms.check_I.s", "s"),
    ("axioms.check_S.s", "s"),
    ("axioms.reconstruct_measure.s", "s"),
    ("axioms.verify_representation.s", "s"),
    ("axioms.evals.calls", "count"),
    ("axioms.evals.distinct", "count"),
    ("axioms.memo_hit_ratio", "ratio"),
    ("protocol.eval.calls", "count"),
    ("protocol.eval.p50_ms", "ms"),
    ("protocol.eval.self_s", "s"),
    ("protocol.memo_hit_ratio", "ratio"),
    ("workspace.parse_set_literal.calls", "count"),
    ("workspace.parse_set_literal.self_s", "s"),
    ("workspace.parse_workspace.self_s", "s"),
    ("cone.Cone.calls", "count"),
    ("cone.Cone.self_s", "s"),
    ("cli.main.calls", "count"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    """Span recorder plus the bookkeeping to undo its rebinding."""

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_leaf_time = array("d")  # aggregated kernel time inside the span
        self._stack: list[int] = []
        self.leaf_calls: dict[str, int] = {}
        self.leaf_time: dict[str, float] = {}
        self.rays_out: list[int] = []
        # inputs seen per memoizing instance; cleared per operation, since
        # instance ids can be reused once an operation's functionals are freed
        self.seen: dict[str, set] = {name: set() for name in MEMOIZED}
        self.distinct: dict[str, int] = {name: 0 for name in MEMOIZED}
        self.miss_ms: dict[str, list[float]] = {name: [] for name in MEMOIZED}
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op
        for seen in self.seen.values():
            seen.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def spanned(self, fn, name: str):
        nid = self._name_id(name)
        stack = self._stack
        memoized = name in MEMOIZED
        seen = self.seen.get(name)
        distinct = self.distinct
        miss_ms = self.miss_ms.get(name)
        rays = self.rays_out if name == "ddm.cone_vrep" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            miss = False
            if memoized:
                key = (id(args[0]), args[1])
                miss = key not in seen
                if miss:
                    seen.add(key)
                    distinct[name] += 1
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1] if stack else -1)
            self.span_op.append(self.op)
            self.span_leaf_time.append(0.0)
            self.span_end.append(0.0)
            stack.append(idx)
            start = perf_counter()
            self.span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self.span_end[idx] = end
                stack.pop()
            if miss:
                miss_ms.append((end - start) * 1000.0)
            if rays is not None:
                rays.append(len(result[1]))
            return result

        return wrapper

    def aggregated(self, fn, name: str):
        self.leaf_calls[name] = 0
        self.leaf_time[name] = 0.0
        calls, total = self.leaf_calls, self.leaf_time
        stack, leaf = self._stack, self.span_leaf_time

        @functools.wraps(fn)
        def wrapper(*args):
            start = perf_counter()
            result = fn(*args)
            dt = perf_counter() - start
            calls[name] += 1
            total[name] += dt
            if stack:
                leaf[stack[-1]] += dt
            return result

        return wrapper

    # -- installing and removing -------------------------------------------

    def _rebind(self, module_name: str, path: str, make) -> None:
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            self._restore.append((cls, attr, original))
            setattr(cls, attr, make(original))
            return
        original = getattr(module, path)
        wrapper = make(original)
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def remove(self) -> None:
        """Put back every attribute ``install`` rebound, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def span_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, s (outermost spans only) and self_s."""
        n = len(self.span_start)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = list(self.span_leaf_time)
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += duration[i]
        stats = {name: {"calls": 0, "s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            nid = self.span_name[i]
            entry = stats[self.names[nid]]
            entry["calls"] += 1
            entry["self_s"] += duration[i] - child[i]
            p = self.span_parent[i]
            while p >= 0 and self.span_name[p] != nid:
                p = self.span_parent[p]
            if p < 0:
                entry["s"] += duration[i]
        for name in self.leaf_calls:
            stats[name] = {
                "calls": self.leaf_calls[name],
                "s": self.leaf_time[name],
                "self_s": self.leaf_time[name],
            }
        return stats

    def per_layer(self, overhead_ratio: float) -> dict[str, float]:
        """The PER_LAYER metrics; a layer the workload never reached reads 0."""
        stats = self.span_stats()

        def get(name: str, stat: str) -> float:
            return stats.get(name, {}).get(stat, 0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        values: dict[str, float] = {}
        for metric, _ in PER_LAYER:
            head, _, stat = metric.rpartition(".")
            if stat in ("calls", "s", "self_s"):
                values[metric] = get(head, stat)
        evals = {}
        for name in MEMOIZED:
            calls, distinct = get(name, "calls"), self.distinct[name]
            evals[name] = (calls, distinct, ratio(calls - distinct, calls))
        values.update(
            {
                "ddm.cone_vrep.rays_out_max": max(self.rays_out, default=0),
                "ddm.cone_vrep.rays_out_mean": ratio(sum(self.rays_out), len(self.rays_out)),
                "ddm.runs_per_canonicalize": ratio(
                    get("ddm.cone_vrep", "calls"), get("upperset.canonicalize", "calls")
                ),
                "axioms.evals.distinct": evals["axioms.evals"][1],
                "axioms.memo_hit_ratio": evals["axioms.evals"][2],
                "protocol.memo_hit_ratio": evals["protocol.eval"][2],
                "protocol.eval.p50_ms": (
                    statistics.median(self.miss_ms["protocol.eval"])
                    if self.miss_ms["protocol.eval"]
                    else 0.0
                ),
                "trace.overhead_ratio": overhead_ratio,
            }
        )
        return {metric: values[metric] for metric, _ in PER_LAYER}

    def write(self, path) -> None:
        """Write every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names, "leaf_calls": self.leaf_calls}) + "\n")
            for i in range(len(self.span_start)):
                fh.write(
                    json.dumps(
                        [
                            i,
                            self.names[self.span_name[i]],
                            self.span_start[i],
                            self.span_end[i],
                            self.span_parent[i],
                            self.span_op[i],
                        ]
                    )
                    + "\n"
                )


def install() -> Tracer:
    """Wrap every traced function of ``uppersets``; undo with ``remove``."""
    tracer = Tracer()
    for module_name, _, _ in SPANNED + AGGREGATED:
        importlib.import_module(f"{PACKAGE}.{module_name}")
    try:
        for module_name, path, name in SPANNED:
            tracer._rebind(module_name, path, lambda fn, n=name: tracer.spanned(fn, n))
        for module_name, path, name in AGGREGATED:
            tracer._rebind(module_name, path, lambda fn, n=name: tracer.aggregated(fn, n))
    except BaseException:
        tracer.remove()
        raise
    return tracer
