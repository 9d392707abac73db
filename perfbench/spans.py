"""Spans and counters around adil's public calls, recorded from outside.

`Tracer.install` rebinds the module attributes that adil's own callers look
up at call time (`adil.debugger.recognize`, `adil.matcher.unify`, ...) to
wrappers that open a span, call the original and close the span. Nothing in
`src/` changes; `uninstall` puts the originals back.

A span is (name, start, end, parent, item). Spans stay in memory until the
run ends. A span's self time is its duration minus the durations of its
direct children; a layer's time is the self time of the spans named after
it. The benchmark's own root span per item, `bench.item`, keeps whatever
no adil span covers, reported as `bench.other`.
"""

from __future__ import annotations

import gzip
import importlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

# (module, attribute) -> span name. A function imported into several
# modules is rebound in each module that calls it.
TARGETS: dict[tuple[str, str], str] = {
    ("adil.frontend", "tokenize"): "frontend.tokenize",
    ("adil.frontend", "parse_c"): "frontend.parse",
    ("adil.frontend", "desugar"): "frontend.desugar",
    ("adil.acquire", "desugar"): "frontend.desugar",
    ("adil.flowgraph", "build_flow_graph"): "flowgraph.build",
    ("adil.acquire", "build_flow_graph"): "flowgraph.build",
    ("adil.matcher", "node_index"): "flowgraph.node_index",
    ("adil.matcher", "value_chains"): "flowgraph.value_chains",
    ("adil.matcher", "closure"): "planlib.closure",
    ("adil.matcher", "dependency_order"): "planlib.dependency_order",
    ("adil.debugger", "recognize"): "matcher.recognize",
    ("adil.matcher", "unify"): "matcher.unify",
    ("adil.matcher", "check_constraints"): "matcher.check_constraints",
    ("adil.debugger", "diagnose"): "debugger.diagnose",
    ("adil.debugger", "report_to_json"): "debugger.report_to_json",
    ("adil.explain", "compose_meaning"): "explain.compose_meaning",
    ("adil.explain", "render"): "explain.render",
    ("adil.explain", "render_text"): "explain.render_text",
    ("adil.acquire", "acquire_plan"): "acquire.acquire_plan",
    ("adil.acquire", "check_plan"): "planlib.check_plan",
    ("adil.planlib", "print_plan"): "planlib.print",
    ("adil.planlib", "parse_plans"): "planlib.parse",
    ("adil.planlib", "base_add"): "planlib.base_add",
    ("adil.planlib", "base_validate"): "planlib.validate",
    ("adil.planlib", "load_plan_base"): "planlib.load",
}

NO_PARENT = -1


@dataclass
class Tracer:
    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    items: list[int] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    item: int = -1  # id stamped on new spans; -1 outside any item
    _stack: list[int] = field(default_factory=list)
    _saved: dict[tuple[object, str], tuple] = field(default_factory=dict)  # -> (original, wrapper)

    # -- spans

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.items.append(self.item)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def add(self, counter: str, amount: float = 1) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + amount

    # -- rebinding

    def install(self) -> None:
        if not self._saved:
            for (module_name, attr), span in TARGETS.items():
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved[(module, attr)] = (original, self._wrap(original, span))
        for (module, attr), (_, wrapper) in self._saved.items():
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for (module, attr), (original, _) in self._saved.items():
            setattr(module, attr, original)

    def _wrap(self, fn, span: str):
        count = _COUNTERS.get(span)
        matcher = importlib.import_module("adil.matcher")

        def traced(*args, **kwargs):
            idx = self.open(span)
            try:
                result = fn(*args, **kwargs)
            except matcher.BudgetExceeded as err:
                if span == "matcher.unify":
                    _count_unify(self, err.results)
                    self.add("matcher.truncated_plans")
                raise
            finally:
                self.close(idx)
            if count is not None:
                count(self, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- output

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as out:
            json.dump({"fields": ["name", "start", "end", "parent", "item"],
                       "spans": list(zip(self.names, self.starts, self.ends,
                                         self.parents, self.items)),
                       "counts": self.counts}, out, separators=(",", ":"))


def _count_graph(t: Tracer, g) -> None:
    t.add("flowgraph.nodes", len(g.nodes))
    t.add("flowgraph.edges", len(g.data_edges) + len(g.ctrl_edges))


def _count_unify(t: Tracer, results) -> None:
    t.add("matcher.unify_calls")
    t.add("matcher.results_kept", len(results))


_COUNTERS = {
    "frontend.tokenize": lambda t, tokens: t.add("frontend.tokens", len(tokens)),
    "flowgraph.build": _count_graph,
    "flowgraph.value_chains": lambda t, _: t.add("flowgraph.value_chains_calls"),
    "flowgraph.node_index": lambda t, _: t.add("flowgraph.node_index_calls"),
    "planlib.closure": lambda t, names: t.add("planlib.closure_plans", len(names)),
    "matcher.unify": _count_unify,
    "matcher.check_constraints": lambda t, _: t.add("matcher.results_built"),
    "debugger.diagnose": lambda t, report: t.add("debugger.findings", len(report.findings)),
    "debugger.report_to_json": lambda t, text: t.add("debugger.report_bytes",
                                                     len(text.encode("utf-8"))),
    "acquire.acquire_plan": lambda t, plan: t.add("acquire.pattern_nodes", len(plan.pnodes)),
}


def self_times(starts: list[float], ends: list[float], parents: list[int]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for start, end in zip(starts, ends)]
    for idx, parent in enumerate(parents):
        if parent != NO_PARENT:
            own[parent] -= ends[idx] - starts[idx]
    return own


def item_self_times(t: Tracer) -> dict[str, float]:
    """Self time in seconds per span name, summed over spans inside items."""
    totals: dict[str, float] = {}
    for name, own, item in zip(t.names, self_times(t.starts, t.ends, t.parents), t.items):
        if item >= 0:
            totals[name] = totals.get(name, 0.0) + own
    return totals
