"""adil's benchmark: time to a verdict and grading throughput, per workload.

    python3 perfbench/run.py --workload class-batch --seed 1 --seconds 25 --trace 0

One client, one thread, closed loop: the next item starts when the previous
one's reports are done. The workload's seeded items (see `workloads.py`)
are graded in whole passes until `--seconds` have gone by; every pass grades
every item once, so each run weighs the items alike. Every verdict is
checked against the item's known answer, and every repeat of an item must
give the same JSON report bytes.

`--trace 0` prints the end-to-end metrics: set-up time (median of fresh
interpreters, see `setup_probe.py`); verdict time, source text to rendered
text and JSON report, as the median and tail over items of each item's
fastest repeat (see `Timings`); items per second at those fastest times; the
share of items whose answer checked out; and peak resident memory.

`--trace 1` grades each item twice, once plain and once with spans around
adil's public calls (`spans.py`), and prints per-layer self times and counts
per traced item, plus the tracing overhead; the spans are written to
`perfbench/out/`.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
The benchmark exits 2 without a result when the checkout lacks adil's
sources, plan base or corpus.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parents[1]
SETUP_RUNS = 7  # fresh interpreters timed per run
IMPORT_RUNS = 3  # `-X importtime` interpreters per traced run
WARMUP_SECONDS = 0.3
WARMUP_ITEMS = 25
TAIL_LADDER = (99.9, 99, 95, 90, 75, 50)
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
MODULES = ("frontend", "flowgraph", "planlib", "matcher", "debugger", "explain", "acquire", "cli")

# per-layer metric -> span names whose self time it sums (ms per traced item)
LAYER_TIMES = {
    "frontend.tokenize_ms": ["frontend.tokenize"],
    "frontend.parse_ms": ["frontend.parse"],
    "frontend.desugar_ms": ["frontend.desugar"],
    "flowgraph.build_ms": ["flowgraph.build"],
    "flowgraph.value_chains_ms": ["flowgraph.value_chains"],
    "flowgraph.node_index_ms": ["flowgraph.node_index"],
    "matcher.self_ms": ["matcher.recognize", "matcher.unify", "matcher.check_constraints"],
    "matcher.check_constraints_ms": ["matcher.check_constraints"],
    "planlib.closure_ms": ["planlib.closure", "planlib.dependency_order"],
    "planlib.print_ms": ["planlib.print"],
    "planlib.parse_ms": ["planlib.parse"],
    "planlib.check_ms": ["planlib.check_plan", "planlib.base_add", "planlib.validate"],
    "debugger.self_ms": ["debugger.diagnose"],
    "debugger.json_ms": ["debugger.report_to_json"],
    "explain.render_ms": ["explain.render"],
    "explain.render_text_ms": ["explain.render_text"],
    "explain.compose_meaning_ms": ["explain.compose_meaning"],
    "acquire.plan_ms": ["acquire.acquire_plan"],
    "bench.other_ms": ["bench.item"],
}
LAYER_COUNTS = ("frontend.tokens", "flowgraph.nodes", "flowgraph.edges",
                "flowgraph.value_chains_calls", "flowgraph.node_index_calls",
                "matcher.unify_calls", "matcher.results_built", "matcher.results_kept",
                "matcher.truncated_plans", "planlib.closure_plans", "debugger.findings",
                "debugger.report_bytes", "acquire.pattern_nodes")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    missing = [p for p in ("src/adil/__init__.py", "plans", "corpus/bugs/manifest.json")
               if not (ROOT / p).exists()]
    if missing:
        print(f"perfbench: checkout at {ROOT} lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import pipeline

    if not Path(pipeline.planlib.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: imported adil from {pipeline.planlib.__file__}, not {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    items = workloads.make_items(args.workload, args.seed, ROOT)
    bench = Bench(args.workload, items, pipeline)
    if args.trace:
        metrics = bench.traced(args.seconds, args.seed)
    else:
        metrics = bench.plain(args.seconds, args.seed)
    for name, m in metrics.items():
        print(f"{args.workload:<14} {name:<30} {m['value']:>14.6g} {m['unit']}")
    print("detail " + json.dumps(bench.detail, sort_keys=True))
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


class Bench:
    def __init__(self, workload: str, items: list, pipeline):
        self.workload = workload
        self.items = items
        self.pipeline = pipeline
        self.run_item = pipeline.run_item(workload)
        self.first_json: dict[int, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.detail: dict = {"workload": workload, "items_in_pool": len(items),
                             "python": platform.python_version(), "cpus": os.cpu_count(),
                             "machine": platform.machine()}

    # -- one item

    def grade(self, idx: int, tracer=None) -> float:
        """Grade pool item idx; return its time in seconds and book its outcome."""
        item = self.items[idx]
        span = tracer.open("bench.item") if tracer else None
        started = perf_counter()
        try:
            outcome = self.run_item(item, self.setup)
        except Exception as err:  # a failing item is counted, not fatal
            outcome = None
            reason = f"raised {type(err).__name__}: {err}"
        finally:
            elapsed = perf_counter() - started
            if tracer:
                tracer.close(span)
        if outcome is not None:
            reason = check(item, outcome)
            first = self.first_json.setdefault(idx, outcome.report_json)
            if reason is None and first != outcome.report_json:
                reason = "report bytes differ from an earlier repeat"
        self.book(item, reason)
        return elapsed

    def book(self, item, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{item.name}: {reason}")
                print(f"FAIL {item.name}: {reason}", file=sys.stderr)

    def next_cpu(self, pass_no: int) -> None:
        """Run pass `pass_no` on the next CPU this process may use, in turn.

        On a shared host one CPU can run slow for seconds while another
        does not; moving between passes lets an item's fastest repeat come
        from whichever CPU was free. Only this process's affinity changes.
        """
        if len(self.cpus) > 1:
            try:
                os.sched_setaffinity(0, {self.cpus[pass_no % len(self.cpus)]})
            except OSError:  # the CPU went away; stay where we are
                pass

    def warm_up(self) -> None:
        order = sorted(range(len(self.items)), key=lambda i: len(self.items[i].source))
        started = perf_counter()
        for idx in order[:WARMUP_ITEMS]:
            self.run_item(self.items[idx], self.setup)
            if perf_counter() - started > WARMUP_SECONDS:
                break

    # -- runs

    def plain(self, seconds: float, seed: int) -> dict:
        self.setup = self.pipeline.setup(ROOT, self.workload, workloads.spec_texts(self.items))
        self.check_setup()
        self.probe_setup(seed)  # untimed: leaves compiled bytecode behind
        self.warm_up()
        # Set-up probes are spread over the run, between passes, so their
        # median sees the same machine as the passes; their time is not
        # counted against --seconds.
        setup_s: list[float] = []
        passes: list[list[float]] = []
        started = perf_counter()
        probing = 0.0
        while not passes or perf_counter() - started - probing < seconds:
            self.next_cpu(len(passes))
            if len(setup_s) * seconds <= SETUP_RUNS * (perf_counter() - started - probing):
                probe_started = perf_counter()
                setup_s.append(self.probe_setup(seed))
                probing += perf_counter() - probe_started
            passes.append([self.grade(idx) for idx in range(len(self.items))])
        while len(setup_s) < SETUP_RUNS:
            setup_s.append(self.probe_setup(seed))
        t = Timings(passes)
        self.detail.update(passes=len(passes), timed_s=perf_counter() - started - probing,
                           tail_percentile=t.tail_p, items_beyond_tail=t.beyond,
                           pooled_p50_ms=t.pooled_p50, setup_runs_s=setup_s,
                           failures=self.failures)
        return {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "verdict_ms.p50": {"value": t.p50, "unit": "ms"},
            "verdict_ms.tail": {"value": t.tail, "unit": "ms"},
            "programs_per_s": {"value": t.rate, "unit": "1/s"},
            "ok_frac": {"value": 1 - self.failed / self.attempted, "unit": "fraction"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }

    def traced(self, seconds: float, seed: int) -> dict:
        import spans

        imports = import_times()
        tracer = spans.Tracer()
        tracer.install()
        loads, validates = [], []
        try:
            for _ in range(5):
                first = len(tracer.names)
                self.setup = self.pipeline.setup(ROOT, self.workload,
                                                 workloads.spec_texts(self.items))
                for i in range(first, len(tracer.names)):
                    if tracer.parents[i] == spans.NO_PARENT:
                        span_s = tracer.ends[i] - tracer.starts[i]
                        if tracer.names[i] == "planlib.load":
                            loads.append(span_s)
                        elif tracer.names[i] == "planlib.validate":
                            validates.append(span_s)
        finally:
            tracer.uninstall()
        self.check_setup()
        self.warm_up()

        plain_passes: list[list[float]] = []
        traced_passes: list[list[float]] = []
        traced_items = 0
        started = perf_counter()
        while not plain_passes or perf_counter() - started < seconds:
            self.next_cpu(len(plain_passes))
            plain_times, traced_times = [], []
            for idx in range(len(self.items)):
                traced_first = (idx + len(plain_passes)) % 2 == 0
                for with_trace in (traced_first, not traced_first):
                    if with_trace:
                        tracer.item = traced_items
                        traced_items += 1
                        tracer.install()
                        try:
                            traced_times.append(self.grade(idx, tracer))
                        finally:
                            tracer.uninstall()
                            tracer.item = -1
                    else:
                        plain_times.append(self.grade(idx))
            plain_passes.append(plain_times)
            traced_passes.append(traced_times)

        n = traced_items
        self_s = spans.item_self_times(tracer)
        item_s = sum(tracer.ends[i] - tracer.starts[i] for i, name in enumerate(tracer.names)
                     if name == "bench.item")
        metrics = {name: {"value": 1e3 * sum(self_s.get(s, 0.0) for s in span_names) / n,
                          "unit": "ms/item"}
                   for name, span_names in LAYER_TIMES.items()}
        for name in LAYER_COUNTS:
            metrics[name] = {"value": tracer.counts.get(name, 0) / n, "unit": "count/item"}
        built = tracer.counts.get("matcher.results_built", 0)
        kept = tracer.counts.get("matcher.results_kept", 0)
        metrics["matcher.kept_ratio"] = {"value": kept / built if built else 0.0,
                                         "unit": "fraction"}
        metrics["planlib.load_ms"] = {"value": 1e3 * statistics.median(loads), "unit": "ms"}
        metrics["planlib.validate_ms"] = {"value": 1e3 * statistics.median(validates),
                                          "unit": "ms"}
        for module in MODULES:
            metrics[f"{module}.import_ms"] = {"value": imports[f"adil.{module}"], "unit": "ms"}
        metrics["bench.import_total_ms"] = {"value": imports["total"], "unit": "ms"}
        other = self_s.get("bench.item", 0.0)
        metrics["bench.attributed_frac"] = {"value": 1 - other / item_s, "unit": "fraction"}
        traced_p50 = Timings(traced_passes).p50
        plain_p50 = Timings(plain_passes).p50
        metrics["bench.traced_p50_ms"] = {"value": traced_p50, "unit": "ms"}
        metrics["bench.untraced_p50_ms"] = {"value": plain_p50, "unit": "ms"}
        metrics["bench.trace_overhead_ms"] = {"value": traced_p50 - plain_p50, "unit": "ms"}

        out = ROOT / "perfbench" / "out" / f"trace-{self.workload}-seed{seed}.json.gz"
        tracer.dump(out)
        self.detail.update(passes=len(plain_passes), traced_items=n, spans=len(tracer.names),
                           results_built=built, spans_file=str(out.relative_to(ROOT)),
                           failures=self.failures)
        return metrics

    def check_setup(self) -> None:
        if self.setup.problems:
            self.book(workloads.Item("<plan base>", "", "", None),
                      "base_validate: " + "; ".join(self.setup.problems))

    def probe_setup(self, seed: int) -> float:
        """Set-up seconds measured inside one fresh interpreter."""
        done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
                               "--workload", self.workload, "--seed", str(seed)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        return json.loads(done.stdout.splitlines()[-1])["setup_s"]


def check(item: workloads.Item, outcome) -> str | None:
    """Why the outcome misses the item's known answer, or None when it matches."""
    report = outcome.report
    if report.budget_truncated:
        return "search truncated by the budget"
    if outcome.problems:
        return "base_validate: " + "; ".join(outcome.problems)
    required = workloads.required_goals(item.spec)
    if item.bug_line is None:
        wrong = {g: report.verdicts.get(g) for g in required
                 if report.verdicts.get(g) != "RECOGNIZED"}
        if wrong:
            return f"expected RECOGNIZED, got {wrong}"
        if report.findings:
            return f"expected no findings, got {len(report.findings)}"
        return None
    if not any(report.verdicts.get(g) == "BUGGY" for g in required):
        return f"expected BUGGY, got {report.verdicts}"
    if not any(f.span.line_start <= item.bug_line <= f.span.line_end for f in report.findings):
        lines = sorted({f.span.line_start for f in report.findings})
        return f"no finding on line {item.bug_line} (findings on {lines})"
    return None


class Timings:
    """Per-item verdict times of a run, summarized.

    adil is deterministic, so an item's repeats differ only by what else the
    machine is doing; each item counts with its fastest repeat. On a shared
    2-core sandbox the median over all samples moved 25% between runs
    minutes apart, while the median of per-item fastest times moved 2%.
    """

    def __init__(self, passes: list[list[float]]):
        best = sorted(min(p[i] for p in passes) * 1e3 for i in range(len(passes[0])))
        self.p50 = statistics.median(best)
        self.tail_p, self.tail = tail_percentile(best)
        self.beyond = sum(t > self.tail for t in best)
        self.rate = 1e3 * len(best) / sum(best)  # items per second at their best times
        self.pooled_p50 = statistics.median(t for p in passes for t in p) * 1e3


def tail_percentile(ordered: list[float]) -> tuple[float, float]:
    """Highest TAIL_LADDER percentile of sorted times with TAIL_BEYOND above it.

    Pools too small for any (under twice TAIL_BEYOND) get the median.
    """
    n = len(ordered)
    for p in TAIL_LADDER:
        if n * (100 - p) / 100 >= TAIL_BEYOND:
            return p, percentile(ordered, p)
    return 50, percentile(ordered, 50)


def percentile(ordered: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def import_times() -> dict[str, float]:
    """Self import ms of each adil module (median of IMPORT_RUNS interpreters)."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import adil.cli"
    runs: dict[str, list[float]] = {}
    for _ in range(IMPORT_RUNS):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        total = 0.0
        for line in done.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cumulative, name = (part.strip() for part in line[12:].split("|"))
            if not own.isdigit():
                continue
            if name.startswith("adil."):
                runs.setdefault(name, []).append(int(own) / 1e3)
            if name in ("adil", "adil.cli"):  # the two top-level imports
                total += int(cumulative) / 1e3
        runs.setdefault("total", []).append(total)
    return {name: statistics.median(values) for name, values in runs.items()}


if __name__ == "__main__":
    sys.exit(main())
