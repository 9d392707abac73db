"""The benchmark's own tests: seeded inputs, known answers, span arithmetic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = workloads.make_items(workload, 7, ROOT)
    assert first == workloads.make_items(workload, 7, ROOT)
    assert first != workloads.make_items(workload, 8, ROOT)


@pytest.mark.parametrize("seed", range(20))
def test_large_program_bug_line_is_the_broken_while(seed):
    items = workloads.large_program(seed)
    assert sum(item.bug_line is not None for item in items) == len(items) // 2
    for item in items:
        lines = item.source.split("\n")
        le_lines = [n for n, line in enumerate(lines, start=1) if "<=" in line]
        if item.bug_line is None:
            assert le_lines == []
        else:
            assert le_lines == [item.bug_line]
            assert lines[item.bug_line - 1].lstrip().startswith("while (")


@pytest.mark.parametrize("buggy_loop", [None, 0, 7, 15])
def test_adil_pinpoints_the_seeded_bound(buggy_loop):
    import pipeline

    source, bug_line = workloads.sum_loops_source(16, buggy_loop, ("s", "i"))
    item = workloads.Item("sums.c", source, workloads._spec("running-total"), bug_line)
    s = pipeline.setup(ROOT, "large-program", [item.spec])
    assert run.check(item, pipeline.grade(item, s)) is None


def _shape(source: str) -> list[list[str]]:
    """Per line, the token kinds: identifiers collapse to one kind."""
    return [["ident" if re.fullmatch(r"[A-Za-z_]\w*", tok) and tok not in workloads._KEEP
             else tok for tok in workloads._TOKEN.findall(line)]
            for line in source.split("\n")]


def test_variants_keep_every_token_on_its_line():
    for prog in workloads.load_corpus(ROOT):
        text = workloads.variant(prog.source, random.Random(prog.path))
        assert text != prog.source
        assert _shape(text) == _shape(prog.source)


def test_corpus_answers_come_from_the_manifest():
    programs = workloads.load_corpus(ROOT)
    manifest = json.loads((ROOT / "corpus" / "bugs" / "manifest.json").read_text())
    assert {p.path: p.bug_line for p in programs if p.bug_line} == \
        {e["bug"]: e["bug_line"] for e in manifest}
    assert sum(p.bug_line is None for p in programs) == 10


def test_self_time_on_a_hand_built_tree():
    #   item [0, 10]
    #     parse [1, 3]
    #       tokenize [1, 2]
    #     diagnose [4, 9]
    #       recognize [4, 8]
    names = ["bench.item", "frontend.parse", "frontend.tokenize", "debugger.diagnose",
             "matcher.recognize"]
    starts = [0.0, 1.0, 1.0, 4.0, 4.0]
    ends = [10.0, 3.0, 2.0, 9.0, 8.0]
    parents = [-1, 0, 1, 0, 3]
    assert spans.self_times(starts, ends, parents) == [3.0, 1.0, 1.0, 1.0, 4.0]

    t = spans.Tracer(names=names, starts=starts, ends=ends, parents=parents,
                     items=[0, 0, 0, 0, 0])
    totals = spans.item_self_times(t)
    assert totals["bench.item"] == 3.0
    assert sum(totals.values()) == 10.0


def test_tracer_nests_spans_and_restores_the_modules():
    import adil.matcher
    import pipeline

    original = adil.matcher.unify
    t = spans.Tracer()
    t.install()
    try:
        t.item = 0
        source, _ = workloads.sum_loops_source(2, None, ("s", "i"))
        item = workloads.Item("sums.c", source, workloads._spec("running-total"), None)
        s = pipeline.setup(ROOT, "large-program", [item.spec])
        pipeline.grade(item, s)
    finally:
        t.uninstall()
    assert adil.matcher.unify is original
    by_idx = dict(enumerate(t.names))
    for idx, name in enumerate(t.names):
        if name == "matcher.unify":
            assert by_idx[t.parents[idx]] == "matcher.recognize"
        if name == "flowgraph.value_chains":
            assert by_idx[t.parents[idx]] == "matcher.check_constraints"
    assert t.counts["matcher.results_built"] == t.counts["flowgraph.value_chains_calls"]
    assert all(end >= start for start, end in zip(t.starts, t.ends))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    times = [float(ms) for ms in range(1, 201)]
    p, value = run.tail_percentile(times)
    assert p == 95 and value == pytest.approx(190.05)
    assert run.tail_percentile(times[:39])[0] == 50
    assert run.tail_percentile(times[:40])[0] == 75


def test_each_item_counts_with_its_fastest_repeat():
    t = run.Timings([[0.003, 0.010, 0.002], [0.001, 0.020, 0.004]])
    assert t.p50 == pytest.approx(2.0)  # best times 1, 10, 2 ms
    assert t.rate == pytest.approx(3 / 0.013)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "class-batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
