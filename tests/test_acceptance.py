"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Everything here runs against the shipped plan base and the
program corpus under corpus/.
"""

from __future__ import annotations

import contextlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from adil.acquire import acquire_plan
from adil.debugger import analyze, diagnose, parse_spec, report_to_json
from adil.flowgraph import graph_of
from adil.frontend import parse_c
from adil.matcher import BudgetExceeded, SearchBudget, unify
from adil.planlib import parse_plan, print_plan

from generators import (
    random_graph,
    random_instance,
    random_plan,
    reflow_variant,
    rename_variant,
)
from oracle import brute_force_accepted
from test_matcher import CHAIN_PLAN, dense_source


@pytest.fixture()
def criterion(capsys):
    @contextlib.contextmanager
    def run(name: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"\nACCEPTANCE FAIL: {name}")
            raise
        with capsys.disabled():
            print(f"\nACCEPTANCE PASS: {name}")

    return run


def _report(source: str, spec_text: str, base, budget=None, filename: str = "prog.c"):
    return analyze(source, filename, parse_spec(spec_text), base, budget)


def _corpus_cases(corpus_dir: Path) -> list[tuple[Path, Path]]:
    return [(c, c.with_suffix(".spec")) for c in sorted((corpus_dir / "correct").glob("*.c"))]


def test_oracle_equivalence(criterion):
    with criterion("oracle equivalence on 220 generated instances, 0 discrepancies, < 60 s"):
        started = time.time()
        mismatches = []
        for seed in range(220):
            g, plan = random_instance(seed)
            assert len(g.nodes) <= 12
            assert len(plan.pnodes) <= 5
            got = {frozenset(r.binding.items()) for r in unify(g, plan) if r.accepted}
            if got != brute_force_accepted(g, plan):
                mismatches.append(seed)
        elapsed = time.time() - started
        assert mismatches == []
        assert elapsed < 60, f"suite took {elapsed:.1f}s"


def test_bug_free_corpus(criterion, base, corpus_dir):
    with criterion("bug-free corpus: 10 programs recognized with 0 findings and a meaning"):
        cases = _corpus_cases(corpus_dir)
        assert len(cases) >= 10
        for program, spec_path in cases:
            report = _report(program.read_text(), spec_path.read_text(), base,
                             filename=str(program))
            spec = parse_spec(spec_path.read_text())
            for goal in spec.goals:
                if goal.required:
                    assert report.verdicts[goal.name] == "RECOGNIZED", program.name
            assert report.findings == (), program.name
            assert report.meaning, program.name


def test_seeded_bug_corpus(criterion, base, corpus_dir, bug_manifest):
    with criterion("seeded-bug corpus: every variant flagged on the edited line, "
                   "paired correct versions clean"):
        assert len(bug_manifest) >= 10
        assert len({e["seed"] for e in bug_manifest}) == 5
        for entry in bug_manifest:
            report = _report((corpus_dir / entry["bug"]).read_text(),
                             (corpus_dir / entry["spec"]).read_text(), base,
                             filename=entry["bug"])
            assert report.findings, entry["bug"]
            assert any(f.span.line_start <= entry["bug_line"] <= f.span.line_end
                       for f in report.findings), \
                (entry["bug"], [(f.span.line_start, f.span.line_end) for f in report.findings])
            paired = _report((corpus_dir / entry["correct"]).read_text(),
                             (corpus_dir / entry["spec"]).read_text(), base,
                             filename=entry["correct"])
            assert paired.findings == (), entry["correct"]


def test_determinism(criterion, base, corpus_dir, bug_manifest, tmp_path):
    with criterion("byte-identical JSON reports across repeated runs and interpreters"):
        cases = [(c.read_text(), s.read_text(), str(c)) for c, s in _corpus_cases(corpus_dir)]
        cases += [((corpus_dir / e["bug"]).read_text(),
                   (corpus_dir / e["spec"]).read_text(), e["bug"]) for e in bug_manifest]
        for source, spec_text, name in cases:
            runs = [report_to_json(_report(source, spec_text, base, filename=name))
                    for _ in range(3)]
            assert runs[0] == runs[1] == runs[2], name

        # and through the actual command-line entry point, in fresh
        # interpreters that hash strings differently
        plans = Path(__file__).parents[1] / "plans"
        program = corpus_dir / "bugs" / "sum__off_by_one.c"
        spec = corpus_dir / "correct" / "sum.spec"
        outs = []
        for seed in ("1", "2"):
            report_path = tmp_path / f"r{seed}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "adil", "analyze", str(program), "--spec", str(spec),
                 "--plans", str(plans), "--report-json", str(report_path)],
                capture_output=True, text=True,
                env={"PATH": "", "PYTHONHASHSEED": seed,
                     "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
            )
            assert proc.returncode == 1, proc.stderr
            outs.append((proc.stdout, report_path.read_bytes()))
        assert outs[0] == outs[1]
        in_process = report_to_json(_report(program.read_text(), spec.read_text(), base,
                                            filename=str(program)))
        assert outs[0][1].decode("utf-8") == in_process


def test_budget_guard(criterion):
    with criterion("pathological fixture truncates at 1e3 steps, succeeds at 1e6, "
                   "truncated results are a subset"):
        g = graph_of(dense_source(), "dense.c")
        plan = parse_plan(CHAIN_PLAN)
        with pytest.raises(BudgetExceeded) as err:
            unify(g, plan, SearchBudget(max_extension_steps=1000))
        truncated = err.value.results
        full = unify(g, plan, SearchBudget(max_extension_steps=1_000_000))
        assert any(r.accepted for r in full)
        assert {frozenset(r.binding.items()) for r in truncated} <= \
            {frozenset(r.binding.items()) for r in full}

        # 40 additions for the diagnosis: a recognized goal's search ends with
        # its first stage, which takes 612 steps at 24 additions and 1108 at 40
        from adil.planlib import PlanBase, base_add
        g = graph_of(dense_source(40), "dense.c")
        chain_base = PlanBase()
        base_add(chain_base, parse_plan(CHAIN_PLAN))
        spec = parse_spec('spec "dense"\ngoal "add-chain" required\nend\n')
        report = diagnose(g, spec, chain_base, SearchBudget(max_extension_steps=1000))
        assert report.budget_truncated is True
        report = diagnose(g, spec, chain_base, SearchBudget(max_extension_steps=1_000_000))
        assert report.budget_truncated is False


def test_plan_formalism_round_trip(criterion, base):
    with criterion("parse/print fixed point over the shipped base and 100 generated plans"):
        for name in base.names():
            plan = base.plans[name]
            assert parse_plan(print_plan(plan)) == plan, name
        for seed in range(100):
            rng = random.Random(seed)
            plan = random_plan(rng, random_graph(rng), name=f"generated-{seed}")
            assert parse_plan(print_plan(plan)) == plan, seed


def test_acquisition_self_recognition(criterion, corpus_dir):
    with criterion("acquired drafts accept their own exemplar at score 1 and a "
                   "consistently renamed variant"):
        for program, _ in _corpus_cases(corpus_dir):
            source = program.read_text()
            draft = acquire_plan(parse_c(source, filename=str(program)), f"draft-{program.stem}")
            g = graph_of(source, str(program))
            accepted = [r for r in unify(g, draft) if r.accepted]
            assert accepted and accepted[0].score == 1, program.name
            renamed = rename_variant(source)
            g2 = graph_of(renamed, "renamed.c")
            assert any(r.accepted for r in unify(g2, draft)), program.name


def test_language_independence_witness(criterion, base, corpus_dir, bug_manifest):
    with criterion("renamed and whitespace-permuted variants keep verdicts and "
                   "finding kinds"):
        cases = [(c.read_text(), s.read_text(), str(c)) for c, s in _corpus_cases(corpus_dir)]
        cases += [((corpus_dir / e["bug"]).read_text(),
                   (corpus_dir / e["spec"]).read_text(), e["bug"]) for e in bug_manifest]
        for source, spec_text, name in cases:
            original = _report(source, spec_text, base, filename=name)
            for variant in (rename_variant(source), reflow_variant(source, seed=5)):
                varied = _report(variant, spec_text, base, filename=name)
                assert varied.verdicts == original.verdicts, name
                assert [f.kind for f in varied.findings] == \
                    [f.kind for f in original.findings], name
