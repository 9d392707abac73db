from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from adil.cli import main

from conftest import SUM_SOURCE
from test_frontend import _nested_ifs, _nested_parens


@pytest.fixture()
def work(tmp_path: Path, plans_dir: Path, corpus_dir: Path) -> Path:
    shutil.copytree(plans_dir, tmp_path / "plans")
    (tmp_path / "sum.c").write_text(SUM_SOURCE)
    (tmp_path / "sum_buggy.c").write_text(SUM_SOURCE.replace("i < n", "i <= n"))
    (tmp_path / "sum.spec").write_text((corpus_dir / "correct/sum.spec").read_text())
    return tmp_path


def _analyze(work: Path, program: str, *extra: str) -> int:
    return main(["analyze", str(work / program), "--spec", str(work / "sum.spec"),
                 "--plans", str(work / "plans"), *extra])


def test_exit_0_on_recognized(work, capsys):
    assert _analyze(work, "sum.c") == 0
    assert "Program meaning" in capsys.readouterr().out


def test_exit_1_on_findings(work, capsys):
    assert _analyze(work, "sum_buggy.c") == 1
    out = capsys.readouterr().out
    assert "off-by-one-bound" in out


def test_exit_2_on_missing_spec(work, capsys):
    code = main(["analyze", str(work / "sum.c"), "--spec", str(work / "nope.spec"),
                 "--plans", str(work / "plans")])
    assert code == 2
    assert capsys.readouterr().err


def test_exit_2_on_syntax_error(work, tmp_path, capsys):
    bad = tmp_path / "bad.c"
    bad.write_text("int main(){int *p;}")
    code = main(["analyze", str(bad), "--spec", str(work / "sum.spec"),
                 "--plans", str(work / "plans")])
    assert code == 2


def test_exit_2_on_bad_usage(capsys):
    assert main(["analyze"]) == 2
    assert main(["no-such-command"]) == 2


@pytest.mark.parametrize("shape", [_nested_parens, _nested_ifs])
def test_nesting_limit_exit_codes(work, capsys, shape):
    for levels, codes in ((100, {0, 1}), (101, {2})):
        (work / "deep.c").write_text(shape(levels))
        assert _analyze(work, "deep.c") in codes
    assert "at most 100 levels" in capsys.readouterr().err


def test_exit_3_on_truncation_without_findings(work, tmp_path, capsys):
    # a goal whose search cannot finish within the budget and leaves nothing behind
    from test_matcher import CHAIN_PLAN, dense_source

    (tmp_path / "minibase").mkdir()
    (tmp_path / "minibase" / "chain.plan").write_text(CHAIN_PLAN)
    (tmp_path / "dense.c").write_text(dense_source())
    (tmp_path / "dense.spec").write_text('spec "dense"\ngoal "add-chain" required\nend\n')
    # so small that nothing gets accepted: the missing goal is a finding
    code = main(["analyze", str(tmp_path / "dense.c"), "--spec", str(tmp_path / "dense.spec"),
                 "--plans", str(tmp_path / "minibase"), "--budget", "3"])
    out = capsys.readouterr().out
    assert code == 1
    assert "Analysis truncated" in out
    # big enough to accept the goal, too small to finish the search: exit 3
    code = main(["analyze", str(tmp_path / "dense.c"), "--spec", str(tmp_path / "dense.spec"),
                 "--plans", str(tmp_path / "minibase"), "--budget", "1000"])
    capsys.readouterr()
    assert code == 3
    # roomy budget: the search completes and the goal is recognized
    code = main(["analyze", str(tmp_path / "dense.c"), "--spec", str(tmp_path / "dense.spec"),
                 "--plans", str(tmp_path / "minibase"), "--budget", "30000"])
    capsys.readouterr()
    assert code == 0


def test_report_json_written(work, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert _analyze(work, "sum_buggy.c", "--report-json", str(out_path)) == 1
    capsys.readouterr()
    doc = json.loads(out_path.read_text())
    assert doc["verdicts"] == {"running-total": "BUGGY"}


def test_repeated_runs_are_byte_identical(work, tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _analyze(work, "sum_buggy.c", "--report-json", str(a))
    _analyze(work, "sum_buggy.c", "--report-json", str(b), "--jobs", "4")
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_analyze_leaves_plan_dir_untouched(work, capsys):
    snapshot = {p.name: p.read_bytes() for p in (work / "plans").glob("*.plan")}
    _analyze(work, "sum_buggy.c")
    capsys.readouterr()
    assert snapshot == {p.name: p.read_bytes() for p in (work / "plans").glob("*.plan")}


def test_max_findings_caps_output(work, capsys):
    assert _analyze(work, "sum_buggy.c", "--max-findings", "0") == 0
    out = capsys.readouterr().out
    assert "off-by-one" not in out


def test_env_defaults_and_flag_precedence(work, monkeypatch, capsys):
    monkeypatch.chdir(work)
    monkeypatch.setenv("ADIL_PLANS", str(work / "plans"))
    assert main(["analyze", str(work / "sum.c"), "--spec", str(work / "sum.spec")]) == 0
    capsys.readouterr()
    monkeypatch.setenv("ADIL_PLANS", str(work / "nonexistent"))
    assert main(["analyze", str(work / "sum.c"), "--spec", str(work / "sum.spec")]) == 2
    capsys.readouterr()
    # explicit flag beats the broken environment
    assert main(["analyze", str(work / "sum.c"), "--spec", str(work / "sum.spec"),
                 "--plans", str(work / "plans")]) == 0
    capsys.readouterr()


def test_graph_dot_and_json(work, capsys):
    assert main(["graph", str(work / "sum.c")]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    assert main(["graph", str(work / "sum.c"), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["entry"] == 0


def test_graph_missing_file(work, capsys):
    assert main(["graph", str(work / "nope.c")]) == 2
    capsys.readouterr()


def test_plan_check_ok(work, capsys):
    assert main(["plan", "check", "--plans", str(work / "plans")]) == 0
    assert "0 problem(s)" in capsys.readouterr().out


def test_plan_check_reports_problems(work, capsys):
    (work / "plans" / "zz-broken.plan").write_text(
        'plan "broken" kind=bug corrupts="ghost" category=cbt\nnode n1 kind=TEST\nend\n')
    assert main(["plan", "check", "--plans", str(work / "plans")]) == 1
    assert "ghost" in capsys.readouterr().out


def test_plan_list_filters(work, capsys):
    assert main(["plan", "list", "--plans", str(work / "plans"), "--kind", "bug"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.splitlines()]
    assert names == sorted(names)
    assert "off-by-one-bound" in names
    assert "running-total" not in names


def test_plan_add_and_rm(work, tmp_path, capsys):
    new_plan = tmp_path / "new.plan"
    new_plan.write_text('plan "fresh" kind=cliche category=pe\nnode n1 kind=TEST\nend\n')
    assert main(["plan", "add", str(new_plan), "--plans", str(work / "plans")]) == 0
    assert (work / "plans" / "fresh.plan").exists()
    # duplicates are refused
    assert main(["plan", "add", str(new_plan), "--plans", str(work / "plans")]) == 1
    capsys.readouterr()
    assert main(["plan", "rm", "fresh", "--plans", str(work / "plans")]) == 0
    assert not (work / "plans" / "fresh.plan").exists()
    assert main(["plan", "rm", "fresh", "--plans", str(work / "plans")]) == 1
    capsys.readouterr()


def test_acquire_draft_and_accept(work, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["acquire", str(work / "sum.c"), "--name", "sum-draft",
                 "-o", str(tmp_path / "sum-draft.plan"), "--plans", str(work / "plans")])
    assert code == 0
    draft = (tmp_path / "sum-draft.plan").read_text()
    assert "; REVIEW:" in draft
    code = main(["acquire", str(work / "sum.c"), "--name", "sum-draft",
                 "-o", str(tmp_path / "sum-draft.plan"), "--accept",
                 "--plans", str(work / "plans")])
    assert code == 0
    assert (work / "plans" / "sum-draft.plan").exists()
    capsys.readouterr()


def test_acquire_accept_without_draft(work, tmp_path, capsys):
    code = main(["acquire", str(work / "sum.c"), "--name", "ghost",
                 "-o", str(tmp_path / "ghost.plan"), "--accept",
                 "--plans", str(work / "plans")])
    assert code == 2
    assert "run acquire without --accept" in capsys.readouterr().err


def test_acquire_oversized_exemplar(work, tmp_path, capsys):
    big = tmp_path / "big.c"
    body = "".join(f"    int v{i};\n    v{i} = {i};\n" for i in range(70))
    big.write_text("int main(){\n" + body + "}")
    code = main(["acquire", str(big), "--name", "big", "-o", str(tmp_path / "big.plan")])
    assert code == 1
    capsys.readouterr()
