from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adil import debugger, explain, frontend, kernel, planlib
from adil.cli import main

from conftest import SUM_SOURCE
from test_frontend import _binary_chain, _carried_chain, _nested_ifs, _nested_parens, _unary_chain


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


def test_files_that_start_with_a_utf8_bom_read_as_the_plain_files(work, monkeypatch, capsys):
    # gcc accepts a C file that starts with a byte order mark; so does adil,
    # for the program, the spec and every plan file, with the same exit
    # codes, output and reports (verdicts, findings and spans)
    bom = work / "bom"
    (bom / "plans").mkdir(parents=True)
    for path in [work / "sum.c", work / "sum_buggy.c", work / "sum.spec", *(work / "plans").glob("*.plan")]:
        (bom / path.relative_to(work)).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    runs = []
    for root in (work, bom):
        monkeypatch.chdir(root)
        run = []
        for program in ("sum.c", "sum_buggy.c"):
            code = main(["analyze", program, "--spec", "sum.spec", "--plans", "plans",
                         "--report-json", "report.json"])
            run.append((code, capsys.readouterr(), Path("report.json").read_text()))
            run.append((main(["graph", "--json", program]), capsys.readouterr()))
        run.append((main(["plan", "check", "--plans", "plans"]), capsys.readouterr()))
        runs.append(run)
    assert runs[1] == runs[0]
    assert [step[0] for step in runs[0]] == [0, 0, 1, 0, 0]
    assert json.loads(runs[0][2][2])["findings"]


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


def test_a_bad_flag_is_reported_before_the_program_is_read(work, capsys):
    (work / "bad.c").write_text("int main() { int x; x =; return x; }\n")
    (work / "unb.c").write_text("int main() { int x; int y; y = x + 1; return y; }\n")
    assert _analyze(work, "bad.c") == 2
    assert capsys.readouterr().err == f"adil: {work / 'bad.c'}:1:24: expected an expression, found ';'\n"
    for program in ("bad.c", "unb.c", "nope.c"):
        assert _analyze(work, program, "--theta", "2") == 2
        assert capsys.readouterr() == ("", "adil: theta must be in (0, 1]\n")


def test_exit_2_on_bad_usage(capsys):
    assert main(["analyze"]) == 2
    assert main(["no-such-command"]) == 2


def _minus_chain(levels: int) -> str:
    return _unary_chain("-", levels)


def _not_chain(levels: int) -> str:
    return _unary_chain("!", levels)


def _plus_chain(levels: int) -> str:
    return _binary_chain("+", levels)


def _or_chain(levels: int) -> str:
    return _binary_chain("||", levels)


_DEEP_SHAPES = [_nested_parens, _nested_ifs, _minus_chain, _not_chain, _plus_chain, _or_chain,
                _carried_chain]


@pytest.mark.parametrize("shape", _DEEP_SHAPES)
def test_nesting_limit_exit_codes(work, capsys, shape):
    for levels, codes in ((99, {0, 1}), (100, {0, 1}), (101, {2}), (2999, {2})):
        (work / "deep.c").write_text(shape(levels))
        assert _analyze(work, "deep.c") in codes
    assert "at most 100 levels" in capsys.readouterr().err


@pytest.mark.parametrize("shape", _DEEP_SHAPES)
def test_nesting_limit_leaves_a_recursion_margin(base, corpus_dir, shape):
    """A program at the nesting limit goes from source to rendered text in
    fewer than 500 frames on top of the caller's own stack."""
    source = shape(frontend.MAX_NESTING)
    spec = debugger.parse_spec((corpus_dir / "correct" / "sum.spec").read_text())
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 500)
    try:
        report = debugger.analyze(source, "deep.c", spec, base)
        text = explain.render_text(explain.render(report, source, base))
    finally:
        sys.setrecursionlimit(limit)
    assert text


@pytest.mark.parametrize("literal", ["\u00b2", "9" * 5000], ids=["superscript", "5000-digits"])
def test_unreadable_number_exits_2_with_its_position(work, capsys, literal):
    (work / "num.c").write_text(f"int main() {{ int x; x = {literal}; return x; }}\n")
    assert _analyze(work, "num.c") == 2
    err = capsys.readouterr().err
    assert f"num.c:1:{len('int main() { int x; x = ') + 1}: expected" in err
    assert "int()" not in err


@pytest.mark.parametrize("call, col", [("f(1, 2)", 28), ("f()", 27), ("g(3)", 27)])
def test_a_call_that_misfits_its_callee_exits_2_with_its_position(work, capsys, call, col):
    # before parameters were checked, these parsed and the analysis exited 1
    (work / "call.c").write_text("int f(int a) { return a; }\nint g(int a[]) { return a[0]; }\n"
                                 f"int main() {{ int x; x = {call}; return x; }}\n")
    assert _analyze(work, "call.c") == 2
    assert f"call.c:3:{col}: expected" in capsys.readouterr().err


def test_an_array_passed_by_name_is_analyzed(work, capsys):
    (work / "call.c").write_text("int g(int a[]) { return a[0]; }\n"
                                 "int main() { int b[2]; int x; x = g(b); return x; }\n")
    assert _analyze(work, "call.c") == 1  # parsed; main is no running total
    assert "expected" not in capsys.readouterr().err


def test_exit_3_on_truncation_without_findings(work, tmp_path, capsys):
    # a goal whose search cannot finish within the budget and leaves nothing behind
    from test_matcher import CHAIN_PLAN, dense_source

    (tmp_path / "minibase").mkdir()
    (tmp_path / "minibase" / "chain.plan").write_text(CHAIN_PLAN)
    # 40 additions: the first stage alone needs 1108 steps to find every full
    # match; 24 additions need only 612, and a recognized goal is never
    # searched further, so that program no longer truncates at 1000
    (tmp_path / "dense.c").write_text(dense_source(40))
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
    # twice in this process, then in fresh interpreters with different string hashing
    outs = []
    for i in range(2):
        path = tmp_path / f"in{i}.json"
        assert _analyze(work, "sum_buggy.c", "--report-json", str(path)) == 1
        outs.append((capsys.readouterr().out, path.read_bytes()))
    for seed in ("1", "2"):
        path = tmp_path / f"hash{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "adil", "analyze", str(work / "sum_buggy.c"),
             "--spec", str(work / "sum.spec"), "--plans", str(work / "plans"),
             "--report-json", str(path)],
            capture_output=True, text=True,
            env={"PATH": "", "PYTHONHASHSEED": seed,
                 "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
        )
        assert proc.returncode == 1, proc.stderr
        outs.append((proc.stdout, path.read_bytes()))
    assert all(out == outs[0] for out in outs)


def test_analyze_leaves_plan_dir_untouched(work, capsys):
    snapshot = {p.name: p.read_bytes() for p in (work / "plans").glob("*.plan")}
    _analyze(work, "sum_buggy.c")
    capsys.readouterr()
    assert snapshot == {p.name: p.read_bytes() for p in (work / "plans").glob("*.plan")}


def test_one_shot_analyze_compiles_no_kernel(work, monkeypatch, capsys):
    # each run loads its own plan base, so every order is searched once, generically
    def refuse(*args):
        raise AssertionError("a one-shot analyze compiled a stage-one kernel")

    monkeypatch.setattr(kernel, "compile_kernel", refuse)
    for program in ("sum.c", "sum_buggy.c", "sum.c"):
        assert _analyze(work, program) in (0, 1)
    capsys.readouterr()


def test_a_one_shot_analyze_never_imports_the_kernel_generator(work, corpus_dir):
    # the generator is imported only to compile, so a fresh run neither
    # loads it nor holds its memory
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "adil", "analyze",
         str(corpus_dir / "bugs" / "sum__off_by_one.c"), "--spec", str(corpus_dir / "correct" / "sum.spec"),
         "--plans", str(work / "plans")],
        capture_output=True, text=True,
        env={"PATH": "", "PYTHONPATH": str(Path(__file__).parents[1] / "src")},
    )
    assert proc.returncode == 1, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")]
    assert "adil.matcher" in imported and "adil.kernel" not in imported


def test_max_findings_caps_output(work, capsys):
    # the cap hides findings from the text only: the exit code still reports them
    assert _analyze(work, "sum_buggy.c", "--max-findings", "0") == 1
    out = capsys.readouterr().out
    assert "off-by-one" not in out


def test_max_findings_keeps_every_finding_in_the_json_report(work, capsys):
    assert _analyze(work, "sum_buggy.c", "--report-json", str(work / "all.json")) == 1
    full = capsys.readouterr().out
    shown = {}
    for cap in ("0", "1", "5"):
        assert _analyze(work, "sum_buggy.c", "--max-findings", cap,
                        "--report-json", str(work / "capped.json")) == 1
        shown[cap] = capsys.readouterr().out
        assert (work / "capped.json").read_bytes() == (work / "all.json").read_bytes()
    assert shown["1"] == shown["5"] == full  # one finding, and a cap of 1 or more shows it
    assert shown["0"] == "Not shown\n---------\n1 more finding(s) not shown (--max-findings 0).\n"


@pytest.mark.parametrize("cap", ["-1", "x"])
def test_max_findings_rejects_a_bad_count(work, capsys, cap):
    assert _analyze(work, "sum_buggy.c", "--max-findings", cap) == 2
    assert "--max-findings" in capsys.readouterr().err


@pytest.mark.parametrize("name, value", [("ADIL_BUDGET", "abc"), ("ADIL_BUDGET", "1.5"), ("ADIL_THETA", "x")])
@pytest.mark.parametrize("command", ["analyze", "graph"])
def test_a_malformed_environment_number_exits_2_naming_it(work, monkeypatch, capsys, name, value, command):
    monkeypatch.setenv(name, value)
    argv = ["graph", str(work / "sum.c")] if command == "graph" else \
        ["analyze", str(work / "sum.c"), "--spec", str(work / "sum.spec"), "--plans", str(work / "plans")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"adil: environment variable {name}={value!r} is not a valid " \
        f"{'int' if name == 'ADIL_BUDGET' else 'float'}\n"


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


def test_a_declaration_as_a_loop_branch_body_exits_2_with_its_position(work, capsys):
    # gcc rejects both at the 'int' ("expected expression before 'int'")
    for outer in ("", "int y; y = 0; "):
        source = (f"int main() {{ int c; {outer}c = 0; while (c < 3) {{ if (c) int y = 1; y = 2; "
                  "c = c + 1; } return c; }\n")
        (work / "late.c").write_text(source)
        where = f"late.c:1:{source.index('int y = 1') + 1}: expected a statement"
        assert main(["graph", str(work / "late.c")]) == 2
        assert where in capsys.readouterr().err
        assert _analyze(work, "late.c") == 2
        assert where in capsys.readouterr().err


def test_a_program_without_main_exits_2_with_a_message(work, capsys):
    (work / "two.c").write_text("int f(int a) { return a; }\nint g(int b) { return b; }\n")
    assert main(["graph", str(work / "two.c")]) == 2
    assert capsys.readouterr() == ("", "adil: program has several functions and no main\n")
    assert _analyze(work, "two.c") == 2
    assert capsys.readouterr() == ("", "adil: program has several functions and no main\n")


def test_graph_missing_file(work, capsys):
    assert main(["graph", str(work / "nope.c")]) == 2
    capsys.readouterr()


# each names a directory where a file belongs; {dir} is one, {work} the fixture
_DIRECTORY_ARGS = {
    "analyze-program": ["analyze", "{dir}", "--spec", "{work}/sum.spec", "--plans", "{work}/plans"],
    "analyze-spec": ["analyze", "{work}/sum.c", "--spec", "{dir}", "--plans", "{work}/plans"],
    "analyze-report-json": ["analyze", "{work}/sum.c", "--spec", "{work}/sum.spec",
                            "--plans", "{work}/plans", "--report-json", "{dir}"],
    "graph": ["graph", "{dir}"],
    "plan-add": ["plan", "add", "{dir}", "--plans", "{work}/plans"],
    "acquire-output": ["acquire", "{work}/sum.c", "--name", "zz", "-o", "{dir}"],
}


@pytest.mark.parametrize("case", sorted(_DIRECTORY_ARGS))
def test_a_directory_for_a_file_exits_2_with_a_message(work, tmp_path, capsys, case):
    directory = tmp_path / "a_directory"
    directory.mkdir()
    argv = [arg.format(dir=directory, work=work) for arg in _DIRECTORY_ARGS[case]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert err.startswith("adil: ") and str(directory) in err and "Traceback" not in err
    assert out == ""  # analyze writes --report-json before it prints the report
    assert list(directory.iterdir()) == []


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


def _plan_dir_bytes(work: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted((work / "plans").iterdir())}


def test_plan_rm_cuts_only_its_lines_from_a_shared_file(work, capsys):
    before = (work / "plans" / "bugs.plan").read_text().splitlines(keepends=True)
    first = before.index('plan "wrong-accumulator-product" kind=bug corrupts="product-accumulate"'
                         ' category=cbt\n')
    last = before.index("end\n", first)
    assert main(["plan", "rm", "wrong-accumulator-product", "--plans", str(work / "plans")]) == 0
    assert capsys.readouterr().out == "removed wrong-accumulator-product\n"
    after = (work / "plans" / "bugs.plan").read_text()
    assert after == "".join(before[:first] + before[last + 1:])
    assert [line for line in after.splitlines() if line.startswith(";")] == \
        [line.rstrip("\n") for line in before[:3]]
    assert main(["plan", "check", "--plans", str(work / "plans")]) == 0
    capsys.readouterr()


_GHOST_BUG = 'plan "ghost-bug" kind=bug corrupts="ghost" category=cbt\nnode n1 kind=TEST\nend\n'


def test_plan_rm_refuses_to_leave_dangling_references(work, capsys):
    before = _plan_dir_bytes(work)
    assert main(["plan", "rm", "counted-loop", "--plans", str(work / "plans")]) == 1
    err = capsys.readouterr().err
    assert "refusing to remove counted-loop" in err
    assert "running-total: sub cl references unknown plan 'counted-loop'" in err
    assert "off-by-one-bound: corrupts unknown plan 'counted-loop'" in err
    assert _plan_dir_bytes(work) == before
    assert _analyze(work, "sum.c") == 0


def test_plan_add_refuses_an_invalid_base(work, tmp_path, capsys):
    before = _plan_dir_bytes(work)
    (tmp_path / "ghost.plan").write_text(_GHOST_BUG)
    assert main(["plan", "add", str(tmp_path / "ghost.plan"), "--plans", str(work / "plans")]) == 1
    assert "ghost-bug: corrupts unknown plan 'ghost'" in capsys.readouterr().err
    # a plan named after a file that holds other plans would overwrite them
    (tmp_path / "bugs.plan").write_text('plan "bugs" kind=cliche category=pe\nnode n1 kind=TEST\nend\n')
    assert main(["plan", "add", str(tmp_path / "bugs.plan"), "--plans", str(work / "plans")]) == 1
    assert "refusing to overwrite" in capsys.readouterr().err
    assert _plan_dir_bytes(work) == before


@pytest.mark.parametrize("name", ["../escaped", "sub/dir", "back\\slash", "..", ".", ""])
def test_plan_add_refuses_a_name_that_is_no_file_name(work, tmp_path, capsys, name):
    before = _plan_dir_bytes(work)
    escaped = name.replace("\\", "\\\\")
    (tmp_path / "new.plan").write_text(f'plan "{escaped}" kind=cliche category=pe\nnode n1 kind=TEST\nend\n')
    outside = sorted(tmp_path.iterdir())
    assert main(["plan", "add", str(tmp_path / "new.plan"), "--plans", str(work / "plans")]) == 1
    assert f"refusing to add {name!r}" in capsys.readouterr().err
    assert _plan_dir_bytes(work) == before and sorted(tmp_path.iterdir()) == outside


def test_acquire_accept_refuses_a_name_that_is_no_file_name(work, tmp_path, capsys):
    before = _plan_dir_bytes(work)
    draft = tmp_path / "draft.plan"
    assert main(["acquire", str(work / "sum.c"), "--name", "../escaped", "-o", str(draft)]) == 0
    outside = sorted(tmp_path.iterdir())
    code = main(["acquire", str(work / "sum.c"), "--name", "../escaped", "-o", str(draft),
                 "--accept", "--plans", str(work / "plans")])
    assert code == 1
    assert "refusing to add '../escaped'" in capsys.readouterr().err
    assert _plan_dir_bytes(work) == before and sorted(tmp_path.iterdir()) == outside


def test_acquire_accept_refuses_an_invalid_base(work, tmp_path, capsys):
    before = _plan_dir_bytes(work)
    (tmp_path / "ghost-bug.plan").write_text(_GHOST_BUG)
    code = main(["acquire", str(work / "sum.c"), "--name", "ghost-bug",
                 "-o", str(tmp_path / "ghost-bug.plan"), "--accept",
                 "--plans", str(work / "plans")])
    assert code == 1
    assert "ghost-bug: corrupts unknown plan 'ghost'" in capsys.readouterr().err
    assert _plan_dir_bytes(work) == before


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


# Single edits to running-total that no graph the builder makes could match:
# (replaced line, its replacement), the exit code of `plan check` and
# `plan add`, and what the message says. Port and label errors are the
# plan's own (exit 2, as a parse error); a sub-plan port needs the base.
_IMPOSSIBLE_EDITS = {
    "in-port-beyond-a-join": (("data c0:0 -> js:0", "data c0:0 -> js:2"), 2,
                              "js (kind=JOIN) has no in-port 2"),
    "port-beyond-the-sub-plan-exports": (("data cl:0 -> ar:1", "data cl:7 -> ar:1"), 1,
                                         "cl:7 -> ar:1: sub cl has 2 port(s), one per role 'counted-loop' exports"),
    "second-out-port-of-an-op": (("data add:0 -> js:1", "data add:1 -> js:1"), 2,
                                 "add (kind=OP op=ADD) has no out-port 1"),
    "true-edge-from-an-aread": (("data cl:0 -> ar:1", "data cl:0 -> ar:1\nctrl ar -> add label=true"), 2,
                                "ctrl edge ar -> add label=true does not leave a TEST"),
    "back-edge-into-an-op": (("data cl:0 -> ar:1", "data cl:0 -> ar:1\nctrl ar -> add label=back"), 2,
                             "ctrl edge ar -> add label=back does not target a LOOPHEAD"),
    "test-as-a-data-source": (("data ar:0 -> add:1", "node t kind=TEST\ndata t:0 -> add:1"), 2,
                              "t (kind=TEST) has no out-port 0"),
}


@pytest.mark.parametrize("case", sorted(_IMPOSSIBLE_EDITS))
def test_an_impossible_edit_of_a_shipped_plan_is_refused(work, tmp_path, capsys, case):
    (line, replacement), code, message = _IMPOSSIBLE_EDITS[case]
    shipped = work / "plans" / "running-total.plan"
    text = shipped.read_text()
    assert text.count(line + "\n") == 1
    edited = text.replace(line + "\n", replacement + "\n")
    before = _plan_dir_bytes(work)
    # added under a name of its own, so only the edit can be refused
    new_plan = tmp_path / "edited.plan"
    new_plan.write_text(edited.replace('plan "running-total"', 'plan "running-total-edited"'))
    assert main(["plan", "add", str(new_plan), "--plans", str(work / "plans")]) == code
    err = capsys.readouterr().err
    assert message in err
    assert err.startswith(f"adil: {new_plan}:4:1: plan 'running-total-edited': " if code == 2 else
                          "adil: refusing to add running-total-edited")
    assert _plan_dir_bytes(work) == before
    shipped.write_text(edited)
    assert main(["plan", "check", "--plans", str(work / "plans")]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert err.startswith(f"adil: {shipped}:4:1: plan 'running-total': ") and message in err
    else:
        assert message in out and out.endswith("16 plan(s), 1 problem(s)\n")


def test_plan_check_names_the_first_plan_error_of_every_file(work, capsys):
    edits = {"counted-loop": ("data c1:0 -> inc:1", "data c1:0 -> inc:2"),
             "running-total": ("data c0:0 -> js:0", "data c0:0 -> js:2")}
    for name, (line, replacement) in edits.items():
        path = work / "plans" / f"{name}.plan"
        text = path.read_text()
        assert text.count(line + "\n") == 1
        path.write_text(text.replace(line + "\n", replacement + "\n"))
    assert main(["plan", "check", "--plans", str(work / "plans")]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    plans = work / "plans"
    assert [line.split(": data edge")[0] for line in lines] == [
        f"adil: {plans / 'counted-loop.plan'}:5:1: plan 'counted-loop'",
        f"adil: {plans / 'running-total.plan'}:4:1: plan 'running-total'"]
    assert "inc (kind=OP op=ADD) has no in-port 2" in lines[0]
    assert "js (kind=JOIN) has no in-port 2" in lines[1]


@pytest.mark.parametrize("command", ["graph", "acquire"])
def test_a_variable_read_before_assignment_exits_1_with_a_message(work, tmp_path, capsys, command):
    program = tmp_path / "unb.c"
    program.write_text("int main() { int x; int y; y = x + 1; return y; }\n")
    extra = ["--name", "foo", "-o", str(tmp_path / "foo.plan")] if command == "acquire" else []
    assert main([command, str(program), *extra]) == 1
    assert capsys.readouterr() == ("", f"adil: {program}:1:32: variable 'x' may be read before it is assigned\n")
    assert not (tmp_path / "foo.plan").exists()


def test_analyze_reports_a_variable_read_before_assignment(work, tmp_path, capsys):
    program = tmp_path / "unb.c"
    program.write_text("int main() { int x; int y; y = x + 1; return y; }\n")
    report = tmp_path / "unb.json"
    assert main(["analyze", str(program), "--spec", str(work / "sum.spec"),
                 "--plans", str(work / "plans"), "--report-json", str(report)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "Error: variable may be unassigned (line 1)"
    doc = json.loads(report.read_text())
    assert doc["program"] == str(program)
    assert [(f["kind"], f["span"]["line_start"], f["span"]["col_start"]) for f in doc["findings"]] \
        == [("UNBOUND_VARIABLE", 1, 32)]


def test_an_unknown_goal_is_reported_before_the_program_is_lowered(work, capsys):
    (work / "unb.c").write_text("int main() { int x; int y; y = x + 1; return y; }\n")
    (work / "nope.spec").write_text('spec "nope"\ngoal "no-such-plan" required\nend\n')
    assert main(["analyze", str(work / "unb.c"), "--spec", str(work / "nope.spec"),
                 "--plans", str(work / "plans")]) == 2
    assert capsys.readouterr() == ("", "adil: no plan named 'no-such-plan' in base\n")


def test_a_goal_naming_a_bug_cliche_is_a_usage_error(work, capsys):
    # graded as a cliche, the buggy program passed and the correct one failed
    (work / "bug.spec").write_text('spec "bug"\ngoal "off-by-one-bound" required\nend\n')
    for program in ("sum.c", "sum_buggy.c"):
        assert main(["analyze", str(work / program), "--spec", str(work / "bug.spec"),
                     "--plans", str(work / "plans")]) == 2, program
        assert capsys.readouterr() == ("", "adil: goal 'off-by-one-bound' names a bug cliche, "
                                           "not a cliche a program implements\n"), program


_C_PIECES = ["int", "main", "f", "x", "a", "(", ")", "{", "}", "[", "]", ";", ",", "=", "&", "0", "1",
             "if", "else", "while", "for", "return", "scanf", "printf", '"%d"', '"%d %d"',
             "+", "-", "*", "/", "%", "<", "<=", "==", "&&", "||", "!", "@", "/*", "//", '"']


def _soup_program(pieces: list[str], wrapped: bool) -> str:
    soup = " ".join(pieces)
    return f"int main() {{ int x; int a[3]; x = 0; {soup} return x; }}\n" if wrapped else soup


_FUZZ_PROGRAMS = st.one_of(
    st.builds(_soup_program, st.lists(st.sampled_from(_C_PIECES), max_size=60), st.booleans()),
    st.builds(lambda shape, levels: shape(levels), st.sampled_from(_DEEP_SHAPES),
              st.sampled_from([99, 100, 101, 2999])),
    st.just("int main() { int x; x = " + "9" * 5000 + "; return x; }\n"),
)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_FUZZ_PROGRAMS, st.sampled_from([b"", b"\x00", b"\xff", b"\xc3(", b"\xed\xa0\x80"]),
       st.integers(0, 10_000))
def test_property_analyze_exits_with_a_defined_code(work, capsys, program, junk, at):
    """Whatever bytes the program file holds, analyze returns 0, 1, 2 or 3."""
    data = program.encode()
    at %= len(data) + 1
    (work / "fuzz.c").write_bytes(data[:at] + junk + data[at:])
    assert _analyze(work, "fuzz.c") in {0, 1, 2, 3}
    capsys.readouterr()


def test_a_plan_defined_twice_is_a_usage_error(work, capsys):
    shutil.copy(work / "plans" / "average.plan", work / "plans" / "zz-average-again.plan")
    assert _analyze(work, "sum.c") == 2
    assert "plan 'average' already in base" in capsys.readouterr().err


# Whole plans (valid alone, or invalid only against the base) and harmless lines;
# the junk goes in at a random byte.
_PLAN_BLOCKS = [
    'plan "p" kind=cliche category=pe\ndoc "a; b" ; a comment\nnode n1 kind=TEST\nend',
    'plan "q" kind=bug corrupts="p" category=cbt\nnode n1 kind=TEST\nend',
    'plan "s;t" kind=cliche category=pe ; a name with a semicolon\nnode n1 kind=TEST\nend',
    'plan "u" kind=cliche category=pe\nsub s1 plan="counted-loop"\nnode n1 kind=TEST\n'
    'ctrl n1 -> s1\nend',
    'plan "r" kind=bug corrupts="ghost" category=cbt\nnode n1 kind=TEST\nend',
    'plan "running-total" kind=cliche category=pe\nnode n1 kind=TEST\nend',
    "; a comment", "",
]
_PLAN_JUNK = [b"\x00", b"\xff", b"\r", b'"', b";", b"end\n", b"node n1 kind=NOPE\n",
              b'plan "x" kind=oops category=pe\n', b"export acc = zz\n"]
_PLAN_COMMANDS = [["check"], ["list"], ["list", "--kind", "bug"], ["add"], ["rm", "p"], ["rm", "q"],
                  ["rm", "s;t"], ["rm", "u"], ["rm", "wrong-accumulator-product"], ["rm", "counted-loop"],
                  ["rm", "ghost"]]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.sampled_from(_PLAN_BLOCKS), max_size=6, unique=True),
       st.one_of(st.just(b""), st.sampled_from(_PLAN_JUNK)), st.integers(0, 10_000),
       st.booleans(), st.sampled_from(_PLAN_COMMANDS))
def test_property_plan_commands_exit_with_a_defined_code(work, plans_dir, capsys, blocks, junk, at,
                                                          in_base, command):
    """Whatever a plan file holds, in the base or given to `plan add`, every
    `plan` subcommand returns 0, 1 or 2. A refused edit writes nothing, and
    an edit that goes through leaves a valid base that differs by the edit."""
    plans = work / "plans"
    shutil.rmtree(plans)
    shutil.copytree(plans_dir, plans)
    data = "".join(block + "\n" for block in blocks).encode()
    at %= len(data) + 1
    fuzz = work / "fuzz.plan"
    fuzz.write_bytes(data[:at] + junk + data[at:])
    if in_base:
        shutil.copy(fuzz, plans / "zz-fuzz.plan")
    before = _plan_dir_bytes(work)
    argv = ["plan", command[0], *command[1:], "--plans", str(plans)]
    if command == ["add"]:
        argv.insert(2, str(fuzz))
    code = main(argv)
    capsys.readouterr()
    assert code in {0, 1, 2}
    if code != 0 or command[0] in ("check", "list"):
        assert _plan_dir_bytes(work) == before
    else:
        assert main(["plan", "check", "--plans", str(plans)]) == 0
        capsys.readouterr()
        if command[0] == "rm":
            names = sorted(plan.name for text in before.values()
                           for plan in planlib.parse_plans(text.decode()))
            names.remove(command[1])
            assert planlib.load_plan_base(plans).names() == names
