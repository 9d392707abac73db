from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adil import debugger, explain, flowgraph, frontend, planlib
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
        ast = frontend.desugar(frontend.parse_c(source))
        report = debugger.diagnose(flowgraph.build_flow_graph(ast), spec, base)
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
    err = capsys.readouterr().err
    assert err.startswith("adil: ") and str(directory) in err and "Traceback" not in err
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
