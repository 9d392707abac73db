from __future__ import annotations

import copy
import gc
import json
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from adil import debugger, matcher, planlib
from adil.debugger import (
    FindingKind,
    SpecSyntaxError,
    analyze,
    diagnose,
    parse_spec,
    pinpoint,
    report_to_json,
)
from adil.explain import render, render_text
from adil.flowgraph import NodeKind, build_flow_graph, graph_of
from adil.frontend import desugar, parse_c
from adil.matcher import SearchBudget
from adil.source import SourceSpan

from conftest import GOAL_AND_BUG_PROGRAMS, ROOT, SUM_SOURCE

sys.path.insert(0, str(ROOT / "perfbench"))

import pipeline  # noqa: E402
import workloads  # noqa: E402


def _spec(goals: str = 'goal "running-total" required') -> str:
    return f'spec "sum of elements"\n{goals}\nend\n'


def test_parse_spec_single_goal():
    spec = parse_spec(_spec())
    assert spec.title == "sum of elements"
    assert [(g.name, g.required) for g in spec.goals] == [("running-total", True)]


def test_parse_spec_zero_goals_rejected():
    with pytest.raises(SpecSyntaxError):
        parse_spec('spec "empty"\nend\n')


# Every refusal of the spec parser, as (spec text, span, message). A line's
# refusal spans the line as written; a missing line is named at the last line.
_SPEC_REFUSALS = {
    "content-after-end": ('spec "t"\ngoal "g" required\nend\nnote "late"\n', (4, 1, 4, 11), "content after end"),
    "duplicate-spec-line": ('spec "t"\nspec "u" ; again\ngoal "g" required\nend\n', (2, 1, 2, 16),
                            "duplicate spec line"),
    "duplicate-goal": ('spec "t"\ngoal "g" required\n  goal "g" optional\nend\n', (3, 1, 3, 19),
                       "duplicate goal 'g'"),
    "unrecognized-line": ('spec "t"\ngoal "g" maybe\nend\n', (2, 1, 2, 14),
                          "unrecognized spec line: 'goal \"g\" maybe'"),
    "missing-title": ('goal "g" required\nend\n', (2, 1, 2, 1), "missing spec title line"),
    "missing-end": ('spec "t"\ngoal "g" required\n', (2, 1, 2, 1), "missing end line"),
    "no-goal": ('spec "t"\nend\n', (2, 1, 2, 1), "a specification needs at least one goal"),
    "empty": ("", (1, 1, 1, 1), "missing spec title line"),
}


@pytest.mark.parametrize("case", sorted(_SPEC_REFUSALS))
def test_each_spec_refusal_pins_its_message_and_span(case):
    text, span, message = _SPEC_REFUSALS[case]
    with pytest.raises(SpecSyntaxError) as err:
        parse_spec(text, "t.spec")
    assert err.value.span == SourceSpan("t.spec", *span)
    assert err.value.message == message
    assert str(err.value) == f"t.spec:{span[0]}:{span[1]}: {message}"


def test_parse_spec_two_goals_ordered():
    spec = parse_spec(_spec('goal "average" required\ngoal "running-total" optional'))
    assert [(g.name, g.required) for g in spec.goals] == [
        ("average", True), ("running-total", False)]


def test_parse_spec_notes_and_comments():
    spec = parse_spec('spec "t" ; trailing\nnote "uses a sentinel; beware"\ngoal "g" required\nend\n')
    assert spec.notes == ("uses a sentinel; beware",)


def test_parse_spec_unescapes_strings_as_plans_do(base):
    spec = parse_spec('spec "a \\"quoted\\" \\\\ title"\ngoal "say \\"hi\\"" required\n'
                      'note "C:\\\\temp"\nend\n')
    assert spec.title == 'a "quoted" \\ title'
    assert spec.notes == ("C:\\temp",)
    plan = planlib.parse_plan('plan "say \\"hi\\"" kind=cliche category=pe\nnode n1 kind=TEST\nend\n')
    assert [g.name for g in spec.goals] == [plan.name] == ['say "hi"']
    # so such a plan can be a goal
    base = planlib.PlanBase(dict(base.plans))
    planlib.base_add(base, plan)
    report = analyze(SUM_SOURCE, "prog.c", spec, base)
    assert report.verdicts == {'say "hi"': "RECOGNIZED"}


def test_pinpoint_single_node():
    g = graph_of(SUM_SOURCE)
    nid = next(nid for nid, n in g.nodes.items() if n.kind is NodeKind.AREAD)
    assert pinpoint({nid}, g) == g.nodes[nid].span


def test_pinpoint_two_nodes_same_line():
    g = graph_of("int main(){int x;int y;x=1;y=x+2;}")
    consts = [nid for nid, n in g.nodes.items() if n.kind is NodeKind.CONST]
    span = pinpoint(consts, g)
    assert span.line_start == span.line_end == 1


def test_pinpoint_interval_hull():
    g = graph_of(SUM_SOURCE)
    s_init = next(nid for nid, n in g.nodes.items()
                  if n.kind is NodeKind.CONST and n.var_name == "s")  # line 4
    one = next(nid for nid, n in g.nodes.items()
               if n.kind is NodeKind.CONST and n.value == 1)  # line 8
    span = pinpoint({s_init, one}, g)
    assert (span.line_start, span.line_end) == (4, 8)


def _diagnose(source: str, base, goals: str | None = None):
    return analyze(source, "prog.c", parse_spec(_spec(goals) if goals else _spec()), base)


def test_diagnose_correct_sum(base):
    report = _diagnose(SUM_SOURCE, base)
    assert report.verdicts == {"running-total": "RECOGNIZED"}
    assert report.findings == ()
    assert report.meaning and "counted-loop" in report.meaning
    assert report.spec_title == "sum of elements"


def test_diagnose_off_by_one(base):
    report = _diagnose(SUM_SOURCE.replace("i < n", "i <= n"), base)
    assert report.verdicts == {"running-total": "BUGGY"}
    assert len(report.findings) == 1
    f = report.findings[0]
    assert f.kind is FindingKind.BUG_CLICHE
    assert f.bug_plan == "off-by-one-bound"
    assert f.span.line_start == f.span.line_end == 6  # the while line of prog.c
    assert report.meaning is None


def test_diagnose_wrong_initializer(base):
    report = _diagnose(SUM_SOURCE.replace("s = 0;", "s = 1;"), base)
    assert report.verdicts == {"running-total": "BUGGY"}
    assert len(report.findings) == 1
    f = report.findings[0]
    assert f.kind is FindingKind.CONSTRAINT_VIOLATION
    assert f.evidence == "init=1, expected 0"
    assert f.span.line_start == 4  # the initializer line
    assert 0 < f.confidence <= 1


def test_diagnose_missing_goal(base):
    # a correct copy program cannot be recognized as a running total
    copy_src = (Path(__file__).parents[1] / "corpus/correct/copy.c").read_text()
    report = _diagnose(copy_src, base)
    assert report.verdicts == {"running-total": "MISSING"}
    assert len(report.findings) == 1
    f = report.findings[0]
    assert f.kind is FindingKind.MISSING_GOAL
    # spans the whole function
    assert f.span.line_start <= 2 and f.span.line_end >= 8


def test_a_goal_naming_a_bug_cliche_is_refused(base):
    spec = parse_spec(_spec('goal "running-total" required\ngoal "off-by-one-bound" optional'))
    for source in (SUM_SOURCE, SUM_SOURCE.replace("i < n", "i <= n")):
        for run in (lambda: analyze(source, "prog.c", spec, base),
                    lambda: diagnose(graph_of(source), spec, base)):
            with pytest.raises(ValueError, match="goal 'off-by-one-bound' names a bug cliche"):
                run()


def test_a_failing_node_predicate_pinpoints_its_nodes():
    source = "int main() { int i; i = 0;\nwhile (i < 3) {\ni = i + 1; }\nreturn i; }\n"
    base = planlib.PlanBase()
    planlib.base_add(base, planlib.parse_plan(
        'plan "step-other" kind=cliche category=pe\ndoc "steps @src into a new variable"\n'
        "node zero kind=CONST const=0\nnode j kind=JOIN\nnode add kind=OP op=ADD\nnode one kind=CONST const=1\n"
        "data zero:0 -> j:0\ndata j:0 -> add:0\ndata one:0 -> add:1\ndata add:0 -> j:1\n"
        "constraint distinctvar(j, add)\nexport src = j\nend\n"))
    report = analyze(source, "p.c", parse_spec('spec "t"\ngoal "step-other" required\nend\n'), base)
    (finding,) = report.findings
    assert (finding.kind, finding.evidence) == (FindingKind.CONSTRAINT_VIOLATION, "i and i are the same variable")
    # the loop's JOIN and the ADD, not the hull of the match, which starts at `i = 0`
    assert finding.span == SourceSpan("p.c", 2, 1, 3, 12)


def test_diagnose_optional_goal_missing_is_quiet(base):
    report = _diagnose(SUM_SOURCE, base,
                       goals='goal "running-total" required\ngoal "copy-loop" optional')
    assert report.verdicts == {"running-total": "RECOGNIZED", "copy-loop": "MISSING"}
    assert report.findings == ()
    assert report.meaning is not None


def test_diagnose_never_mutates_inputs(base):
    source = SUM_SOURCE.replace("i < n", "i <= n")
    ast = desugar(parse_c(source, filename="prog.c"))
    snapshot = copy.deepcopy(ast)
    g = build_flow_graph(ast)
    spec = parse_spec(_spec())
    diagnose(g, spec, base, SearchBudget())
    assert ast == snapshot


def test_diagnose_filtering_is_conservative(base, corpus_cases):
    # filtering by goal closure (which searches only the plans a diagnosis
    # may read) must not change a byte of the report or its rendering; the
    # extra programs need the plans that accepted bug plans corrupt read
    # although their goal is recognized
    cases = [(program.read_text(), program.name, parse_spec(spec_path.read_text()))
             for program, spec_path in corpus_cases]
    cases += [(source, name, parse_spec(_spec())) for name, source in GOAL_AND_BUG_PROGRAMS]
    for source, name, spec in cases:
        g = graph_of(source, name)
        filtered = diagnose(g, spec, base, SearchBudget(), use_filtering=True)
        unfiltered = diagnose(g, spec, base, SearchBudget(), use_filtering=False)
        assert report_to_json(filtered) == report_to_json(unfiltered), name
        assert render_text(render(filtered, source, base)) == \
            render_text(render(unfiltered, source, base)), name


def test_diagnose_computes_each_goal_sub_closure_once(base, corpus_cases, monkeypatch):
    calls: list[str] = []
    real = planlib.sub_closure

    def counted(b, name):
        calls.append(name)
        return real(b, name)

    for module in (planlib, debugger):
        monkeypatch.setattr(module, "sub_closure", counted)
    for program, spec_path in corpus_cases:
        spec = parse_spec(spec_path.read_text())
        g = graph_of(program.read_text(), program.name)
        for use_filtering in (True, False):
            calls.clear()
            diagnose(g, spec, base, SearchBudget(), use_filtering=use_filtering)
            assert sorted(calls) == sorted(goal.name for goal in spec.goals), program.name


def test_goal_and_bug_programs_are_recognized_and_buggy(base):
    # what makes them guards: the goal's match is accepted and a bug fires
    for name, source in GOAL_AND_BUG_PROGRAMS:
        report = _diagnose(source, base)
        assert "running-total" in report.recognized, name
        assert [f.kind for f in report.findings] == [FindingKind.BUG_CLICHE], name


MAIN_STYLE_SUM = """\
int main() {
    int a[100];
    int n;
    int s;
    int i;
    scanf("%d", &n);
    i = 0;
    while (i < n) {
        scanf("%d", &a[i]);
        i = i + 1;
    }
    s = 0;
    i = 0;
    while (i < n) {
        s = s + a[i];
        i = i + 1;
    }
    printf("%d\\n", s);
    return 0;
}
"""


def test_diagnose_main_style_program_with_two_loops(base):
    # the fill loop and the sum loop both match counted-loop; recognition
    # must thread the right sub-match into running-total
    report = _diagnose(MAIN_STYLE_SUM, base)
    assert report.verdicts == {"running-total": "RECOGNIZED"}
    assert report.findings == ()

    buggy = MAIN_STYLE_SUM.replace(
        "    i = 0;\n    while (i < n) {\n        s = s + a[i];",
        "    i = 0;\n    while (i <= n) {\n        s = s + a[i];")
    report = _diagnose(buggy, base)
    assert report.verdicts == {"running-total": "BUGGY"}
    assert report.findings[0].span.line_start == 14  # the sum loop's test, not the fill loop's


def test_a_variable_read_before_assignment_is_the_one_finding(base):
    spec = parse_spec(_spec('goal "running-total" required\ngoal "copy-loop" optional'))
    report = analyze("int main() { int x; int y; y = x + 1; return y; }\n", "unb.c", spec, base)
    assert report.verdicts == {"running-total": "MISSING", "copy-loop": "MISSING"}
    [finding] = report.findings
    assert finding.kind is FindingKind.UNBOUND_VARIABLE
    assert finding.confidence == Fraction(1)
    assert (finding.span.file, finding.span.line_start, finding.span.col_start) == ("unb.c", 1, 32)
    assert report.program == "unb.c"


def test_report_json_key_order(base):
    report = _diagnose(SUM_SOURCE, base)
    doc = json.loads(report_to_json(report))
    assert list(doc) == ["program", "spec", "verdicts", "findings", "recognized",
                         "meaning", "budget_truncated"]
    assert doc["program"] == "prog.c"
    assert doc["recognized"][0]["goal"] == "running-total"
    assert doc["budget_truncated"] is False


def test_report_json_finding_keys(base):
    report = _diagnose(SUM_SOURCE.replace("i < n", "i <= n"), base)
    doc = json.loads(report_to_json(report))
    assert list(doc["findings"][0]) == ["kind", "goal", "bug_plan", "span",
                                        "evidence", "confidence"]
    assert list(doc["findings"][0]["span"]) == ["line_start", "col_start",
                                                "line_end", "col_end"]


def test_report_json_deterministic_across_runs(base):
    # each run parses the program and builds its graph afresh
    for source in (SUM_SOURCE.replace("i < n", "i <= n"), GOAL_AND_BUG_PROGRAMS[0][1]):
        out = [report_to_json(_diagnose(source, base)) for _ in range(3)]
        assert out[0] == out[1] == out[2]


def test_budget_truncation_sets_flag():
    from adil.planlib import PlanBase, base_add, parse_plan
    from test_matcher import CHAIN_PLAN, dense_source

    chain_base = PlanBase()
    base_add(chain_base, parse_plan(CHAIN_PLAN))
    # 40 additions: finding the full matches alone takes 1108 steps (24
    # additions take 612, and a recognized goal is never searched further)
    g = graph_of(dense_source(40), "dense.c")
    spec = parse_spec('spec "dense"\ngoal "add-chain" required\nend\n')
    tight = diagnose(g, spec, chain_base, SearchBudget(max_extension_steps=1000))
    assert tight.budget_truncated is True
    roomy = diagnose(g, spec, chain_base, SearchBudget(max_extension_steps=1_000_000))
    assert roomy.budget_truncated is False
    assert roomy.verdicts == {"add-chain": "RECOGNIZED"}



def test_a_missing_goal_notes_only_the_truncation_of_its_own_searches(base):
    # no first stage is cut short at these budgets. With average as the
    # second goal, the near-miss stages of running-total and counted-loop
    # are cut short when average reads them; sentinel-input-loop has no
    # sub-plans and no bug plans, so its MISSING finding has no note, though
    # the report says the analysis was truncated. With running-total as the
    # second goal, that goal's own search is cut short, and its MISSING
    # finding says so.
    path = ROOT / "corpus" / "bugs" / "average__swapped_operands.c"
    g = graph_of(path.read_text(), path.name)
    note = " (search was truncated by the matching budget)"

    def missing(second: str, steps: int):
        spec = parse_spec(_spec(f'goal "sentinel-input-loop" required\ngoal "{second}" required'))
        report = diagnose(g, spec, base, SearchBudget(max_extension_steps=steps))
        assert report.budget_truncated
        return report.verdicts, {f.goal: f.evidence for f in report.findings if f.kind is FindingKind.MISSING_GOAL}

    assert missing("average", 9) == ({"sentinel-input-loop": "MISSING", "average": "BUGGY"},
                                     {"sentinel-input-loop": "no part of the expected structure was found"})
    assert missing("running-total", 8) == (
        {"sentinel-input-loop": "MISSING", "running-total": "MISSING"},
        {"sentinel-input-loop": "no part of the expected structure was found",
         "running-total": "best structural match scored 4/5" + note})


# -- the report writer against json.dumps

def _span_json(span):
    return {
        "line_start": span.line_start,
        "col_start": span.col_start,
        "line_end": span.line_end,
        "col_end": span.col_end,
    }


def _binding_json(m):
    out: dict = {}
    for pid in sorted(m.binding):
        nid = m.binding[pid]
        if nid >= 0:
            out[pid] = nid
        else:
            sub = m.sub_matches[pid]
            out[pid] = {"plan": sub.plan, "binding": _binding_json(sub)}
    return out


def _reference_report_json(report):
    """The report's document, encoded by json.dumps with indent=2: what
    report_to_json writes directly."""
    doc = {
        "program": report.program,
        "spec": report.spec_title,
        "verdicts": dict(report.verdicts),
        "findings": [
            {
                "kind": f.kind.value,
                "goal": f.goal,
                "bug_plan": f.bug_plan,
                "span": _span_json(f.span),
                "evidence": f.evidence,
                "confidence": float(f.confidence),
            }
            for f in report.findings
        ],
        "recognized": [
            {
                "goal": goal,
                "plan": m.plan,
                "score": float(m.score),
                "binding": _binding_json(m),
            }
            for goal, m in sorted(report.recognized.items())
        ],
        "meaning": report.meaning,
        "budget_truncated": report.budget_truncated,
    }
    return json.dumps(doc, indent=2) + "\n"


def test_report_json_matches_json_dumps_on_the_corpus_and_the_workloads(base, corpus_cases):
    reports = []
    for program, spec_path in corpus_cases:
        spec = parse_spec(spec_path.read_text(), spec_path.name)
        reports.append(analyze(program.read_text(), program.name, spec, base))
    for workload in workloads.WORKLOADS:
        items = workloads.make_items(workload, 5, ROOT)
        setup = pipeline.setup(ROOT, workload, workloads.spec_texts(items))
        run_item = pipeline.run_item(workload)
        reports += [run_item(item, setup).report for item in items]
    for report in reports:
        assert report_to_json(report) == _reference_report_json(report), report.program
    # sub-matches, findings and meanings all occur
    assert any(m.sub_matches for r in reports for m in r.recognized.values())
    assert any(r.findings for r in reports) and any(r.meaning for r in reports)


def _match(plan, binding, subs=None, score=Fraction(1)):
    return matcher.MatchResult(plan, binding, subs or {}, {}, score, (), ())


_AWKWARD = 'q"uote \\ back\tslash\n\x00\x1f\x7f é ü 中 \U0001f600 /'


def _crafted_reports():
    span = debugger.SourceSpan("p.c", 3, 5, 4, 9)
    inner = _match("inner", {"z": 7})
    middle = _match("middle", {"b": 4, "in": -2, "a": 3}, {"in": inner})
    outer = _match("outer", {"y": 1, "mid": -1}, {"mid": middle})
    finding = debugger.Finding(FindingKind.CONSTRAINT_VIOLATION, _AWKWARD, None, span,
                               _AWKWARD, Fraction(2, 3))
    bug = debugger.Finding(FindingKind.BUG_CLICHE, "g", "off-by-one-bound", span, "e", Fraction(1))
    yield debugger.DiagnosticReport("p.c", "t", {}, (), {}, None, False)
    yield debugger.DiagnosticReport("p.c", "t", {"g": "MISSING"}, (finding,), {}, None, True)
    yield debugger.DiagnosticReport(_AWKWARD, _AWKWARD, {_AWKWARD: "RECOGNIZED", "g": "BUGGY"},
                                    (bug, finding), {"g": outer, _AWKWARD: inner}, _AWKWARD, False)
    yield debugger.DiagnosticReport("p.c", "t", {"g": "RECOGNIZED"}, (),
                                    {"g": _match("p", {}, score=Fraction(3, 7))}, "", True)


def test_report_json_matches_json_dumps_on_crafted_reports():
    # no findings, no recognized goals, null bug_plan and meaning, a
    # truncated search, strings json must escape, sub-matches two levels deep
    for report in _crafted_reports():
        assert report_to_json(report) == _reference_report_json(report)


def test_a_diagnosed_graph_is_freed_by_reference_counting(corpus_dir, base):
    source = (corpus_dir / "correct/sum.c").read_text()
    spec = parse_spec((corpus_dir / "correct/sum.spec").read_text())
    gc.disable()
    try:
        g = graph_of(source, "sum.c")
        report = diagnose(g, spec, base)
        assert report.meaning is not None
        render(report, source, base)
        report_to_json(report)
        graph = weakref.ref(g)
        del g, report
        assert graph() is None  # freed with no help from the cyclic collector
    finally:
        gc.enable()
