from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from adil import debugger, matcher, planlib
from adil.debugger import (
    FindingKind,
    SpecSyntaxError,
    diagnose,
    parse_spec,
    pinpoint,
    report_to_json,
    unbound_report,
)
from adil.explain import render, render_text
from adil.flowgraph import NodeKind, UnboundVariable, build_flow_graph
from adil.frontend import desugar, parse_c
from adil.matcher import SearchBudget

from conftest import GOAL_AND_BUG_PROGRAMS, ROOT, SUM_SOURCE, ast_of, graph_of

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
    report = diagnose(build_flow_graph(desugar(parse_c(SUM_SOURCE))), spec, base)
    assert report.verdicts == {'say "hi"': "RECOGNIZED"}


def test_pinpoint_single_node():
    g = graph_of(SUM_SOURCE)
    nid = next(n.id for n in g.nodes.values() if n.kind is NodeKind.AREAD)
    assert pinpoint({nid}, g) == g.nodes[nid].ann.span


def test_pinpoint_two_nodes_same_line():
    g = graph_of("int main(){int x;int y;x=1;y=x+2;}")
    consts = [n.id for n in g.nodes.values() if n.kind is NodeKind.CONST]
    span = pinpoint(consts, g)
    assert span.line_start == span.line_end == 1


def test_pinpoint_interval_hull():
    g = graph_of(SUM_SOURCE)
    s_init = next(n.id for n in g.nodes.values()
                  if n.kind is NodeKind.CONST and n.ann.var_name == "s")  # line 4
    one = next(n.id for n in g.nodes.values()
               if n.kind is NodeKind.CONST and n.value == 1)  # line 8
    span = pinpoint({s_init, one}, g)
    assert (span.line_start, span.line_end) == (4, 8)


def _diagnose(source: str, base, goals: str | None = None):
    spec = parse_spec(_spec(goals) if goals else _spec())
    g = build_flow_graph(desugar(parse_c(source, filename="prog.c")))
    return diagnose(g, spec, base, SearchBudget())


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


def test_diagnose_optional_goal_missing_is_quiet(base):
    report = _diagnose(SUM_SOURCE, base,
                       goals='goal "running-total" required\ngoal "copy-loop" optional')
    assert report.verdicts == {"running-total": "RECOGNIZED", "copy-loop": "MISSING"}
    assert report.findings == ()
    assert report.meaning is not None


def test_diagnose_never_mutates_inputs(base):
    source = SUM_SOURCE.replace("i < n", "i <= n")
    ast = ast_of(source, "prog.c")
    snapshot = copy.deepcopy(ast)
    g = build_flow_graph(ast)
    spec = parse_spec(_spec())
    diagnose(g, spec, base, SearchBudget())
    assert ast == snapshot


def test_diagnose_filtering_is_conservative(base, corpus_cases):
    # filtering by goal closure (which runs the near-miss stage only for the
    # plans a diagnosis reads) must not change a byte of the report or its
    # rendering; the extra programs need the plans that accepted bug plans
    # corrupt resumed although their goal is recognized
    cases = [(program.read_text(), program.name, parse_spec(spec_path.read_text()))
             for program, spec_path in corpus_cases]
    cases += [(source, name, parse_spec(_spec())) for name, source in GOAL_AND_BUG_PROGRAMS]
    for source, name, spec in cases:
        g = build_flow_graph(desugar(parse_c(source, filename=name)))
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

    for module in (planlib, matcher, debugger):
        monkeypatch.setattr(module, "sub_closure", counted)
    for program, spec_path in corpus_cases:
        spec = parse_spec(spec_path.read_text())
        g = build_flow_graph(desugar(parse_c(program.read_text(), filename=program.name)))
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


def test_unbound_report_shape():
    spec = parse_spec(_spec())
    err = UnboundVariable("s", graph_of(SUM_SOURCE).nodes[3].ann.span)
    report = unbound_report("prog.c", spec, err)
    assert report.verdicts == {"running-total": "MISSING"}
    assert report.findings[0].kind is FindingKind.UNBOUND_VARIABLE
    assert report.findings[0].confidence == Fraction(1)


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
    g = build_flow_graph(desugar(parse_c(dense_source(40), filename="dense.c")))
    spec = parse_spec('spec "dense"\ngoal "add-chain" required\nend\n')
    tight = diagnose(g, spec, chain_base, SearchBudget(max_extension_steps=1000))
    assert tight.budget_truncated is True
    roomy = diagnose(g, spec, chain_base, SearchBudget(max_extension_steps=1_000_000))
    assert roomy.budget_truncated is False
    assert roomy.verdicts == {"add-chain": "RECOGNIZED"}


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
        ast = desugar(parse_c(program.read_text(), filename=program.name))
        try:
            reports.append(diagnose(build_flow_graph(ast), spec, base))
        except UnboundVariable as err:
            reports.append(unbound_report(program.name, spec, err))
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
