"""Verification of a program against its specification, and fault localization.

The specification names the cliches the program is supposed to implement.
Each goal is verified by matching: an accepted match means the goal is
RECOGNIZED; an accepted corrupting bug cliche, or a structurally close
near-miss whose constraints fail, means BUGGY; anything else means MISSING.
Findings carry a pinpointed source span computed from the graph nodes that
witness the fault, and the report never touches the program text itself:
this debugger explains, it does not correct.
"""

from __future__ import annotations

import re
from dataclasses import field
from enum import Enum
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import explain, flowgraph
from .flowgraph import FlowGraph, UnboundVariable
from .matcher import MatchResult, Recognition, SearchBudget, binding_values, recognize
from .planlib import _STRING, Plan, PlanBase, _unescape, strip_comment, sub_closure
from .records import record
from .source import SourceSpan, span_hull


class SpecSyntaxError(Exception):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


@record
class Goal:
    name: str
    required: bool


@record
class ProgramSpec:
    title: str
    goals: tuple[Goal, ...]
    notes: tuple[str, ...] = ()


_SPEC_RE = re.compile(rf"spec\s+{_STRING}")
_GOAL_RE = re.compile(rf"goal\s+{_STRING}\s+(required|optional)")
_NOTE_RE = re.compile(rf"note\s+{_STRING}")


def parse_spec(text: str, filename: str = "<spec>") -> ProgramSpec:
    """Parse a `.spec` file: spec "<title>" / goal "<name>" required|optional / note / end."""
    title: str | None = None
    goals: list[Goal] = []
    notes: list[str] = []
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = strip_comment(raw).strip()
        span = SourceSpan(filename, lineno, 1, lineno, max(1, len(raw)))
        if not line:
            continue
        if ended:
            raise SpecSyntaxError(span, "content after end")
        if m := _SPEC_RE.fullmatch(line):
            if title is not None:
                raise SpecSyntaxError(span, "duplicate spec line")
            title = _unescape(m.group(1))
        elif m := _GOAL_RE.fullmatch(line):
            name = _unescape(m.group(1))
            if any(g.name == name for g in goals):
                raise SpecSyntaxError(span, f"duplicate goal {name!r}")
            goals.append(Goal(name, m.group(2) == "required"))
        elif m := _NOTE_RE.fullmatch(line):
            notes.append(_unescape(m.group(1)))
        elif line == "end":
            ended = True
        else:
            raise SpecSyntaxError(span, f"unrecognized spec line: {line!r}")
    tail = SourceSpan(filename, max(1, len(text.splitlines())), 1, max(1, len(text.splitlines())), 1)
    if title is None:
        raise SpecSyntaxError(tail, "missing spec title line")
    if not ended:
        raise SpecSyntaxError(tail, "missing end line")
    if not goals:
        raise SpecSyntaxError(tail, "a specification needs at least one goal")
    return ProgramSpec(title, tuple(goals), tuple(notes))


# ---------------------------------------------------------------------------
# Findings and reports

class FindingKind(Enum):
    BUG_CLICHE = "BUG_CLICHE"
    CONSTRAINT_VIOLATION = "CONSTRAINT_VIOLATION"
    MISSING_GOAL = "MISSING_GOAL"
    UNBOUND_VARIABLE = "UNBOUND_VARIABLE"


_KIND_ORDER = {kind: i for i, kind in enumerate(FindingKind)}


@record
class Finding:
    kind: FindingKind
    goal: str
    bug_plan: str | None
    span: SourceSpan
    evidence: str
    confidence: Fraction
    # render support, never serialized: the plan whose doc template explains
    # this finding, and the values it is filled with
    doc_plan: str | None = field(default=None, compare=False)
    doc_env: tuple[dict[str, str], dict[str, str]] | None = field(default=None, compare=False)


@record
class DiagnosticReport:
    program: str
    spec_title: str
    verdicts: dict[str, str]  # goal -> RECOGNIZED | BUGGY | MISSING
    findings: tuple[Finding, ...]
    recognized: dict[str, MatchResult]  # goal -> accepted match
    meaning: str | None
    budget_truncated: bool


def pinpoint(nodes: set[int] | list[int], g: FlowGraph) -> SourceSpan:
    """Smallest source span covering every given node's span."""
    ids = sorted(set(nodes))
    if not ids:
        raise ValueError("pinpoint needs at least one node")
    return span_hull([g.nodes[nid].span for nid in ids])


# ---------------------------------------------------------------------------
# Diagnosis

def analyze(source: str, filename: str, spec: ProgramSpec, base: PlanBase,
            budget: SearchBudget | None = None) -> DiagnosticReport:
    """Diagnose C-subset source against its specification: the report on it.
    A variable read before it is assigned is the one finding; an unknown goal raises UnknownPlan."""
    _goal_names(spec, base)
    try:
        g = flowgraph.graph_of(source, filename)
    except UnboundVariable as err:
        return _unbound_report(filename, spec, err)
    return diagnose(g, spec, base, budget)


def _goal_names(spec: ProgramSpec, base: PlanBase) -> list[str]:
    """The spec's goal names. A goal the base lacks (UnknownPlan) or one that
    names a bug cliche (ValueError) is a caller error, not a finding: a bug
    cliche is what a program must not contain, never what it implements."""
    for goal in spec.goals:
        if base.get(goal.name).kind == "bug":
            raise ValueError(f"goal {goal.name!r} names a bug cliche, not a cliche a program implements")
    return [goal.name for goal in spec.goals]


def diagnose(g: FlowGraph, spec: ProgramSpec, base: PlanBase,
             budget: SearchBudget | None = None, *,
             use_filtering: bool = True) -> DiagnosticReport:
    """Verify each spec goal against the graph and localize what went wrong."""
    budget = budget or SearchBudget()
    goal_names = _goal_names(spec, base)
    rec = recognize(g, base, goal_names if use_filtering else None, budget)

    findings: list[Finding] = []
    verdicts: dict[str, str] = {}
    recognized: dict[str, MatchResult] = {}
    # required goals found MISSING, with their plans and the bug plans that corrupt one
    missing: list[tuple[str, list[str], list[str]]] = []

    for goal in spec.goals:
        relevant = sub_closure(base, goal.name)
        goal_findings: list[Finding] = []

        accepted = rec.best_accepted(goal.name)
        if accepted is not None:
            recognized[goal.name] = accepted

        bugs = [name for name, plan in sorted(base.plans.items())
                if plan.kind == "bug" and plan.corrupts in relevant]
        for bug_name in bugs:
            bug = base.plans[bug_name]
            bug_match = rec.best_accepted(bug_name)
            if bug_match is None:
                continue
            goal_findings.append(_bug_finding(goal.name, bug, bug_match, rec, g, base))

        if accepted is None:
            for plan_name in relevant:
                near = rec.best_near_miss(plan_name)
                if near is None:
                    continue
                failures = [o for o in near.constraint_outcomes if o.evaluated and not o.passed]
                for outcome in failures:
                    goal_findings.append(
                        _violation_finding(goal.name, base.plans[plan_name], near, outcome, g))

        if accepted is not None and not goal_findings:
            verdicts[goal.name] = "RECOGNIZED"
        elif goal_findings:
            verdicts[goal.name] = "BUGGY"
        else:
            verdicts[goal.name] = "MISSING"
            if goal.required:
                missing.append((goal.name, relevant, bugs))
        findings.extend(goal_findings)

    # after every goal has read its plans, so that a note sees every search
    # that decides its goal and that the budget cut short
    findings.extend(_missing_finding(goal, relevant, bugs, rec, g) for goal, relevant, bugs in missing)
    findings.sort(key=lambda f: (f.span.line_start, _KIND_ORDER[f.kind], f.goal, f.bug_plan or ""))

    meaning: str | None = None
    if all(verdicts[goal.name] == "RECOGNIZED" for goal in spec.goals if goal.required):
        shown = [(goal.name, recognized[goal.name]) for goal in spec.goals
                 if goal.name in recognized]
        meaning = explain.compose_meaning(shown, base, g)

    return DiagnosticReport(
        program=g.nodes[g.entry].span.file,
        spec_title=spec.title,
        verdicts=verdicts,
        findings=tuple(findings),
        recognized=recognized,
        meaning=meaning,
        budget_truncated=bool(rec.truncated),
    )


def _unbound_report(program: str, spec: ProgramSpec, err: UnboundVariable) -> DiagnosticReport:
    """Degenerate report for programs whose graph cannot be finalized."""
    finding = Finding(
        kind=FindingKind.UNBOUND_VARIABLE,
        goal="",
        bug_plan=None,
        span=err.span,
        evidence=f"variable {err.name!r} may be read before it is assigned",
        confidence=Fraction(1),
    )
    return DiagnosticReport(
        program=program,
        spec_title=spec.title,
        verdicts={goal.name: "MISSING" for goal in spec.goals},
        findings=(finding,),
        recognized={},
        meaning=None,
        budget_truncated=False,
    )


def _doc_env(plan: Plan, m: MatchResult, g: FlowGraph) -> tuple[dict[str, str], dict[str, str]]:
    """Template values for a finding; unbound parts of a near-miss render as gaps."""
    slots = {name: "?" for name in plan.slots()}
    roles = {role: "(unmatched)" for role in plan.export_roles()}
    bound_slots, bound_roles = binding_values(plan, m, g)
    slots.update(bound_slots)
    roles.update(bound_roles)
    return slots, roles


def _bug_finding(goal: str, bug: Plan, bug_match: MatchResult, rec: Recognition,
                 g: FlowGraph, base: PlanBase) -> Finding:
    # Pinpoint the delta: what the bug pattern binds beyond the portion of
    # the corrupted cliche that still matches. Accepted sub-matches inside
    # the bug pattern are intact cliche structure, not fault evidence.
    bug_nodes = bug_match.real_nodes()
    delta = set(bug_nodes)
    for sub in bug_match.sub_matches.values():
        delta -= sub.real_nodes()
    near = rec.best_near_miss(bug.corrupts)
    if near is not None:
        delta -= near.real_nodes()
    if not delta:
        delta = bug_nodes
    slots, _ = binding_values(bug, bug_match, g)
    evidence = "bug pattern fully matched"
    if slots:
        evidence += " (" + ", ".join(f"{k}={v}" for k, v in sorted(slots.items())) + ")"
    return Finding(
        kind=FindingKind.BUG_CLICHE,
        goal=goal,
        bug_plan=bug.name,
        span=pinpoint(delta, g),
        evidence=evidence,
        confidence=bug_match.score,
        doc_plan=bug.name,
        doc_env=_doc_env(bug, bug_match, g),
    )


def _violation_finding(goal: str, plan: Plan, near: MatchResult, outcome, g: FlowGraph) -> Finding:
    witness_pids: list[str] = []
    for arg in outcome.predicate.args:
        if isinstance(arg, int):
            continue
        if arg.startswith("$"):
            slot_name = arg[1:]
            witness_pids.extend(pn.pid for pn in plan.pnodes if pn.slot == slot_name)
        else:
            witness_pids.append(arg)
    witness_nodes = {near.binding[pid] for pid in witness_pids
                     if pid in near.binding and near.binding[pid] >= 0}
    span = pinpoint(witness_nodes, g) if witness_nodes else span_hull(list(near.spans))
    # smoothed passing fraction: the structural match itself counts for one,
    # keeping confidence strictly positive even when every predicate fails
    passing = 1 + sum(1 for o in near.constraint_outcomes if o.passed)
    total = 1 + len(near.constraint_outcomes)
    return Finding(
        kind=FindingKind.CONSTRAINT_VIOLATION,
        goal=goal,
        bug_plan=None,
        span=span,
        evidence=outcome.detail,
        confidence=near.score * Fraction(passing, total),
        doc_plan=plan.name,
        doc_env=_doc_env(plan, near, g),
    )


def _missing_finding(goal: str, relevant: list[str], bugs: list[str], rec: Recognition,
                     g: FlowGraph) -> Finding:
    """The goal's MISSING finding: its best structural match, and a note when
    a search that decides the goal (one of its plans, or a bug plan that
    corrupts one) was cut short by the budget."""
    best: MatchResult | None = None
    for plan_name in relevant:
        candidate = rec.best(plan_name)
        if candidate is not None and (best is None or candidate.score > best.score):
            best = candidate
    if best is None:
        evidence = "no part of the expected structure was found"
    else:
        evidence = f"best structural match scored {best.score}"
    if not rec.truncated.isdisjoint(relevant) or not rec.truncated.isdisjoint(bugs):
        evidence += " (search was truncated by the matching budget)"
    return Finding(
        kind=FindingKind.MISSING_GOAL,
        goal=goal,
        bug_plan=None,
        span=g.nodes[g.entry].span,
        evidence=evidence,
        confidence=Fraction(1),
    )


# ---------------------------------------------------------------------------
# Report serialization: stable key order, stable array orders
#
# The report has one fixed shape, so it is written out directly, byte for
# byte as `json.dumps(doc, indent=2)` writes it: CPython's C encoder serves
# only encodings without indent, and its pure-Python one cost several times
# this. Strings are escaped to ASCII as json.dumps does, and floats written
# with float.__repr__, as json.dumps does for finite ones.

def _nullable(text: str | None) -> str:
    return "null" if text is None else _quote(text)


def _object(members: list[str], indent: str) -> str:
    """A JSON object from its "key": value members, each line indent plus
    two spaces in, closed at indent."""
    if not members:
        return "{}"
    return "{\n  " + indent + (",\n  " + indent).join(members) + "\n" + indent + "}"


def _span_text(span: SourceSpan, indent: str) -> str:
    return _object([f'"line_start": {span.line_start}', f'"col_start": {span.col_start}',
                    f'"line_end": {span.line_end}', f'"col_end": {span.col_end}'], indent)


def _binding_text(m: MatchResult, indent: str) -> str:
    """m's binding by pattern node, sub-matches as {"plan", "binding"} objects."""
    members = []
    inner = indent + "  "
    for pid in sorted(m.binding):
        nid = m.binding[pid]
        if nid >= 0:
            members.append(f"{_quote(pid)}: {nid}")
        else:
            sub = m.sub_matches[pid]
            sub_binding = _binding_text(sub, inner + "  ")
            members.append(_quote(pid) + ": " + _object(
                [f'"plan": {_quote(sub.plan)}', '"binding": ' + sub_binding], inner))
    return _object(members, indent)


def _finding_text(f: Finding) -> str:
    return _object([
        f'"kind": {_quote(f.kind.value)}',
        f'"goal": {_quote(f.goal)}',
        f'"bug_plan": {_nullable(f.bug_plan)}',
        '"span": ' + _span_text(f.span, "      "),
        f'"evidence": {_quote(f.evidence)}',
        f'"confidence": {float(f.confidence)!r}',
    ], "    ")


def _recognized_text(goal: str, m: MatchResult) -> str:
    return _object([
        f'"goal": {_quote(goal)}',
        f'"plan": {_quote(m.plan)}',
        f'"score": {float(m.score)!r}',
        '"binding": ' + _binding_text(m, "      "),
    ], "    ")


def _array(items: list[str]) -> str:
    """A top-level member's array of objects (each already indented)."""
    return "[\n    " + ",\n    ".join(items) + "\n  ]" if items else "[]"


def report_to_json(report: DiagnosticReport) -> str:
    verdicts = [f"{_quote(goal)}: {_quote(verdict)}" for goal, verdict in report.verdicts.items()]
    return _object([
        f'"program": {_quote(report.program)}',
        f'"spec": {_quote(report.spec_title)}',
        '"verdicts": ' + _object(verdicts, "  "),
        '"findings": ' + _array([_finding_text(f) for f in report.findings]),
        '"recognized": ' + _array([_recognized_text(goal, m)
                                   for goal, m in sorted(report.recognized.items())]),
        f'"meaning": {_nullable(report.meaning)}',
        f'"budget_truncated": {"true" if report.budget_truncated else "false"}',
    ], "") + "\n"
