"""Student-facing explanations rendered from plan doc templates.

Every explanation is template-driven: the instructor authors the wording in
the plan base, and this module only interpolates bound values ($slot) and
exported roles (@role), quotes the pinpointed source with a caret, and, for
fully recognized programs, composes the goal plans' docs into a "Program
meaning" section with sub-plan docs indented under their parents.
"""

from __future__ import annotations

import re
import textwrap
from typing import TYPE_CHECKING

from .matcher import MatchResult, binding_values
from .planlib import MARKER_RE, PlanBase
from .records import record
from .source import SourceSpan, split_lines

if TYPE_CHECKING:  # pragma: no cover
    from .debugger import DiagnosticReport
    from .flowgraph import FlowGraph


class TemplateError(Exception):
    def __init__(self, plan: str, marker: str):
        super().__init__(f"plan {plan!r}: doc template marker {marker!r} has no bound value")
        self.plan = plan
        self.marker = marker


_SEVERITY = {
    "BUG_CLICHE": "Error",
    "CONSTRAINT_VIOLATION": "Error",
    "UNBOUND_VARIABLE": "Error",
    "MISSING_GOAL": "Warning",
}


@record
class Explanation:
    sections: tuple[tuple[str, str], ...]  # (heading, body)


def interpolate(template: str, slots: dict[str, str], roles: dict[str, str], plan_name: str) -> str:
    """Expand $slot and @role markers; an unresolved marker is an authoring bug."""

    def expand(m: re.Match) -> str:
        sigil, name = m.groups()
        table = slots if sigil == "$" else roles
        if name not in table:
            raise TemplateError(plan_name, sigil + name)
        return table[name]

    return MARKER_RE.sub(expand, template)


def compose_meaning(goal_matches: list[tuple[str, MatchResult]], base: PlanBase,
                    g: "FlowGraph") -> str:
    """Hierarchical program meaning: each goal's doc, sub-plan docs indented below."""
    lines: list[str] = []
    # depth-first with a stack: a recursive closure would hold g in a reference cycle
    stack = [(match, 0) for _goal, match in reversed(goal_matches)]
    while stack:
        match, depth = stack.pop()
        plan = base.get(match.plan)
        slots, roles = binding_values(plan, match, g)
        text = interpolate(plan.doc_template, slots, roles, plan.name)
        lines.append("  " * depth + f"{plan.name}: {text}")
        stack += [(match.sub_matches[pid], depth + 1) for pid in sorted(match.sub_matches, reverse=True)]
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Rendering a diagnostic report

def render(report: "DiagnosticReport", source: str, base: PlanBase) -> Explanation:
    """One section per finding, plus meaning and truncation sections when due."""
    source_lines = split_lines(source)
    sections: list[tuple[str, str]] = []

    for f in report.findings:
        heading = _heading(f)
        paragraphs: list[str] = []
        if f.doc_plan is not None and f.doc_env is not None:
            plan = base.get(f.doc_plan)
            slots, roles = f.doc_env
            paragraphs.append(interpolate(plan.doc_template, slots, roles, plan.name))
        paragraphs.append(f"Evidence: {f.evidence}.")
        excerpt = _excerpt(f.span, source_lines)
        if excerpt and f.kind.value != "MISSING_GOAL":
            paragraphs.append(excerpt)
        if f.goal:
            paragraphs.append(f"Intended cliche: {f.goal}.")
        sections.append((heading, "\n".join(paragraphs)))

    if report.meaning is not None:
        sections.append(("Program meaning", report.meaning))
    if report.budget_truncated:
        sections.append((
            "Analysis truncated",
            "The matching budget ran out before the search finished, so this "
            "report may be incomplete. Re-run with a larger budget.",
        ))
    return Explanation(tuple(sections))


def _heading(f) -> str:
    severity = _SEVERITY[f.kind.value]
    line = f.span.line_start
    if f.kind.value == "BUG_CLICHE":
        return f"{severity}: bug cliche '{f.bug_plan}' (line {line})"
    if f.kind.value == "CONSTRAINT_VIOLATION":
        return f"{severity}: constraint violated in '{f.goal}' (line {line})"
    if f.kind.value == "UNBOUND_VARIABLE":
        return f"{severity}: variable may be unassigned (line {line})"
    return f"{severity}: goal '{f.goal}' was not recognized"


# Blanks that a terminal would act on rather than print: a form feed or a
# vertical tab moves the cursor down, a lone carriage return back to column
# 0. Each is one column to the lexer, so each is quoted as one space.
_ONE_SPACE = str.maketrans("\f\v\r", "   ")


def _excerpt(span: SourceSpan, source_lines: list[str]) -> str:
    """Quote the spanned lines with a caret under the span's columns.

    The caret line's prefix is as wide as the quoted line's, and it is
    padded with the quoted line's own tabs, every other character becoming
    a space, so the caret stays under its columns at any tab width and on
    any line number. A form feed, vertical tab or carriage return is quoted
    as a space, so the quoted line stays one line on a terminal."""
    if span.line_start > len(source_lines):
        return ""
    out: list[str] = []
    for lineno in range(span.line_start, min(span.line_end, len(source_lines)) + 1):
        text = source_lines[lineno - 1]
        prefix = f"  {lineno:>4} | "
        out.append(prefix + text.translate(_ONE_SPACE))
        if lineno == span.line_start:
            end = span.col_end if span.line_end == span.line_start else len(text)
            width = max(1, end - span.col_start + 1)
            pad = "".join("\t" if c == "\t" else " " for c in text[:span.col_start - 1])
            out.append(" " * (len(prefix) - 3) + " | " + pad + "^" * width)
    return "\n".join(out)


# ---------------------------------------------------------------------------
# Output encodings

def render_text(e: Explanation, width: int = 80) -> str:
    """Plain text, wrapped at `width`; quoted code lines stay verbatim."""
    out: list[str] = []
    for heading, body in e.sections:
        out.append(heading)
        out.append("-" * min(width, len(heading)))
        for line in split_lines(body):
            if line.startswith(" ") or not line:
                out.append(line)
            elif len(line) <= width and "\t" not in line and not line[-1].isspace():
                out.append(line)  # what textwrap.wrap would return for it
            else:
                out.extend(textwrap.wrap(line, width=width) or [""])
        out.append("")
    if not e.sections:
        out.append("Nothing to report.")
        out.append("")
    return "\n".join(out)

