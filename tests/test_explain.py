from __future__ import annotations

import re
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adil.debugger import analyze, parse_spec
from adil.explain import (
    TemplateError,
    Explanation,
    compose_meaning,
    interpolate,
    render,
    render_text,
)
from adil.flowgraph import graph_of
from adil.matcher import SearchBudget

from conftest import SUM_SOURCE

MARKER = re.compile(r"[$@][A-Za-z_]")


def _report(source: str, base, goal: str = "running-total", budget: SearchBudget | None = None):
    spec = parse_spec(f'spec "exercise"\ngoal "{goal}" required\nend\n')
    return analyze(source, "prog.c", spec, base, budget)


def test_interpolate_slots_and_roles():
    text = interpolate("start $init, into @acc", {"init": "0"}, {"acc": "s"}, "p")
    assert text == "start 0, into s"


def test_interpolate_unresolved_marker_raises():
    with pytest.raises(TemplateError) as err:
        interpolate("uses $ghost", {}, {}, "broken-plan")
    assert err.value.plan == "broken-plan"
    assert err.value.marker == "$ghost"


def test_render_correct_program_has_one_meaning_section(base):
    report = _report(SUM_SOURCE, base)
    explanation = render(report, SUM_SOURCE, base)
    assert len(explanation.sections) == 1
    heading, body = explanation.sections[0]
    assert heading == "Program meaning"
    assert "into s" in body  # @acc interpolated to the accumulator's name
    assert "counted-loop" in body


def test_render_off_by_one_quotes_the_test_with_caret(base):
    source = SUM_SOURCE.replace("i < n", "i <= n")
    report = _report(source, base)
    explanation = render(report, source, base)
    assert len(explanation.sections) == 1
    heading, body = explanation.sections[0]
    assert "off-by-one-bound" in heading
    quoted = [l for l in body.splitlines() if "while (i <= n)" in l]
    assert quoted
    caret_lines = [l for l in body.splitlines() if set(l.strip()) == {"^"} or ("^" in l and "|" in l)]
    assert caret_lines
    # the caret sits under the loop test's columns
    caret = caret_lines[0]
    code = quoted[0]
    assert caret.index("^") > code.index("while")
    assert "running-total" in body  # names the intended cliche


@pytest.mark.parametrize("indent, lead", [("\t", 0), ("    ", 10_000)], ids=["tab-indented", "line-10007"])
def test_the_caret_stays_under_the_loop_test(indent, lead, base, corpus_dir):
    # a quoted line keeps its tabs, so the caret line must pad with them; lead
    # blank lines give the loop test a five-digit line number, which widens
    # the quoted line's prefix
    source = (corpus_dir / "bugs/sum__off_by_one.c").read_text()
    source = "\n" * lead + re.sub(r"(?m)^(    )+", lambda m: indent * (len(m.group()) // 4), source)
    assert f"\n{indent}while (i <= n) {{" in source
    (_, body), = render(_report(source, base), source, base).sections
    lines = body.splitlines()
    (at,) = [n for n, line in enumerate(lines) if "while (i <= n)" in line]
    code, caret = lines[at].expandtabs(), lines[at + 1].expandtabs()
    assert caret.index("^") == code.index("i <= n")


def test_render_truncation_warning(base):
    report = _report(SUM_SOURCE, base)
    report.budget_truncated = True
    explanation = render(report, SUM_SOURCE, base)
    assert explanation.sections[-1][0] == "Analysis truncated"


def test_section_count_matches_findings(base, corpus_dir, bug_manifest):
    for entry in bug_manifest:
        source = (corpus_dir / entry["bug"]).read_text()
        spec = parse_spec((corpus_dir / entry["spec"]).read_text())
        report = analyze(source, entry["bug"], spec, base)
        explanation = render(report, source, base)
        expected = len(report.findings)
        if report.meaning is not None:
            expected += 1
        if report.budget_truncated:
            expected += 1
        assert len(explanation.sections) == expected


def test_no_unresolved_markers_across_corpus(base, corpus_dir, bug_manifest):
    cases = [(p.read_text(), p.with_suffix(".spec").read_text())
             for p in sorted((corpus_dir / "correct").glob("*.c"))]
    cases += [((corpus_dir / e["bug"]).read_text(), (corpus_dir / e["spec"]).read_text())
              for e in bug_manifest]
    for source, spec_text in cases:
        spec = parse_spec(spec_text)
        report = analyze(source, "prog.c", spec, base)
        text = render_text(render(report, source, base))
        assert not MARKER.search(text), text


def test_excerpts_are_faithful_to_source(base):
    source = SUM_SOURCE.replace("s = 0;", "s = 1;")
    report = _report(source, base)
    explanation = render(report, source, base)
    lines = source.splitlines()
    quoted = [m for _, body in explanation.sections for line in body.splitlines()
              if (m := re.match(r"\s*(\d+) \| (.*)$", line))]
    assert quoted
    for m in quoted:
        assert lines[int(m.group(1)) - 1] == m.group(2)


def test_render_text_deterministic_and_wrapped(base):
    source = SUM_SOURCE.replace("i < n", "i <= n")
    report = _report(source, base)
    explanation = render(report, source, base)
    text = render_text(explanation)
    assert text == render_text(render(_report(source, base), source, base))
    for line in text.splitlines():
        if not line.startswith(" "):
            assert len(line) <= 80


def test_render_near_miss_with_unbound_roles(base):
    # a bare counting loop almost matches running-total (no array read), and
    # its initializer fails the constraint; the template's @src has no
    # binding and must render as a gap, not crash
    source = "int f(int n) {\n    int i;\n    i = 5;\n    while (i < n) {\n" \
             "        i = i + 1;\n    }\n    return i;\n}\n"
    report = _report(source, base)
    assert report.verdicts == {"running-total": "BUGGY"}
    explanation = render(report, source, base)
    body = explanation.sections[0][1]
    assert "(unmatched)" in body
    assert not MARKER.search(render_text(explanation))


def test_render_empty_explanation():
    text = render_text(Explanation(sections=()))
    assert "Nothing to report." in text


def test_compose_meaning_indents_sub_plans(base):
    report = _report(SUM_SOURCE, base)
    meaning = compose_meaning(
        [("running-total", report.recognized["running-total"])], base,
        graph_of(SUM_SOURCE, "prog.c"))
    lines = meaning.splitlines()
    assert lines[0].startswith("running-total:")
    assert lines[1].startswith("  counted-loop:")


def _render_text_wrapping_every_line(e: Explanation, width: int = 80) -> str:
    """render_text as it was, with textwrap.wrap on every prose line."""
    out: list[str] = []
    for heading, body in e.sections:
        out.append(heading)
        out.append("-" * min(width, len(heading)))
        for line in body.splitlines():
            if line.startswith(" ") or not line:
                out.append(line)
            else:
                out.extend(textwrap.wrap(line, width=width) or [""])
        out.append("")
    if not e.sections:
        out.append("Nothing to report.")
        out.append("")
    return "\n".join(out)


# spaces in runs, tabs, hyphens and the whitespace textwrap does not split
# on but str.strip drops (no-break and ideographic spaces)
_prose = st.lists(st.sampled_from(["a", "bc", "word", "-", "--", " ", "  ", "\t", "\n", "\xa0",
                                   "\u3000", "é", "x" * 12, "."]), max_size=30).map("".join)


@settings(max_examples=400, deadline=None)
@given(sections=st.lists(st.tuples(_prose, _prose), max_size=3), width=st.integers(1, 30))
def test_property_render_text_matches_wrapping_every_line(sections, width):
    e = Explanation(tuple(sections))
    assert render_text(e, width) == _render_text_wrapping_every_line(e, width)


def test_render_text_matches_wrapping_every_line_on_the_corpus(base, corpus_cases):
    for program, spec_path in corpus_cases:
        source = program.read_text()
        e = render(analyze(source, program.name, parse_spec(spec_path.read_text()), base), source, base)
        for width in (20, 40, 80):
            assert render_text(e, width) == _render_text_wrapping_every_line(e, width), program.name


def test_excerpts_number_lines_as_the_lexer_does(base, corpus_dir):
    # a comment line holding a Unicode line separator is one line to C, and a
    # vertical tab, form feed or lone carriage return in place of a space is
    # white space; str.splitlines() breaks a line at each, so the excerpt
    # would quote the wrong line, and render_text would split the quoted one.
    # The excerpt quotes each as a space, which a terminal prints in place.
    source = (corpus_dir / "bugs/sum__off_by_one.c").read_text()
    source = source.replace("\n", "\n// one line\u2028still the same line\n", 1)
    for space in (" ", "\v", "\f", "\r"):
        text = source.replace("while (", f"while{space}(")
        e = render(_report(text, base), text, base)
        (heading, body), = e.sections
        assert heading.endswith("(line 8)")
        for lines in (body.split("\n"), render_text(e).split("\n")):
            (at,) = [n for n, line in enumerate(lines) if "while (i <= n)" in line]
            assert lines[at] == "     8 |     while (i <= n) {", repr(space)
            assert lines[at + 1].index("^") == lines[at].index("i <= n")
