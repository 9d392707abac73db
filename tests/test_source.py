from __future__ import annotations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from adil.frontend import While, desugar, parse_c
from adil.source import SourceSpan, span_hull, span_join


def _hull_by_min_max(spans: list[SourceSpan]) -> SourceSpan:
    """span_hull as first written, with min/max and keys; the reference for ties."""
    first = min(spans, key=lambda s: (s.line_start, s.col_start))
    last = max(spans, key=lambda s: (s.line_end, s.col_end))
    return SourceSpan(first.file, first.line_start, first.col_start, last.line_end, last.col_end)


@st.composite
def _spans(draw) -> SourceSpan:
    # few files and coordinates, so that starts and ends often tie
    line_start, line_end = sorted(draw(st.lists(st.integers(1, 3), min_size=2, max_size=2)))
    col_start, col_end = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    if line_start == line_end and col_start > col_end:
        col_start, col_end = col_end, col_start
    return SourceSpan(draw(st.sampled_from(["a.c", "b.c", "c.c"])), line_start, col_start,
                      line_end, col_end)


@settings(max_examples=400, deadline=None)
@given(st.lists(_spans(), min_size=1, max_size=6))
def test_property_span_hull_matches_min_max_definition(spans):
    hull = span_hull(spans)
    assert hull == _hull_by_min_max(spans)  # the file too: it comes from the first earliest start
    assert SourceSpan(*hull) == hull


@pytest.mark.parametrize("coords, message", [
    ((0, 1, 1, 1), "span coordinates must be positive: f.c:0:1"),
    ((1, 0, 1, 1), "span coordinates must be positive: f.c:1:0"),
    ((1, 1, 0, 1), "span coordinates must be positive: f.c:1:1"),
    ((1, 1, 1, 0), "span coordinates must be positive: f.c:1:1"),
    ((2, 1, 1, 5), "span ends before it starts: f.c:2:1"),
    ((1, 5, 1, 4), "span ends before it starts: f.c:1:5"),
])
def test_invalid_span_is_a_value_error(coords, message):
    with pytest.raises(ValueError) as err:
        SourceSpan("f.c", *coords)
    assert str(err.value) == message


def test_span_hull_of_nothing_is_a_value_error():
    with pytest.raises(ValueError, match="cannot take hull of no spans"):
        span_hull([])


def test_span_value_semantics():
    a = SourceSpan("f.c", 1, 2, 3, 4)
    assert repr(a) == "SourceSpan(file='f.c', line_start=1, col_start=2, line_end=3, col_end=4)"
    assert str(a) == "f.c:1:2"
    assert a == SourceSpan("f.c", 1, 2, 3, 4) and a != SourceSpan("f.c", 1, 2, 3, 5)
    assert hash(a) == hash(("f.c", 1, 2, 3, 4))
    spans = [SourceSpan("g.c", 1, 1, 1, 1), SourceSpan("f.c", 2, 1, 2, 1), SourceSpan("f.c", 1, 3, 1, 4),
             SourceSpan("f.c", 1, 3, 1, 3)]
    assert sorted(spans) == [spans[3], spans[2], spans[1], spans[0]]
    assert SourceSpan("f.c", 1, 3, 1, 3) < SourceSpan("f.c", 1, 3, 1, 4)
    assert len({a, SourceSpan("f.c", 1, 2, 3, 4)}) == 1


@st.composite
def _ordered_pairs(draw) -> tuple[SourceSpan, SourceSpan]:
    """Two spans where the second starts and ends no earlier than the first."""
    a, b = draw(_spans()), draw(_spans())
    if (b.line_start, b.col_start) < (a.line_start, a.col_start):
        a, b = b, a
    assume((a.line_end, a.col_end) <= (b.line_end, b.col_end))
    return a, b


@settings(max_examples=400, deadline=None)
@given(_ordered_pairs())
def test_property_span_join_is_the_hull_of_an_ordered_pair(pair):
    a, b = pair
    joined = span_join(a, b)
    assert joined == span_hull([a, b])
    assert SourceSpan(*joined) == joined


def test_desugared_loop_body_takes_the_hull_of_a_step_written_before_it():
    # the step `i = i + 1` comes before the body in the text, so the loop
    # body that desugar appends it to starts at the step, not at the body
    source = "int main() {\n  int i;\n  for (i = 0; i < 3; i = i + 1) {\n    i = i;\n  }\n  return i;\n}\n"
    ast = desugar(parse_c(source, filename="f.c"))
    loop = ast.functions[0].body.stmts[2]
    assert isinstance(loop, While)
    step = loop.body.stmts[-1]
    assert step.span == SourceSpan("f.c", 3, 22, 3, 30)
    assert loop.body.span == SourceSpan("f.c", 3, 22, 5, 3)
