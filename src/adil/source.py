"""Source coordinates shared by every stage of the pipeline.

All positions are 1-based. A span always names the file it came from so
that findings can be pinpointed back to the text the student wrote.

A span is a validated tuple: `SourceSpan(...)` checks its coordinates, and
spans compare, hash and sort as their field tuples. The front end builds
thousands of spans per program, so the sites that can only produce valid
spans skip the check by building the tuple directly: the parser's token
spans, `frontend._Parser.span` and `span_to` (from a lexed token, which lies
on one line, to a token or node that does not come before it),
`span_hull` (the hull of valid spans) and `span_join` (the start of one
valid span and the end of another that starts and ends no earlier, which is
the pair's hull).
"""

from __future__ import annotations

from typing import NamedTuple


# typing.NamedTuple forbids overriding __new__, so the fields live in a base
# class and SourceSpan adds the checks.
class _SpanFields(NamedTuple):
    file: str
    line_start: int
    col_start: int
    line_end: int
    col_end: int


class SourceSpan(_SpanFields):
    __slots__ = ()

    def __new__(cls, file: str, line_start: int, col_start: int, line_end: int,
                col_end: int) -> "SourceSpan":
        if line_start < 1 or col_start < 1 or line_end < 1 or col_end < 1:
            raise ValueError(f"span coordinates must be positive: {file}:{line_start}:{col_start}")
        if line_start > line_end or (line_start == line_end and col_start > col_end):
            raise ValueError(f"span ends before it starts: {file}:{line_start}:{col_start}")
        return tuple.__new__(cls, (file, line_start, col_start, line_end, col_end))

    def __str__(self) -> str:
        return f"{self.file}:{self.line_start}:{self.col_start}"


def span_hull(spans: list[SourceSpan]) -> SourceSpan:
    """Smallest span covering every span in the list (all from one file).

    The first span that starts earliest and the first that ends latest give
    the hull's ends, as `min` and `max` would pick them.
    """
    if not spans:
        raise ValueError("cannot take hull of no spans")
    first = last = spans[0]
    for s in spans:
        if s.line_start < first.line_start or (
                s.line_start == first.line_start and s.col_start < first.col_start):
            first = s
        if s.line_end > last.line_end or (s.line_end == last.line_end and s.col_end > last.col_end):
            last = s
    # Valid without re-checking: first starts no later than last, which ends
    # no earlier than it starts, and every coordinate comes from a valid span.
    return tuple.__new__(SourceSpan, (first.file, first.line_start, first.col_start,
                                      last.line_end, last.col_end))


def span_join(first: SourceSpan, last: SourceSpan) -> SourceSpan:
    """The span from first's start to last's end: `span_hull([first, last])`
    where last starts and ends no earlier than first, as when both come from
    source read left to right. It builds one tuple and compares nothing."""
    return tuple.__new__(SourceSpan, (first.file, first.line_start, first.col_start,
                                      last.line_end, last.col_end))
