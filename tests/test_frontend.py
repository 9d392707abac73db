from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adil.frontend import (
    MAX_NESTING,
    Assign,
    Block,
    CSubsetConfig,
    CSyntaxError,
    For,
    LexError,
    Return,
    VarDecl,
    While,
    desugar,
    parse_c,
    pretty_print,
    tokenize,
)
from adil.source import SourceSpan

from generators import random_program


def test_tokenize_empty_input():
    assert tokenize("") == []


def test_tokenize_minimal_declaration():
    toks = tokenize("int x;")
    assert [(t.kind, t.text) for t in toks] == [("int", "int"), ("ident", "x"), (";", ";")]


def test_tokenize_array_expression():
    # hand count against the token grammar: x = a [ i ] + 1 ;
    toks = tokenize("x = a[i] + 1;")
    assert [t.kind for t in toks] == ["ident", "=", "ident", "[", "ident", "]", "+", "num", ";"]
    lit = toks[7]
    assert lit.text == "1"
    assert (lit.span.col_start, lit.span.col_end) == (12, 12)


def test_tokenize_skips_includes_and_comments():
    src = "#include <stdio.h>\n// nothing\nint x; /* gone\nstill gone */ int y;\n"
    assert [t.text for t in tokenize(src)] == ["int", "x", ";", "int", "y", ";"]


def test_tokenize_rejects_foreign_characters():
    with pytest.raises(LexError) as err:
        tokenize("int x @ 3;")
    assert err.value.span.col_start == 7


def test_parse_minimal_main():
    ast = parse_c("int main(){return 0;}")
    assert len(ast.functions) == 1
    func = ast.functions[0]
    assert func.name == "main"
    assert len(func.body.stmts) == 1
    assert isinstance(func.body.stmts[0], Return)


def test_parse_statement_shapes():
    ast = parse_c("int main(){int s;s=0;while(0){} return s;}")
    kinds = [type(s) for s in ast.functions[0].body.stmts]
    assert kinds == [VarDecl, Assign, While, Return]


def test_parse_rejects_pointers():
    with pytest.raises(CSyntaxError) as err:
        parse_c("int main(){int *p;}")
    assert err.value.found == "'*'"


def test_parse_rejects_undeclared_identifier():
    with pytest.raises(CSyntaxError):
        parse_c("int main(){x = 1;}")


def test_parse_for_requires_flag():
    src = "int main(){int i;for(i=0;i<3;i=i+1){}}"
    parse_c(src)
    with pytest.raises(CSyntaxError):
        parse_c(src, CSubsetConfig(allow_for=False))


def test_parse_scanf_printf_intents():
    ast = parse_c('int main(){int x;scanf("%d",&x);printf("%d\\n",x);return 0;}')
    stmts = ast.functions[0].body.stmts
    assert type(stmts[1]).__name__ == "Input"
    assert type(stmts[2]).__name__ == "Output"


def test_desugar_rewrites_for_to_while():
    ast = parse_c("int main(){int i;int s;s=0;for(i=0;i<9;i=i+1){s=s+i;}}")
    out = desugar(ast)
    stmts = out.functions[0].body.stmts
    assert not any(isinstance(s, For) for s in stmts)
    loop = [s for s in stmts if isinstance(s, While)]
    assert len(loop) == 1
    # the step lands at the end of the loop body
    assert isinstance(loop[0].body, Block)
    assert isinstance(loop[0].body.stmts[-1], Assign)


def test_desugar_without_for_is_identity():
    ast = parse_c("int main(){int s;s=0;while(s<3){s=s+1;}}")
    assert desugar(ast) == ast


def test_desugar_nested_for_inside_while():
    src = "int main(){int i;int s;s=0;while(s<5){for(i=0;i<3;i=i+1){s=s+1;}}}"
    out = desugar(parse_c(src))
    outer = [s for s in out.functions[0].body.stmts if isinstance(s, While)]
    assert len(outer) == 1
    inner = outer[0].body.stmts
    # for became init; while inside the outer loop's body
    assert isinstance(inner[0], Assign)
    assert isinstance(inner[1], While)


def _spans_nested(node, parent_span: SourceSpan | None = None):
    span = getattr(node, "span", None)
    if isinstance(span, SourceSpan) and parent_span is not None:
        assert parent_span.contains(span), f"{span} escapes {parent_span}"
    here = span if isinstance(span, SourceSpan) else parent_span
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            children = value if isinstance(value, tuple) else [value]
            for child in children:
                if dataclasses.is_dataclass(child):
                    _spans_nested(child, here)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_spans_nest_within_parents(seed):
    ast = parse_c(random_program(random.Random(seed)))
    for func in ast.functions:
        _spans_nested(func, None)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_pretty_print_fixed_point(seed):
    src = random_program(random.Random(seed))
    once = pretty_print(parse_c(src))
    assert pretty_print(parse_c(once)) == once


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_desugar_idempotent(seed):
    ast = parse_c(random_program(random.Random(seed)))
    once = desugar(ast)
    assert desugar(once) == once


def test_parse_is_deterministic():
    src = random_program(random.Random(7))
    assert parse_c(src) == parse_c(src)


def _nested_parens(levels: int) -> str:
    return "int main() { int x; x = " + "(" * levels + "1" + ")" * levels + "; return x; }\n"


def _nested_ifs(levels: int) -> str:
    return ("int main() { int x; x = 0;\n" + "if (x < 1) {\n" * levels + "x = 1;\n"
            + "}\n" * levels + "return x; }\n")


@pytest.mark.parametrize("shape, line, col", [
    (_nested_parens, 1, len("int main() { int x; x = ") + MAX_NESTING + 1),  # the 101st '('
    (_nested_ifs, MAX_NESTING + 2, len("if (x < 1) {")),  # the '{' of the 101st if
])
def test_nesting_limit_reports_the_offending_token(shape, line, col):
    parse_c(shape(MAX_NESTING))
    with pytest.raises(CSyntaxError) as err:
        parse_c(shape(MAX_NESTING + 1))
    assert err.value.span == SourceSpan("<source>", line, col, line, col)


def test_nesting_limit_counts_parentheses_and_blocks_together():
    half = MAX_NESTING // 2
    ifs, closes = "if (x < 1) { " * half, " }" * half
    parens = MAX_NESTING - half
    parse_c("int main() { int x; x = 0; " + ifs + "x = " + "(" * parens + "1" + ")" * parens
            + ";" + closes + " return x; }")
    with pytest.raises(CSyntaxError):
        parse_c("int main() { int x; x = 0; " + ifs + "x = " + "(" * (parens + 1) + "1"
                + ")" * (parens + 1) + ";" + closes + " return x; }")
