from __future__ import annotations

import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adil.frontend import (
    KEYWORDS,
    MAX_NESTING,
    PUNCT,
    Assign,
    Block,
    CSubsetConfig,
    CSyntaxError,
    For,
    LexError,
    Return,
    Token,
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


def _unary_chain(op: str, levels: int) -> str:
    return "int main() { int x; x = 0; x = " + f"{op} " * levels + "x; return x; }\n"


@pytest.mark.parametrize("op", ["-", "!"])
def test_nesting_limit_counts_unary_operators(op):
    parse_c(_unary_chain(op, MAX_NESTING))
    with pytest.raises(CSyntaxError) as err:
        parse_c(_unary_chain(op, 3000))
    col = len("int main() { int x; x = 0; x = ") + 2 * MAX_NESTING + 1  # the 101st operator
    assert err.value.span == SourceSpan("<source>", 1, col, 1, col)
    assert err.value.found == repr(op)


@pytest.mark.parametrize("literal, expected", [
    ("\u00b2", "a decimal integer literal"),  # str.isdigit, but not a decimal digit
    ("1" * 5000, "at most"),  # past int()'s digit limit
], ids=["superscript", "5000-digits"])
def test_unreadable_number_is_a_syntax_error_at_the_literal(literal, expected):
    for source in (f"int main() {{ int x; x = {literal}; return x; }}",
                   f"int main() {{ int a[{literal}]; return x; }}"):
        start = source.index(literal) + 1
        assert [t.text for t in tokenize(source) if t.kind == "num"] == [literal]  # lexes fine
        with pytest.raises(CSyntaxError) as err:
            parse_c(source)
        assert err.value.span == SourceSpan("<source>", 1, start, 1, start + len(literal) - 1)
        assert expected in err.value.expected


# The character-at-a-time lexer that the one-regex tokenizer replaced, kept as
# the reference for its behaviour.
def _reference_tokenize(source: str, filename: str = "<source>") -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(source)

    def span(l0: int, c0: int, l1: int, c1: int) -> SourceSpan:
        return SourceSpan(filename, l0, c0, l1, c1)

    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
            continue
        if source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise LexError(span(line, col, line, col), "unterminated comment")
            for j in range(i, end + 2):
                if source[j] == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = end + 2
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise LexError(span(line, col, line, col), "unterminated string literal")
                j += 1
            if j >= n:
                raise LexError(span(line, col, line, col), "unterminated string literal")
            text = source[i + 1 : j]
            width = j - i + 1
            tokens.append(Token("string", text, span(line, col, line, col + width - 1)))
            col += width
            i = j + 1
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            text = source[i:j]
            tokens.append(Token("num", text, span(line, col, line, col + len(text) - 1)))
            col += len(text)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            text = source[i:j]
            kind = text if text in KEYWORDS else "ident"
            tokens.append(Token(kind, text, span(line, col, line, col + len(text) - 1)))
            col += len(text)
            i = j
            continue
        for p in PUNCT:
            if source.startswith(p, i):
                tokens.append(Token(p, p, span(line, col, line, col + len(p) - 1)))
                col += len(p)
                i += len(p)
                break
        else:
            raise LexError(span(line, col, line, col), f"unexpected character {ch!r}")
    return tokens


def _lex_outcome(lex, source: str):
    try:
        return lex(source, "soup.c")
    except LexError as err:
        return ("LexError", err.message, err.span)


_SOUP_PIECES = PUNCT + [
    "|", "$", "'", "\\", "x", "abc", "_t9", "int", "while", "return", "0", "42", "007",
    " ", "  ", "\t", "\r", "\n", "\r\n", "//", "// note\n", "/*", "*/", "/* a */", "/* a\n b */",
    "/*/", "#include <stdio.h>\n", '"', '"%d"', '"a b"', '"x\n',
    "\u00e9", "\u00b2", "\u00bd", "\u0663", "a\u00b2", "\u00e9t\u00e9", "\x00", "\x0b",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_SOUP_PIECES), max_size=40))
def test_property_tokenize_matches_reference_lexer(pieces):
    source = "".join(pieces)
    assert _lex_outcome(tokenize, source) == _lex_outcome(_reference_tokenize, source)


def test_tokenize_follows_str_digit_and_letter_classes():
    # "\u00e9" is a letter, "\u00b2" a digit that is not decimal, "\u00bd" numeric only
    assert [(t.kind, t.text) for t in tokenize("\u00e9 \u00b2 1\u00b2 a\u00b2\u00bd")] == [
        ("ident", "\u00e9"), ("num", "\u00b2"), ("num", "1\u00b2"), ("ident", "a\u00b2\u00bd")]
    with pytest.raises(LexError) as err:
        tokenize("x\n \u00bd")
    assert err.value.span == SourceSpan("<source>", 2, 2, 2, 2)
