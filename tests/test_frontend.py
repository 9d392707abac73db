from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adil.flowgraph import build_flow_graph
from adil.frontend import (
    KEYWORDS,
    MAX_NESTING,
    Assign,
    Block,
    CSyntaxError,
    Expr,
    For,
    LexError,
    Return,
    Stmt,
    Token,
    VarDecl,
    While,
    _PRECEDENCE,
    _Parser,
    desugar,
    parse_c,
    pretty_print,
    tokenize,
)
from adil import frontend
from adil.source import SourceSpan, span_hull

from generators import random_program

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


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


@pytest.mark.parametrize("source, col", [
    ("int f(int a, int a) { return a; }", 18),
    ("int f(int a) { int a; a = 1; return a; }", 20),
], ids=["parameter-twice", "body-redeclares-parameter"])
def test_a_parameter_is_not_redeclared(source, col):
    # the columns gcc 12 reports; an inner block may still shadow a parameter
    with pytest.raises(CSyntaxError) as err:
        parse_c(source)
    assert (err.value.span.line_start, err.value.span.col_start, err.value.found) == \
        (1, col, "redeclaration of 'a'")
    parse_c("int f(int a) { { int a; a = 1; } return a; }")


def test_an_initializer_sees_the_name_it_declares():
    # as in C: the inner `a` is in scope in its own initializer, which reads it unassigned
    with pytest.raises(CSyntaxError) as err:
        parse_c("int main() { int a[3]; { int a = a[0]; } return 0; }")
    assert (err.value.span.col_start, err.value.expected) == (34, "an array variable")
    block = parse_c("int main() { int a[3]; { int a = a; } return 0; }").functions[0].body.stmts[1]
    assert block.stmts[0].slot == block.stmts[0].init.slot == 1


@pytest.mark.parametrize("body, col", [
    ("if (c) int y = 1;", 35), ("while (c < 3) int y = 1;", 42),
    ("if (c) c = 1; else int y = 1;", 47), ("for (c = 0; c < 3; c = c + 1) int y = 1;", 58),
], ids=["if", "while", "else", "for"])
def test_a_declaration_is_not_a_branch_body(body, col):
    # the columns gcc 12 reports: "expected expression before 'int'"
    with pytest.raises(CSyntaxError) as err:
        parse_c(f"int main() {{ int c; c = 0; {body} return c; }}")
    assert (err.value.span.line_start, err.value.span.col_start, err.value.found) == (1, col, "'int'")
    braced = body.replace("int y = 1;", "{ int y = 1; }")
    parse_c(f"int main() {{ int c; c = 0; {braced} return c; }}")


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


def _statements(node) -> list:
    """Every statement under node (an Ast or a statement), in pre-order."""
    out = [node] if isinstance(node, Stmt) else []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for child in value if isinstance(value, tuple) else [value]:
            if isinstance(child, (Stmt, frontend.FunctionDecl)):
                out += _statements(child)
    return out


def test_desugar_shares_a_for_free_tree(corpus_cases):
    sources = [program.read_text() for program, _ in corpus_cases]
    sources.append("int f(int v) { if (v) { v = v - 1; } else v = 0; return v; }\n"
                   "int main() { int s; s = f(2); while (s < 5) { { s = s + 1; } } return s; }\n")
    checked = 0
    for source in sources:
        ast = parse_c(source)
        if any(isinstance(s, For) for s in _statements(ast)):
            continue
        out = desugar(ast)
        before, after = _statements(ast), _statements(out)
        assert len(before) == len(after) and all(a is b for a, b in zip(before, after))
        assert out is ast
        checked += 1
    assert checked >= 5


def test_desugar_rebuilds_only_the_path_to_a_for():
    ast = parse_c("int f(int v) { while (v) { v = v - 1; } return v; }\n"
                  "int main() { int i; int s; s = 0; if (s) { s = 1; } else s = 2;\n"
                  "while (s < 9) { s = s + 1; for (i = 0; i < 3; i = i + 1) s = s + i; } return s; }\n")
    out = desugar(ast)
    assert out.functions[0] is ast.functions[0]
    before, after = ast.functions[1].body.stmts, out.functions[1].body.stmts
    assert [a is b for a, b in zip(before, after)] == [True, True, True, True, False, True]
    loop_before, loop_after = before[4].body.stmts, after[4].body.stmts
    assert loop_after[0] is loop_before[0] and isinstance(loop_after[2], While)


def test_desugar_nested_for_inside_while():
    src = "int main(){int i;int s;s=0;while(s<5){for(i=0;i<3;i=i+1){s=s+1;}}}"
    out = desugar(parse_c(src))
    outer = [s for s in out.functions[0].body.stmts if isinstance(s, While)]
    assert len(outer) == 1
    inner = outer[0].body.stmts
    # for became init; while inside the outer loop's body
    assert isinstance(inner[0], Assign)
    assert isinstance(inner[1], While)


def _contains(outer: SourceSpan, inner: SourceSpan) -> bool:
    return ((outer.line_start, outer.col_start) <= (inner.line_start, inner.col_start)
            and (inner.line_end, inner.col_end) <= (outer.line_end, outer.col_end))


def _spans_nested(node, parent_span: SourceSpan | None = None):
    span = getattr(node, "span", None)
    if isinstance(span, SourceSpan):
        assert SourceSpan(*span) == span  # span_hull builds spans without the check
        if parent_span is not None:
            assert _contains(parent_span, span), f"{span} escapes {parent_span}"
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


def _slot_walk(func) -> list[tuple[str, int]]:
    """Walk func's body in pre-order and check its slots: the parameters are
    0..n-1, each VarDecl takes the next one, and each reference's slot is a
    declaration of its name. Returns the references as (name, slot)."""
    names = [p.name for p in func.params]  # by slot
    refs = []

    def walk(node) -> None:
        if isinstance(node, VarDecl):
            assert node.slot == len(names), (func.name, node)
            names.append(node.name)
        elif isinstance(node, (frontend.VarRef, frontend.ArrayRef)):
            assert names[node.slot] == node.name, (func.name, node)
            refs.append((node.name, node.slot))
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            for child in value if isinstance(value, tuple) else [value]:
                if dataclasses.is_dataclass(child):
                    walk(child)

    walk(func.body)
    return refs


def test_slots_number_parameters_then_declarations_in_order(corpus_cases):
    # the flow graph builder relies on this numbering, before and after desugaring
    sources = [program.read_text() for program, _ in corpus_cases]
    for workload in workloads.WORKLOADS:
        sources += [item.source for item in workloads.make_items(workload, 5, ROOT)]
    for source in sources:
        ast = parse_c(source)
        for func, sugared in zip(desugar(ast).functions, ast.functions):
            assert _slot_walk(func) == _slot_walk(sugared)


def test_a_reference_carries_the_slot_of_the_declaration_in_scope():
    ast = parse_c("int f(int a) { int b; b = a; { int a; a = b; b = a; } "
                  "while (b) { int c; c = a; b = c; } return a + b; }")
    assert _slot_walk(ast.functions[0]) == [
        ("b", 1), ("a", 0), ("a", 2), ("b", 1), ("b", 1), ("a", 2),
        ("b", 1), ("c", 3), ("a", 0), ("b", 1), ("c", 3), ("a", 0), ("b", 1)]


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


_CALLEES = ("int f(int a) { return a; }\nint g(int a[], int n) { return a[n]; }\n"
            "int h() { return 1; }\n")


def _caller(call: str) -> str:
    """A main on line 4 whose one statement assigns call; b is an array, x a scalar."""
    return _CALLEES + f"int main() {{ int b[2]; int x; x = 0; x = {call}; return x; }}\n"


CALL_COL = len("int main() { int b[2]; int x; x = 0; x = ") + 1


@pytest.mark.parametrize("call, offset, expected, found", [
    ("f(1, 2)", 3, "')' after 1 argument to 'f'", "','"),
    ("f()", 2, "an argument for parameter 'a' of 'f'", "')'"),
    ("f(1, )", 3, "')' after 1 argument to 'f'", "','"),
    ("h(1)", 2, "')' after 0 arguments to 'h'", "'1'"),
    ("g(b)", 3, "',' and an argument for parameter 'n' of 'g'", "')'"),
    ("g(b, 1, 2)", 6, "')' after 2 arguments to 'g'", "','"),
    ("g(b, )", 5, "an argument for parameter 'n' of 'g'", "')'"),
    ("g(3, 1)", 2, "a bare array name for array parameter 'a' of 'g'", "'3'"),
    ("g(x, 1)", 2, "a bare array name for array parameter 'a' of 'g'", "'x'"),
    ("g(b[0], 1)", 2, "a bare array name for array parameter 'a' of 'g'", "'b'"),
    ("g(b + 1, 1)", 2, "a bare array name for array parameter 'a' of 'g'", "'b'"),
    ("f(b)", 2, "an indexed array access", "'b'"),
    ("f(g(b, 1) + b)", 12, "an indexed array access", "'b'"),
])
def test_a_call_must_fit_its_callees_parameters(call, offset, expected, found):
    with pytest.raises(CSyntaxError) as err:
        parse_c(_caller(call))
    col = CALL_COL + offset
    assert (err.value.expected, err.value.found) == (expected, found)
    assert err.value.span == SourceSpan("<source>", 4, col, 4, col + len(found) - 3)


def test_an_array_argument_is_a_bare_array_name():
    ast = parse_c(_caller("g(b, f(x)) + h()"))
    main = ast.functions[-1]
    call = main.body.stmts[-2].value.lhs
    col = CALL_COL + 2
    assert call.args[0] == frontend.VarRef("b", 0, SourceSpan("<source>", 4, col, 4, col))
    assert pretty_print(parse_c(pretty_print(ast))) == pretty_print(ast)
    # the graph passes the array itself: the CALL's in-port 0 is fed by b's node
    g = build_flow_graph(desugar(ast))
    (nid,) = [nid for nid, n in g.nodes.items() if n.role == "g"]
    src = g.producer_of[(nid, 0)]
    assert g.nodes[src].var_name == "b" and g.nodes[src].role == "array[2]"


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


def _binary_chain(op: str, levels: int) -> str:
    """x op 1 op 1 ...: a left-deep chain of `levels` operators."""
    return "int main() { int x; x = 0; x = x" + f" {op} 1" * levels + "; return x; }\n"


@pytest.mark.parametrize("op", ["+", "-", "*", "/", "%", "&&", "||"])
def test_nesting_limit_counts_chained_binary_operators(op):
    parse_c(_binary_chain(op, 99))  # 100 terms
    parse_c(_binary_chain(op, MAX_NESTING))
    with pytest.raises(CSyntaxError) as err:
        parse_c(_binary_chain(op, 2999))  # 3000 terms
    # the 101st operator
    col = len("int main() { int x; x = 0; x = x") + (len(op) + 3) * MAX_NESTING + 2
    assert err.value.span == SourceSpan("<source>", 1, col, 1, col + len(op) - 1)
    assert err.value.found == repr(op)


def test_chained_operators_and_parentheses_count_together():
    half = MAX_NESTING // 2
    chain = lambda parens, ops: ("int main() { int x; x = 0; x = " + "(" * parens + "x"
                                 + " + 1" * ops + ")" * parens + "; return x; }")
    parse_c(chain(half, MAX_NESTING - half))
    with pytest.raises(CSyntaxError):
        parse_c(chain(half, MAX_NESTING - half + 1))


def _carried_chain(levels: int) -> str:
    """(x + 1 + ...) + 1 + ...: a chain whose left operand is a parenthesised chain,
    a left-deep tree of height `levels` that never nests more than one parenthesis."""
    inner = levels // 2
    return ("int main() { int x; x = 0; x = (x" + " + 1" * inner + ")"
            + " + 1" * (levels - inner) + "; return x; }\n")


def _expression_heights(source: str) -> list[int]:
    body = parse_c(source).functions[-1].body.stmts
    return [s.value.height for s in body if isinstance(s, Assign)]


def test_nesting_limit_bounds_a_parenthesised_left_operand():
    assert _expression_heights(_carried_chain(MAX_NESTING)) == [0, MAX_NESTING]
    with pytest.raises(CSyntaxError) as err:
        parse_c(_carried_chain(MAX_NESTING + 1))
    assert err.value.span.col_start == _carried_chain(MAX_NESTING + 1).rindex("+") + 1
    # Fifty groups of fifty: never more than 100 levels open at once, but a
    # left spine 2500 operators deep once every group has closed.
    groups = "int main() { int x; x = 0; x = " + "(" * 50 + "x" + (" + 1" * 50 + ")") * 50 + "; return x; }"
    with pytest.raises(CSyntaxError, match="at most 100 levels"):
        parse_c(groups)


_WRAPS = ("({})", "{} + 1", "{} * x", "x - ({})", "{} || x", "x && {}", "({}) < 1", "{} == x", "-{}", "!{}",
          "a[{}]", "f({})")


def _tree_height(expr) -> int:
    """Operator, index and call levels in expr, by an explicit-stack walk."""
    best, stack = 0, [(expr, 0)]
    while stack:
        node, above = stack.pop()
        kids = [getattr(node, name) for name in ("lhs", "rhs", "operand", "index") if hasattr(node, name)]
        kids += getattr(node, "args", ())
        if kids or hasattr(node, "args"):
            best = max(best, above + 1)
            stack.extend((kid, above + 1) for kid in kids)
    return best


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_property_accepted_trees_stay_within_the_limit(seed):
    """Whatever the parser accepts, nesting plus tree height ends at most one
    level past MAX_NESTING (where a comparison may end), and the flow-graph
    builder lowers it; everything else is a CSyntaxError."""
    rng = random.Random(seed)
    expr = "x"
    for _ in range(rng.randrange(150)):
        expr = rng.choice(_WRAPS).format(expr)
    ifs = rng.randrange(30)
    src = ("int f(int v) { return v; }\nint main() { int x; int a[3]; x = 0;\n"
           + "if (x) {\n" * ifs + f"x = {expr};\n" + "}\n" * ifs + "return x; }\n")
    try:
        ast = parse_c(src)
    except CSyntaxError:
        return
    stmt = ast.functions[-1].body.stmts[3]
    for _ in range(ifs):
        stmt = stmt.then.stmts[0]
    value = stmt.value
    assert value.height == _tree_height(value)
    assert ifs + value.height <= MAX_NESTING + 1
    build_flow_graph(desugar(ast))


def test_comparisons_count_toward_the_height_of_their_tree():
    def indexed(levels: int) -> str:  # a[a[... a[x] < 1 ...] < 1] < 1: height 2 * levels
        expr = "x"
        for _ in range(levels):
            expr = f"a[{expr}] < 1"
        return f"int main() {{ int x; int a[3]; x = 0; x = {expr}; return x; }}"
    assert _expression_heights(indexed(MAX_NESTING // 2)) == [0, MAX_NESTING]
    with pytest.raises(CSyntaxError) as err:
        parse_c(indexed(MAX_NESTING // 2 + 1))  # a comparison may end at 101, not 102
    assert err.value.span.col_start == indexed(MAX_NESTING // 2 + 1).rindex("<") + 1


def test_expression_height_counts_operator_index_and_call_nodes():
    src = ("int f(int a) { return a; }\n"
           "int main() { int x; int a[3]; x = 1; x = -x; x = a[x + 1]; x = f(x) * ((x));"
           " x = !(x < 1) || x; return x; }")
    assert _expression_heights(src) == [0, 1, 2, 2, 3]


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


# The punctuators of the subset, longest first, as the reference lexer tries
# them; the tokenizer spells the same set as its regex's `punct` case.
PUNCT = [
    "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "!", "=", "&",
    ",", ";", "(", ")", "{", "}", "[", "]",
]


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
        if ch in " \t\r\f\v":  # C99 6.4's white space, less the newline
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
    # around the skipped prefix of blanks and a line comment, and the rescan
    # after a token that runs past its match
    "#", "// x", "//", "/", "/ /", "\x0c", "   ", "1\u00b2x", "a\u00e9b",
]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_SOUP_PIECES), max_size=40))
def test_property_tokenize_matches_reference_lexer(pieces):
    source = "".join(pieces)
    assert _lex_outcome(tokenize, source) == _lex_outcome(_reference_tokenize, source)


def test_tokenize_matches_reference_lexer_on_the_corpus_and_the_workloads(corpus_cases):
    sources = [program.read_text() for program, _ in corpus_cases]
    for workload in workloads.WORKLOADS:
        sources += [item.source for item in workloads.make_items(workload, 5, ROOT)]
    for source in sources:
        assert tokenize(source, "w.c") == _reference_tokenize(source, "w.c")


def test_tokenize_follows_str_digit_and_letter_classes():
    # "\u00e9" is a letter, "\u00b2" a digit that is not decimal, "\u00bd" numeric only
    assert [(t.kind, t.text) for t in tokenize("\u00e9 \u00b2 1\u00b2 a\u00b2\u00bd")] == [
        ("ident", "\u00e9"), ("num", "\u00b2"), ("num", "1\u00b2"), ("ident", "a\u00b2\u00bd")]
    with pytest.raises(LexError) as err:
        tokenize("x\n \u00bd")
    assert err.value.span == SourceSpan("<source>", 2, 2, 2, 2)


class _Peek:
    """The bounds-checked look at the current token that the reference
    parsers read, None at the end of input."""

    def peek(self) -> tuple | None:
        return self.tokens[self.pos] if self.pos < self.end else None


# The recursive-descent expression chain, one method per precedence level,
# that the precedence-climbing `_Parser.parse_expr` replaced; kept as the
# reference for its behaviour.
class _ReferenceParser(_Peek, _Parser):
    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        lhs = self.parse_and()
        while self.at("||"):
            op = self.advance()
            lhs = self.binary(op, lhs, self.parse_and())
        return lhs

    def parse_and(self) -> Expr:
        lhs = self.parse_rel()
        while self.at("&&"):
            op = self.advance()
            lhs = self.binary(op, lhs, self.parse_rel())
        return lhs

    def parse_rel(self) -> Expr:
        lhs = self.parse_add()
        if self.peek() is not None and self.peek()[0] in ("<", "<=", ">", ">=", "==", "!="):
            op = self.advance()
            return self.binary(op, lhs, self.parse_add(), MAX_NESTING + 1)
        return lhs

    def parse_add(self) -> Expr:
        lhs = self.parse_mul()
        while self.peek() is not None and self.peek()[0] in ("+", "-"):
            op = self.advance()
            lhs = self.binary(op, lhs, self.parse_mul())
        return lhs

    def parse_mul(self) -> Expr:
        lhs = self.parse_unary()
        while self.peek() is not None and self.peek()[0] in ("*", "/", "%"):
            op = self.advance()
            lhs = self.binary(op, lhs, self.parse_unary())
        return lhs


def _heights(node) -> list[int]:
    """`height` of every expression node, depth first (repr leaves it out)."""
    out = [node.height] if hasattr(node, "height") else []
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for child in value if isinstance(value, tuple) else [value]:
            if dataclasses.is_dataclass(child):
                out += _heights(child)
    return out


def _parse_outcome(parser: type[_Parser], source: str | list[tuple]):
    tokens = frontend._lex(source) if isinstance(source, str) else source
    try:
        ast = parser(tokens, "<source>").parse_program()
    except CSyntaxError as err:
        return ("CSyntaxError", err.span, err.expected, err.found)
    return repr(ast), _heights(ast)


_BINARY_OPS = list(_PRECEDENCE)
_ATOMS = ["x", "y", "0", "7", "a[x]", "f(y)"]


@st.composite
def _valid_expressions(draw, depth: int = 7) -> tuple[str, int]:
    """(text, precedence of its top operator): a random tree written with the
    parentheses its shape needs, plus some it does not."""
    kind = draw(st.sampled_from(["atom", "binary", "binary", "binary", "unary", "wrap"]))
    if depth == 0 or kind == "atom":
        return draw(st.sampled_from(_ATOMS)), 7
    if kind == "unary":
        text, prec = draw(_valid_expressions(depth - 1))
        return draw(st.sampled_from("-!")) + (text if prec >= 6 else f"({text})"), 6
    if kind == "wrap":
        text, _ = draw(_valid_expressions(depth - 1))
        return draw(st.sampled_from(["({})", "a[{}]", "f({})"])).format(text), 7
    op = draw(st.sampled_from(_BINARY_OPS))
    prec = _PRECEDENCE[op]
    (lhs, lp), (rhs, rp) = draw(_valid_expressions(depth - 1)), draw(_valid_expressions(depth - 1))
    if lp < prec or (prec == 3 and lp == 3) or draw(st.integers(0, 5)) == 0:
        lhs = f"({lhs})"
    if rp <= prec or draw(st.integers(0, 5)) == 0:
        rhs = f"({rhs})"
    return f"{lhs} {op} {rhs}", prec


def _expression_program(expr: str, as_condition: bool) -> str:
    body = f"if ({expr}) {{ x = 1; }}" if as_condition else f"x = {expr};"
    return ("int f(int v) { return v; }\n"
            f"int main() {{ int x; int y; int a[3]; x = 0; y = 1;\n{body}\nreturn x; }}\n")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 7).flatmap(_valid_expressions), st.sampled_from([0, 0, 0, 97, 98, 99, 100, 101]),
       st.booleans())
def test_property_parser_matches_reference_on_valid_expressions(expr, parens, as_condition):
    source = _expression_program("(" * parens + expr[0] + ")" * parens, as_condition)
    outcome = _parse_outcome(_Parser, source)
    assert outcome == _parse_outcome(_ReferenceParser, source)
    if parens == 0:
        assert outcome[0] != "CSyntaxError"


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_BINARY_OPS + [","]),
                          st.sampled_from(["", "", "(", "-", "!", "a[", "f("]),
                          st.sampled_from(_ATOMS), st.sampled_from(["", "", ")", "]"])),
                max_size=12), st.booleans())
def test_property_parser_matches_reference_on_operator_soups(pieces, as_condition):
    """Operators and atoms in turn, with brackets that may or may not match."""
    soup = "x" + "".join(f" {op} {before}{atom}{after}" for op, before, atom, after in pieces)
    source = _expression_program(soup, as_condition)
    assert _parse_outcome(_Parser, source) == _parse_outcome(_ReferenceParser, source)


def test_comparisons_do_not_chain():
    for expr, col in [("x < y < 1", 7), ("x && y < 1 < 2", 12), ("x < y || y == 1 != 0", 17)]:
        with pytest.raises(CSyntaxError) as err:
            parse_c(f"int main() {{ int x; int y; x = {expr}; return x; }}")
        col += len("int main() { int x; int y; x = ")
        assert (err.value.span.col_start, err.value.expected) == (col, "';'")


# The token plumbing and statement spans as they were before each assignment
# and final declaration was built once: `at`, `advance` and `expect` go
# through `peek`, and the node is rebuilt with `dataclasses.replace` to widen
# its span to the `;`. Kept as the reference for the statement parser.
class _ReferenceStatementParser(_Peek, _Parser):
    def at(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == kind

    def advance(self) -> tuple:
        tok = self.peek()
        if tok is None:
            raise CSyntaxError(self._eof_span(), "more input", "end of file")
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: str | None = None) -> tuple:
        tok = self.peek()
        if tok is None:
            raise CSyntaxError(self._eof_span(), expected or repr(kind), "end of file")
        if tok[0] != kind:
            raise CSyntaxError(self.span(tok, tok), expected or repr(kind), repr(tok[1]))
        self.pos += 1
        return tok

    def parse_assignment(self, statement: bool = False) -> Assign:
        target = self.parse_lvalue()
        self.expect("=", "'=' in assignment")
        value = self.parse_expr()
        assign = Assign(target, value, span_hull([target.span, value.span]))
        if statement:
            semi = self.expect(";")
            assign = dataclasses.replace(assign, span=span_hull([assign.span, self.span(semi, semi)]))
        return assign

    def parse_declaration(self) -> list[Stmt]:
        start = self.expect("int")
        decls: list[Stmt] = []
        while True:
            name = self.expect("ident", "variable name (pointers and other types are not supported)")
            size: int | None = None
            init: Expr | None = None
            end_span = self.span(name, name)
            if self.at("["):
                self.advance()
                size = self.int_value(self.expect("num", "array size literal"))
                close = self.expect("]")
                end_span = self.span(close, close)
            slot = self.declare(name, size is not None)
            if size is None and self.at("="):
                self.advance()
                init = self.parse_expr()
                end_span = init.span
            decls.append(VarDecl(name[1], slot, size, init, span_hull([self.span(start, start), end_span])))
            if self.at(","):
                self.advance()
                continue
            break
        semi = self.expect(";")
        decls[-1] = dataclasses.replace(decls[-1], span=span_hull([decls[-1].span, self.span(semi, semi)]))
        return decls


STATEMENTS = [
    "int p;", "int q = x + 1;", "int r[4];", "int s, t = 2, u[3];", "int x;", "int v = (y),w;",
    "x = y;", "a[x] = y * 2;", "y = f(x);", "f(y);", "x = (y);", "x = -y < 2;",
    "for (x = 0; x < 3; x = x + 1) y = y + x;", "while (x < 3) { x = x + 1; }",
    "if (x) y = 1; else { y = 2; }", 'scanf("%d", &x);', 'printf("%d\\n", x);', "return x;",
    "{ int z; z = 1; }",
]
_BROKEN_STATEMENTS = ["x = ;", "int ;", "int k,", "x", "=", ";", "a[", "int m = ", "y = 1",
                      "int n[x];", "int o[2", "a = 1;", "x[1] = 2;", "}", "{"]


def statement_program(pieces: list[str]) -> str:
    """A program whose main holds the pieces."""
    return ("int f(int v) { return v; }\n"
            "int main() { int x; int y; int a[3];\n" + "\n".join(pieces) + "\nreturn x; }\n")


def _statement_tokens(pieces: list[str], cut: int | None) -> list[tuple]:
    """Tokens of statement_program(pieces), less the last `cut` tokens."""
    tokens = frontend._lex(statement_program(pieces))
    return tokens if cut is None else tokens[:len(tokens) - cut]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(STATEMENTS) | st.sampled_from(STATEMENTS)
                | st.sampled_from(_BROKEN_STATEMENTS), max_size=8),
       st.one_of(st.none(), st.integers(0, 12)))
def test_property_statement_parser_matches_reference(pieces, cut):
    """Statement soups, some cut short: the same Ast and spans, or the same error."""
    tokens = _statement_tokens(pieces, cut)
    assert _parse_outcome(_Parser, tokens) == _parse_outcome(_ReferenceStatementParser, tokens)


def test_statement_parser_matches_reference_on_the_corpus(corpus_cases):
    for program, _ in corpus_cases:
        source = program.read_text()
        outcome = _parse_outcome(_Parser, source)
        assert outcome[0] != "CSyntaxError", program
        assert outcome == _parse_outcome(_ReferenceStatementParser, source), program


def test_parsing_builds_each_statement_once(monkeypatch, corpus_cases):
    # spans reach the ';' when a node is built, not by rebuilding it
    calls = []
    monkeypatch.setattr(frontend, "replace", lambda *a, **kw: calls.append(a) or dataclasses.replace(*a, **kw))
    for program, _ in corpus_cases:
        parse_c(program.read_text(), filename=program.name)
    assert calls == []


def test_parse_c_builds_no_token(monkeypatch, corpus_cases):
    # the parser reads the lexer's plain tuples; Token is tokenize()'s alone
    class NoToken:
        def __new__(cls, *args):
            raise AssertionError("a Token was built")

    monkeypatch.setattr(frontend, "Token", NoToken)
    for program, _ in corpus_cases:
        parse_c(program.read_text(), filename=program.name)
    with pytest.raises(AssertionError):
        tokenize("int x;")


def _span_types(node) -> set[type]:
    """The types of every `span` in an Ast subtree."""
    out = {type(node.span)} if hasattr(node, "span") else set()
    for f in dataclasses.fields(node):
        value = getattr(node, f.name)
        for child in value if isinstance(value, tuple) else [value]:
            if dataclasses.is_dataclass(child):
                out |= _span_types(child)
    return out


def test_every_span_is_a_source_span(corpus_cases):
    # a plain tuple compares equal to a SourceSpan, so equality would not tell
    for program, _ in corpus_cases:
        ast = parse_c(program.read_text(), filename=program.name)
        lowered = desugar(ast)
        graph = build_flow_graph(lowered)
        assert _span_types(ast) == {SourceSpan}, program
        assert _span_types(lowered) == {SourceSpan}, program
        assert {type(n.span) for n in graph.nodes.values()} == {SourceSpan}, program


def test_tokenize_is_lex_field_by_field(corpus_cases):
    sources = [program.read_text() for program, _ in corpus_cases]
    sources += [random_program(random.Random(seed)) for seed in range(200)]
    for source in sources:
        tokens = tokenize(source, "f.c")
        assert {(type(t), type(t.span)) for t in tokens} == {(Token, SourceSpan)}
        fields = [(t.kind, t.text, t.span.file, t.span.line_start, t.span.col_start,
                   t.span.line_end, t.span.col_end) for t in tokens]
        assert fields == [(kind, text, "f.c", line, col_start, line, col_end)
                          for kind, text, line, col_start, col_end in frontend._lex(source, "f.c")]
