"""Lexer and parser for the supported C subset: recursive descent for
statements, precedence climbing for binary operators.

The subset: int scalars and one-dimensional int arrays, assignment,
arithmetic/relational/logical expressions, if/else, while, for, return,
calls to previously defined functions (one argument per parameter, and a
bare array name exactly where the parameter is an array), and scanf/printf
restricted to "%d" conversions. scanf and printf are kept as abstract
input/output intents in the Ast so later stages never see libc details.

Parsing is one-token-lookahead and aborts on the first error: the
pipeline's contract is that input programs are already syntactically
valid, so anything else is out-of-scope input, not something to recover
from.
"""

from __future__ import annotations

import re
import sys
from dataclasses import field, replace
from typing import ClassVar, NamedTuple

from .records import record
from .source import SourceSpan, span_hull, span_join


class LexError(Exception):
    def __init__(self, span: SourceSpan, message: str):
        super().__init__(f"{span}: {message}")
        self.span = span
        self.message = message


class CSyntaxError(Exception):
    """Parse failure: `expected` describes the grammar point, `found` the token."""

    def __init__(self, span: SourceSpan, expected: str, found: str):
        super().__init__(f"{span}: expected {expected}, found {found}")
        self.span = span
        self.expected = expected
        self.found = found


@record
class CSubsetConfig:
    allow_for: bool = True


# Deepest nesting the parser accepts, counting bracketed sub-expressions
# (parentheses, call arguments, array indices), unary operators and nested
# statement bodies together, and bounding each expression tree's height
# plus the nesting around it (so `a + b + c`, a tree of height 2, takes two
# levels, and so does `(a + b) + c`; a comparison may end one level past
# the limit). Every later stage recurses over the same structure, so this
# keeps the whole pipeline well inside Python's recursion limit: at the
# limit, source to rendered text takes about 410 frames for nested `if`s
# and about 310 for parentheses (3 per level), against a default of 1000
# (tests/test_cli.py holds it under 500).
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# Tokens

KEYWORDS = {"int", "if", "else", "while", "for", "return"}
INTRINSICS = {"scanf", "printf"}

# Each match skips blanks and a line comment (`#` lines and `//`, which run
# to the end of the line), then takes one lexical case, the common ones
# first. Some case matches at every position (`.` any character but a
# newline, `end` the end of input), so the skipped prefix never gives
# anything back and no position is passed over. `punct` is the one
# definition of the subset's punctuators; `[<>=!]=?` and `&&?` take the
# longer operator first, as C does. `\w` is exactly str.isalnum() or "_"
# and `\d` is str.isdecimal(), so identifiers continue as the str methods
# say; a number that starts or goes on with a digit that is not decimal
# ("²"), and an identifier that starts with a letter outside ASCII, are
# finished in Python from the `other` case.
_TOKEN_RE = re.compile(
    r"[ \t\r]*(?:(?:#|//)[^\n]*)?"
    r"(?:(?P<word>[A-Za-z_]\w*)"
    r"|(?P<punct>[-+*%,;(){}\[\]]|[<>=!]=?|&&?|\|\||/(?!\*))"
    r"|(?P<newline>\n)"
    r"|(?P<num>\d+)"
    r'|(?P<string>"[^"\n]*")'
    r"|(?P<block_comment>/\*(?s:.*?)\*/)"
    r"|(?P<end>\Z)"
    r"|(?P<other>.))"
)
_WORD_TAIL = re.compile(r"\w*")


class Token(NamedTuple):
    kind: str  # keyword text, punct text, or one of: ident, num, string
    text: str
    span: SourceSpan


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """Split source into tokens, skipping whitespace, comments and #include lines."""
    tokens: list[Token] = []
    append = tokens.append
    new_tuple = tuple.__new__  # Token(...) and SourceSpan(...) are Python-level calls
    line, line_start, pos = 1, 0, 0  # line_start: offset of the current line's first char
    while True:
        for m in _TOKEN_RE.finditer(source, pos):
            group = m.lastgroup
            if group == "word":
                text = m["word"]
                kind = text if text in KEYWORDS else "ident"
            elif group == "punct":
                kind = text = m["punct"]
            elif group == "newline":
                line += 1
                line_start = m.end()
                continue
            elif group == "end":
                continue
            else:
                i, j = m.span(group)
                if group == "block_comment":
                    newlines = source.count("\n", i, j)
                    if newlines:
                        line += newlines
                        line_start = source.rindex("\n", i, j) + 1
                    continue
                if group == "string":
                    kind, text = "string", source[i + 1 : j - 1]
                elif group == "num" or source[i].isdigit():
                    # a run of str.isdigit, which \d+ leaves at a digit like "²"
                    while j < len(source) and source[j].isdigit():
                        j += 1
                    kind, text = "num", source[i:j]
                elif source[i].isalpha():  # a letter outside ASCII starts an identifier
                    j = _WORD_TAIL.match(source, j).end()
                    kind, text = "ident", source[i:j]
                else:
                    col = i - line_start + 1
                    message = ("unterminated comment" if source.startswith("/*", i)
                               else "unterminated string literal" if source[i] == '"'
                               else f"unexpected character {source[i]!r}")
                    raise LexError(SourceSpan(filename, line, col, line, col), message)
                # Valid without re-checking: one line, col >= 1, and j > i.
                span = new_tuple(SourceSpan, (filename, line, i - line_start + 1, line, j - line_start))
                append(new_tuple(Token, (kind, text, span)))
                if j > m.end():  # the token ran past the match: scan on from its end
                    pos = j
                    break
                continue
            col_end = m.end() - line_start  # a word or punctuator ends the match
            span = new_tuple(SourceSpan, (filename, line, col_end - len(text) + 1, line, col_end))
            append(new_tuple(Token, (kind, text, span)))
        else:
            return tokens


# ---------------------------------------------------------------------------
# Ast

# `height` is the number of operator, index and call nodes on the longest
# path down from a node; the parser bounds it (see MAX_NESTING).

@record
class IntLit:
    value: int
    span: SourceSpan
    height: ClassVar[int] = 0


@record
class VarRef:
    name: str
    span: SourceSpan
    height: ClassVar[int] = 0


@record
class ArrayRef:
    name: str
    index: "Expr"
    span: SourceSpan
    height: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.height = self.index.height + 1


@record
class Unary:
    op: str  # ! or -
    operand: "Expr"
    span: SourceSpan
    height: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.height = self.operand.height + 1


@record
class Binary:
    op: str  # + - * / % < <= > >= == != && ||
    lhs: "Expr"
    rhs: "Expr"
    span: SourceSpan
    height: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.height = max(self.lhs.height, self.rhs.height) + 1


@record
class Call:
    name: str
    args: tuple["Expr", ...]
    span: SourceSpan
    height: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.height = max((a.height for a in self.args), default=0) + 1


Expr = IntLit | VarRef | ArrayRef | Unary | Binary | Call
LValue = VarRef | ArrayRef


@record
class VarDecl:
    name: str
    array_size: int | None  # None for scalars
    init: Expr | None
    span: SourceSpan


@record
class Assign:
    target: LValue
    value: Expr
    span: SourceSpan


@record
class If:
    cond: Expr
    then: "Stmt"
    orelse: "Stmt | None"
    span: SourceSpan


@record
class While:
    cond: Expr
    body: "Stmt"
    span: SourceSpan


@record
class For:
    init: Assign
    cond: Expr
    step: Assign
    body: "Stmt"
    span: SourceSpan


@record
class Return:
    value: Expr | None
    span: SourceSpan


@record
class Input:
    targets: tuple[LValue, ...]  # one per %d in the scanf format
    span: SourceSpan


@record
class Output:
    format: str
    args: tuple[Expr, ...]
    span: SourceSpan


@record
class ExprStmt:
    expr: Call
    span: SourceSpan


@record
class Block:
    stmts: tuple["Stmt", ...]
    span: SourceSpan


Stmt = VarDecl | Assign | If | While | For | Return | Input | Output | ExprStmt | Block


@record
class Param:
    name: str
    is_array: bool
    span: SourceSpan


@record
class FunctionDecl:
    name: str
    params: tuple[Param, ...]
    body: Block
    span: SourceSpan


@record
class Ast:
    functions: tuple[FunctionDecl, ...]
    span: SourceSpan


# ---------------------------------------------------------------------------
# Parser

# Binary operator precedence, shared by the parser and pp_expr.
_PRECEDENCE = {"||": 1, "&&": 2, "<": 3, "<=": 3, ">": 3, ">=": 3, "==": 3, "!=": 3,
               "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}
_REL_PREC = 3  # precedence of the comparison operators


_END = "end of file"  # kind of the parser's end-of-input token; no lexed token has it


def _found(tok: Token) -> str:
    """How an error message names the token it found."""
    return _END if tok.kind == _END else repr(tok.text)


class _Parser:
    def __init__(self, tokens: list[Token], cfg: CSubsetConfig, filename: str):
        # The parser's copy of the tokens ends in an _END token, so the current
        # token and the one after an identifier are read without a bounds check.
        last = tokens[-1].span if tokens else SourceSpan(filename, 1, 1, 1, 1)
        eof = SourceSpan(filename, last.line_end, last.col_end, last.line_end, last.col_end)
        self.tokens = [*tokens, Token(_END, "", eof)]
        self.end = len(tokens)
        self.cfg = cfg
        self.filename = filename
        self.pos = 0
        self.scopes: list[dict[str, bool]] = []  # name -> is_array, innermost last
        self.functions: dict[str, FunctionDecl] = {}
        self.depth = 0  # current nesting level, see MAX_NESTING

    # -- token plumbing

    def _eof_span(self) -> SourceSpan:
        return self.tokens[self.end].span

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def advance(self) -> Token:
        """The current token, which the caller has looked at, and move past it."""
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise CSyntaxError(tok.span, expected or repr(kind), _found(tok))
        self.pos += 1
        return tok

    def nest(self, tok: Token) -> None:
        """Enter one nesting level at tok; leave it with `self.depth -= 1`."""
        if self.depth >= MAX_NESTING:
            raise self._too_deep(tok)
        self.depth += 1

    def _too_deep(self, tok: Token) -> CSyntaxError:
        return CSyntaxError(tok.span, f"at most {MAX_NESTING} levels of nested parentheses, blocks"
                            " and operators", _found(tok))

    def binary(self, op: Token, lhs: Expr, rhs: Expr, limit: int = MAX_NESTING) -> Binary:
        """lhs op rhs, a CSyntaxError at op if it ends deeper than limit."""
        node = Binary(op.kind, lhs, rhs, span_join(lhs.span, rhs.span))
        if self.depth + node.height > limit:
            raise self._too_deep(op)
        return node

    # -- scopes

    def declare(self, tok: Token, is_array: bool) -> None:
        scope = self.scopes[-1]
        if tok.text in scope:
            raise CSyntaxError(tok.span, "a fresh variable name", f"redeclaration of {tok.text!r}")
        scope[tok.text] = is_array

    def lookup(self, tok: Token) -> bool:
        for scope in reversed(self.scopes):
            is_array = scope.get(tok.text)
            if is_array is not None:
                return is_array
        raise CSyntaxError(tok.span, "a declared identifier", repr(tok.text))

    # -- grammar

    def parse_program(self) -> Ast:
        funcs: list[FunctionDecl] = []
        while self.pos < self.end:
            funcs.append(self.parse_function())
        if not funcs:
            raise CSyntaxError(self._eof_span(), "at least one function definition", "end of file")
        span = span_hull([f.span for f in funcs])
        return Ast(tuple(funcs), span)

    def parse_function(self) -> FunctionDecl:
        start = self.expect("int", "'int' return type")
        name = self.expect("ident", "function name")
        if name.text in self.functions:
            raise CSyntaxError(name.span, "a fresh function name", f"redefinition of {name.text!r}")
        self.expect("(")
        params: list[Param] = []
        if not self.at(")"):
            while True:
                self.expect("int", "'int' parameter type")
                pname = self.expect("ident", "parameter name")
                is_array = False
                if self.at("["):
                    self.advance()
                    self.expect("]")
                    is_array = True
                params.append(Param(pname.text, is_array, pname.span))
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect(")")
        self.scopes.append({p.name: p.is_array for p in params})
        body = self.parse_block()
        self.scopes.pop()
        decl = FunctionDecl(name.text, tuple(params), body, span_join(start.span, body.span))
        self.functions[decl.name] = decl
        return decl

    def parse_block(self) -> Block:
        open_ = self.expect("{")
        stmts: list[Stmt] = []
        self.scopes.append({})
        while not self.at("}"):
            stmts.extend(self.parse_statement())
        self.scopes.pop()
        close = self.expect("}")
        return Block(tuple(stmts), span_join(open_.span, close.span))

    def parse_statement(self) -> list[Stmt]:
        """One syntactic statement; comma declarations expand to several VarDecls."""
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "ident":
            if tok.text == "scanf":
                return [self.parse_scanf()]
            if tok.text == "printf":
                return [self.parse_printf()]
            # Either a call statement or an assignment.
            if self.tokens[self.pos + 1].kind == "(":
                call = self.parse_call(self.advance())
                semi = self.expect(";")
                return [ExprStmt(call, span_join(call.span, semi.span))]
            return [self.parse_assignment(statement=True)]
        if kind == "int":
            return self.parse_declaration()
        if kind == "{":
            self.nest(tok)
            block = self.parse_block()
            self.depth -= 1
            return [block]
        if kind == "if":
            return [self.parse_if()]
        if kind == "while":
            return [self.parse_while()]
        if kind == "for":
            return [self.parse_for()]
        if kind == "return":
            return [self.parse_return()]
        raise CSyntaxError(tok.span, "a statement", _found(tok))

    def parse_declaration(self) -> list[Stmt]:
        start = self.expect("int")
        decls: list[Stmt] = []
        while True:
            name = self.expect("ident", "variable name (pointers and other types are not supported)")
            size: int | None = None
            init: Expr | None = None
            end_span = name.span
            if self.at("["):
                self.advance()
                size = _int_value(self.expect("num", "array size literal"))
                end_span = self.expect("]").span
            elif self.at("="):
                self.advance()
                init = self.parse_expr()
                end_span = init.span
            self.declare(name, size is not None)
            if self.at(","):
                self.advance()
                decls.append(VarDecl(name.text, size, init, span_join(start.span, end_span)))
                continue
            # the last declarator's span runs to the ';'
            semi = self.expect(";")
            decls.append(VarDecl(name.text, size, init, span_join(start.span, semi.span)))
            return decls

    def parse_assignment(self, statement: bool = False) -> Assign:
        """target = value; a statement also takes the ';', and its span runs to it."""
        target = self.parse_lvalue()
        self.expect("=", "'=' in assignment")
        value = self.parse_expr()
        end = self.expect(";").span if statement else value.span
        return Assign(target, value, span_join(target.span, end))

    def parse_lvalue(self) -> LValue:
        name = self.expect("ident", "variable name")
        is_array = self.lookup(name)
        if self.at("["):
            if not is_array:
                raise CSyntaxError(name.span, "an array variable", repr(name.text))
            self.nest(self.advance())
            index = self.parse_expr()
            close = self.expect("]")
            self.depth -= 1
            return ArrayRef(name.text, index, span_join(name.span, close.span))
        if is_array:
            raise CSyntaxError(name.span, "an indexed array access", repr(name.text))
        return VarRef(name.text, name.span)

    def parse_if(self) -> If:
        start = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then = self.parse_branch_body()
        orelse: Stmt | None = None
        end_span = then.span
        if self.at("else"):
            self.advance()
            orelse = self.parse_branch_body()
            end_span = orelse.span
        return If(cond, then, orelse, span_join(start.span, end_span))

    def parse_branch_body(self) -> Stmt:
        """The body of an if, else, while or for. C takes a declaration only
        inside a block, so `if (c) int y = 1;` is rejected, as gcc does."""
        tok = self.tokens[self.pos]
        self.nest(tok)
        if tok.kind == "{":
            body: Stmt = self.parse_block()
        elif tok.kind == "int":
            raise CSyntaxError(tok.span, "a statement (a declaration needs a block here)", _found(tok))
        else:
            body = self.parse_statement()[0]
        self.depth -= 1
        return body

    def parse_while(self) -> While:
        start = self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_branch_body()
        return While(cond, body, span_join(start.span, body.span))

    def parse_for(self) -> For:
        start = self.expect("for")
        if not self.cfg.allow_for:
            raise CSyntaxError(start.span, "a statement ('for' is disabled)", "'for'")
        self.expect("(")
        init = self.parse_assignment()
        self.expect(";")
        cond = self.parse_expr()
        self.expect(";")
        step = self.parse_assignment()
        self.expect(")")
        body = self.parse_branch_body()
        return For(init, cond, step, body, span_join(start.span, body.span))

    def parse_return(self) -> Return:
        start = self.expect("return")
        value: Expr | None = None
        if not self.at(";"):
            value = self.parse_expr()
        semi = self.expect(";")
        return Return(value, span_join(start.span, semi.span))

    def parse_scanf(self) -> Input:
        start = self.advance()  # scanf
        self.expect("(")
        fmt = self.expect("string", "scanf format string")
        conversions = fmt.text.count("%d")
        if conversions == 0 or fmt.text.replace("%d", "").strip(" ") != "":
            raise CSyntaxError(fmt.span, 'a "%d"-only scanf format', repr(fmt.text))
        targets: list[LValue] = []
        for _ in range(conversions):
            self.expect(",")
            self.expect("&", "'&' before scanf target")
            targets.append(self.parse_lvalue())
        self.expect(")")
        semi = self.expect(";")
        return Input(tuple(targets), span_join(start.span, semi.span))

    def parse_printf(self) -> Output:
        start = self.advance()  # printf
        self.expect("(")
        fmt = self.expect("string", "printf format string")
        args: list[Expr] = []
        while self.at(","):
            self.advance()
            args.append(self.parse_expr())
        self.expect(")")
        semi = self.expect(";")
        if fmt.text.count("%d") != len(args):
            raise CSyntaxError(fmt.span, 'one argument per "%d"', f"{len(args)} arguments")
        return Output(fmt.text, tuple(args), span_join(start.span, semi.span))

    def parse_call(self, name: Token) -> Call:
        if name.text not in self.functions:
            raise CSyntaxError(name.span, "a previously defined function", repr(name.text))
        params = self.functions[name.text].params
        self.nest(self.expect("("))
        args: list[Expr] = []
        for param in params:
            if args:
                self.expect(",", f"',' and an argument for parameter {param.name!r} "
                                 f"of {name.text!r}")
            args.append(self.parse_argument(name.text, param))
        count = f"{len(params)} argument{'' if len(params) == 1 else 's'}"
        close = self.expect(")", f"')' after {count} to {name.text!r}")
        self.depth -= 1
        return Call(name.text, tuple(args), span_join(name.span, close.span))

    def parse_argument(self, callee: str, param: Param) -> Expr:
        """One call argument: a scalar expression for a scalar parameter (where
        a bare array name is an error, as anywhere in an expression), and
        exactly a bare array name for an array parameter."""
        tok = self.tokens[self.pos]
        what = f"parameter {param.name!r} of {callee!r}"
        if tok.kind == _END or tok.kind == ")":
            raise CSyntaxError(tok.span, f"an argument for {what}", _found(tok))
        if not param.is_array:
            return self.parse_expr()
        if (tok.kind != "ident" or self.tokens[self.pos + 1].kind not in (",", ")")
                or not self.lookup(tok)):
            raise CSyntaxError(tok.span, f"a bare array name for array {what}", repr(tok.text))
        self.advance()
        return VarRef(tok.text, tok.span)

    # Binary operators by precedence climbing over _PRECEDENCE (|| < && <
    # relational < additive < multiplicative), all left-associative except
    # comparisons, which do not chain: once this loop has built a comparison,
    # && or ||, a following comparison operator ends the expression, so
    # `a < b < c` stops at the second `<`. A level of parentheses costs three
    # frames (parse_expr, parse_unary, parse_primary).
    # Nesting levels bound the parser's own recursion; `binary` bounds the
    # trees it builds, whose left operands (a parenthesised chain, say) may
    # already be deep. A comparison may end one level past the limit, so
    # the condition of an `if` at the deepest level still parses; every
    # expression parsed at depth d then has d + height <= MAX_NESTING + 1.

    def parse_expr(self, min_prec: int = 1) -> Expr:
        lhs = self.parse_unary()
        closed = False  # whether this loop has built a comparison, && or ||
        tokens = self.tokens
        while True:  # the _END token has no precedence, so it ends the loop
            op = tokens[self.pos]
            prec = _PRECEDENCE.get(op.kind, 0)
            if prec < min_prec or (prec == _REL_PREC and closed):
                break
            self.pos += 1
            rhs = self.parse_expr(prec + 1)
            lhs = self.binary(op, lhs, rhs, MAX_NESTING + 1 if prec == _REL_PREC else MAX_NESTING)
            closed = prec <= _REL_PREC
        return lhs

    def parse_unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "!" or tok.kind == "-":
            self.nest(self.advance())
            operand = self.parse_unary()
            self.depth -= 1
            return Unary(tok.kind, operand, span_join(tok.span, operand.span))
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "ident":
            if self.tokens[self.pos + 1].kind == "(":
                return self.parse_call(self.advance())
            return self.parse_lvalue()
        if kind == "num":
            self.pos += 1
            return IntLit(_int_value(tok), tok.span)
        if kind == "(":
            self.nest(self.advance())
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        raise CSyntaxError(tok.span, "an expression", _found(tok))


def _int_value(tok: Token) -> int:
    """The value of a `num` token; digits int() cannot read are a syntax error."""
    if not tok.text.isdecimal():  # "²" and other digits that are not decimal
        raise CSyntaxError(tok.span, "a decimal integer literal", repr(tok.text))
    try:
        return int(tok.text)
    except ValueError:  # past sys.get_int_max_str_digits()
        raise CSyntaxError(tok.span, f"an integer literal of at most {sys.get_int_max_str_digits()}"
                           " digits", f"{len(tok.text)} digits") from None


def parse_c(source: str, cfg: CSubsetConfig | None = None, filename: str = "<source>") -> Ast:
    """Parse C-subset source into an Ast. Raises LexError / CSyntaxError."""
    cfg = cfg or CSubsetConfig()
    parser = _Parser(tokenize(source, filename), cfg, filename)
    return parser.parse_program()


# ---------------------------------------------------------------------------
# Desugaring: rewrite every for-loop as init; while (cond) { body; step }.

def desugar(ast: Ast) -> Ast:
    funcs = tuple(replace(f, body=_desugar_stmt(f.body)) for f in ast.functions)
    return replace(ast, functions=funcs)


def _desugar_stmt(stmt: Stmt) -> Stmt:
    if isinstance(stmt, Block):
        out: list[Stmt] = []
        for s in stmt.stmts:
            d = _desugar_stmt(s)
            if isinstance(d, Block) and isinstance(s, For):
                out.extend(d.stmts)  # splice init; while at the for's position
            else:
                out.append(d)
        return replace(stmt, stmts=tuple(out))
    if isinstance(stmt, If):
        orelse = _desugar_stmt(stmt.orelse) if stmt.orelse is not None else None
        return replace(stmt, then=_desugar_stmt(stmt.then), orelse=orelse)
    if isinstance(stmt, While):
        return replace(stmt, body=_desugar_stmt(stmt.body))
    if isinstance(stmt, For):
        body = _desugar_stmt(stmt.body)
        if isinstance(body, Block):
            loop_stmts = body.stmts + (stmt.step,)
        else:
            loop_stmts = (body, stmt.step)
        loop_body = Block(loop_stmts, span_hull([body.span, stmt.step.span]))
        loop = While(stmt.cond, loop_body, stmt.span)
        return Block((stmt.init, loop), stmt.span)
    return stmt


# ---------------------------------------------------------------------------
# Pretty printer (test utility, and used by acquire for readable drafts).

def pretty_print(ast: Ast) -> str:
    return "\n".join(_pp_function(f) for f in ast.functions) + "\n"


def _pp_function(f: FunctionDecl) -> str:
    params = ", ".join(f"int {p.name}[]" if p.is_array else f"int {p.name}" for p in f.params)
    return f"int {f.name}({params}) " + _pp_stmt(f.body, 0)


def _pp_stmt(stmt: Stmt, depth: int) -> str:
    pad = "    " * depth
    if isinstance(stmt, Block):
        inner = "\n".join("    " * (depth + 1) + _pp_stmt(s, depth + 1) for s in stmt.stmts)
        return "{\n" + (inner + "\n" if inner else "") + pad + "}"
    if isinstance(stmt, VarDecl):
        if stmt.array_size is not None:
            return f"int {stmt.name}[{stmt.array_size}];"
        if stmt.init is not None:
            return f"int {stmt.name} = {pp_expr(stmt.init)};"
        return f"int {stmt.name};"
    if isinstance(stmt, Assign):
        return f"{pp_expr(stmt.target)} = {pp_expr(stmt.value)};"
    if isinstance(stmt, If):
        text = f"if ({pp_expr(stmt.cond)}) " + _pp_stmt(_as_block(stmt.then), depth)
        if stmt.orelse is not None:
            text += " else " + _pp_stmt(_as_block(stmt.orelse), depth)
        return text
    if isinstance(stmt, While):
        return f"while ({pp_expr(stmt.cond)}) " + _pp_stmt(_as_block(stmt.body), depth)
    if isinstance(stmt, For):
        head = f"for ({_pp_assign_naked(stmt.init)}; {pp_expr(stmt.cond)}; {_pp_assign_naked(stmt.step)}) "
        return head + _pp_stmt(_as_block(stmt.body), depth)
    if isinstance(stmt, Return):
        return "return;" if stmt.value is None else f"return {pp_expr(stmt.value)};"
    if isinstance(stmt, Input):
        fmt = "%d" * len(stmt.targets)
        args = "".join(f", &{pp_expr(t)}" for t in stmt.targets)
        return f'scanf("{fmt}"{args});'
    if isinstance(stmt, Output):
        args = "".join(f", {pp_expr(a)}" for a in stmt.args)
        return f'printf("{stmt.format}"{args});'
    if isinstance(stmt, ExprStmt):
        return f"{pp_expr(stmt.expr)};"
    raise TypeError(f"unknown statement {stmt!r}")


def _as_block(stmt: Stmt) -> Block:
    if isinstance(stmt, Block):
        return stmt
    return Block((stmt,), stmt.span)


def _pp_assign_naked(a: Assign) -> str:
    return f"{pp_expr(a.target)} = {pp_expr(a.value)}"


def pp_expr(e: Expr, parent_prec: int = 0) -> str:
    if isinstance(e, IntLit):
        return str(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, ArrayRef):
        return f"{e.name}[{pp_expr(e.index)}]"
    if isinstance(e, Unary):
        return f"{e.op}{pp_expr(e.operand, 6)}"
    if isinstance(e, Binary):
        prec = _PRECEDENCE[e.op]
        text = f"{pp_expr(e.lhs, prec)} {e.op} {pp_expr(e.rhs, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    if isinstance(e, Call):
        return f"{e.name}({', '.join(pp_expr(a) for a in e.args)})"
    raise TypeError(f"unknown expression {e!r}")
