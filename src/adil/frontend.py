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

Inside the parser a token is a plain tuple (kind, text, line, col_start,
col_end), as `_lex` makes it, and a SourceSpan is built only where an Ast
node or an error keeps one. `tokenize()` returns the same tokens as `Token`
records, each with its SourceSpan, for callers outside the parser.

The parser resolves every name, once: each declaration gets a slot, a
number that is unique within its function, and every VarRef, ArrayRef and
VarDecl carries the slot of the declaration it means. The parameters are
slots 0..n-1 and share a scope with the body's outermost block, as in C (so
a body may not redeclare one); each VarDecl takes the next slot in source
order, and its name is in scope from the declarator on, initializer
included. So a slot declared before a statement is numbered below every slot
declared inside it, and desugaring, which moves no declaration, keeps that
true (the flow graph builder relies on it).
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

# Each match skips blanks (C99 6.4's white space but the newline: space,
# tab, carriage return, form feed, vertical tab) and a line comment (`#`
# lines and `//`, which run to the end of the line), then takes one lexical
# case, the common ones first. Some case matches at every position (`.` any
# character but a newline, `end` the end of input), so the skipped prefix
# never gives anything back and no position is passed over. `punct` is the one
# definition of the subset's punctuators; `[<>=!]=?` and `&&?` take the
# longer operator first, as C does. `\w` is exactly str.isalnum() or "_"
# and `\d` is str.isdecimal(), so identifiers continue as the str methods
# say; a number that starts or goes on with a digit that is not decimal
# ("²"), and an identifier that starts with a letter outside ASCII, are
# finished in Python from the `other` case.
_TOKEN_RE = re.compile(
    r"[ \t\r\f\v]*(?:(?:#|//)[^\n]*)?"
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


# A lexed token as the parser reads it: (kind, text, line, col_start,
# col_end), a plain tuple, on one line (see _lex).
_Tok = tuple[str, str, int, int, int]


def _lex(source: str, filename: str = "<source>") -> list[_Tok]:
    """Split source into (kind, text, line, col_start, col_end) tuples,
    skipping whitespace, comments and #include lines. Raises LexError."""
    tokens: list[_Tok] = []
    append = tokens.append
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
                append((kind, text, line, i - line_start + 1, j - line_start))
                if j > m.end():  # the token ran past the match: scan on from its end
                    pos = j
                    break
                continue
            col_end = m.end() - line_start  # a word or punctuator ends the match
            append((kind, text, line, col_end - len(text) + 1, col_end))
        else:
            return tokens


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """Split source into Tokens, skipping whitespace, comments and #include lines."""
    return [Token(kind, text, SourceSpan(filename, line, col_start, line, col_end))
            for kind, text, line, col_start, col_end in _lex(source, filename)]


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
    slot: int
    span: SourceSpan
    height: ClassVar[int] = 0


@record
class ArrayRef:
    name: str
    slot: int
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
    slot: int
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


def _found(tok: _Tok) -> str:
    """How an error message names the token it found."""
    return _END if tok[0] == _END else repr(tok[1])


class _Parser:
    """Reads _lex's tuples by index (tok[0] the kind, tok[1] the text) and
    builds a SourceSpan only where an Ast node or an error keeps one."""

    def __init__(self, tokens: list[_Tok], filename: str):
        # The parser's copy of the tokens ends in an _END token, so the current
        # token and the one after an identifier are read without a bounds check.
        line, col = (tokens[-1][2], tokens[-1][4]) if tokens else (1, 1)
        self.tokens = [*tokens, (_END, "", line, col, col)]
        self.filename = filename
        self.end = len(tokens)
        self.pos = 0
        self.scopes: list[dict[str, tuple[int, bool]]] = []  # name -> (slot, is_array), innermost last
        self.slots = 0  # slots the current function has numbered so far
        self.functions: dict[str, FunctionDecl] = {}
        self.depth = 0  # current nesting level, see MAX_NESTING

    # -- token plumbing

    def span(self, first: _Tok, last: _Tok) -> SourceSpan:
        """From first's start to last's end; a token's own span is span(tok, tok)."""
        # Valid without re-checking: a token is on one line, with 1 <= col_start
        # <= col_end, and first is last or comes before it.
        return tuple.__new__(SourceSpan, (self.filename, first[2], first[3], last[2], last[4]))

    def span_to(self, first: _Tok, last: SourceSpan) -> SourceSpan:
        """From first's start to the end of last, a node that comes after it."""
        return tuple.__new__(SourceSpan, (self.filename, first[2], first[3], last.line_end,
                                          last.col_end))

    def _eof_span(self) -> SourceSpan:
        eof = self.tokens[self.end]
        return self.span(eof, eof)

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos][0] == kind

    def advance(self) -> _Tok:
        """The current token, which the caller has looked at, and move past it."""
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: str | None = None) -> _Tok:
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise CSyntaxError(self.span(tok, tok), expected or repr(kind), _found(tok))
        self.pos += 1
        return tok

    def nest(self, tok: _Tok) -> None:
        """Enter one nesting level at tok; leave it with `self.depth -= 1`."""
        if self.depth >= MAX_NESTING:
            raise self._too_deep(tok)
        self.depth += 1

    def _too_deep(self, tok: _Tok) -> CSyntaxError:
        return CSyntaxError(self.span(tok, tok), f"at most {MAX_NESTING} levels of nested"
                            " parentheses, blocks and operators", _found(tok))

    def binary(self, op: _Tok, lhs: Expr, rhs: Expr, limit: int = MAX_NESTING) -> Binary:
        """lhs op rhs, a CSyntaxError at op if it ends deeper than limit."""
        node = Binary(op[0], lhs, rhs, span_join(lhs.span, rhs.span))
        if self.depth + node.height > limit:
            raise self._too_deep(op)
        return node

    def int_value(self, tok: _Tok) -> int:
        """The value of a `num` token; digits int() cannot read are a syntax error."""
        text = tok[1]
        if not text.isdecimal():  # "²" and other digits that are not decimal
            raise CSyntaxError(self.span(tok, tok), "a decimal integer literal", repr(text))
        try:
            return int(text)
        except ValueError:  # past sys.get_int_max_str_digits()
            raise CSyntaxError(self.span(tok, tok), "an integer literal of at most"
                               f" {sys.get_int_max_str_digits()} digits",
                               f"{len(text)} digits") from None

    # -- scopes

    def declare(self, tok: _Tok, is_array: bool) -> int:
        """Put tok's name in the innermost scope under the function's next slot."""
        scope = self.scopes[-1]
        name = tok[1]
        if name in scope:
            raise CSyntaxError(self.span(tok, tok), "a fresh variable name",
                               f"redeclaration of {name!r}")
        scope[name] = (self.slots, is_array)
        self.slots += 1
        return self.slots - 1

    def lookup(self, tok: _Tok) -> tuple[int, bool]:
        """(slot, is_array) of the declaration tok's name refers to here."""
        for scope in reversed(self.scopes):
            entry = scope.get(tok[1])
            if entry is not None:
                return entry
        raise CSyntaxError(self.span(tok, tok), "a declared identifier", repr(tok[1]))

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
        if name[1] in self.functions:
            raise CSyntaxError(self.span(name, name), "a fresh function name",
                               f"redefinition of {name[1]!r}")
        self.expect("(")
        # The parameters are slots 0..n-1, in the scope of the body's outermost block.
        self.scopes, self.slots = [{}], 0
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
                self.declare(pname, is_array)
                params.append(Param(pname[1], is_array, self.span(pname, pname)))
                if self.at(","):
                    self.advance()
                    continue
                break
        self.expect(")")
        body = self.parse_block(own_scope=False)
        decl = FunctionDecl(name[1], tuple(params), body, self.span_to(start, body.span))
        self.functions[decl.name] = decl
        return decl

    def parse_block(self, own_scope: bool = True) -> Block:
        """{ statements }, in a scope of its own unless it is a function body."""
        open_ = self.expect("{")
        stmts: list[Stmt] = []
        if own_scope:
            self.scopes.append({})
        while not self.at("}"):
            stmts.extend(self.parse_statement())
        if own_scope:
            self.scopes.pop()
        close = self.expect("}")
        return Block(tuple(stmts), self.span(open_, close))

    def parse_statement(self) -> list[Stmt]:
        """One syntactic statement; comma declarations expand to several VarDecls."""
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "ident":
            if tok[1] == "scanf":
                return [self.parse_scanf()]
            if tok[1] == "printf":
                return [self.parse_printf()]
            # Either a call statement or an assignment.
            if self.tokens[self.pos + 1][0] == "(":
                call = self.parse_call(self.advance())
                semi = self.expect(";")
                return [ExprStmt(call, self.span(tok, semi))]
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
        raise CSyntaxError(self.span(tok, tok), "a statement", _found(tok))

    def parse_declaration(self) -> list[Stmt]:
        start = self.expect("int")
        decls: list[Stmt] = []
        while True:
            name = self.expect("ident", "variable name (pointers and other types are not supported)")
            size: int | None = None
            init: Expr | None = None
            last = name  # the declarator's last token, unless it has an initializer
            if self.at("["):
                self.advance()
                size = self.int_value(self.expect("num", "array size literal"))
                last = self.expect("]")
            # as in C, the name is in scope from its declarator on, its initializer included
            slot = self.declare(name, size is not None)
            if size is None and self.at("="):
                self.advance()
                init = self.parse_expr()
            if self.at(","):
                self.advance()
                span = self.span(start, last) if init is None else self.span_to(start, init.span)
                decls.append(VarDecl(name[1], slot, size, init, span))
                continue
            # the last declarator's span runs to the ';'
            semi = self.expect(";")
            decls.append(VarDecl(name[1], slot, size, init, self.span(start, semi)))
            return decls

    def parse_assignment(self, statement: bool = False) -> Assign:
        """target = value; a statement also takes the ';', and its span runs to it."""
        first = self.tokens[self.pos]
        target = self.parse_lvalue()
        self.expect("=", "'=' in assignment")
        value = self.parse_expr()
        if statement:
            return Assign(target, value, self.span(first, self.expect(";")))
        return Assign(target, value, span_join(target.span, value.span))

    def parse_lvalue(self) -> LValue:
        name = self.expect("ident", "variable name")
        slot, is_array = self.lookup(name)
        if self.at("["):
            if not is_array:
                raise CSyntaxError(self.span(name, name), "an array variable", repr(name[1]))
            self.nest(self.advance())
            index = self.parse_expr()
            close = self.expect("]")
            self.depth -= 1
            return ArrayRef(name[1], slot, index, self.span(name, close))
        if is_array:
            raise CSyntaxError(self.span(name, name), "an indexed array access", repr(name[1]))
        return VarRef(name[1], slot, self.span(name, name))

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
        return If(cond, then, orelse, self.span_to(start, end_span))

    def parse_branch_body(self) -> Stmt:
        """The body of an if, else, while or for. C takes a declaration only
        inside a block, so `if (c) int y = 1;` is rejected, as gcc does."""
        tok = self.tokens[self.pos]
        self.nest(tok)
        if tok[0] == "{":
            body: Stmt = self.parse_block()
        elif tok[0] == "int":
            raise CSyntaxError(self.span(tok, tok), "a statement (a declaration needs a block here)",
                               _found(tok))
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
        return While(cond, body, self.span_to(start, body.span))

    def parse_for(self) -> For:
        start = self.expect("for")
        self.expect("(")
        init = self.parse_assignment()
        self.expect(";")
        cond = self.parse_expr()
        self.expect(";")
        step = self.parse_assignment()
        self.expect(")")
        body = self.parse_branch_body()
        return For(init, cond, step, body, self.span_to(start, body.span))

    def parse_return(self) -> Return:
        start = self.expect("return")
        value: Expr | None = None
        if not self.at(";"):
            value = self.parse_expr()
        semi = self.expect(";")
        return Return(value, self.span(start, semi))

    def parse_scanf(self) -> Input:
        start = self.advance()  # scanf
        self.expect("(")
        fmt = self.expect("string", "scanf format string")
        text = fmt[1]
        conversions = text.count("%d")
        if conversions == 0 or text.replace("%d", "").strip(" ") != "":
            raise CSyntaxError(self.span(fmt, fmt), 'a "%d"-only scanf format', repr(text))
        targets: list[LValue] = []
        for _ in range(conversions):
            self.expect(",")
            self.expect("&", "'&' before scanf target")
            targets.append(self.parse_lvalue())
        self.expect(")")
        semi = self.expect(";")
        return Input(tuple(targets), self.span(start, semi))

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
        if fmt[1].count("%d") != len(args):
            raise CSyntaxError(self.span(fmt, fmt), 'one argument per "%d"', f"{len(args)} arguments")
        return Output(fmt[1], tuple(args), self.span(start, semi))

    def parse_call(self, name: _Tok) -> Call:
        callee = name[1]
        if callee not in self.functions:
            raise CSyntaxError(self.span(name, name), "a previously defined function", repr(callee))
        params = self.functions[callee].params
        self.nest(self.expect("("))
        args: list[Expr] = []
        for param in params:
            if args:
                self.expect(",", f"',' and an argument for parameter {param.name!r} "
                                 f"of {callee!r}")
            args.append(self.parse_argument(callee, param))
        count = f"{len(params)} argument{'' if len(params) == 1 else 's'}"
        close = self.expect(")", f"')' after {count} to {callee!r}")
        self.depth -= 1
        return Call(callee, tuple(args), self.span(name, close))

    def parse_argument(self, callee: str, param: Param) -> Expr:
        """One call argument: a scalar expression for a scalar parameter (where
        a bare array name is an error, as anywhere in an expression), and
        exactly a bare array name for an array parameter."""
        tok = self.tokens[self.pos]
        what = f"parameter {param.name!r} of {callee!r}"
        if tok[0] == _END or tok[0] == ")":
            raise CSyntaxError(self.span(tok, tok), f"an argument for {what}", _found(tok))
        if not param.is_array:
            return self.parse_expr()
        if tok[0] == "ident" and self.tokens[self.pos + 1][0] in (",", ")"):
            slot, is_array = self.lookup(tok)
            if is_array:
                self.advance()
                return VarRef(tok[1], slot, self.span(tok, tok))
        raise CSyntaxError(self.span(tok, tok), f"a bare array name for array {what}", repr(tok[1]))

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
            prec = _PRECEDENCE.get(op[0], 0)
            if prec < min_prec or (prec == _REL_PREC and closed):
                break
            self.pos += 1
            rhs = self.parse_expr(prec + 1)
            lhs = self.binary(op, lhs, rhs, MAX_NESTING + 1 if prec == _REL_PREC else MAX_NESTING)
            closed = prec <= _REL_PREC
        return lhs

    def parse_unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok[0] == "!" or tok[0] == "-":
            self.nest(self.advance())
            operand = self.parse_unary()
            self.depth -= 1
            return Unary(tok[0], operand, self.span_to(tok, operand.span))
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.tokens[self.pos]
        kind = tok[0]
        if kind == "ident":
            if self.tokens[self.pos + 1][0] == "(":
                return self.parse_call(self.advance())
            return self.parse_lvalue()
        if kind == "num":
            self.pos += 1
            return IntLit(self.int_value(tok), self.span(tok, tok))
        if kind == "(":
            self.nest(self.advance())
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        raise CSyntaxError(self.span(tok, tok), "an expression", _found(tok))


def parse_c(source: str, filename: str = "<source>") -> Ast:
    """Parse C-subset source into an Ast. Raises LexError / CSyntaxError."""
    return _Parser(_lex(source, filename), filename).parse_program()


# ---------------------------------------------------------------------------
# Desugaring: rewrite every for-loop as init; while (cond) { body; step }.

def desugar(ast: Ast) -> Ast:
    """The Ast with every for-loop rewritten. A subtree with no for-loop in it
    comes back as the same object, and so does an Ast with none at all."""
    funcs = tuple(_desugar_function(f) for f in ast.functions)
    if all(new is old for new, old in zip(funcs, ast.functions)):
        return ast
    return replace(ast, functions=funcs)


def _desugar_function(f: FunctionDecl) -> FunctionDecl:
    body = _desugar_stmt(f.body)
    return f if body is f.body else replace(f, body=body)


def _desugar_stmt(stmt: Stmt) -> Stmt:
    if isinstance(stmt, Block):
        out: list[Stmt] = []
        changed = False
        for s in stmt.stmts:
            d = _desugar_stmt(s)
            if d is not s:
                changed = True
                if isinstance(s, For):
                    out.extend(d.stmts)  # splice init; while at the for's position
                    continue
            out.append(d)
        return replace(stmt, stmts=tuple(out)) if changed else stmt
    if isinstance(stmt, If):
        then = _desugar_stmt(stmt.then)
        orelse = _desugar_stmt(stmt.orelse) if stmt.orelse is not None else None
        if then is stmt.then and orelse is stmt.orelse:
            return stmt
        return replace(stmt, then=then, orelse=orelse)
    if isinstance(stmt, While):
        body = _desugar_stmt(stmt.body)
        return stmt if body is stmt.body else replace(stmt, body=body)
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
# Pretty printer: an Ast back as C source (for the tests' round trips and the demos).

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
