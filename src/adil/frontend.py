"""Lexer and recursive-descent parser for the supported C subset.

The subset: int scalars and one-dimensional int arrays, assignment,
arithmetic/relational/logical expressions, if/else, while, for, return,
calls to previously defined functions, and scanf/printf restricted to
"%d" conversions. scanf and printf are kept as abstract input/output
intents in the Ast so later stages never see libc details.

Parsing is one-token-lookahead and aborts on the first error: the
pipeline's contract is that input programs are already syntactically
valid, so anything else is out-of-scope input, not something to recover
from.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .source import SourceSpan, span_hull


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


@dataclass(frozen=True)
class CSubsetConfig:
    allow_for: bool = True
    allow_functions: bool = True


# Deepest nesting the parser accepts, counting bracketed sub-expressions
# (parentheses, call arguments, array indices) and nested statement bodies
# together. Every later stage recurses over the same structure, so this
# keeps the whole pipeline well inside Python's recursion limit.
MAX_NESTING = 100


# ---------------------------------------------------------------------------
# Tokens

KEYWORDS = {"int", "if", "else", "while", "for", "return"}
INTRINSICS = {"scanf", "printf"}

# Longest-first so "<=" wins over "<".
PUNCT = [
    "<=", ">=", "==", "!=", "&&", "||",
    "+", "-", "*", "/", "%", "<", ">", "!", "=", "&",
    ",", ";", "(", ")", "{", "}", "[", "]",
]


@dataclass(frozen=True)
class Token:
    kind: str  # keyword text, punct text, or one of: ident, num, string
    text: str
    span: SourceSpan


def tokenize(source: str, filename: str = "<source>") -> list[Token]:
    """Split source into tokens, skipping whitespace, comments and #include lines."""
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


# ---------------------------------------------------------------------------
# Ast

@dataclass(frozen=True)
class IntLit:
    value: int
    span: SourceSpan


@dataclass(frozen=True)
class VarRef:
    name: str
    span: SourceSpan


@dataclass(frozen=True)
class ArrayRef:
    name: str
    index: "Expr"
    span: SourceSpan


@dataclass(frozen=True)
class Unary:
    op: str  # ! or -
    operand: "Expr"
    span: SourceSpan


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / % < <= > >= == != && ||
    lhs: "Expr"
    rhs: "Expr"
    span: SourceSpan


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...]
    span: SourceSpan


Expr = IntLit | VarRef | ArrayRef | Unary | Binary | Call
LValue = VarRef | ArrayRef


@dataclass(frozen=True)
class VarDecl:
    name: str
    array_size: int | None  # None for scalars
    init: Expr | None
    span: SourceSpan


@dataclass(frozen=True)
class Assign:
    target: LValue
    value: Expr
    span: SourceSpan


@dataclass(frozen=True)
class If:
    cond: Expr
    then: "Stmt"
    orelse: "Stmt | None"
    span: SourceSpan


@dataclass(frozen=True)
class While:
    cond: Expr
    body: "Stmt"
    span: SourceSpan


@dataclass(frozen=True)
class For:
    init: Assign
    cond: Expr
    step: Assign
    body: "Stmt"
    span: SourceSpan


@dataclass(frozen=True)
class Return:
    value: Expr | None
    span: SourceSpan


@dataclass(frozen=True)
class Input:
    targets: tuple[LValue, ...]  # one per %d in the scanf format
    span: SourceSpan


@dataclass(frozen=True)
class Output:
    format: str
    args: tuple[Expr, ...]
    span: SourceSpan


@dataclass(frozen=True)
class ExprStmt:
    expr: Call
    span: SourceSpan


@dataclass(frozen=True)
class Block:
    stmts: tuple["Stmt", ...]
    span: SourceSpan


Stmt = VarDecl | Assign | If | While | For | Return | Input | Output | ExprStmt | Block


@dataclass(frozen=True)
class Param:
    name: str
    is_array: bool
    span: SourceSpan


@dataclass(frozen=True)
class FunctionDecl:
    name: str
    params: tuple[Param, ...]
    body: Block
    span: SourceSpan


@dataclass(frozen=True)
class Ast:
    functions: tuple[FunctionDecl, ...]
    span: SourceSpan


# ---------------------------------------------------------------------------
# Parser

@dataclass
class _Scope:
    vars: dict[str, bool] = field(default_factory=dict)  # name -> is_array


class _Parser:
    def __init__(self, tokens: list[Token], cfg: CSubsetConfig, filename: str):
        self.tokens = tokens
        self.cfg = cfg
        self.filename = filename
        self.pos = 0
        self.scopes: list[_Scope] = []
        self.functions: dict[str, FunctionDecl] = {}
        self.depth = 0  # current nesting level, see MAX_NESTING

    # -- token plumbing

    def _eof_span(self) -> SourceSpan:
        if self.tokens:
            last = self.tokens[-1].span
            return SourceSpan(self.filename, last.line_end, last.col_end, last.line_end, last.col_end)
        return SourceSpan(self.filename, 1, 1, 1, 1)

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, kind: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == kind

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise CSyntaxError(self._eof_span(), "more input", "end of file")
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: str | None = None) -> Token:
        tok = self.peek()
        if tok is None:
            raise CSyntaxError(self._eof_span(), expected or repr(kind), "end of file")
        if tok.kind != kind:
            raise CSyntaxError(tok.span, expected or repr(kind), repr(tok.text))
        self.pos += 1
        return tok

    def nest(self, tok: Token | None) -> None:
        """Enter one nesting level at tok; leave it with `self.depth -= 1`."""
        if self.depth >= MAX_NESTING:
            span = tok.span if tok is not None else self._eof_span()
            found = repr(tok.text) if tok is not None else "end of file"
            raise CSyntaxError(span, f"at most {MAX_NESTING} levels of nested parentheses and blocks",
                               found)
        self.depth += 1

    # -- scopes

    def declare(self, tok: Token, is_array: bool) -> None:
        scope = self.scopes[-1]
        if tok.text in scope.vars:
            raise CSyntaxError(tok.span, "a fresh variable name", f"redeclaration of {tok.text!r}")
        scope.vars[tok.text] = is_array

    def lookup(self, tok: Token) -> bool:
        for scope in reversed(self.scopes):
            if tok.text in scope.vars:
                return scope.vars[tok.text]
        raise CSyntaxError(tok.span, "a declared identifier", repr(tok.text))

    # -- grammar

    def parse_program(self) -> Ast:
        funcs: list[FunctionDecl] = []
        while self.peek() is not None:
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
        self.scopes.append(_Scope({p.name: p.is_array for p in params}))
        body = self.parse_block()
        self.scopes.pop()
        decl = FunctionDecl(name.text, tuple(params), body, span_hull([start.span, body.span]))
        self.functions[decl.name] = decl
        return decl

    def parse_block(self) -> Block:
        open_ = self.expect("{")
        stmts: list[Stmt] = []
        self.scopes.append(_Scope())
        while not self.at("}"):
            stmts.extend(self.parse_statement())
        self.scopes.pop()
        close = self.expect("}")
        return Block(tuple(stmts), span_hull([open_.span, close.span]))

    def parse_statement(self) -> list[Stmt]:
        """One syntactic statement; comma declarations expand to several VarDecls."""
        tok = self.peek()
        if tok is None:
            raise CSyntaxError(self._eof_span(), "a statement", "end of file")
        if tok.kind == "int":
            return self.parse_declaration()
        if tok.kind == "{":
            self.nest(tok)
            block = self.parse_block()
            self.depth -= 1
            return [block]
        if tok.kind == "if":
            return [self.parse_if()]
        if tok.kind == "while":
            return [self.parse_while()]
        if tok.kind == "for":
            return [self.parse_for()]
        if tok.kind == "return":
            return [self.parse_return()]
        if tok.kind == "ident" and tok.text == "scanf":
            return [self.parse_scanf()]
        if tok.kind == "ident" and tok.text == "printf":
            return [self.parse_printf()]
        if tok.kind == "ident":
            # Either a call statement or an assignment.
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt is not None and nxt.kind == "(":
                call = self.parse_call(self.advance())
                semi = self.expect(";")
                return [ExprStmt(call, span_hull([call.span, semi.span]))]
            assign = self.parse_assignment()
            semi = self.expect(";")
            return [replace(assign, span=span_hull([assign.span, semi.span]))]
        raise CSyntaxError(tok.span, "a statement", repr(tok.text))

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
                size_tok = self.expect("num", "array size literal")
                size = int(size_tok.text)
                end_span = self.expect("]").span
            elif self.at("="):
                self.advance()
                init = self.parse_expr()
                end_span = init.span
            self.declare(name, size is not None)
            decls.append(VarDecl(name.text, size, init, span_hull([start.span, end_span])))
            if self.at(","):
                self.advance()
                continue
            break
        semi = self.expect(";")
        last = decls[-1]
        decls[-1] = replace(last, span=span_hull([last.span, semi.span]))
        return decls

    def parse_assignment(self) -> Assign:
        target = self.parse_lvalue()
        self.expect("=", "'=' in assignment")
        value = self.parse_expr()
        return Assign(target, value, span_hull([target.span, value.span]))

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
            return ArrayRef(name.text, index, span_hull([name.span, close.span]))
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
        return If(cond, then, orelse, span_hull([start.span, end_span]))

    def parse_branch_body(self) -> Stmt:
        self.nest(self.peek())
        if self.at("{"):
            body: Stmt = self.parse_block()
        else:
            stmts = self.parse_statement()
            body = stmts[0] if len(stmts) == 1 else Block(tuple(stmts), span_hull([s.span for s in stmts]))
        self.depth -= 1
        return body

    def parse_while(self) -> While:
        start = self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_branch_body()
        return While(cond, body, span_hull([start.span, body.span]))

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
        return For(init, cond, step, body, span_hull([start.span, body.span]))

    def parse_return(self) -> Return:
        start = self.expect("return")
        value: Expr | None = None
        if not self.at(";"):
            value = self.parse_expr()
        semi = self.expect(";")
        return Return(value, span_hull([start.span, semi.span]))

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
        return Input(tuple(targets), span_hull([start.span, semi.span]))

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
        return Output(fmt.text, tuple(args), span_hull([start.span, semi.span]))

    def parse_call(self, name: Token) -> Call:
        if not self.cfg.allow_functions:
            raise CSyntaxError(name.span, "an expression (calls are disabled)", repr(name.text))
        if name.text not in self.functions:
            raise CSyntaxError(name.span, "a previously defined function", repr(name.text))
        self.nest(self.expect("("))
        args: list[Expr] = []
        if not self.at(")"):
            while True:
                args.append(self.parse_expr())
                if self.at(","):
                    self.advance()
                    continue
                break
        close = self.expect(")")
        self.depth -= 1
        return Call(name.text, tuple(args), span_hull([name.span, close.span]))

    # Precedence climbing: || < && < relational < additive < multiplicative < unary.

    def parse_expr(self) -> Expr:
        return self.parse_or()

    def parse_or(self) -> Expr:
        lhs = self.parse_and()
        while self.at("||"):
            self.advance()
            rhs = self.parse_and()
            lhs = Binary("||", lhs, rhs, span_hull([lhs.span, rhs.span]))
        return lhs

    def parse_and(self) -> Expr:
        lhs = self.parse_rel()
        while self.at("&&"):
            self.advance()
            rhs = self.parse_rel()
            lhs = Binary("&&", lhs, rhs, span_hull([lhs.span, rhs.span]))
        return lhs

    def parse_rel(self) -> Expr:
        lhs = self.parse_add()
        if self.peek() is not None and self.peek().kind in ("<", "<=", ">", ">=", "==", "!="):
            op = self.advance()
            rhs = self.parse_add()
            return Binary(op.kind, lhs, rhs, span_hull([lhs.span, rhs.span]))
        return lhs

    def parse_add(self) -> Expr:
        lhs = self.parse_mul()
        while self.peek() is not None and self.peek().kind in ("+", "-"):
            op = self.advance()
            rhs = self.parse_mul()
            lhs = Binary(op.kind, lhs, rhs, span_hull([lhs.span, rhs.span]))
        return lhs

    def parse_mul(self) -> Expr:
        lhs = self.parse_unary()
        while self.peek() is not None and self.peek().kind in ("*", "/", "%"):
            op = self.advance()
            rhs = self.parse_unary()
            lhs = Binary(op.kind, lhs, rhs, span_hull([lhs.span, rhs.span]))
        return lhs

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok is not None and tok.kind in ("!", "-"):
            self.advance()
            operand = self.parse_unary()
            return Unary(tok.kind, operand, span_hull([tok.span, operand.span]))
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok is None:
            raise CSyntaxError(self._eof_span(), "an expression", "end of file")
        if tok.kind == "num":
            self.advance()
            return IntLit(int(tok.text), tok.span)
        if tok.kind == "(":
            self.nest(self.advance())
            inner = self.parse_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if tok.kind == "ident":
            nxt = self.tokens[self.pos + 1] if self.pos + 1 < len(self.tokens) else None
            if nxt is not None and nxt.kind == "(":
                return self.parse_call(self.advance())
            return self.parse_lvalue()
        raise CSyntaxError(tok.span, "an expression", repr(tok.text))


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


_PRECEDENCE = {"||": 1, "&&": 2, "<": 3, "<=": 3, ">": 3, ">=": 3, "==": 3, "!=": 3,
               "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}


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
