"""Annotated flow graph: the language-independent program representation.

Values are threaded SSA-style: every assignment's right-hand side becomes a
fresh value node, control merges insert JOIN nodes (in0 = then/initial value,
in1 = else/back value), and every loop contributes one LOOPHEAD marker plus a
single back-labeled control edge. Plain copies (`y = x;`) create no node;
"same variable" is therefore a property of the value threading, not of names,
which is what makes plan matching independent of the surface language. A
value is the node that makes it, and a data edge feeds it to an in-port.

Each node is one record (GraphNode) that carries its annotation: the
source span it came from, the variable it holds if any, and its role
("loop test", "stdin", ...), which let a finding be pinpointed and
explained.

The graph is its adjacency, which the builder writes as it adds nodes and
edges; the edge sets `data_edges` and `ctrl_edges` are views derived from it.

A local array declaration binds the array to a fresh PARAM node (role
"array"): element-level initialization tracking is out of scope, so arrays
count as initialized storage from their declaration on. Scalars stay unbound
until assigned, and a read of an unbound scalar raises UnboundVariable, the
one dataflow fact reported ahead of matching.

The builder does no name lookup: the parser has resolved each name to its
declaration's slot (see frontend), and the builder keys each variable's
current value by slot. It visits declarations in the order the parser
numbered them, so `slot_names` grows by one name at each. At a loop head
every slot declared before the loop is numbered below every slot declared
inside it, and each slot the body assigns is either bound, and carried
through the loop by a JOIN, or unbound: declared before the loop but not yet
assigned, or declared inside it. An unbound one stays unbound on the path
that skips the body, so the builder drops it after the loop.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from . import frontend as fe
from .records import record
from .source import SourceSpan


class NodeKind(Enum):
    # Enum hashes a member's name in Python; identity is equality for members,
    # so the C identity hash serves, and SHAPES and node_index lookups make no
    # Python call
    __hash__ = object.__hash__

    ENTRY = "ENTRY"
    EXIT = "EXIT"
    CONST = "CONST"
    PARAM = "PARAM"
    OP = "OP"
    TEST = "TEST"
    JOIN = "JOIN"
    LOOPHEAD = "LOOPHEAD"
    INPUT = "INPUT"
    OUTPUT = "OUTPUT"
    AREAD = "AREAD"
    AWRITE = "AWRITE"
    CALL = "CALL"


class OpCode(Enum):
    __hash__ = object.__hash__  # as NodeKind's

    ADD = "ADD"
    SUB = "SUB"
    MUL = "MUL"
    DIV = "DIV"
    MOD = "MOD"
    LT = "LT"
    LE = "LE"
    GT = "GT"
    GE = "GE"
    EQ = "EQ"
    NE = "NE"
    AND = "AND"
    OR = "OR"
    NOT = "NOT"
    NEG = "NEG"


COMMUTATIVE = {OpCode.ADD, OpCode.MUL, OpCode.AND, OpCode.OR, OpCode.EQ, OpCode.NE}
UNARY = {OpCode.NOT, OpCode.NEG}

_BINOP = {
    "+": OpCode.ADD, "-": OpCode.SUB, "*": OpCode.MUL, "/": OpCode.DIV, "%": OpCode.MOD,
    "<": OpCode.LT, "<=": OpCode.LE, ">": OpCode.GT, ">=": OpCode.GE,
    "==": OpCode.EQ, "!=": OpCode.NE, "&&": OpCode.AND, "||": OpCode.OR,
}
_UNOP = {"!": OpCode.NOT, "-": OpCode.NEG}

# Node shapes: (in-ports, out-ports) per kind, as the builder makes them. In-
# ports are None where the builder sets the count per node: a CALL's
# arguments, an OUTPUT's values, EXIT's returns. An OP has one in-port per
# operand of its opcode (shape()). A kind with one out-port makes a value,
# the node itself; one with none makes no value, and no data edge leaves it.
# Plan checking (planlib.check_plan) refuses a pattern edge at a port its
# kind lacks, so the matcher never tests a graph node's ports.
SHAPES: dict[NodeKind, tuple[int | None, int]] = {
    NodeKind.ENTRY: (0, 0),
    NodeKind.EXIT: (None, 0),
    NodeKind.CONST: (0, 1),
    NodeKind.PARAM: (0, 1),
    NodeKind.OP: (2, 1),
    NodeKind.TEST: (1, 0),
    NodeKind.JOIN: (2, 1),
    NodeKind.LOOPHEAD: (0, 0),
    NodeKind.INPUT: (0, 1),
    NodeKind.OUTPUT: (None, 0),
    NodeKind.AREAD: (2, 1),
    NodeKind.AWRITE: (3, 1),
    NodeKind.CALL: (None, 1),
}

# Ctrl labels that fix the kind at one end of their edge, as (end, kind) with
# end 0 the source and 1 the target: a branch leaves a TEST, and a back edge
# enters a LOOPHEAD. A seq edge joins any two nodes.
LABEL_ENDS: dict[str, tuple[int, NodeKind]] = {
    "true": (0, NodeKind.TEST),
    "false": (0, NodeKind.TEST),
    "back": (1, NodeKind.LOOPHEAD),
}


def shape(kind: NodeKind, opcode: OpCode | None = None) -> tuple[int | None, int]:
    """(in-ports, out-ports) of a node of this kind and opcode; an OP without
    an opcode gets the most in-ports any opcode has."""
    if opcode in UNARY:
        return 1, 1
    return SHAPES[kind]


def label_fault(label: str | None, src: NodeKind | None, dst: NodeKind | None) -> str | None:
    """What a ctrl edge with this label lacks between a source and a target
    of these kinds ("does not leave a TEST"), or None if nothing; a None
    kind, a sub-plan's, fits every label."""
    end, kind = LABEL_ENDS.get(label, (0, None))
    if kind is None or (src, dst)[end] in (None, kind):
        return None
    return f"does not {('leave', 'target')[end]} a {kind.value}"


class UnboundVariable(Exception):
    """A variable is read before any assignment reaches it on some path."""

    def __init__(self, name: str, span: SourceSpan):
        super().__init__(f"{span}: variable {name!r} may be read before it is assigned")
        self.name = name
        self.span = span


@record
class GraphNode:
    kind: NodeKind
    in_ports: int
    span: SourceSpan
    opcode: OpCode | None = None
    value: int | None = None
    var_name: str | None = None
    role: str | None = None


DataEdge = tuple[int, tuple[int, int]]  # src -> (dst, in_port)
CtrlEdge = tuple[int, int, str]  # src -> dst with label seq|true|false|back


@dataclass(eq=False)
class FlowGraph:
    nodes: dict[int, GraphNode]
    # the adjacency is the graph, read directly by the matcher: one producer per
    # (node, in_port); a node's successors are the distinct consumers of its value. Lists ascend.
    producer_of: dict[tuple[int, int], int]
    successors: dict[int, list[int]]
    ctrl_out: dict[int, list[tuple[int, str]]]
    ctrl_in: dict[int, list[tuple[int, str]]]
    entry: int
    exit: int

    @cached_property
    def data_edges(self) -> frozenset[DataEdge]:
        """Every data edge: a view of producer_of."""
        return frozenset((src, dst) for dst, src in self.producer_of.items())

    @cached_property
    def ctrl_edges(self) -> frozenset[CtrlEdge]:
        """Every ctrl edge: a view of ctrl_out."""
        return frozenset((src, dst, label) for src, outs in self.ctrl_out.items() for dst, label in outs)

    @cached_property
    def node_index(self) -> dict[tuple[NodeKind, OpCode | None], list[int]]:
        """Nodes by (kind, opcode) (see node_index)."""
        return _index_nodes(self)

    @cached_property
    def value_chains(self) -> dict[int, int]:
        """Each node's variable-threading class representative (see value_chains)."""
        return _thread_values(self)

    @cached_property
    def commutative_nodes(self) -> frozenset[int]:
        """OP nodes with a COMMUTATIVE opcode, every one of them binary: the
        nodes whose two operands a commutable() pattern node may bind in
        either order."""
        return frozenset(nid for nid, node in self.nodes.items()
                         if node.kind is NodeKind.OP and node.opcode in COMMUTATIVE)


# ---------------------------------------------------------------------------
# Builder

_Ref = int  # the node that makes the value


class _Builder:
    def __init__(self) -> None:
        self.nodes: dict[int, GraphNode] = {}
        # the graph's adjacency (see FlowGraph), written as edges are added
        self.producer_of: dict[tuple[int, int], int] = {}
        self.successors: dict[int, list[int]] = {}
        self.ctrl_out: dict[int, list[tuple[int, str]]] = {}
        self.ctrl_in: dict[int, list[tuple[int, str]]] = {}
        self.frontier: list[tuple[int, str]] = []
        self.slot_names: list[str] = []  # by slot, the declarations built so far
        self.env: dict[int, _Ref] = {}  # slot -> its current value
        self.returns: list[tuple[_Ref, list[tuple[int, str]]]] = []

    # -- nodes and edges

    def node(self, kind: NodeKind, span: SourceSpan, *, in_ports: int = 0,
             opcode: OpCode | None = None, value: int | None = None,
             var_name: str | None = None, role: str | None = None) -> int:
        """A new node, its in-ports as SHAPES gives them; in_ports counts
        only for the kinds whose count the builder sets per node."""
        nid = len(self.nodes)
        fixed = shape(kind, opcode)[0]
        self.nodes[nid] = GraphNode(kind, in_ports if fixed is None else fixed, span,
                                    opcode, value, var_name, role)
        for tail, label in self.frontier:
            self.ctrl(tail, nid, label)
        self.frontier = [(nid, "seq")]
        return nid

    def data(self, src: _Ref, dst: int, in_port: int) -> None:
        self.producer_of[(dst, in_port)] = src
        self.successors.setdefault(src, []).append(dst)

    def ctrl(self, src: int, dst: int, label: str) -> None:
        self.ctrl_out.setdefault(src, []).append((dst, label))
        self.ctrl_in.setdefault(dst, []).append((src, label))

    def rename(self, nid: int, name: str) -> None:
        node = self.nodes[nid]
        if node.var_name is None:
            node.var_name = name

    # -- statements, dispatched on the Ast class by _STMT_BUILDERS

    def build_function(self, func: fe.FunctionDecl) -> FlowGraph:
        self.node(NodeKind.ENTRY, func.span, role=f"entry of {func.name}")
        for slot, p in enumerate(func.params):
            self.slot_names.append(p.name)
            pid = self.node(NodeKind.PARAM, p.span, var_name=p.name,
                            role="array parameter" if p.is_array else "parameter")
            self.env[slot] = pid
        self.stmt(func.body)
        for _, tails in self.returns:
            self.frontier.extend(tails)
        exit_id = self.node(NodeKind.EXIT, func.span, in_ports=len(self.returns),
                            role=f"exit of {func.name}")
        for port, (ref, _) in enumerate(self.returns):
            self.data(ref, exit_id, port)
        adjacency = (self.successors, self.ctrl_out, self.ctrl_in)
        for lists in adjacency:
            for key, entries in lists.items():
                if len(entries) > 1:  # a value read twice, a ctrl edge from two frontier entries
                    lists[key] = sorted(set(entries))
        return FlowGraph(self.nodes, self.producer_of, *adjacency, entry=0, exit=exit_id)

    def stmt(self, s: fe.Stmt) -> None:
        build = _STMT_BUILDERS.get(s.__class__)
        if build is None:
            raise TypeError(f"unknown statement {s!r}")
        build(self, s)

    def block(self, s: fe.Block) -> None:
        for child in s.stmts:
            self.stmt(child)

    def var_decl(self, s: fe.VarDecl) -> None:
        self.slot_names.append(s.name)
        if s.array_size is not None:
            pid = self.node(NodeKind.PARAM, s.span, var_name=s.name,
                            role=f"array[{s.array_size}]")
            self.env[s.slot] = pid
        elif s.init is not None:
            ref = self.expr(s.init)
            self.rename(ref, s.name)
            self.env[s.slot] = ref

    def input_stmt(self, s: fe.Input) -> None:
        for target in s.targets:
            var_name = target.name if isinstance(target, fe.VarRef) else None
            self.assign(target, self.node(NodeKind.INPUT, s.span, var_name=var_name, role="stdin"))

    def output_stmt(self, s: fe.Output) -> None:
        refs = [self.expr(a) for a in s.args]
        out = self.node(NodeKind.OUTPUT, s.span, in_ports=len(refs), role=f"stdout {s.format!r}")
        for port, ref in enumerate(refs):
            self.data(ref, out, port)

    def return_stmt(self, s: fe.Return) -> None:
        if s.value is not None:
            ref = self.expr(s.value)
            self.returns.append((ref, list(self.frontier)))
        # fall through either way: anything after a return stays in the
        # graph as dead code, which later stages may still diagnose

    def for_stmt(self, s: fe.For) -> None:
        raise ValueError("flow graph construction requires a desugared Ast (no for-loops)")

    def assign(self, target: fe.LValue, ref: _Ref) -> None:
        if isinstance(target, fe.VarRef):
            self.rename(ref, target.name)
            self.env[target.slot] = ref
        else:
            arr = self.env[target.slot]  # arrays are always bound at declaration
            idx = self.expr(target.index)
            aw = self.node(NodeKind.AWRITE, target.span, var_name=target.name,
                           role=f"{target.name}[{fe.pp_expr(target.index)}]")
            self.data(arr, aw, 0)
            self.data(idx, aw, 1)
            self.data(ref, aw, 2)
            self.env[target.slot] = aw

    def if_stmt(self, s: fe.If) -> None:
        cond = self.expr(s.cond)
        test = self.node(NodeKind.TEST, s.cond.span, role="branch test")
        self.data(cond, test, 0)

        saved = dict(self.env)
        self.frontier = [(test, "true")]
        self.stmt(s.then)
        then_env, then_frontier = self.env, self.frontier

        self.env = saved
        self.frontier = [(test, "false")]
        if s.orelse is not None:
            self.stmt(s.orelse)
        else_env, else_frontier = self.env, self.frontier

        # a slot assigned on one path only is unbound afterwards
        merged: dict[int, _Ref] = {}
        joins: list[tuple[int, _Ref, _Ref]] = []
        for slot in sorted(then_env.keys() & else_env.keys()):
            t, e = then_env[slot], else_env[slot]
            if t == e:
                merged[slot] = t
            else:
                joins.append((slot, t, e))
        self.env = merged
        self.frontier = then_frontier + else_frontier
        for slot, t, e in joins:
            j = self.node(NodeKind.JOIN, s.span, var_name=self.slot_names[slot], role="merge")
            self.data(t, j, 0)
            self.data(e, j, 1)
            self.env[slot] = j

    def while_stmt(self, s: fe.While) -> None:
        loophead = self.node(NodeKind.LOOPHEAD, s.span, role="loop head")
        joins: list[tuple[int, int]] = []  # (slot, join node)
        unbound: list[int] = []  # assigned in the loop, unbound before it (see the module docstring)
        for slot in sorted(_assigned_slots(s.body, set())):
            ref = self.env.get(slot)
            if ref is None:
                unbound.append(slot)
                continue
            j = self.node(NodeKind.JOIN, s.span, var_name=self.slot_names[slot],
                          role="loop variable")
            self.data(ref, j, 0)
            self.env[slot] = j
            joins.append((slot, j))

        cond = self.expr(s.cond)
        test = self.node(NodeKind.TEST, s.cond.span, role="loop test")
        self.data(cond, test, 0)

        self.frontier = [(test, "true")]
        self.stmt(s.body)

        for slot, j in joins:
            self.data(self.env[slot], j, 1)
            self.env[slot] = j
        for slot in unbound:
            self.env.pop(slot, None)  # unbound on the zero-iteration path

        back_tail = max(nid for nid, _ in self.frontier)
        for nid, _ in self.frontier:
            self.ctrl(nid, loophead, "back" if nid == back_tail else "seq")
        self.frontier = [(test, "false")]

    # -- expressions, dispatched on the Ast class by _EXPR_BUILDERS

    def expr(self, e: fe.Expr) -> _Ref:
        build = _EXPR_BUILDERS.get(e.__class__)
        if build is None:
            raise TypeError(f"unknown expression {e!r}")
        return build(self, e)

    def int_lit(self, e: fe.IntLit) -> _Ref:
        return self.node(NodeKind.CONST, e.span, value=e.value)

    def var_ref(self, e: fe.VarRef) -> _Ref:
        ref = self.env.get(e.slot)
        if ref is None:
            raise UnboundVariable(e.name, e.span)
        return ref

    def array_ref(self, e: fe.ArrayRef) -> _Ref:
        arr = self.env.get(e.slot)
        if arr is None:
            raise UnboundVariable(e.name, e.span)
        idx = self.expr(e.index)
        ar = self.node(NodeKind.AREAD, e.span, role=f"{e.name}[{fe.pp_expr(e.index)}]")
        self.data(arr, ar, 0)
        self.data(idx, ar, 1)
        return ar

    def unary(self, e: fe.Unary) -> _Ref:
        ref = self.expr(e.operand)
        op = self.node(NodeKind.OP, e.span, opcode=_UNOP[e.op])
        self.data(ref, op, 0)
        return op

    def binary(self, e: fe.Binary) -> _Ref:
        lhs = self.expr(e.lhs)
        rhs = self.expr(e.rhs)
        op = self.node(NodeKind.OP, e.span, opcode=_BINOP[e.op])
        self.data(lhs, op, 0)
        self.data(rhs, op, 1)
        return op

    def call(self, e: fe.Call) -> _Ref:
        refs = [self.expr(a) for a in e.args]
        call = self.node(NodeKind.CALL, e.span, in_ports=len(refs), role=e.name)
        for port, ref in enumerate(refs):
            self.data(ref, call, port)
        return call


_STMT_BUILDERS = {
    fe.Block: _Builder.block, fe.VarDecl: _Builder.var_decl,
    fe.Assign: lambda b, s: b.assign(s.target, b.expr(s.value)),
    fe.Input: _Builder.input_stmt, fe.Output: _Builder.output_stmt,
    fe.ExprStmt: lambda b, s: b.expr(s.expr), fe.Return: _Builder.return_stmt,
    fe.If: _Builder.if_stmt, fe.While: _Builder.while_stmt, fe.For: _Builder.for_stmt,
}
_EXPR_BUILDERS = {
    fe.IntLit: _Builder.int_lit, fe.VarRef: _Builder.var_ref, fe.ArrayRef: _Builder.array_ref,
    fe.Unary: _Builder.unary, fe.Binary: _Builder.binary, fe.Call: _Builder.call,
}


def _assigned_slots(s: fe.Stmt, out: set[int]) -> set[int]:
    """Add to out the slots that assignments and scanf targets within s write."""
    if isinstance(s, fe.Block):
        for child in s.stmts:
            _assigned_slots(child, out)
    elif isinstance(s, fe.Assign):
        out.add(s.target.slot)
    elif isinstance(s, fe.Input):
        out.update(t.slot for t in s.targets)
    elif isinstance(s, fe.If):
        _assigned_slots(s.then, out)
        if s.orelse is not None:
            _assigned_slots(s.orelse, out)
    elif isinstance(s, fe.While):
        _assigned_slots(s.body, out)
    return out


def build_flow_graph(ast: fe.Ast, function: str | None = None) -> FlowGraph:
    """Lower one function of a desugared Ast to its annotated flow graph."""
    by_name = {f.name: f for f in ast.functions}
    if function is not None:
        func = by_name[function]
    elif "main" in by_name:
        func = by_name["main"]
    elif len(ast.functions) == 1:
        func = ast.functions[0]
    else:
        raise ValueError("program has several functions and no main")
    return _Builder().build_function(func)


def graph_of(source: str, filename: str = "<source>") -> FlowGraph:
    """Parse C-subset source, desugar it and lower it: build_flow_graph's graph."""
    return build_flow_graph(fe.desugar(fe.parse_c(source, filename=filename)))


# ---------------------------------------------------------------------------
# Derived views
#
# A FlowGraph is never mutated once build_flow_graph returns it, so each view
# is a cached_property, computed on first use and kept on the graph: the
# matcher asks for them once per plan and once per match result. A copy made
# with dataclasses.replace computes its own. Callers must not mutate them.

def node_index(g: FlowGraph) -> dict[tuple[NodeKind, OpCode | None], list[int]]:
    """Index nodes by (kind, opcode); id lists ascending. Seeds matcher anchoring."""
    return g.node_index


def _index_nodes(g: FlowGraph) -> dict[tuple[NodeKind, OpCode | None], list[int]]:
    index: dict[tuple[NodeKind, OpCode | None], list[int]] = {}
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        index.setdefault((node.kind, node.opcode), []).append(nid)
    return index


def value_chains(g: FlowGraph) -> dict[int, int]:
    """Map each node to the representative of its variable-threading class.

    Two nodes carry values of the same program variable exactly when a chain
    of JOIN merges (or AWRITE array updates) connects them; textual names
    play no part.
    """
    return g.value_chains


_THREADED_PORTS = {NodeKind.JOIN: (0, 1), NodeKind.AWRITE: (0,)}


def threaded_pairs(g: FlowGraph) -> list[tuple[int, int]]:
    """(node, producer) for each in-port whose producer holds the node's own
    variable, by node id and then port: a JOIN's initial/then and back/else
    values, and the array an AWRITE updates. value_chains unites the pairs."""
    producer_of = g.producer_of
    return [(nid, src) for nid in sorted(g.nodes)
            for port in _THREADED_PORTS.get(g.nodes[nid].kind, ())
            if (src := producer_of.get((nid, port))) is not None]


def _thread_values(g: FlowGraph) -> dict[int, int]:
    """Union-find over threaded_pairs."""
    parent = {nid: nid for nid in g.nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for nid, src in threaded_pairs(g):
        union(nid, src)
    return {nid: find(nid) for nid in g.nodes}


def to_dot(g: FlowGraph) -> str:
    """Graphviz rendering: solid data edges labeled 0->in-port, dashed control edges."""
    lines = ["digraph flow {", "  node [shape=box, fontname=monospace];"]
    for nid in sorted(g.nodes):
        n = g.nodes[nid]
        bits = [n.kind.value]
        if n.opcode is not None:
            bits.append(n.opcode.value)
        if n.value is not None:
            bits.append(str(n.value))
        if n.var_name:
            bits.append(n.var_name)
        bits.append(f"L{n.span.line_start}")
        lines.append(f'  n{nid} [label="{nid}: ' + " ".join(bits) + '"];')
    for src, (dst, ip) in sorted(g.data_edges):
        lines.append(f'  n{src} -> n{dst} [label="0->{ip}"];')
    for src, dst, label in sorted(g.ctrl_edges):
        lines.append(f'  n{src} -> n{dst} [style=dashed, color=gray, label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(g: FlowGraph) -> str:
    doc = {
        "nodes": [
            {
                "id": nid,
                "kind": n.kind.value,
                "op": n.opcode.value if n.opcode else None,
                "value": n.value,
                "var": n.var_name,
                "role": n.role,
                "span": {
                    "file": n.span.file,
                    "line_start": n.span.line_start,
                    "col_start": n.span.col_start,
                    "line_end": n.span.line_end,
                    "col_end": n.span.col_end,
                },
            }
            for nid, n in sorted(g.nodes.items())
        ],
        "data_edges": [
            {"src": src, "out_port": 0, "dst": dst, "in_port": ip}
            for src, (dst, ip) in sorted(g.data_edges)
        ],
        "ctrl_edges": [
            {"src": src, "dst": dst, "label": label} for src, dst, label in sorted(g.ctrl_edges)
        ],
        "entry": g.entry,
        "exit": g.exit,
    }
    return json.dumps(doc, indent=2) + "\n"
