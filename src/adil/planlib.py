"""The knowledge base: plan formalism, plan parser, and plan-base manager.

A plan is a pattern over the flow graph: pattern nodes mirror graph node
kinds, pattern edges mirror data/control edges, and predicates express the
value-level requirements that pure structure cannot (equalities over bound
constants, same-variable identity, operand commutability). Bug plans are
stand-alone patterns that additionally name the cliche they corrupt, which
drives goal-directed filtering.

Plan text grammar, one directive per line, `;` starts a comment:

    plan "<name>" kind=(cliche|bug) [corrupts="<name>"] category=(pl|pe|cbt)
    doc "<template with $slot and @role interpolation>"
    node <pid> kind=<NodeKind> [op=<OpCode>] [const=<int> | slot=$<ident>]
    sub  <pid> plan="<name>"
    data <pid>:<out_port> -> <pid>:<in_port>
    ctrl <pid> -> <pid> [label=(seq|true|false|back)]
    constraint <predicate>
    export <role> = <pid>
    end

Predicates: eq/ne/lt/le/gt/ge($slot, int-or-$slot), samevar(pid, pid),
distinctvar(pid, pid), commutable(pid). Only a CONST node takes `const=` or
`slot=`: a slot holds a constant, and `export` names a variable. A `.plan`
file holds one or more plans; a plan base is a directory of such files
loaded in lexicographic filename order.

Edges to a `sub` pattern node address the sub-plan's exported nodes: port k
of a sub node is the node bound to the k-th export role in lexicographic
role order. Control edges to/from a sub node accept any node bound by the
sub-match.

Every edge must fit the node shapes the flow graph builder makes
(`flowgraph.SHAPES`): a data edge leaves an out-port that its source's kind
has (port 0, the node's value, for a kind that makes one) and enters an
in-port that its target's kind has (a JOIN has ports 0 and 1, an OP one per
operand of its opcode, and a CALL, OUTPUT or EXIT any); a `true` or `false`
ctrl edge leaves a TEST, a `back` one enters a LOOPHEAD, and none leads from
a node to itself. Predicates and exports name `node` lines, not `sub` ones,
and a plan has one `doc` line at most. The parser refuses a plan that breaks
one of these, since no graph could match it or no match pass;
`base_validate` refuses a port on a sub node at or beyond its sub-plan's
export count.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .flowgraph import LABEL_ENDS, NodeKind, OpCode, label_fault, shape
from .records import record
from .source import SourceError, SourceSpan, split_lines


class PlanSyntaxError(SourceError):
    """A plan file line the parser refuses, or a plan without its end line."""


class PlanSemanticError(Exception):
    pass


class DuplicatePlan(Exception):
    def __init__(self, name: str):
        super().__init__(f"plan {name!r} already in base")
        self.name = name


class UnknownPlan(Exception):
    def __init__(self, name: str):
        super().__init__(f"no plan named {name!r} in base")
        self.name = name


COMPARISONS = ("eq", "ne", "lt", "le", "gt", "ge")
PREDICATE_OPS = COMPARISONS + ("samevar", "distinctvar", "commutable")


@dataclass(frozen=True)
class Predicate:
    op: str
    # slot args are "$name" strings, pid args bare strings, literals ints
    args: tuple[str | int, ...]

    def __str__(self) -> str:
        return f"{self.op}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class PatternNode:
    pid: str
    kind: NodeKind | None = None  # None for sub-plan references
    opcode: OpCode | None = None
    const: int | None = None
    slot: str | None = None
    subplan: str | None = None


PDataEdge = tuple[tuple[str, int], tuple[str, int]]
PCtrlEdge = tuple[str, str, str | None]  # label None matches any control edge


@dataclass(frozen=True)
class Plan:
    name: str
    kind: str  # cliche | bug
    category: str  # pl | pe | cbt
    corrupts: str | None
    doc_template: str
    pnodes: tuple[PatternNode, ...]
    pdata: tuple[PDataEdge, ...]
    pctrl: tuple[PCtrlEdge, ...]
    constraints: tuple[Predicate, ...]
    exports: tuple[tuple[str, str], ...]  # (role, pid), sorted by role

    def export_roles(self) -> list[str]:
        return [role for role, _ in self.exports]

    def commutable_pids(self) -> set[str]:
        return {str(p.args[0]) for p in self.constraints if p.op == "commutable"}

    def slots(self) -> list[str]:
        return [pn.slot for pn in self.pnodes if pn.slot is not None]

    @cached_property
    def tables(self) -> "PlanTables":
        """Lookup tables over the pattern, built on first use and kept on this
        (immutable) plan, so they live exactly as long as the plan does."""
        return PlanTables(self)


class PlanTables:
    """Per-pattern-node views of a plan that the matcher consults on every
    step; closure, sub_closure and dependency_order read subplan_of too."""

    def __init__(self, plan: Plan):
        self.name = plan.name  # for the matcher's errors
        # tuples from lists, not generators: tuple() resizes to fit a generator, and
        # resized tuples, once freed, fill free lists only a full collection empties
        self.pid_order = tuple([pn.pid for pn in plan.pnodes])
        self.pnodes = {pn.pid: pn for pn in plan.pnodes}
        self.commutable = frozenset(plan.commutable_pids())
        # sub pattern node -> the sub-plan it stands for; a real node has no entry
        self.subplan_of = {pn.pid: pn.subplan for pn in plan.pnodes if pn.subplan is not None}
        self.subplans = tuple(sorted(set(self.subplan_of.values())))
        # per pattern node: its incident data and ctrl edges in declaration
        # order, each paired with the pattern node at the other end
        data_at: dict[str, list] = {pid: [] for pid in self.pid_order}
        ctrl_at: dict[str, list] = {pid: [] for pid in self.pid_order}
        for edge in plan.pdata:
            (a, _), (b, _) = edge
            data_at[a].append((b, edge))
            if b != a:
                data_at[b].append((a, edge))
        for edge in plan.pctrl:
            a, b, _ = edge
            ctrl_at[a].append((b, edge))
            if b != a:
                ctrl_at[b].append((a, edge))
        self.data_at = {pid: tuple(edges) for pid, edges in data_at.items()}
        self.ctrl_at = {pid: tuple(edges) for pid, edges in ctrl_at.items()}
        # the pattern nodes each node reaches over one data (ctrl) edge
        self.data_nbrs = {pid: tuple([o for o, _ in edges]) for pid, edges in data_at.items()}
        self.ctrl_nbrs = {pid: tuple([o for o, _ in edges]) for pid, edges in ctrl_at.items()}
        # the matcher's compiled orders, by (bound pids, skipped pids), a seed's
        # own at ({seed}, {}): at most matcher.MAX_ORDERS. A shipped plan keeps
        # at most 14 over the class-batch workload, and 30 when every plan's
        # near-miss stage runs on every corpus program
        self.orders: dict[tuple[frozenset, frozenset], list] = {}
        # the matcher's generated seed-round kernels, by the key of their order
        # in `orders`, ({seed}, skipped): None once a kept order has been
        # searched generically, its kernel from the second search
        self.kernels: dict[tuple[frozenset, frozenset], Callable | None] = {}


# ---------------------------------------------------------------------------
# Parsing

_STRING = r'"((?:[^"\\]|\\.)*)"'
_IDENT = r"[A-Za-z_][A-Za-z0-9_]*"

_PLAN_RE = re.compile(
    rf'^plan\s+{_STRING}\s+kind=(cliche|bug)(?:\s+corrupts={_STRING})?\s+category=(pl|pe|cbt)\s*$'
)
# a directive line's pattern, by the line's first word
_DIRECTIVE_RES = {
    "doc": re.compile(rf"^doc\s+{_STRING}\s*$"),
    "node": re.compile(rf"^node\s+({_IDENT})\s+kind=({_IDENT})"
                       rf"(?:\s+op=({_IDENT}))?(?:\s+const=(-?\d+)|\s+slot=\$({_IDENT}))?\s*$"),
    "sub": re.compile(rf"^sub\s+({_IDENT})\s+plan={_STRING}\s*$"),
    "data": re.compile(rf"^data\s+({_IDENT}):(\d+)\s*->\s*({_IDENT}):(\d+)\s*$"),
    "ctrl": re.compile(rf"^ctrl\s+({_IDENT})\s*->\s*({_IDENT})(?:\s+label=(seq|true|false|back))?\s*$"),
    "constraint": re.compile(rf"^constraint\s+({_IDENT})\s*\(([^)]*)\)\s*$"),
    "export": re.compile(rf"^export\s+({_IDENT})\s*=\s*({_IDENT})\s*$"),
}
# a predicate argument: an int (group 1), a $slot or a pattern-node id
_ARG_RE = re.compile(rf"(-?\d+)|\$?{_IDENT}")

# A doc template's `$slot` and `@role` markers: (sigil, name).
MARKER_RE = re.compile(r"([$@])([A-Za-z_][A-Za-z0-9_]*)")


def strip_comment(raw: str) -> str:
    """Cut a `;` comment, leaving semicolons inside quoted strings alone."""
    if ";" not in raw:
        return raw
    in_string = False
    i = 0
    while i < len(raw):
        ch = raw[i]
        if in_string:
            if ch == "\\":
                i += 1
            elif ch == '"':
                in_string = False
        elif ch == '"':
            in_string = True
        elif ch == ";":
            return raw[:i]
        i += 1
    return raw


def _unescape(s: str) -> str:
    return s.replace('\\"', '"').replace("\\\\", "\\")


def _escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


class _PlanFileParser:
    def __init__(self, text: str, filename: str):
        self.lines = split_lines(text)
        self.filename = filename
        self.extents: list[tuple[int, int]] = []  # per parsed plan: header and end line

    def span(self, lineno: int, col: int = 1) -> SourceSpan:
        return SourceSpan(self.filename, lineno, col, lineno, max(col, 1))

    def parse(self) -> list[Plan]:
        plans: list[Plan] = []
        current: dict | None = None
        header_line = 0
        for lineno, raw in enumerate(self.lines, start=1):
            line = strip_comment(raw).strip()
            if not line:
                continue
            if current is None:
                m = _PLAN_RE.match(line)
                if not m:
                    raise PlanSyntaxError(self.span(lineno), f"expected a plan header, got {raw.strip()!r}")
                name, kind, corrupts, category = m.groups()
                if (corrupts is not None) != (kind == "bug"):
                    raise PlanSyntaxError(self.span(lineno),
                                          "corrupts= is required on bug plans and forbidden otherwise")
                current = {
                    "name": _unescape(name), "kind": kind, "category": category,
                    "corrupts": _unescape(corrupts) if corrupts else None,
                    "doc": None, "nodes": [], "data": [], "ctrl": [],
                    "constraints": [], "exports": [],
                }
                header_line = lineno
                continue
            if line == "end":
                plans.append(self._finish(current, header_line))
                self.extents.append((header_line, lineno))
                current = None
                continue
            self._directive(current, line, lineno)
        if current is not None:
            raise PlanSyntaxError(self.span(len(self.lines) + 1),
                                  f"plan {current['name']!r} is missing its end line")
        return plans

    def _directive(self, cur: dict, line: str, lineno: int) -> None:
        keyword = line.split(None, 1)[0]
        pattern = _DIRECTIVE_RES.get(keyword)
        m = pattern.match(line) if pattern is not None else None
        if m is None:
            raise PlanSyntaxError(self.span(lineno), f"unrecognized directive: {line!r}")
        if keyword == "doc":
            if cur["doc"] is not None:
                raise PlanSyntaxError(self.span(lineno), "duplicate doc line")
            cur["doc"] = _unescape(m.group(1))
        elif keyword == "node":
            pid, kind_s, op_s, const_s, slot = m.groups()
            try:
                kind = NodeKind(kind_s)
            except ValueError:
                raise PlanSyntaxError(self.span(lineno), f"unknown node kind {kind_s!r}") from None
            opcode = None
            if op_s is not None:
                try:
                    opcode = OpCode(op_s)
                except ValueError:
                    raise PlanSyntaxError(self.span(lineno), f"unknown opcode {op_s!r}") from None
                if kind is not NodeKind.OP:
                    raise PlanSyntaxError(self.span(lineno), "op= is only meaningful on kind=OP nodes")
            if const_s is not None and kind is not NodeKind.CONST:
                raise PlanSyntaxError(self.span(lineno), "const= is only meaningful on kind=CONST nodes")
            if slot is not None and kind is not NodeKind.CONST:
                raise PlanSyntaxError(self.span(lineno), "slot= is only meaningful on kind=CONST nodes")
            cur["nodes"].append(PatternNode(pid, kind, opcode,
                                            int(const_s) if const_s is not None else None, slot))
        elif keyword == "sub":
            pid, plan_name = m.groups()
            cur["nodes"].append(PatternNode(pid, subplan=_unescape(plan_name)))
        elif keyword == "data":
            a, po, b, pi = m.groups()
            cur["data"].append(((a, int(po)), (b, int(pi))))
        elif keyword == "ctrl":
            cur["ctrl"].append(m.groups())
        elif keyword == "constraint":
            cur["constraints"].append(self._predicate(m.group(1), m.group(2), lineno))
        else:
            cur["exports"].append(m.groups())

    def _predicate(self, op: str, argtext: str, lineno: int) -> Predicate:
        if op not in PREDICATE_OPS:
            raise PlanSyntaxError(self.span(lineno), f"unknown predicate {op!r}")
        args: list[str | int] = []
        parts = [p.strip() for p in argtext.split(",")] if argtext.strip() else []
        for part in parts:
            if not (m := _ARG_RE.fullmatch(part)):
                raise PlanSyntaxError(self.span(lineno), f"bad predicate argument {part!r}")
            args.append(int(part) if m.group(1) else part)
        arity = 1 if op == "commutable" else 2
        if len(args) != arity:
            raise PlanSyntaxError(self.span(lineno), f"{op} takes {arity} argument(s)")
        if op in COMPARISONS:
            lhs, rhs = args
            if not (str(lhs).startswith("$") and (isinstance(rhs, int) or rhs.startswith("$"))):
                raise PlanSyntaxError(self.span(lineno), f"{op} compares a $slot to an int or $slot")
        elif any(not isinstance(a, str) or a.startswith("$") for a in args):
            raise PlanSyntaxError(self.span(lineno), f"{op} takes pattern-node ids")
        return Predicate(op, tuple(args))

    def _finish(self, cur: dict, header_line: int) -> Plan:
        plan = Plan(
            name=cur["name"], kind=cur["kind"], category=cur["category"], corrupts=cur["corrupts"],
            doc_template=cur["doc"] or "",
            pnodes=tuple(sorted(cur["nodes"], key=lambda n: n.pid)),
            pdata=tuple(sorted(cur["data"])),
            pctrl=tuple(sorted(cur["ctrl"], key=lambda e: (e[0], e[1], e[2] or ""))),
            constraints=tuple(cur["constraints"]),
            exports=tuple(sorted(cur["exports"])),
        )
        try:
            check_plan(plan)
        except PlanSemanticError as err:
            raise PlanSemanticError(f"{self.span(header_line)}: plan {plan.name!r}: {err}") from None
        return plan


def check_plan(plan: Plan) -> None:
    """Single-plan invariants, edges that fit the node shapes of flowgraph's
    SHAPES and LABEL_ENDS among them; cross-base references, sub-plan ports
    too, are base_validate's job."""
    pids = [pn.pid for pn in plan.pnodes]
    if len(set(pids)) != len(pids):
        raise PlanSemanticError("duplicate pattern-node id")
    if not pids:
        raise PlanSemanticError("a plan needs at least one pattern node")
    nodes = {pn.pid: pn for pn in plan.pnodes}
    slots = plan.slots()
    if len(set(slots)) != len(slots):
        raise PlanSemanticError("a slot may be bound by only one pattern node")
    slotset = {f"${s}" for s in slots}

    ports = {pn.pid: shape(pn.kind, pn.opcode) for pn in plan.pnodes if pn.subplan is None}
    for (a, po), (b, pi) in plan.pdata:
        if a not in nodes or b not in nodes:
            unknown = a if a not in nodes else b
            raise PlanSemanticError(f"data edge references unknown pattern node {unknown!r}")
        if a in ports and po >= ports[a][1]:
            raise PlanSemanticError(f"data edge {a}:{po} -> {b}:{pi}: {_kind_text(nodes[a])}"
                                    f" has no out-port {po}")
        ins = ports[b][0] if b in ports else None
        if ins is not None and pi >= ins:
            raise PlanSemanticError(f"data edge {a}:{po} -> {b}:{pi}: {_kind_text(nodes[b])}"
                                    f" has no in-port {pi}")
    for a, b, label in plan.pctrl:
        if a not in nodes or b not in nodes:
            unknown = a if a not in nodes else b
            raise PlanSemanticError(f"ctrl edge references unknown pattern node {unknown!r}")
        if a == b:
            raise PlanSemanticError(f"ctrl edge {a} -> {b}: no flow-graph node has a ctrl edge to itself")
        if label in LABEL_ENDS:  # the labels that fix an end's kind
            fault = label_fault(label, nodes[a].kind, nodes[b].kind)
            if fault:
                raise PlanSemanticError(f"ctrl edge {a} -> {b} label={label} {fault}")
    for role, pid in plan.exports:
        if pid not in nodes:
            raise PlanSemanticError(f"export {role!r} references unknown pattern node {pid!r}")
        if nodes[pid].subplan is not None:
            raise PlanSemanticError(f"export {role!r} must reference a node, not a sub-plan")
    roles = [role for role, _ in plan.exports]
    if len(set(roles)) != len(roles):
        raise PlanSemanticError("duplicate export role")

    for pred in plan.constraints:
        for arg in pred.args:
            if isinstance(arg, int):
                continue
            if arg.startswith("$"):
                if arg not in slotset:
                    raise PlanSemanticError(f"constraint references unbound slot {arg}")
            elif arg not in nodes:
                raise PlanSemanticError(f"constraint references unknown pattern node {arg!r}")
            elif nodes[arg].subplan is not None:
                raise PlanSemanticError(f"constraint {pred} must reference a node, not sub node {arg!r}")

    for marker in MARKER_RE.finditer(plan.doc_template):
        sigil, name = marker.groups()
        if sigil == "$" and f"${name}" not in slotset:
            raise PlanSemanticError(f"doc template references unbound slot ${name}")
        if sigil == "@" and name not in set(roles):
            raise PlanSemanticError(f"doc template references unexported role @{name}")

    if len(pids) > 1:
        adjacency: dict[str, set[str]] = {pid: set() for pid in pids}
        for (a, _), (b, _) in plan.pdata:
            adjacency[a].add(b)
            adjacency[b].add(a)
        for a, b, _ in plan.pctrl:
            adjacency[a].add(b)
            adjacency[b].add(a)
        seen = {pids[0]}
        stack = [pids[0]]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if seen != nodes.keys():
            raise PlanSemanticError("pattern graph is not connected")


def _kind_text(pn: PatternNode) -> str:
    """A real pattern node as its plan line names it: `n1 (kind=OP op=NOT)`."""
    op = f" op={pn.opcode.value}" if pn.opcode is not None else ""
    return f"{pn.pid} (kind={pn.kind.value}{op})"


def parse_plans(text: str, filename: str = "<plan>") -> list[Plan]:
    return _PlanFileParser(text, filename).parse()


def remove_plan_text(text: str, name: str, filename: str = "<plan>") -> str:
    """Plan file text without plan `name`: its lines from the header through
    `end` are cut out, and every other line, comments too, is kept as is."""
    parser = _PlanFileParser(text, filename)
    for plan, (first, last) in zip(parser.parse(), parser.extents):
        if plan.name == name:
            lines = split_lines(text, keepends=True)
            return "".join(lines[:first - 1] + lines[last:])
    raise UnknownPlan(name)


def parse_plan(text: str, filename: str = "<plan>") -> Plan:
    """Parse exactly one plan."""
    plans = parse_plans(text, filename)
    if len(plans) != 1:
        raise PlanSemanticError(f"expected exactly one plan, found {len(plans)}")
    return plans[0]


# ---------------------------------------------------------------------------
# Canonical printing: parse_plan(print_plan(p)) is structurally p.

def print_plan(plan: Plan) -> str:
    lines = [_header_line(plan)]
    if plan.doc_template:
        lines.append(f'doc "{_escape(plan.doc_template)}"')
    for pn in plan.pnodes:
        if pn.subplan is not None:
            lines.append(f'sub {pn.pid} plan="{_escape(pn.subplan)}"')
        else:
            bits = [f"node {pn.pid} kind={pn.kind.value}"]
            if pn.opcode is not None:
                bits.append(f"op={pn.opcode.value}")
            if pn.const is not None:
                bits.append(f"const={pn.const}")
            if pn.slot is not None:
                bits.append(f"slot=${pn.slot}")
            lines.append(" ".join(bits))
    for (a, po), (b, pi) in plan.pdata:
        lines.append(f"data {a}:{po} -> {b}:{pi}")
    for a, b, label in plan.pctrl:
        suffix = f" label={label}" if label is not None else ""
        lines.append(f"ctrl {a} -> {b}{suffix}")
    for pred in plan.constraints:
        lines.append(f"constraint {pred}")
    for role, pid in plan.exports:
        lines.append(f"export {role} = {pid}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def _header_line(plan: Plan) -> str:
    bits = [f'plan "{_escape(plan.name)}" kind={plan.kind}']
    if plan.corrupts is not None:
        bits.append(f'corrupts="{_escape(plan.corrupts)}"')
    bits.append(f"category={plan.category}")
    return " ".join(bits)


# ---------------------------------------------------------------------------
# Plan base

@record
class PlanBase:
    plans: dict[str, Plan] = field(default_factory=dict)

    def names(self) -> list[str]:
        return sorted(self.plans)

    def get(self, name: str) -> Plan:
        if name not in self.plans:
            raise UnknownPlan(name)
        return self.plans[name]


def base_add(base: PlanBase, plan: Plan) -> PlanBase:
    if plan.name in base.plans:
        raise DuplicatePlan(plan.name)
    base.plans[plan.name] = plan
    return base


def base_remove(base: PlanBase, name: str) -> PlanBase:
    if name not in base.plans:
        raise UnknownPlan(name)
    del base.plans[name]
    return base


def base_list(base: PlanBase, kind: str | None = None, category: str | None = None) -> list[str]:
    return sorted(
        name
        for name, plan in base.plans.items()
        if (kind is None or plan.kind == kind) and (category is None or plan.category == category)
    )


def base_validate(base: PlanBase) -> list[str]:
    """Cross-plan diagnostics: dangling references, bad targets, sub node ports
    beyond the sub-plan's exports, sub-plan cycles."""
    diagnostics: list[str] = []
    for name in base.names():
        plan = base.plans[name]
        if plan.corrupts is not None:
            target = base.plans.get(plan.corrupts)
            if target is None:
                diagnostics.append(f"{name}: corrupts unknown plan {plan.corrupts!r}")
            elif target.kind != "cliche":
                diagnostics.append(f"{name}: corrupts {plan.corrupts!r}, which is not a cliche")
        for pn in plan.pnodes:
            if pn.subplan is not None:
                target = base.plans.get(pn.subplan)
                if target is None:
                    diagnostics.append(f"{name}: sub {pn.pid} references unknown plan {pn.subplan!r}")
                    continue
                if target.kind != "cliche":
                    diagnostics.append(f"{name}: sub {pn.pid} references bug plan {pn.subplan!r}")
                ports = len(target.exports)  # one per exported role
                for _, ((a, po), (b, pi)) in plan.tables.data_at[pn.pid]:
                    if a == pn.pid and po >= ports or b == pn.pid and pi >= ports:
                        diagnostics.append(f"{name}: data edge {a}:{po} -> {b}:{pi}: sub {pn.pid} has"
                                           f" {ports} port(s), one per role {pn.subplan!r} exports")

    state: dict[str, int] = {}
    for name in base.names():
        if state.get(name, 0) == 0:
            _find_sub_plan_cycles(base, name, [], state, diagnostics)
    return diagnostics


def _find_sub_plan_cycles(base: PlanBase, name: str, trail: list[str], state: dict[str, int],
                          diagnostics: list[str]) -> None:
    """Walk depth-first from name (state 1 on the walk, 2 done), noting each sub-plan cycle met."""
    state[name] = 1
    for pn in base.plans[name].pnodes:
        if pn.subplan in base.plans:
            if state.get(pn.subplan, 0) == 1:
                cycle = trail[trail.index(pn.subplan):] if pn.subplan in trail else trail
                diagnostics.append(
                    f"sub-plan cycle: {' -> '.join(cycle + [name, pn.subplan])}")
            elif state.get(pn.subplan, 0) == 0:
                _find_sub_plan_cycles(base, pn.subplan, trail + [name], state, diagnostics)
    state[name] = 2


def sub_closure(base: PlanBase, name: str) -> list[str]:
    """name, then every plan its `sub` pattern nodes reach transitively.

    Each plan appears once, in the order a depth-first walk first meets it;
    sub-plans missing from the base are left out.
    """
    out = [name]
    stack = [name]
    while stack:
        for sub in base.plans[stack.pop()].tables.subplan_of.values():
            if sub in base.plans and sub not in out:
                out.append(sub)
                stack.append(sub)
    return out


def closure(base: PlanBase, goals: list[str] | set[str]) -> list[str]:
    """Goals plus transitive sub-plans plus bug plans corrupting anything in that set.

    This is the filtering complement: only these plans are worth matching
    when the specification names its intended cliches. Monotone in goals and
    idempotent; result sorted by name.
    """
    for name in goals:
        if name not in base.plans:
            raise UnknownPlan(name)
    corrupters: dict[str, list[str]] = {}
    for name, plan in base.plans.items():
        if plan.corrupts is not None:
            corrupters.setdefault(plan.corrupts, []).append(name)
    selected: set[str] = set()
    frontier = list(goals)
    while frontier:
        name = frontier.pop()
        if name in selected:
            continue
        selected.add(name)
        frontier.extend(sub for sub in base.plans[name].tables.subplan_of.values()
                        if sub in base.plans)
        frontier.extend(corrupters.get(name, ()))
    return sorted(selected)


def dependency_order(base: PlanBase, names: list[str]) -> list[list[str]]:
    """Names grouped into levels: every plan's sub-plans sit in earlier levels.

    Plans within one level are independent of each other; each level lists
    its names sorted.
    """
    level: dict[str, int] = {}
    for name in names:
        _depth(base, name, level)
    grouped: dict[int, list[str]] = {}
    for name in names:
        grouped.setdefault(level[name], []).append(name)
    return [sorted(grouped[d]) for d in sorted(grouped)]


def _depth(base: PlanBase, name: str, level: dict[str, int]) -> int:
    """name's level: 0 without sub-plans, else one above its deepest sub-plan's."""
    if name in level:
        return level[name]
    level[name] = 0  # cycle guard; base_validate reports real cycles
    subs = [sub for sub in base.plans[name].tables.subplan_of.values() if sub in base.plans]
    level[name] = 1 + max((_depth(base, s, level) for s in subs), default=-1)
    return level[name]


def plan_files(directory: str | Path, errors: list[Exception] | None = None) -> dict[Path, list[Plan]]:
    """The plans of every `.plan` file in the directory, lexicographic filename
    order. A file's first plan error is raised, or appended to errors if given."""
    root = Path(directory)
    if not root.is_dir():
        raise FileNotFoundError(f"plan base directory not found: {root}")
    files = {}
    for path in sorted(root.glob("*.plan")):
        try:
            files[path] = parse_plans(path.read_text(encoding="utf-8-sig"), str(path))
        except (PlanSyntaxError, PlanSemanticError) as err:
            if errors is None:
                raise
            errors.append(err)
    return files


def load_plan_base(directory: str | Path, errors: list[Exception] | None = None) -> PlanBase:
    """Load every `.plan` file in the directory, lexicographic filename order;
    errors as for plan_files."""
    base = PlanBase()
    for plans in plan_files(directory, errors).values():
        for plan in plans:
            base_add(base, plan)
    return base
