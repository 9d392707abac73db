"""Semi-automatic plan acquisition: generalize an instructor's exemplar.

The draft mirrors the exemplar's flow graph as a pattern. Constants other
than 0 and 1 become free slots (the keep-list is configurable): initializers
and unit steps carry meaning in loop cliches, other literals are usually
incidental. Reused value chains turn into explicit samevar constraints and
ADD/MUL nodes are marked commutable. The draft never enters a base by
itself: a human reviews the stub first, which is the point of the REVIEW
comments.
"""

from __future__ import annotations

from .flowgraph import NodeKind, OpCode, build_flow_graph, threaded_pairs
from .frontend import Ast, desugar
from .planlib import PatternNode, Plan, Predicate, check_plan, print_plan
from .records import record


class AcquireError(Exception):
    pass


@record
class AcquireOptions:
    keep_literals: frozenset[int] = frozenset({0, 1})
    max_nodes: int = 64
    category: str = "pe"


def acquire_plan(exemplar: Ast, name: str, opts: AcquireOptions | None = None) -> Plan:
    """Draft a cliche plan that accepts the exemplar (and consistent variants)."""
    opts = opts or AcquireOptions()
    g = build_flow_graph(desugar(exemplar))
    if len(g.nodes) > opts.max_nodes:
        raise AcquireError(
            f"exemplar graph has {len(g.nodes)} nodes; drafts beyond {opts.max_nodes} "
            "are not reviewable")

    def pid(nid: int) -> str:
        return f"n{nid:02d}"

    pnodes: list[PatternNode] = []
    slot_count = 0
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        const: int | None = None
        slot: str | None = None
        if node.kind is NodeKind.CONST:
            if node.value in opts.keep_literals:
                const = node.value
            else:
                slot_count += 1
                slot = f"c{slot_count}"
        pnodes.append(PatternNode(pid(nid), node.kind, node.opcode, const, slot))

    pdata = tuple(sorted(((pid(src), 0), (pid(dst), ip)) for src, (dst, ip) in g.data_edges))
    pctrl = tuple(sorted((pid(src), pid(dst), label) for src, dst, label in g.ctrl_edges))

    constraints = [Predicate("samevar", (pid(nid), pid(src))) for nid, src in threaded_pairs(g)]
    for nid in sorted(g.nodes):
        node = g.nodes[nid]
        if node.kind is NodeKind.OP and node.opcode in (OpCode.ADD, OpCode.MUL):
            constraints.append(Predicate("commutable", (pid(nid),)))

    exports: list[tuple[str, str]] = []
    seen_names: set[str] = set()
    for nid in sorted(g.nodes):
        var = g.nodes[nid].var_name
        if var and var not in seen_names:
            seen_names.add(var)
            exports.append((var, pid(nid)))

    plan = Plan(
        name=name,
        kind="cliche",
        category=opts.category,
        corrupts=None,
        doc_template=f"TODO: describe {name}",
        pnodes=tuple(sorted(pnodes, key=lambda pn: pn.pid)),
        pdata=pdata,
        pctrl=pctrl,
        constraints=tuple(constraints),
        exports=tuple(sorted(exports)),
    )
    check_plan(plan)
    return plan


def review_stub(plan: Plan) -> str:
    """Canonical plan text with a REVIEW comment at every generalized slot and the doc stub."""
    out: list[str] = []
    for line in print_plan(plan).splitlines():
        out.append(line)
        if line.startswith("doc "):
            out.append("; REVIEW: replace the doc stub with a student-facing description")
        elif line.startswith("node ") and "slot=$" in line:
            slot = line.rsplit("slot=$", 1)[1].strip()
            out.append(f"; REVIEW: slot ${slot} was generalized from a constant;"
                       " constrain it if the exact value matters")
    return "\n".join(out) + "\n"
