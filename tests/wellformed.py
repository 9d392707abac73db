"""Well-formedness of a built flow graph, for tests.

`validate` lists every way a graph breaks the builder's invariants: a node
whose in-ports do not fit its shape or lack a producer, a data edge out of
port range or from a kind that makes no value, a data cycle that avoids
every JOIN's back input, a node unreachable from entry or unable to reach
exit, a LOOPHEAD without exactly one back edge, and a ctrl label on the
wrong kind of node. An empty list means the graph is well formed.
"""

from __future__ import annotations

from adil.flowgraph import SHAPES, FlowGraph, NodeKind, label_fault, shape


def has_cycle(succs: dict[int, list[int]]) -> bool:
    """Depth-first search for a back edge, with an explicit stack."""
    state: dict[int, int] = {}  # 1 on the current path, 2 finished
    for root in succs:
        if root in state:
            continue
        state[root] = 1
        stack = [(root, iter(succs[root]))]
        while stack:
            v, todo = stack[-1]
            for w in todo:
                if state.get(w) == 1:
                    return True
                if w not in state:
                    state[w] = 1
                    stack.append((w, iter(succs[w])))
                    break
            else:
                state[v] = 2
                stack.pop()
    return False


def validate(g: FlowGraph) -> list[str]:
    problems: list[str] = []
    for nid, n in g.nodes.items():
        ins = shape(n.kind, n.opcode)[0]
        if ins not in (None, n.in_ports):
            what = n.kind.value + (f" {n.opcode.value}" if n.opcode else "")
            problems.append(f"node {nid} ({what}) has {n.in_ports} in-ports, not {ins}")
        for port in range(n.in_ports):
            if (nid, port) not in g.producer_of:
                problems.append(f"node {nid} in_port {port} has 0 producers")
    succs: dict[int, list[int]] = {nid: [] for nid in g.nodes}  # data edges but JOIN back-inputs
    for src, (dst, ip) in g.data_edges:
        kind = g.nodes[src].kind
        if not SHAPES[kind][1]:
            problems.append(f"edge {src}->({dst}:{ip}) leaves a {kind.value}, which makes no value")
        if ip >= g.nodes[dst].in_ports:
            problems.append(f"edge {src}->({dst}:{ip}) out of port range")
        if not (g.nodes[dst].kind is NodeKind.JOIN and ip == 1):
            succs[src].append(dst)
    # data cycles must pass through a JOIN's back/else input
    if has_cycle(succs):
        problems.append("data edges contain a cycle that avoids JOIN back-inputs")

    seen = {g.entry}
    stack = [g.entry]
    while stack:
        v = stack.pop()
        for w, _ in g.ctrl_out.get(v, ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    for nid in g.nodes:
        if nid not in seen:
            problems.append(f"node {nid} unreachable from entry via ctrl edges")

    reaches_exit = {g.exit}
    stack = [g.exit]
    while stack:
        v = stack.pop()
        for w, _ in g.ctrl_in.get(v, ()):
            if w not in reaches_exit:
                reaches_exit.add(w)
                stack.append(w)
    for nid in g.nodes:
        if nid not in reaches_exit:
            problems.append(f"exit unreachable from node {nid}")

    for nid, n in g.nodes.items():
        if n.kind is NodeKind.LOOPHEAD:
            backs = sum(label == "back" for _, label in g.ctrl_in.get(nid, ()))
            if backs != 1:
                problems.append(f"loophead {nid} has {backs} back edges")
    for src, dst, label in g.ctrl_edges:
        fault = label_fault(label, g.nodes[src].kind, g.nodes[dst].kind)
        if fault:
            problems.append(f"{label} edge {src}->{dst} {fault}")
    return problems
