"""Brute-force reference matcher, kept independent of adil.matcher.

Enumerates every injective assignment of pattern nodes to graph nodes from
kind-compatible candidate lists, checks all pattern edges (with explicit
operand-swap choices for commutable nodes) and all constraints, and returns
the accepted bindings. Exponential on purpose: its only job is to be
obviously correct on small instances.
"""

from __future__ import annotations

import itertools

from adil.flowgraph import COMMUTATIVE, FlowGraph, GraphNode, NodeKind
from adil.planlib import Plan, PatternNode


def _node_ok(pn: PatternNode, node: GraphNode) -> bool:
    if node.kind is not pn.kind:
        return False
    if pn.opcode is not None and node.opcode is not pn.opcode:
        return False
    if pn.const is not None and node.value != pn.const:
        return False
    return True


def _chains(g: FlowGraph) -> dict[int, int]:
    # independent union-find over JOIN merges and AWRITE array updates
    parent = {nid: nid for nid in g.nodes}

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    edges_into: dict[tuple[int, int], int] = {}
    for src, (dst, ip) in g.data_edges:
        edges_into[(dst, ip)] = src
    for nid, node in g.nodes.items():
        ports = (0, 1) if node.kind is NodeKind.JOIN else (0,) if node.kind is NodeKind.AWRITE else ()
        for port in ports:
            src = edges_into.get((nid, port))
            if src is not None:
                ra, rb = find(nid), find(src)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    return {nid: find(nid) for nid in g.nodes}


def _structure_ok(g: FlowGraph, plan: Plan, binding: dict[str, int],
                  swaps: dict[str, bool]) -> bool:
    data = set(g.data_edges)  # a graph value is its node: port 0 of it
    for (a, po), (b, pi) in plan.pdata:
        nb = binding[b]
        eff = pi
        if swaps.get(b) and g.nodes[nb].in_ports == 2 and pi in (0, 1):
            eff = 1 - pi
        if po != 0 or (binding[a], (nb, eff)) not in data:
            return False
    ctrl = set(g.ctrl_edges)
    for a, b, label in plan.pctrl:
        if label is None:
            if not any((binding[a], binding[b], lab) in ctrl for lab in ("seq", "true", "false", "back")):
                return False
        elif (binding[a], binding[b], label) not in ctrl:
            return False
    return True


def _constraints_ok(g: FlowGraph, plan: Plan, binding: dict[str, int]) -> bool:
    chains = _chains(g)
    slots: dict[str, int | tuple] = {}
    for pn in plan.pnodes:
        if pn.slot is not None:
            node = g.nodes[binding[pn.pid]]
            slots[pn.slot] = node.value if node.kind is NodeKind.CONST else ("var", chains[node.id])

    for pred in plan.constraints:
        if pred.op == "commutable":
            continue
        if pred.op in ("samevar", "distinctvar"):
            a, b = (chains[binding[str(arg)]] for arg in pred.args)
            if (a == b) != (pred.op == "samevar"):
                return False
            continue
        values = []
        for arg in pred.args:
            if isinstance(arg, int):
                values.append(arg)
            else:
                v = slots[arg[1:]]
                if not isinstance(v, int):
                    return False
                values.append(v)
        lhs, rhs = values
        ok = {"eq": lhs == rhs, "ne": lhs != rhs, "lt": lhs < rhs,
              "le": lhs <= rhs, "gt": lhs > rhs, "ge": lhs >= rhs}[pred.op]
        if not ok:
            return False
    return True


def brute_force_accepted(g: FlowGraph, plan: Plan) -> set[frozenset]:
    """All accepted bindings as frozensets of (pid, node id). No sub-plans."""
    assert not any(pn.subplan is not None for pn in plan.pnodes), "oracle handles flat plans only"
    pids = [pn.pid for pn in plan.pnodes]
    candidates = [
        [nid for nid in sorted(g.nodes) if _node_ok(plan.pnode(pid), g.nodes[nid])]
        for pid in pids
    ]
    commutable = plan.commutable_pids()
    accepted: set[frozenset] = set()
    for combo in itertools.product(*candidates):
        if len(set(combo)) != len(combo):
            continue
        binding = dict(zip(pids, combo))
        swap_pids = [
            pid for pid in pids
            if pid in commutable
            and g.nodes[binding[pid]].kind is NodeKind.OP
            and g.nodes[binding[pid]].opcode in COMMUTATIVE
            and g.nodes[binding[pid]].in_ports == 2
        ]
        for mask in itertools.product((False, True), repeat=len(swap_pids)):
            swaps = dict(zip(swap_pids, mask))
            if _structure_ok(g, plan, binding, swaps) and _constraints_ok(g, plan, binding):
                accepted.add(frozenset(binding.items()))
                break
    return accepted
