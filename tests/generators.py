"""Seeded random programs and plans for property and acceptance tests.

Programs come from small templates (straight line, branch, loop, array
read) with randomized constants and operators, so every generated graph is
valid by construction and stays at or under 12 nodes. Plans are sampled as
connected subgraphs of a graph (usually the one they will be matched
against, sometimes a different one) with randomized generalization:
constants may stay literal, be perturbed, or become slots, and random
constraints are thrown in.
"""

from __future__ import annotations

import random

from adil.flowgraph import FlowGraph, NodeKind, build_flow_graph
from adil.frontend import desugar, parse_c
from adil.planlib import PatternNode, Plan, Predicate, check_plan

_CONSTS = [0, 1, 2, 3, 5, 7]
_OPS = ["+", "-", "*", "%"]
_CMPS = ["<", "<=", ">", ">=", "==", "!="]


def random_program(rng: random.Random) -> str:
    c = lambda: rng.choice(_CONSTS)
    op = lambda: rng.choice(_OPS)
    cmp_ = lambda: rng.choice(_CMPS)
    template = rng.randrange(4)
    if template == 0:
        return (
            "int f(int u, int v) {\n"
            "    int x;\n    int y;\n"
            f"    x = u {op()} {c()};\n"
            f"    y = x {op()} v;\n"
            "    return y;\n}\n"
        )
    if template == 1:
        orelse = f" else {{\n        x = {c()};\n    }}" if rng.random() < 0.5 else ""
        return (
            "int f(int u) {\n"
            "    int x;\n"
            f"    x = {c()};\n"
            f"    if (u {cmp_()} {c()}) {{\n"
            f"        x = x {op()} {c()};\n"
            f"    }}{orelse}\n"
            "    return x;\n}\n"
        )
    if template == 2:
        return (
            "int f(int n) {\n"
            "    int i;\n"
            f"    i = {c()};\n"
            f"    while (i {cmp_()} n) {{\n"
            f"        i = i + {c()};\n"
            "    }\n"
            "    return i;\n}\n"
        )
    return (
        "int f(int a[], int k) {\n"
        "    int x;\n"
        f"    x = a[k] {op()} {c()};\n"
        f"    return x {op()} {c()};\n}}\n"
    )


def random_graph(rng: random.Random) -> FlowGraph:
    g = build_flow_graph(desugar(parse_c(random_program(rng), filename="<generated>")))
    assert len(g.nodes) <= 12, "generator must stay within the oracle-friendly size"
    return g


def random_plan(rng: random.Random, g: FlowGraph, name: str = "generated") -> Plan:
    """Connected subpattern of g with randomized generalization and constraints."""
    size = rng.randint(1, min(5, len(g.nodes)))
    start = rng.choice(sorted(g.nodes))
    chosen = [start]
    # grow along data/ctrl adjacency so the pattern stays connected
    while len(chosen) < size:
        frontier: list[int] = []
        for nid in chosen:
            for src, (dst, _) in g.data_edges:
                if src == nid and dst not in chosen:
                    frontier.append(dst)
                if dst == nid and src not in chosen:
                    frontier.append(src)
            for src, dst, _ in g.ctrl_edges:
                if src == nid and dst not in chosen:
                    frontier.append(dst)
                if dst == nid and src not in chosen:
                    frontier.append(src)
        if not frontier:
            break
        chosen.append(rng.choice(sorted(set(frontier))))

    pid_of = {nid: f"p{i}" for i, nid in enumerate(sorted(chosen))}
    pnodes: list[PatternNode] = []
    slot_count = 0
    for nid in sorted(chosen):
        node = g.nodes[nid]
        const = slot = None
        if node.kind is NodeKind.CONST:
            roll = rng.random()
            if roll < 0.45:
                const = node.value
            elif roll < 0.6:
                const = node.value + rng.choice([-1, 1, 2])  # usually a non-match
            else:
                slot_count += 1
                slot = f"s{slot_count}"
        pnodes.append(PatternNode(pid_of[nid], node.kind, node.opcode, const, slot))

    chosen_set = set(chosen)
    pdata = tuple(sorted(
        ((pid_of[src], 0), (pid_of[dst], pi))
        for src, (dst, pi) in g.data_edges
        if src in chosen_set and dst in chosen_set
    ))
    pctrl = tuple(sorted(
        (pid_of[src], pid_of[dst], label if rng.random() < 0.5 else None)
        for src, dst, label in g.ctrl_edges
        if src in chosen_set and dst in chosen_set
    ))

    constraints: list[Predicate] = []
    slots = [pn.slot for pn in pnodes if pn.slot]
    for s in slots:
        if rng.random() < 0.5:
            constraints.append(Predicate("eq", (f"${s}", rng.choice(_CONSTS))))
    if len(chosen) >= 2 and rng.random() < 0.4:
        a, b = rng.sample(sorted(pid_of.values()), 2)
        constraints.append(Predicate(rng.choice(["samevar", "distinctvar"]), (a, b)))
    for pn in pnodes:
        if pn.kind is NodeKind.OP and rng.random() < 0.5:
            constraints.append(Predicate("commutable", (pn.pid,)))

    plan = Plan(
        name=name, kind="cliche", category="pe", corrupts=None, doc_template="",
        pnodes=tuple(sorted(pnodes, key=lambda pn: pn.pid)),
        pdata=pdata, pctrl=pctrl,
        constraints=tuple(constraints), exports=(),
    )
    check_plan(plan)
    return plan


def random_instance(seed: int) -> tuple[FlowGraph, Plan]:
    """A (graph, plan) pair; the plan sometimes comes from a different graph."""
    rng = random.Random(seed)
    g = random_graph(rng)
    source = g if rng.random() < 0.7 else random_graph(rng)
    return g, random_plan(rng, source, name=f"generated-{seed}")


# ---------------------------------------------------------------------------
# Program variants for the language-independence and self-recognition checks

def rename_variant(source: str) -> str:
    """Consistently rename every identifier except main/scanf/printf."""
    from adil.frontend import tokenize

    mapping: dict[str, str] = {}
    out: list[str] = []
    for tok in tokenize(source):
        if tok.kind == "ident" and tok.text not in ("main", "scanf", "printf"):
            if tok.text not in mapping:
                mapping[tok.text] = f"v{len(mapping)}"
            out.append(mapping[tok.text])
        elif tok.kind == "string":
            out.append(f'"{tok.text}"')
        else:
            out.append(tok.text)
    return _reflow_tokens(out, random.Random(0))


def reflow_variant(source: str, seed: int = 1) -> str:
    """Same tokens, permuted whitespace and line structure."""
    from adil.frontend import tokenize

    out: list[str] = []
    for tok in tokenize(source):
        out.append(f'"{tok.text}"' if tok.kind == "string" else tok.text)
    return _reflow_tokens(out, random.Random(seed))


def _reflow_tokens(tokens: list[str], rng: random.Random) -> str:
    lines: list[str] = []
    current: list[str] = []
    for text in tokens:
        current.append(text)
        if text in (";", "{", "}") and rng.random() < 0.9:
            lines.append(" " * rng.randrange(0, 8) + " ".join(current))
            current = []
    if current:
        lines.append(" ".join(current))
    return "\n".join(lines) + "\n"
