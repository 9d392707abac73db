from __future__ import annotations

import dataclasses
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adil import flowgraph
from adil import frontend as fe
from adil.debugger import diagnose, parse_spec
from adil.flowgraph import (
    COMMUTATIVE,
    NodeKind,
    OpCode,
    UnboundVariable,
    build_flow_graph,
    graph_of,
    node_index,
    to_dot,
    to_json,
    value_chains,
)

from conftest import SUM_SOURCE
from generators import random_graph, random_program, rename_variant
from wellformed import has_cycle, validate

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def kinds_count(g, kind, opcode=None):
    return sum(1 for n in g.nodes.values() if n.kind is kind and (opcode is None or n.opcode is opcode))


def test_empty_main_body():
    g = graph_of("int main(){}")
    assert {n.kind for n in g.nodes.values()} == {NodeKind.ENTRY, NodeKind.EXIT}
    assert len(g.nodes) == 2
    assert not g.data_edges
    assert len(g.ctrl_edges) == 1


def test_straight_line_assignments():
    g = graph_of("int main(){int x;int y;x=1;y=x+2;}")
    assert len(g.nodes) == 5
    assert kinds_count(g, NodeKind.CONST) == 2
    add = next(nid for nid, n in g.nodes.items() if n.kind is NodeKind.OP)
    assert g.nodes[add].opcode is OpCode.ADD
    assert g.nodes[add].var_name == "y"
    one = next(nid for nid, n in g.nodes.items() if n.kind is NodeKind.CONST and n.value == 1)
    two = next(nid for nid, n in g.nodes.items() if n.kind is NodeKind.CONST and n.value == 2)
    assert (one, (add, 0)) in g.data_edges
    assert (two, (add, 1)) in g.data_edges
    assert g.nodes[one].var_name == "x"


def test_sum_loop_shape():
    g = graph_of(SUM_SOURCE)
    assert kinds_count(g, NodeKind.LOOPHEAD) == 1
    assert kinds_count(g, NodeKind.JOIN) == 2
    assert kinds_count(g, NodeKind.TEST) == 1
    assert kinds_count(g, NodeKind.OP, OpCode.LT) == 1
    assert kinds_count(g, NodeKind.AREAD) == 1
    assert kinds_count(g, NodeKind.OP, OpCode.ADD) == 2
    assert validate(g) == []


def test_unbound_variable_is_reported():
    with pytest.raises(UnboundVariable) as err:
        graph_of("int main(){int x;int y;y=x+1;}")
    assert err.value.name == "x"


def test_unbound_on_one_path_only():
    # x assigned only in the then branch: reading it afterwards is unsafe
    with pytest.raises(UnboundVariable):
        graph_of("int main(){int c;int x;int y;c=1;if(c<2){x=1;}y=x;}")


def test_arrays_bind_at_declaration():
    g = graph_of("int main(){int a[10];int i;i=0;a[i]=3;i=a[0];}")
    assert kinds_count(g, NodeKind.AWRITE) == 1
    assert kinds_count(g, NodeKind.AREAD) == 1
    assert validate(g) == []


def test_scanf_printf_nodes():
    g = graph_of('int main(){int x;scanf("%d",&x);printf("%d\\n",x);return 0;}')
    assert kinds_count(g, NodeKind.INPUT) == 1
    assert kinds_count(g, NodeKind.OUTPUT) == 1
    assert validate(g) == []


def test_call_nodes():
    g = graph_of("int half(int v){return v/2;}int main(){int y;y=half(8);return y;}")
    assert kinds_count(g, NodeKind.CALL) == 1


def test_to_dot_minimal():
    text = to_dot(graph_of("int main(){}"))
    node_lines = [l for l in text.splitlines() if "label" in l and "->" not in l and "node [" not in l]
    edge_lines = [l for l in text.splitlines() if "->" in l]
    assert len(node_lines) == 2
    assert len(edge_lines) == 1


def test_to_dot_straight_line_and_determinism():
    g = graph_of("int main(){int x;int y;x=1;y=x+2;}")
    text = to_dot(g)
    node_lines = [l for l in text.splitlines() if "label" in l and "->" not in l and "node [" not in l]
    assert len(node_lines) == 5
    assert to_dot(g) == text


def test_to_json_stable():
    g = graph_of(SUM_SOURCE)
    assert to_json(g) == to_json(g)
    assert '"entry": 0' in to_json(g)


def test_node_index_minimal():
    g = graph_of("int main(){}")
    idx = node_index(g)
    assert idx == {(NodeKind.ENTRY, None): [g.entry], (NodeKind.EXIT, None): [g.exit]}


def test_node_index_add_keys():
    g1 = graph_of("int main(){int x;int y;x=1;y=x+2;}")
    assert len(node_index(g1)[(NodeKind.OP, OpCode.ADD)]) == 1
    g2 = graph_of(SUM_SOURCE)
    adds = node_index(g2)[(NodeKind.OP, OpCode.ADD)]
    assert len(adds) == 2
    assert adds == sorted(adds)


def test_node_index_partitions_every_node():
    g = graph_of(SUM_SOURCE)
    seen = [nid for ids in node_index(g).values() for nid in ids]
    assert sorted(seen) == sorted(g.nodes)


def test_value_chains_follow_joins():
    g = graph_of(SUM_SOURCE)
    chains = value_chains(g)
    joins = {n.var_name: nid for nid, n in g.nodes.items() if n.kind is NodeKind.JOIN}
    adds = {n.var_name: nid for nid, n in g.nodes.items()
            if n.kind is NodeKind.OP and n.opcode is OpCode.ADD}
    assert chains[joins["s"]] == chains[adds["s"]]
    assert chains[joins["i"]] == chains[adds["i"]]
    assert chains[joins["s"]] != chains[joins["i"]]


def _count_stmts_exprs(node) -> int:
    total = 0
    if isinstance(node, (fe.Block, fe.VarDecl, fe.Assign, fe.If, fe.While, fe.For,
                         fe.Return, fe.Input, fe.Output, fe.ExprStmt, fe.IntLit,
                         fe.VarRef, fe.ArrayRef, fe.Unary, fe.Binary, fe.Call)):
        total += 1
    if dataclasses.is_dataclass(node):
        for f in dataclasses.fields(node):
            value = getattr(node, f.name)
            for child in value if isinstance(value, tuple) else [value]:
                if dataclasses.is_dataclass(child):
                    total += _count_stmts_exprs(child)
    return total


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_generated_graphs_are_well_formed(seed):
    src = random_program(random.Random(seed))
    ast = fe.desugar(fe.parse_c(src))
    g = build_flow_graph(ast)
    assert validate(g) == []
    assert len(g.nodes) <= 3 * _count_stmts_exprs(ast)


def test_straight_line_graphs_are_acyclic():
    g = graph_of("int main(){int x;int y;int z;x=1;y=x+2;z=y*x;}")
    # no joins at all, so removing nothing must leave a DAG: validate covers
    # the loop-aware rule; here we assert no data cycle exists outright
    succ = {}
    for src, (dst, _) in g.data_edges:
        succ.setdefault(src, []).append(dst)
    state = {}

    def dfs(v):
        state[v] = 1
        for w in succ.get(v, []):
            if state.get(w) == 1 or (w not in state and dfs(w)):
                return True
        state[v] = 2
        return False

    assert not any(dfs(v) for v in g.nodes if v not in state)


def test_renaming_yields_isomorphic_graph():
    src = SUM_SOURCE
    g1 = graph_of(src)
    g2 = graph_of(rename_variant(src))
    strip = lambda g: (
        sorted((nid, n.kind.value, n.opcode.value if n.opcode else None, n.value)
               for nid, n in g.nodes.items()),
        sorted(g.data_edges),
        sorted(g.ctrl_edges),
    )
    assert strip(g1) == strip(g2)


def _unspanned(g) -> tuple:
    """The graph as its nodes without their spans, and its edges."""
    nodes = {nid: dataclasses.replace(n, span=None) for nid, n in g.nodes.items()}
    return nodes, sorted(g.data_edges), sorted(g.ctrl_edges), g.entry, g.exit


def test_a_declaration_with_an_initializer_is_its_assignment():
    loop = "while (i < 3) { s = s + a[i]; i = i + 1; } return s; }"
    initialized = graph_of("int main() { int a[3]; int s = 0; int i = 0; " + loop)
    assigned = graph_of("int main() { int a[3]; int s; int i; s = 0; i = 0; " + loop)
    assert _unspanned(initialized) == _unspanned(assigned)
    assert initialized.nodes != assigned.nodes  # the initializers are read where they are written


def test_build_requires_desugared_ast():
    ast = fe.parse_c("int main(){int i;for(i=0;i<3;i=i+1){}}")
    with pytest.raises(ValueError):
        build_flow_graph(ast)


def test_empty_loop_body_back_edge():
    g = graph_of("int main(){int s;s=0;while(0){} return s;}")
    assert validate(g) == []
    backs = [e for e in g.ctrl_edges if e[2] == "back"]
    assert len(backs) == 1
    assert g.nodes[backs[0][0]].kind is NodeKind.TEST


def test_loop_body_ending_in_branches_keeps_one_back_edge():
    # branch-local declarations merge nothing, leaving two control tails
    src = ("int main(){int x;x=0;"
           "while(x<3){if(x<1){int t;t=1;}else{int u;u=2;}}}")
    g = graph_of(src)
    assert validate(g) == []
    assert sum(1 for e in g.ctrl_edges if e[2] == "back") == 1


def test_a_loop_body_declaring_in_an_if_branch_is_rejected():
    # C takes a declaration only inside a block (gcc: "expected expression
    # before 'int'"). Accepted, the if-branch put y in the loop body's scope:
    # at the loop head y had no slot yet, and with an outer y the assignment
    # y = 2 made the outer y a loop variable whose JOIN fed itself
    for outer in ("", "int y; y = 0; "):
        source = (f"int main() {{ int c; {outer}c = 0; while (c < 3) {{ if (c) int y = 1; y = 2; "
                  "c = c + 1; } return c; }")
        with pytest.raises(fe.CSyntaxError) as err:
            graph_of(source)
        span = err.value.span
        assert (span.line_start, span.col_start) == (1, source.index("int y = 1") + 1), source


@pytest.mark.parametrize("body, carried", [
    ("{ int s; s = x; x = x + 1; }", ["x"]),  # the inner s hides the outer one
    ("{ { s = s + x; } x = x + 1; }", ["x", "s"]),  # an outer s assigned in a nested block
    ("{ int t; t = 0; while (t < 2) { t = t + 1; } x = x + t; }", ["x", "t"]),  # t by the inner loop
])
def test_a_loop_carries_the_outer_variables_its_body_assigns(body, carried):
    g = graph_of(f"int main() {{ int x; int s; x = 0; s = 0; while (x < 3) {body} return s; }}")
    assert validate(g) == []
    joins = sorted(nid for nid, n in g.nodes.items() if n.role == "loop variable")
    assert [g.nodes[nid].var_name for nid in joins] == carried


def test_if_with_empty_branch():
    g = graph_of("int main(){int c;c=1;if(c<2){}return c;}")
    assert validate(g) == []


def test_corpus_graphs_are_well_formed(corpus_dir):
    programs = sorted((corpus_dir / "correct").glob("*.c"))
    programs += sorted((corpus_dir / "bugs").glob("*.c"))
    assert len(programs) >= 21
    for path in programs:
        g = graph_of(path.read_text(), str(path))
        assert validate(g) == [], path.name


def test_derived_views_are_built_once_per_graph(monkeypatch, corpus_dir, base):
    built = {"index": 0, "chains": 0}

    def counted(name, fn):
        def wrapper(g):
            built[name] += 1
            return fn(g)
        return wrapper

    monkeypatch.setattr(flowgraph, "_index_nodes", counted("index", flowgraph._index_nodes))
    monkeypatch.setattr(flowgraph, "_thread_values", counted("chains", flowgraph._thread_values))
    spec = parse_spec((corpus_dir / "correct/sum.spec").read_text())
    programs = [corpus_dir / "correct/sum.c", corpus_dir / "bugs/sum__off_by_one.c"]
    for count, path in enumerate(programs, start=1):
        g = graph_of(path.read_text(), str(path))
        diagnose(g, spec, base)
        assert built == {"index": count, "chains": count}
        assert node_index(g) is node_index(g)
        assert value_chains(g) is value_chains(g)


def test_a_copy_made_with_replace_computes_its_own_views():
    # the views are kept on the graph, not copied as its fields: a copy with
    # its one ADD turned into a SUB indexes it as a SUB and does not mark it
    # commutative, and the original keeps its own views
    g = graph_of("int f(int a, int b) { int c; c = a + b; return c; }")
    (add,) = node_index(g)[(NodeKind.OP, OpCode.ADD)]
    assert g.commutative_nodes == {add}
    chains = value_chains(g)
    nodes = dict(g.nodes)
    nodes[add] = dataclasses.replace(g.nodes[add], opcode=OpCode.SUB)
    h = dataclasses.replace(g, nodes=nodes)
    assert h.commutative_nodes == frozenset()
    assert node_index(h)[(NodeKind.OP, OpCode.SUB)] == [add]
    assert (NodeKind.OP, OpCode.ADD) not in node_index(h)
    assert value_chains(h) == chains and value_chains(h) is not chains
    assert g.commutative_nodes == {add} and node_index(g)[(NodeKind.OP, OpCode.ADD)] == [add]


def test_validate_handles_long_straight_line_programs():
    # a 1200-long data chain, deeper than Python's default recursion limit
    g = graph_of("int main() { int s; s = 0;\n" + "s = s + 1;\n" * 1200 + "return s; }\n")
    assert validate(g) == []


def test_validate_reports_a_data_cycle_outside_joins():
    g = graph_of("int main(){int x;int y;int z;x=1;y=x+2;z=y*x;return z;}")
    (add,) = [nid for nid, n in g.nodes.items() if n.opcode is OpCode.ADD]
    (mul,) = [nid for nid, n in g.nodes.items() if n.opcode is OpCode.MUL]
    # feed the product back into the sum that it is computed from
    edges = {e for e in g.data_edges if e[1] != (add, 0)} | {(mul, (add, 0))}
    cyclic = _with_edges(g, edges, g.ctrl_edges)
    assert validate(cyclic) == ["data edges contain a cycle that avoids JOIN back-inputs"]


def _sorted_edge_views(g):
    """The adjacency maps built from every edge in sorted order, so that the
    last edge into an in-port is its producer and each node's successors
    come in ascending order, once each; and the commutative nodes by their
    definition."""
    producer_of, successors, ctrl_out, ctrl_in = {}, {}, {}, {}
    for src, dst in sorted(g.data_edges):
        producer_of[dst] = src
        listed = successors.setdefault(src, [])
        if dst[0] not in listed:
            listed.append(dst[0])
    successors = {node: sorted(listed) for node, listed in successors.items()}
    for src, dst, label in sorted(g.ctrl_edges):
        ctrl_out.setdefault(src, []).append((dst, label))
        ctrl_in.setdefault(dst, []).append((src, label))
    commutative = {nid for nid, n in g.nodes.items()
                   if n.kind is NodeKind.OP and n.opcode in COMMUTATIVE and n.in_ports == 2}
    return producer_of, successors, ctrl_out, ctrl_in, commutative


def _with_edges(g, data_edges, ctrl_edges):
    """g with its edge sets replaced, its adjacency built from them by the
    reference: how a test breaks a built graph by hand."""
    edited = SimpleNamespace(nodes=g.nodes, data_edges=data_edges, ctrl_edges=ctrl_edges)
    producer_of, successors, ctrl_out, ctrl_in, _ = _sorted_edge_views(edited)
    return flowgraph.FlowGraph(g.nodes, producer_of, successors, ctrl_out, ctrl_in, g.entry, g.exit)


def _assert_views_match_sorted_edges(g):
    views = (g.producer_of, g.successors, g.ctrl_out, g.ctrl_in, g.commutative_nodes)
    assert views == _sorted_edge_views(g)
    assert g.commutative_nodes is g.commutative_nodes


def test_adjacency_views_match_sorted_edges_on_the_corpus(corpus_dir):
    for path in sorted(corpus_dir.glob("*/*.c")):
        _assert_views_match_sorted_edges(graph_of(path.read_text(), str(path)))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_adjacency_views_match_sorted_edges(seed):
    _assert_views_match_sorted_edges(random_graph(random.Random(seed)))


def test_a_mul_built_with_one_in_port_fits_no_node_shape():
    # every MUL has two operands, so one built with a single in-port fits no
    # node shape
    g = graph_of("int f(int u){int x;int y;int z;x=u+2;y=x*u;z=x+y;return z;}")
    mul, = [nid for nid, n in g.nodes.items() if n.opcode is OpCode.MUL]
    n = g.nodes[mul]
    nodes = dict(g.nodes)
    nodes[mul] = flowgraph.GraphNode(n.kind, 1, n.span, n.opcode, n.value, n.var_name, n.role)
    unary = dataclasses.replace(g, nodes=nodes)
    assert f"node {mul} (OP MUL) has 1 in-ports, not 2" in validate(unary)


# validate as it was before it counted each LOOPHEAD's back edges from
# ctrl_in: a scan of every ctrl edge per LOOPHEAD. Kept as the reference.
def _reference_validate(g) -> list[str]:
    problems: list[str] = []
    producers: dict[tuple[int, int], int] = {}
    for _, dst in g.data_edges:
        producers[dst] = producers.get(dst, 0) + 1
    for nid, n in g.nodes.items():
        for port in range(n.in_ports):
            count = producers.get((nid, port), 0)
            if count != 1:
                problems.append(f"node {nid} in_port {port} has {count} producers")
    for src, (dst, ip) in g.data_edges:
        kind = g.nodes[src].kind
        if not flowgraph.SHAPES[kind][1]:
            problems.append(f"edge {src}->({dst}:{ip}) leaves a {kind.value}, which makes no value")
        if ip >= g.nodes[dst].in_ports:
            problems.append(f"edge {src}->({dst}:{ip}) out of port range")

    succs: dict[int, list[int]] = {nid: [] for nid in g.nodes}
    for src, (dst, ip) in g.data_edges:
        if g.nodes[dst].kind is NodeKind.JOIN and ip == 1:
            continue
        succs[src].append(dst)
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
            backs = [e for e in g.ctrl_edges if e[1] == nid and e[2] == "back"]
            if len(backs) != 1:
                problems.append(f"loophead {nid} has {len(backs)} back edges")
    for src, dst, label in g.ctrl_edges:
        if label == "back" and g.nodes[dst].kind is not NodeKind.LOOPHEAD:
            problems.append(f"back edge {src}->{dst} does not target a LOOPHEAD")
    return problems


def test_validate_matches_reference_on_the_corpus_and_the_workloads(corpus_dir):
    sources = [path.read_text() for path in sorted(corpus_dir.glob("*/*.c"))]
    for workload in workloads.WORKLOADS:
        sources += [item.source for item in workloads.make_items(workload, 5, ROOT)]
    for source in sources:
        g = graph_of(source)
        assert validate(g) == _reference_validate(g) == []


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_validate_matches_reference_on_generated_graphs(seed):
    g = random_graph(random.Random(seed))
    assert validate(g) == _reference_validate(g)


def _relabel(g, edges: dict):
    """g with each ctrl edge in `edges` given its new label."""
    ctrl = frozenset((src, dst, edges.get((src, dst, label), label)) for src, dst, label in g.ctrl_edges)
    return _with_edges(g, g.data_edges, ctrl)


def test_validate_matches_reference_on_broken_back_edges():
    g = graph_of(SUM_SOURCE)
    (head,) = [nid for nid, n in g.nodes.items() if n.kind is NodeKind.LOOPHEAD]
    (back,) = [e for e in g.ctrl_edges if e[1] == head and e[2] == "back"]
    (enter,) = [e for e in g.ctrl_edges if e[1] == head and e[2] == "seq"]
    other = next(e for e in sorted(g.ctrl_edges) if e[2] == "seq" and e[1] != head)
    cases = {
        _relabel(g, {back: "seq"}): f"loophead {head} has 0 back edges",
        _relabel(g, {enter: "back"}): f"loophead {head} has 2 back edges",
        _relabel(g, {other: "back"}): f"back edge {other[0]}->{other[1]} does not target a LOOPHEAD",
    }
    for broken, problem in cases.items():
        assert validate(broken) == _reference_validate(broken) == [problem]


def test_validate_reports_a_branch_edge_that_leaves_no_test():
    g = graph_of(SUM_SOURCE)
    seq = next(e for e in sorted(g.ctrl_edges) if e[2] == "seq")
    assert g.nodes[seq[0]].kind is not NodeKind.TEST
    for label in ("true", "false"):
        problem = f"{label} edge {seq[0]}->{seq[1]} does not leave a TEST"
        assert validate(_relabel(g, {seq: label})) == [problem]


def test_validate_reports_a_data_edge_from_each_kind_that_makes_no_value():
    g = graph_of('int main(){int i;i=0;while(i<3){printf("%d", i);i=i+1;}return i;}')
    first = {n.kind: nid for nid, n in sorted(g.nodes.items(), reverse=True)}
    kinds = [kind for kind, (_, outs) in flowgraph.SHAPES.items() if not outs]
    assert kinds == [NodeKind.ENTRY, NodeKind.EXIT, NodeKind.TEST, NodeKind.LOOPHEAD, NodeKind.OUTPUT]
    for kind in kinds:
        # the edge replaces the one into the return value's (or, from EXIT,
        # the printed value's) in-port, so nothing else is wrong
        src = first[kind]
        dst = first[NodeKind.OUTPUT if kind is NodeKind.EXIT else NodeKind.EXIT]
        edges = {e for e in g.data_edges if e[1] != (dst, 0)} | {(src, (dst, 0))}
        broken = _with_edges(g, edges, g.ctrl_edges)
        problem = f"edge {src}->({dst}:0) leaves a {kind.value}, which makes no value"
        assert validate(broken) == _reference_validate(broken) == [problem]
