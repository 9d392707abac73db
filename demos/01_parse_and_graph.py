"""From C text to the annotated flow graph.

Walks the front half of the pipeline on a small program: tokenize, parse,
desugar the for-loop, and build the graph. Run from the repository root:

    python demos/01_parse_and_graph.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from adil.flowgraph import build_flow_graph, to_dot
from adil.frontend import desugar, parse_c, pretty_print, tokenize

SOURCE = """\
int main() {
    int a[10];
    int s;
    int i;
    s = 0;
    for (i = 0; i < 10; i = i + 1) {
        a[i] = i * i;
        s = s + a[i];
    }
    printf("%d\\n", s);
    return 0;
}
"""

print("--- the program ---")
print(SOURCE)

print("--- first few tokens ---")
for tok in tokenize(SOURCE)[:12]:
    print(f"  {tok.kind:8} {tok.text!r:10} line {tok.span.line_start} col {tok.span.col_start}")

# Parsing checks declarations and the subset grammar; desugaring rewrites the
# for-loop into init; while(cond){body; step} so the graph builder only ever
# sees one loop form.
ast = desugar(parse_c(SOURCE, filename="demo.c"))
print("\n--- after desugaring (note the while) ---")
print(pretty_print(ast))

g = build_flow_graph(ast)
print(f"--- flow graph: {len(g.nodes)} nodes, {len(g.data_edges)} data edges, "
      f"{len(g.ctrl_edges)} control edges ---")
for nid in sorted(g.nodes):
    n = g.nodes[nid]
    label = [n.kind.value]
    if n.opcode:
        label.append(n.opcode.value)
    if n.value is not None:
        label.append(str(n.value))
    if n.var_name:
        label.append(f"({n.var_name})")
    print(f"  {nid:3} {' '.join(label):24} line {n.span.line_start}")

print("\n--- Graphviz DOT (pipe into `dot -Tpng` to draw it) ---")
print(to_dot(g)[:400] + "...")
