"""adil: a knowledge-based static debugger for a small C subset.

The entry point is `debugger.analyze(source, filename, spec, base)`: it
turns a program's text and its assignment's specification into a
diagnostic report, and `explain.render` turns the report into text for
the student. The pipeline behind it: parse C source into an Ast
(`frontend`), lower it to an annotated flow graph (`flowgraph`, whose
`graph_of` runs both steps), match the graph against a library of cliche
and bug-cliche plans (`planlib`, `matcher`), verify it against the
specification and localize faults (`debugger`), and render student-facing
explanations (`explain`). `acquire` drafts new plans from instructor
exemplars; `cli` drives everything.
"""

__version__ = "0.1.0"
