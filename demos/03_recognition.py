"""Unification in action: exact matches, near-misses, constraint failures.

Matches the shipped running-total cliche against a correct sum, a product
(wrong operator), and a wrong-initializer variant, and lists every result of
every plan in the goal's closure. A plan's near-miss stage runs the first
time its near-misses are read; `by_plan` reads them all, so recognized plans
and bug cliches list theirs too, where a diagnosis would read only those it
reports. Run from the repo root:

    python demos/03_recognition.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from adil.flowgraph import graph_of
from adil.matcher import recognize
from adil.planlib import load_plan_base

SUM = (Path(__file__).parents[1] / "corpus/correct/sum.c").read_text()
base = load_plan_base(Path(__file__).parents[1] / "plans")


def show(title: str, source: str) -> None:
    g = graph_of(source, "demo.c")
    rec = recognize(g, base, goals=["running-total"])
    print(f"--- {title} ---")
    for name in sorted(rec.by_plan):
        for m in rec.by_plan[name]:
            unbound = [pn.pid for pn in base.plans[name].pnodes if pn.pid not in m.binding]
            status = "ACCEPTED" if m.accepted else f"near-miss (unbound: {unbound})"
            print(f"  {name:24} score {str(m.score):5} {status}")
            for o in m.constraint_outcomes:
                mark = "ok " if o.passed else "FAIL"
                print(f"      [{mark}] {o.predicate}: {o.detail}")
    print()


show("correct sum", SUM)
show("product instead of sum (structural near-miss)", SUM.replace("s + a[i]", "s * a[i]"))
show("accumulator starts at 1 (constraint failure)", SUM.replace("s = 0;", "s = 1;"))
show("operands swapped (commutable ADD still accepted)", SUM.replace("s + a[i]", "a[i] + s"))
