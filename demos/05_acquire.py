"""Semi-automatic knowledge acquisition from an instructor exemplar.

Generalizes a small exemplar into a draft plan, shows the REVIEW stub a
human would edit, and verifies the draft recognizes its own exemplar. Run
from the repo root:

    python demos/05_acquire.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from adil.acquire import acquire_plan, review_stub
from adil.flowgraph import graph_of
from adil.frontend import parse_c
from adil.matcher import unify

EXEMPLAR = """\
int scale(int a[], int n) {
    int i;
    i = 0;
    while (i < n) {
        a[i] = a[i] * 12;
        i = i + 1;
    }
    return n;
}
"""

print("--- exemplar ---")
print(EXEMPLAR)

ast = parse_c(EXEMPLAR, filename="scale.c")
draft = acquire_plan(ast, "scale-in-place")

print("--- draft with review stubs (note: 12 became a free slot, 0 and 1 stayed) ---")
print(review_stub(draft))

g = graph_of(EXEMPLAR, "scale.c")
accepted = [r for r in unify(g, draft) if r.accepted]
print(f"--- self-recognition: {len(accepted)} accepted match(es), "
      f"score {accepted[0].score} ---")

perturbed = EXEMPLAR.replace("12", "99")
g2 = graph_of(perturbed, "scale99.c")
print(f"--- constant-perturbed variant accepted: "
      f"{any(r.accepted for r in unify(g2, draft))} ---")
