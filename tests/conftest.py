from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from adil.planlib import PlanBase, load_plan_base  # noqa: E402


@pytest.fixture(scope="session")
def repo_root() -> Path:
    return ROOT


@pytest.fixture(scope="session")
def plans_dir() -> Path:
    return ROOT / "plans"


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return ROOT / "corpus"


@pytest.fixture(scope="session")
def base(plans_dir: Path) -> PlanBase:
    return load_plan_base(plans_dir)


@pytest.fixture(scope="session")
def bug_manifest(corpus_dir: Path) -> list[dict]:
    return json.loads((corpus_dir / "bugs" / "manifest.json").read_text())


@pytest.fixture(scope="session")
def corpus_cases(corpus_dir: Path, bug_manifest: list[dict]) -> list[tuple[Path, Path]]:
    """(program, spec) for all 21 corpus programs: the correct ones, then the seeded bugs."""
    correct = [(c, c.with_suffix(".spec")) for c in sorted((corpus_dir / "correct").glob("*.c"))]
    bugs = [(corpus_dir / e["bug"], corpus_dir / e["spec"]) for e in bug_manifest]
    return correct + bugs


SUM_SOURCE = """\
int sum(int a[], int n) {
    int s;
    int i;
    s = 0;
    i = 0;
    while (i < n) {
        s = s + a[i];
        i = i + 1;
    }
    return s;
}
"""

# Flat running-total pattern used by matcher-level tests (the shipped base
# expresses the same cliche hierarchically via counted-loop).
FLAT_RUNNING_TOTAL = """\
plan "flat-running-total" kind=cliche category=pe
doc "adds the elements @src one by one into @acc, which starts at $init"
node lh kind=LOOPHEAD
node js kind=JOIN
node ji kind=JOIN
node c0 kind=CONST slot=$init
node ci kind=CONST slot=$start
node lt kind=OP op=LT
node t kind=TEST
node add kind=OP op=ADD
node ar kind=AREAD
node inc kind=OP op=ADD
node c1 kind=CONST const=1
data c0:0 -> js:0
data add:0 -> js:1
data js:0 -> add:0
data ar:0 -> add:1
data ci:0 -> ji:0
data inc:0 -> ji:1
data ji:0 -> inc:0
data c1:0 -> inc:1
data ji:0 -> lt:0
data lt:0 -> t:0
data ji:0 -> ar:1
ctrl lh -> js label=seq
constraint eq($init, 0)
constraint commutable(add)
export acc = js
export counter = ji
export src = ar
end
"""

# A recognized running total next to a second, broken counted loop: the goal
# is matched in full while a bug cliche that corrupts one of its sub-plans
# also fires, so the bug finding reads that sub-plan's near-misses.
TWO_LOOP_SUM = """\
int sum(int a[], int n) {
    int s;
    int i;
    int t;
    int j;
    s = 0;
    i = 0;
    while (i < n) {
        s = s + a[i];
        i = i + 1;
    }
    t = 0;
    j = 0;
    while (j <= n) {
        t = t + a[j];
        j = j + 1;
    }
    return s + t;
}
"""

# (file name, source) of programs whose running-total goal is recognized
# and a bug cliche fires as well
GOAL_AND_BUG_PROGRAMS = (
    ("two_loops_off_by_one.c", TWO_LOOP_SUM),
    ("two_loops_no_increment.c",
     TWO_LOOP_SUM.replace("j <= n", "j < n").replace("        j = j + 1;\n", "        t = t + 1;\n")),
    ("sum_then_bare_loop.c", TWO_LOOP_SUM.replace("        t = t + a[j];\n", "")),
)
