"""The debugger end to end: verdicts, pinpointed findings, explanations.

Diagnoses a correct program and two seeded bugs against their assignment
specs, printing the student-facing explanation for each. Run from the repo
root:

    python demos/04_diagnosis.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parents[1] / "src"))

from adil.debugger import analyze, parse_spec, report_to_json
from adil.explain import render, render_text
from adil.planlib import load_plan_base

ROOT = Path(__file__).parents[1]
base = load_plan_base(ROOT / "plans")


def run(program: str, spec_path: str) -> None:
    source = (ROOT / program).read_text()
    spec = parse_spec((ROOT / spec_path).read_text())
    report = analyze(source, program, spec, base)
    print(f"=== {program} against '{spec.title}' ===")
    print("verdicts:", report.verdicts)
    print(render_text(render(report, source, base)))


run("corpus/correct/sum.c", "corpus/correct/sum.spec")
run("corpus/bugs/sum__off_by_one.c", "corpus/correct/sum.spec")
run("corpus/bugs/sum__wrong_init.c", "corpus/correct/sum.spec")

# The same report, machine-readable: this is what --report-json writes.
source = (ROOT / "corpus/bugs/sum__off_by_one.c").read_text()
spec = parse_spec((ROOT / "corpus/correct/sum.spec").read_text())
report = analyze(source, "corpus/bugs/sum__off_by_one.c", spec, base)
print("=== JSON report ===")
print(report_to_json(report))
