"""What one item costs a user: adil's public calls from source text to reports.

Every call goes through a module attribute (`frontend.parse_c`, not a name
imported here), so the traced run's rebinding sees the benchmark's calls as
well as adil's calls to itself. The default `SearchBudget` applies
throughout. Importing this module imports adil, which is part of set-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from adil import acquire, debugger, explain, flowgraph, frontend, planlib

from workloads import EXTRA_PLANS, Item


@dataclass
class Setup:
    base: planlib.PlanBase
    specs: dict[str, debugger.ProgramSpec]  # spec text -> parsed spec
    problems: list[str]  # base_validate of the loaded base


@dataclass
class Outcome:
    text: str  # rendered explanation
    report_json: str
    report: debugger.DiagnosticReport
    problems: list[str]  # authoring: base_validate after adding the new plan


def setup(root: Path, workload: str, spec_texts: list[str]) -> Setup:
    """Load and validate the plan base (plus the workload's plans) and parse the specs."""
    base = planlib.load_plan_base(root / "plans")
    for name in EXTRA_PLANS.get(workload, []):
        path = root / "perfbench" / "plans" / name
        for plan in planlib.parse_plans(path.read_text(encoding="utf-8"), str(path)):
            planlib.base_add(base, plan)
    problems = planlib.base_validate(base)
    specs = {text: debugger.parse_spec(text) for text in spec_texts}
    return Setup(base, specs, problems)


def grade(item: Item, s: Setup) -> Outcome:
    """Parse, build, diagnose and render one program against its spec."""
    ast = frontend.desugar(frontend.parse_c(item.source, filename=item.name))
    g = flowgraph.build_flow_graph(ast)
    report = debugger.diagnose(g, s.specs[item.spec], s.base)
    text = explain.render_text(explain.render(report, item.source, s.base))
    return Outcome(text, debugger.report_to_json(report), report, [])


def author(item: Item, s: Setup) -> Outcome:
    """Draft a plan from the exemplar, round-trip it through plan text, install
    it in a copy of the base, then grade the exemplar against it."""
    ast = frontend.parse_c(item.source, filename=item.name)
    draft = acquire.acquire_plan(ast, item.plan_name)
    plans = planlib.parse_plans(planlib.print_plan(draft), f"{item.plan_name}.plan")
    base = planlib.PlanBase(dict(s.base.plans))
    for plan in plans:
        planlib.base_add(base, plan)
    problems = planlib.base_validate(base)
    g = flowgraph.build_flow_graph(frontend.desugar(ast))
    report = debugger.diagnose(g, s.specs[item.spec], base)
    text = explain.render_text(explain.render(report, item.source, base))
    return Outcome(text, debugger.report_to_json(report), report, problems)


def run_item(workload: str):
    return author if workload == "authoring" else grade
