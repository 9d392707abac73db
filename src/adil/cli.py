"""Command-line driver.

    adil analyze <prog.c> --spec <file> [--plans DIR] [--budget N] [--theta X]
                 [--report-json PATH] [--max-findings N]
    adil graph <prog.c> [--json]
    adil plan <check|list|add|rm> [...]
    adil acquire <prog.c> --name <n> [-o FILE] [--accept] [--plans DIR]

Exit codes: 0 all required goals recognized; 1 findings reported (or a plan
management failure); 2 usage or parse errors; 3 search truncated by the
budget with nothing found. Flags beat the ADIL_PLANS / ADIL_BUDGET /
ADIL_THETA environment variables, which beat the defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import acquire as acq
from . import debugger, explain, flowgraph, frontend, planlib
from .matcher import SearchBudget
from .source import SourceError

_USAGE_ERRORS = (
    SourceError,  # a program, plan file or spec the parsers refuse
    planlib.PlanSemanticError,
    planlib.DuplicatePlan,  # two plan files define one name
    planlib.UnknownPlan,
    OSError,  # a missing file, a directory where a file belongs, no permission
    ValueError,  # e.g. several functions and no main
)


def _env(name: str, default: str) -> str:
    return os.environ.get(name, default)


def _env_number(name: str, default: str, kind: type[int] | type[float]) -> int | float:
    raw = _env(name, default)
    try:
        return kind(raw)
    except ValueError:
        raise ValueError(f"environment variable {name}={raw!r} is not a valid {kind.__name__}") from None


def _count(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"expected a whole number, 0 or more: {text!r}")
    return n


def _add_plans_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument("--plans", default=_env("ADIL_PLANS", "plans"),
                   help="plan base directory (default ./plans or $ADIL_PLANS)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adil", description="knowledge-based static debugger")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="diagnose a program against its specification")
    p.add_argument("program", help="C-subset source file")
    p.add_argument("--spec", required=True, help="specification file (.spec)")
    _add_plans_flag(p)
    p.add_argument("--budget", type=int, default=_env_number("ADIL_BUDGET", "1000000", int))
    p.add_argument("--theta", type=float, default=_env_number("ADIL_THETA", "0.6", float))
    p.add_argument("--report-json", default=None, help="also write the JSON report (every finding) here")
    p.add_argument("--max-findings", type=_count, default=None,
                   help="show at most this many findings; the exit code counts them all")

    p = sub.add_parser("graph", help="dump a program's annotated flow graph")
    p.add_argument("program")
    p.add_argument("--json", action="store_true", help="JSON instead of Graphviz DOT")

    p = sub.add_parser("plan", help="manage the plan base")
    plan_sub = p.add_subparsers(dest="plan_command", required=True)
    q = plan_sub.add_parser("check", help="validate the plan base")
    _add_plans_flag(q)
    q = plan_sub.add_parser("list", help="list plans")
    _add_plans_flag(q)
    q.add_argument("--kind", choices=["cliche", "bug"], default=None)
    q.add_argument("--category", choices=["pl", "pe", "cbt"], default=None)
    q = plan_sub.add_parser("add", help="add the plans in a file to the base")
    q.add_argument("file")
    _add_plans_flag(q)
    q = plan_sub.add_parser("rm", help="remove a plan from the base")
    q.add_argument("name")
    _add_plans_flag(q)

    p = sub.add_parser("acquire", help="draft a plan from an exemplar program")
    p.add_argument("program")
    p.add_argument("--name", required=True, help="name for the drafted plan")
    p.add_argument("-o", "--output", default=None, help="draft file (default <name>.plan)")
    p.add_argument("--accept", action="store_true",
                   help="install the reviewed draft into the plan base")
    _add_plans_flag(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        parser = build_parser()
    except ValueError as err:  # a malformed ADIL_BUDGET or ADIL_THETA
        print(f"adil: {err}", file=sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:  # argparse exits on usage errors and --help
        code = err.code if isinstance(err.code, int) else 2
        return 0 if code == 0 else 2
    try:
        if args.command == "analyze":
            return cmd_analyze(args)
        if args.command == "graph":
            return cmd_graph(args)
        if args.command == "plan":
            return cmd_plan(args)
        if args.command == "acquire":
            return cmd_acquire(args)
        raise AssertionError(args.command)
    except _USAGE_ERRORS as err:
        print(f"adil: {err}", file=sys.stderr)
        return 2


def _load_base(plans_dir: str) -> planlib.PlanBase:
    base = planlib.load_plan_base(plans_dir)
    problems = planlib.base_validate(base)
    if problems:
        raise planlib.PlanSemanticError(
            f"plan base {plans_dir!r} is invalid: " + "; ".join(problems))
    return base


def cmd_analyze(args: argparse.Namespace) -> int:
    # first, so a bad --budget or --theta is reported before any file is read
    budget = SearchBudget(max_extension_steps=args.budget, theta=args.theta)
    source = Path(args.program).read_text(encoding="utf-8-sig")
    spec = debugger.parse_spec(Path(args.spec).read_text(encoding="utf-8-sig"), args.spec)
    base = _load_base(args.plans)
    report = debugger.analyze(source, args.program, spec, base, budget)

    if args.report_json:  # first, so an unwritable path exits 2 before any report is shown
        Path(args.report_json).write_text(debugger.report_to_json(report), encoding="utf-8")
    shown = report
    hidden = 0 if args.max_findings is None else max(0, len(report.findings) - args.max_findings)
    if hidden:
        shown = replace(report, findings=report.findings[: args.max_findings])
    explanation = explain.render(shown, source, base)
    if hidden:
        note = f"{hidden} more finding(s) not shown (--max-findings {args.max_findings})."
        explanation = replace(explanation, sections=explanation.sections + (("Not shown", note),))
    sys.stdout.write(explain.render_text(explanation))

    if report.findings:
        return 1
    if report.budget_truncated:
        return 3
    return 0


def cmd_graph(args: argparse.Namespace) -> int:
    source = Path(args.program).read_text(encoding="utf-8-sig")
    try:
        g = flowgraph.graph_of(source, args.program)
    except flowgraph.UnboundVariable as err:
        print(f"adil: {err}", file=sys.stderr)
        return 1
    sys.stdout.write(flowgraph.to_json(g) if args.json else flowgraph.to_dot(g))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    if args.plan_command == "check":
        errors: list[Exception] = []  # each file's first plan error, then a duplicate name
        try:
            base = planlib.load_plan_base(args.plans, errors)
        except planlib.DuplicatePlan as err:
            errors.append(err)
        for err in errors:
            print(f"adil: {err}", file=sys.stderr)
        if errors:
            return 2
        problems = planlib.base_validate(base)
        for problem in problems:
            print(problem)
        print(f"{len(base.plans)} plan(s), {len(problems)} problem(s)")
        return 0 if not problems else 1
    if args.plan_command == "list":
        base = planlib.load_plan_base(args.plans)
        for name in planlib.base_list(base, kind=args.kind, category=args.category):
            plan = base.plans[name]
            print(f"{name}  kind={plan.kind} category={plan.category}"
                  + (f" corrupts={plan.corrupts}" if plan.corrupts else ""))
        return 0
    if args.plan_command == "add":
        new_plans = planlib.parse_plans(Path(args.file).read_text(encoding="utf-8-sig"), args.file)
        if not _install(args.plans, new_plans):
            return 1
        for plan in new_plans:
            print(f"added {plan.name}")
        return 0
    if args.plan_command == "rm":
        base = planlib.load_plan_base(args.plans)
        try:
            planlib.base_remove(base, args.name)
        except planlib.UnknownPlan:
            print(f"adil: no plan named {args.name!r} in {args.plans}", file=sys.stderr)
            return 1
        if _refused(base, f"remove {args.name}"):
            return 1
        for path, plans in planlib.plan_files(args.plans).items():
            if any(p.name == args.name for p in plans):
                if len(plans) > 1:  # cut only its lines, keeping the others and the comments
                    text = path.read_text(encoding="utf-8-sig")
                    _write_atomic(path, planlib.remove_plan_text(text, args.name, str(path)))
                else:
                    path.unlink()
                print(f"removed {args.name}")
                return 0
        raise AssertionError(args.name)  # the loaded base held it, so some file does
    raise AssertionError(args.plan_command)


def _refused(base: planlib.PlanBase, edit: str) -> bool:
    """Whether the edited base is invalid; if so, say why on stderr."""
    problems = planlib.base_validate(base)
    if problems:
        print(f"adil: refusing to {edit}: the plan base would be invalid", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
    return bool(problems)


def _unusable_names(names: list[str]) -> bool:
    """Whether some plan name is not one file name in the plan directory; if so, say which."""
    unsafe = [name for name in names if name in ("", ".", "..") or "/" in name or "\\" in name]
    if unsafe:
        print(f"adil: refusing to add {', '.join(map(repr, unsafe))}: a plan name must be"
              " usable as one file name in the plan directory", file=sys.stderr)
    return bool(unsafe)


def _install(plans_dir: str, new_plans: list[planlib.Plan]) -> bool:
    """Write each new plan to <plans_dir>/<name>.plan, but only if the base
    they make is valid and no file is overwritten; else say why and write nothing."""
    if _unusable_names([plan.name for plan in new_plans]):
        return False
    base = planlib.load_plan_base(plans_dir)
    try:
        for plan in new_plans:
            planlib.base_add(base, plan)
    except planlib.DuplicatePlan as err:
        print(f"adil: {err}", file=sys.stderr)
        return False
    paths = [Path(plans_dir) / f"{plan.name}.plan" for plan in new_plans]
    taken = [str(path) for path in paths if path.exists()]
    if taken:
        print(f"adil: refusing to overwrite {', '.join(taken)}, which holds other plans",
              file=sys.stderr)
        return False
    if _refused(base, "add " + ", ".join(plan.name for plan in new_plans)):
        return False
    for plan, path in zip(new_plans, paths):
        _write_atomic(path, planlib.print_plan(plan))
    return True


def _write_atomic(path: Path, text: str) -> None:
    """Replace path's contents in one step: a reader sees the old file or the new one."""
    tmp = path.with_name(f".{path.name}.tmp")  # not *.plan, so never loaded
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


def cmd_acquire(args: argparse.Namespace) -> int:
    draft_path = Path(args.output or f"{args.name}.plan")
    if args.accept:
        if not draft_path.is_file():
            print(f"adil: no draft at {draft_path}; run acquire without --accept first",
                  file=sys.stderr)
            return 2
        plans = planlib.parse_plans(draft_path.read_text(encoding="utf-8-sig"), str(draft_path))
        if not _install(args.plans, plans):
            return 1
        for plan in plans:
            print(f"installed {plan.name} into {args.plans}")
        return 0

    if _unusable_names([args.name]):  # --accept could never install it
        return 1
    ast = frontend.parse_c(Path(args.program).read_text(encoding="utf-8-sig"), filename=args.program)
    try:
        draft = acq.acquire_plan(ast, args.name)
    except (acq.AcquireError, flowgraph.UnboundVariable) as err:
        print(f"adil: {err}", file=sys.stderr)
        return 1
    draft_path.write_text(acq.review_stub(draft), encoding="utf-8")
    print(f"draft written to {draft_path}; review it, then re-run with --accept")
    return 0


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
