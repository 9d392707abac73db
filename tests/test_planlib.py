from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adil.flowgraph import NodeKind
from adil.planlib import (
    DuplicatePlan,
    PlanBase,
    PlanSemanticError,
    PlanSyntaxError,
    UnknownPlan,
    base_add,
    base_list,
    base_remove,
    base_validate,
    closure,
    dependency_order,
    parse_plan,
    parse_plans,
    print_plan,
    sub_closure,
)

from conftest import FLAT_RUNNING_TOTAL
from generators import random_graph, random_plan

MINIMAL = 'plan "zero-init" kind=cliche category=pl\nnode n1 kind=CONST const=0\nend\n'


def _mini_base(*plan_texts: str) -> PlanBase:
    base = PlanBase()
    for text in plan_texts:
        for plan in parse_plans(text):
            base_add(base, plan)
    return base


def test_parse_minimal_cliche():
    plan = parse_plan(MINIMAL)
    assert plan.name == "zero-init"
    assert len(plan.pnodes) == 1
    assert plan.pnodes[0].const == 0


def test_parse_running_total_fixture():
    plan = parse_plan(FLAT_RUNNING_TOTAL)
    kinds = {pn.kind for pn in plan.pnodes}
    assert {NodeKind.LOOPHEAD, NodeKind.JOIN, NodeKind.OP, NodeKind.TEST} <= kinds
    assert any(str(p) == "eq($init, 0)" for p in plan.constraints)


def test_parse_missing_end():
    with pytest.raises(PlanSyntaxError) as err:
        parse_plan('plan "x" kind=cliche category=pe\nnode n1 kind=TEST\n')
    assert "end" in str(err.value)


def test_parse_rejects_unbound_slot_in_constraint():
    text = ('plan "x" kind=cliche category=pe\nnode n1 kind=TEST\n'
            "constraint eq($ghost, 0)\nend\n")
    with pytest.raises(PlanSemanticError):
        parse_plan(text)


def test_parse_rejects_disconnected_pattern():
    text = ('plan "x" kind=cliche category=pe\nnode n1 kind=TEST\n'
            "node n2 kind=TEST\nend\n")
    with pytest.raises(PlanSemanticError):
        parse_plan(text)


def test_a_plan_error_names_its_file_and_header_line():
    text = (MINIMAL + "\n; a second plan, not connected\n"
            'plan "x" kind=cliche category=pe\nnode n1 kind=TEST\nnode n2 kind=TEST\nend\n')
    header = text.splitlines().index('plan "x" kind=cliche category=pe') + 1
    with pytest.raises(PlanSemanticError) as err:
        parse_plans(text, "base/x.plan")
    assert str(err.value) == f"base/x.plan:{header}:1: plan 'x': pattern graph is not connected"

def test_parse_corrupts_only_on_bug_plans():
    with pytest.raises(PlanSyntaxError):
        parse_plan('plan "x" kind=cliche corrupts="y" category=pe\nnode n1 kind=TEST\nend\n')
    with pytest.raises(PlanSyntaxError):
        parse_plan('plan "x" kind=bug category=cbt\nnode n1 kind=TEST\nend\n')


def test_print_round_trips_fixtures():
    for text in (MINIMAL, FLAT_RUNNING_TOTAL):
        plan = parse_plan(text)
        assert parse_plan(print_plan(plan)) == plan


def test_print_is_canonical_under_reordering():
    reordered = (
        'plan "zero-init" kind=cliche category=pl\n'
        "node n2 kind=JOIN\nnode n1 kind=CONST const=0\n"
        "data n1:0 -> n2:0\nend\n"
    )
    ordered = (
        'plan "zero-init" kind=cliche category=pl\n'
        "node n1 kind=CONST const=0\nnode n2 kind=JOIN\n"
        "data n1:0 -> n2:0\nend\n"
    )
    assert parse_plan(reordered) == parse_plan(ordered)
    assert print_plan(parse_plan(reordered)) == print_plan(parse_plan(ordered))


def test_shipped_base_round_trips(base):
    for name in base.names():
        plan = base.plans[name]
        assert parse_plan(print_plan(plan)) == plan


def test_shipped_base_categories(base):
    assert base_validate(base) == []
    for plan in base.plans.values():
        assert plan.category in ("pl", "pe", "cbt")
    # all three knowledge categories are represented
    assert {p.category for p in base.plans.values()} == {"pl", "pe", "cbt"}


def test_base_add_then_list():
    b = _mini_base(MINIMAL)
    assert base_list(b) == ["zero-init"]
    assert base_list(b, kind="bug") == []


def test_base_add_duplicate():
    b = _mini_base(MINIMAL)
    with pytest.raises(DuplicatePlan):
        base_add(b, parse_plan(MINIMAL))


def test_base_remove_unknown():
    with pytest.raises(UnknownPlan):
        base_remove(_mini_base(MINIMAL), "ghost")


def test_validate_dangling_corrupts():
    bug = ('plan "b" kind=bug corrupts="ghost" category=cbt\n'
           "node n1 kind=TEST\nend\n")
    assert len(base_validate(_mini_base(MINIMAL, bug))) == 1


def test_validate_subplan_cycle():
    a = 'plan "a" kind=cliche category=pe\nsub s1 plan="b"\nend\n'
    b = 'plan "b" kind=cliche category=pe\nsub s1 plan="a"\nend\n'
    diagnostics = base_validate(_mini_base(a, b))
    assert any("cycle" in d for d in diagnostics)


def _closure_base() -> PlanBase:
    goal = 'plan "goal" kind=cliche category=pe\nsub s1 plan="part"\nnode n1 kind=TEST\nctrl n1 -> s1\nend\n'
    part = 'plan "part" kind=cliche category=pe\nnode n1 kind=JOIN\nend\n'
    bug1 = 'plan "bug1" kind=bug corrupts="goal" category=cbt\nnode n1 kind=TEST\nend\n'
    bug2 = 'plan "bug2" kind=bug corrupts="part" category=cbt\nnode n1 kind=TEST\nend\n'
    other = 'plan "other" kind=cliche category=pe\nnode n1 kind=TEST\nend\n'
    return _mini_base(goal, part, bug1, bug2, other)


def test_closure_singleton():
    b = _mini_base(MINIMAL)
    assert closure(b, ["zero-init"]) == ["zero-init"]


def test_closure_pulls_subs_and_bugs():
    assert closure(_closure_base(), ["goal"]) == ["bug1", "bug2", "goal", "part"]


def test_closure_union_without_duplicates():
    b = _closure_base()
    assert closure(b, ["goal", "part"]) == closure(b, ["goal"])


def test_closure_monotone_and_idempotent():
    b = _closure_base()
    small = closure(b, ["part"])
    big = closure(b, ["part", "other"])
    assert set(small) <= set(big)
    assert closure(b, small) == small  # idempotent: closing a closure adds nothing


def test_closure_pulls_sub_plans_of_bug_plans_and_their_bugs():
    b = _closure_base()
    base_add(b, parse_plan('plan "bug3" kind=bug corrupts="other" category=cbt\n'
                           'sub s1 plan="part"\nnode n1 kind=TEST\nctrl n1 -> s1\nend\n'))
    assert closure(b, ["other"]) == ["bug2", "bug3", "other", "part"]


def test_sub_closure_follows_sub_nodes_only():
    b = _closure_base()
    assert sub_closure(b, "goal") == ["goal", "part"]
    assert sub_closure(b, "bug1") == ["bug1"]


def _closure_by_sub_closures(base: PlanBase, goals: list[str]) -> list[str]:
    """Closure as a fixpoint over whole sub-closures: each frontier plan adds
    its sub_closure, then queues the bug plans corrupting what it added."""
    selected: set[str] = set()
    frontier = list(goals)
    while frontier:
        added = [n for n in sub_closure(base, frontier.pop()) if n not in selected]
        selected.update(added)
        frontier.extend(name for name, plan in base.plans.items() if plan.corrupts in added)
    return sorted(selected)


def test_closure_matches_the_sub_closure_fixpoint(base):
    extended = _closure_base()
    base_add(extended, parse_plan('plan "bug3" kind=bug corrupts="other" category=cbt\n'
                                  'sub s1 plan="part"\nnode n1 kind=TEST\nctrl n1 -> s1\nend\n'))
    for b in (base, _closure_base(), extended):
        names = b.names()
        for goals in [[name] for name in names] + [list(pair) for pair in combinations(names, 2)]:
            assert closure(b, goals) == _closure_by_sub_closures(b, goals), goals


def test_closure_unknown_goal():
    with pytest.raises(UnknownPlan):
        closure(_mini_base(MINIMAL), ["ghost"])


def test_dependency_order_puts_subs_first():
    levels = dependency_order(_closure_base(), ["goal", "part", "bug1"])
    flat = [n for level in levels for n in level]
    assert flat.index("part") < flat.index("goal")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_property_generated_plans_round_trip(seed):
    rng = random.Random(seed)
    plan = random_plan(rng, random_graph(rng), name=f"gen-{seed}")
    assert parse_plan(print_plan(plan)) == plan
