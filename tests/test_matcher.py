from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adil.matcher import (
    BudgetExceeded,
    SearchBudget,
    check_constraints,
    maximal_bindings,
    recognize,
    unify,
)
from adil.planlib import PlanBase, base_add, parse_plan, parse_plans

from conftest import FLAT_RUNNING_TOTAL, SUM_SOURCE, graph_of
from generators import random_instance
from oracle import brute_force_accepted

PRODUCT_SOURCE = SUM_SOURCE.replace("s + a[i]", "s * a[i]")
OFF_BY_ONE_SOURCE = SUM_SOURCE.replace("i < n", "i <= n")

BUG_LE_PLAN = """\
plan "test-off-by-one" kind=bug corrupts="flat-running-total" category=cbt
doc "loop runs one step too far"
node ji kind=JOIN
node le kind=OP op=LE
node t kind=TEST
data ji:0 -> le:0
data le:0 -> t:0
end
"""


@pytest.fixture(scope="module")
def rt_plan():
    return parse_plan(FLAT_RUNNING_TOTAL)


@pytest.fixture(scope="module")
def sum_graph():
    return graph_of(SUM_SOURCE)


def test_pigeonhole_returns_empty(rt_plan):
    tiny = graph_of("int main(){}")
    assert unify(tiny, rt_plan) == []


def test_sum_fixture_has_exactly_one_accepted_match(rt_plan, sum_graph):
    results = unify(sum_graph, rt_plan)
    accepted = [r for r in results if r.accepted]
    assert len(accepted) == 1
    assert accepted[0].score == 1
    # agreement with the brute-force oracle
    assert {frozenset(r.binding.items()) for r in accepted} == \
        brute_force_accepted(sum_graph, rt_plan)


def test_product_fixture_near_miss_leaves_add_unbound(rt_plan):
    results = unify(graph_of(PRODUCT_SOURCE), rt_plan)
    assert results
    best = results[0]
    assert best.score < 1
    assert "add" not in best.binding
    assert brute_force_accepted(graph_of(PRODUCT_SOURCE), rt_plan) == set()


def test_results_ordered_best_first(rt_plan):
    results = unify(graph_of(OFF_BY_ONE_SOURCE), rt_plan)
    scores = [r.score for r in results]
    assert scores == sorted(scores, reverse=True)
    assert all(s >= Fraction(6, 10) or s == 1 for s in scores)


def test_constraint_eq_pass(rt_plan, sum_graph):
    accepted = [r for r in unify(sum_graph, rt_plan) if r.accepted][0]
    outcome = next(o for o in accepted.constraint_outcomes if o.predicate.op == "eq")
    assert outcome.passed
    assert outcome.detail == "init=0"


def test_constraint_eq_fail_detail(rt_plan):
    wrong_init = graph_of(SUM_SOURCE.replace("s = 0;", "s = 1;"))
    best = unify(wrong_init, rt_plan)[0]
    assert best.score == 1 and not best.accepted
    outcome = next(o for o in best.constraint_outcomes if o.predicate.op == "eq")
    assert not outcome.passed
    assert outcome.detail == "init=1, expected 0"


def test_samevar_follows_value_threading(sum_graph):
    # the loop counter join and its increment are the same variable; the two
    # accumulator/counter joins are not
    text = FLAT_RUNNING_TOTAL.replace(
        "constraint eq($init, 0)",
        "constraint eq($init, 0)\nconstraint samevar(ji, inc)\nconstraint distinctvar(js, ji)",
    )
    plan = parse_plan(text)
    accepted = [r for r in unify(sum_graph, plan) if r.accepted]
    assert len(accepted) == 1
    by_op = {o.predicate.op: o for o in accepted[0].constraint_outcomes}
    assert by_op["samevar"].passed
    assert by_op["distinctvar"].passed


def test_commutable_swapped_operands_still_accepted(rt_plan):
    swapped = graph_of(SUM_SOURCE.replace("s + a[i]", "a[i] + s"))
    assert any(r.accepted for r in unify(swapped, rt_plan))


def test_without_commutable_swap_is_rejected(sum_graph):
    text = FLAT_RUNNING_TOTAL.replace("constraint commutable(add)\n", "")
    plan = parse_plan(text)
    swapped = graph_of(SUM_SOURCE.replace("s + a[i]", "a[i] + s"))
    assert not any(r.accepted for r in unify(swapped, plan))
    assert any(r.accepted for r in unify(sum_graph, plan))


def test_injectivity_of_bindings(rt_plan):
    for source in (SUM_SOURCE, PRODUCT_SOURCE, OFF_BY_ONE_SOURCE):
        for r in unify(graph_of(source), rt_plan):
            values = list(r.binding.values())
            assert len(values) == len(set(values))


def test_unify_is_deterministic(rt_plan, sum_graph):
    runs = [unify(sum_graph, rt_plan) for _ in range(3)]
    keys = [[(r.plan, sorted(r.binding.items()), r.score) for r in run] for run in runs]
    assert keys[0] == keys[1] == keys[2]


# -- budget behavior

def dense_source(k: int = 24) -> str:
    """Additions with two consumers each: branchy ground for a chain pattern."""
    decls = "".join(f"    int x{i};\n" for i in range(k))
    body = "    x0 = u + v;\n    x1 = x0 + u;\n"
    body += "".join(f"    x{i} = x{i-1} + x{i-2};\n" for i in range(2, k))
    return f"int f(int u, int v) {{\n{decls}{body}    return x{k-1};\n}}\n"

CHAIN_PLAN = """\
plan "add-chain" kind=cliche category=pe
node a1 kind=OP op=ADD
node a2 kind=OP op=ADD
node a3 kind=OP op=ADD
node a4 kind=OP op=ADD
node a5 kind=OP op=ADD
data a1:0 -> a2:0
data a2:0 -> a3:0
data a3:0 -> a4:0
data a4:0 -> a5:0
constraint commutable(a1)
constraint commutable(a2)
constraint commutable(a3)
constraint commutable(a4)
constraint commutable(a5)
end
"""


def test_budget_exceeded_carries_partials():
    g = graph_of(dense_source())
    plan = parse_plan(CHAIN_PLAN)
    with pytest.raises(BudgetExceeded) as err:
        unify(g, plan, SearchBudget(max_extension_steps=1000))
    truncated = err.value.results
    full = unify(g, plan, SearchBudget(max_extension_steps=1_000_000))
    assert any(r.accepted for r in full)
    truncated_keys = {frozenset(r.binding.items()) for r in truncated}
    full_keys = {frozenset(r.binding.items()) for r in full}
    assert truncated_keys <= full_keys


def test_budget_monotonicity_on_generated_cases():
    for seed in (3, 11, 29):
        g, p = random_instance(seed)
        small_budget = SearchBudget(max_extension_steps=40)
        try:
            small = unify(g, p, small_budget)
        except BudgetExceeded as err:
            small = err.value.results if hasattr(err.value, "results") else err.results
        big = unify(g, p, SearchBudget())
        assert {frozenset(r.binding.items()) for r in small} <= \
            {frozenset(r.binding.items()) for r in big}


# -- recognize

def _fixture_base() -> PlanBase:
    base = PlanBase()
    for plan in parse_plans(FLAT_RUNNING_TOTAL) + parse_plans(BUG_LE_PLAN):
        base_add(base, plan)
    return base


def test_recognize_empty_base(sum_graph):
    rec = recognize(sum_graph, PlanBase())
    assert rec.by_plan == {}
    assert not rec.truncated


def test_recognize_correct_program(sum_graph):
    rec = recognize(sum_graph, _fixture_base(), goals=["flat-running-total"])
    assert len(rec.accepted("flat-running-total")) == 1
    assert rec.accepted("test-off-by-one") == []


def test_recognize_off_by_one_program():
    rec = recognize(graph_of(OFF_BY_ONE_SOURCE), _fixture_base(), goals=["flat-running-total"])
    assert len(rec.accepted("test-off-by-one")) == 1
    near = [r for r in rec.by_plan["flat-running-total"] if not r.accepted]
    assert near and near[0].score >= Fraction(6, 10)


def test_recognize_hierarchical_plans(base, sum_graph):
    rec = recognize(sum_graph, base, goals=["running-total"])
    accepted = rec.accepted("running-total")
    assert len(accepted) == 1
    assert "cl" in accepted[0].sub_matches
    assert accepted[0].sub_matches["cl"].plan == "counted-loop"


def test_recognize_parallel_output_matches_serial(base, sum_graph):
    serial = recognize(sum_graph, base, goals=["running-total"], jobs=1)
    parallel = recognize(sum_graph, base, goals=["running-total"], jobs=4)
    strip = lambda rec: {
        name: [(r.plan, sorted(r.binding.items()), r.score) for r in results]
        for name, results in rec.by_plan.items()
    }
    assert strip(serial) == strip(parallel)


def test_check_constraints_returns_outcomes(rt_plan, sum_graph):
    raw = [r for r in unify(sum_graph, rt_plan) if r.accepted][0]
    rechecked = check_constraints(raw, rt_plan, sum_graph)
    assert rechecked.accepted
    assert len(rechecked.constraint_outcomes) == len(rt_plan.constraints)


def test_oracle_equivalence_sample():
    for seed in range(60):
        g, p = random_instance(seed)
        got = {frozenset(r.binding.items()) for r in unify(g, p) if r.accepted}
        assert got == brute_force_accepted(g, p), f"seed {seed}"


# -- maximality filter


def _maximal_by_definition(bindings):
    """Reference: drop r iff some recorded binding strictly contains it (O(R^2))."""
    return [r for r in bindings
            if not any(set(r.items()) < set(o.items()) for o in bindings)]


_binding = st.dictionaries(st.sampled_from("abcde"), st.integers(-2, 3), max_size=5)
_single_pair = st.dictionaries(st.sampled_from("abcde"), st.integers(-2, 3), min_size=1, max_size=1)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_property_maximality_filter_matches_definition(data):
    family = data.draw(st.lists(_binding, max_size=25))
    if family:  # equal-size duplicates, which independent draws rarely produce
        family += [dict(b) for b in data.draw(st.lists(st.sampled_from(family), max_size=5))]
    family += data.draw(st.lists(_single_pair, max_size=4))
    family = data.draw(st.permutations(family))
    assert maximal_bindings(family) == _maximal_by_definition(family)


def test_maximality_filter_keeps_duplicates_and_drops_strict_subsets():
    family = [{"a": 1}, {"a": 1, "b": 2}, {"a": 1, "b": 2}, {"b": 2, "c": 0}, {"c": 0}, {}]
    assert maximal_bindings(family) == [{"a": 1, "b": 2}, {"a": 1, "b": 2}, {"b": 2, "c": 0}]
