from __future__ import annotations

import ast
import dataclasses
import gc
import json
import os
import random
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adil import debugger, kernel, matcher
from adil.acquire import acquire_plan
from adil.frontend import desugar, parse_c
from adil.matcher import (
    BudgetExceeded,
    MatchResult,
    SearchBudget,
    check_constraints,
    maximal_bindings,
    recognize,
    unify,
)
from adil.debugger import diagnose, parse_spec
from adil.flowgraph import COMMUTATIVE, NodeKind, OpCode, build_flow_graph, graph_of
from adil.planlib import (
    PatternNode,
    Plan,
    PlanBase,
    PlanSemanticError,
    Predicate,
    base_add,
    dependency_order,
    load_plan_base,
    parse_plan,
    parse_plans,
    print_plan,
    sub_closure,
)

from conftest import FLAT_RUNNING_TOTAL, GOAL_AND_BUG_PROGRAMS, ROOT, SUM_SOURCE
from generators import random_instance
from oracle import brute_force_accepted

sys.path.insert(0, str(ROOT / "perfbench"))

import pipeline  # noqa: E402
import workloads  # noqa: E402

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


LARGER_THAN_GRAPH_PLAN = """\
plan "add-then-products" kind=cliche category=pe
node a kind=PARAM
node c kind=CONST const=1
node o kind=OP op=ADD
node x kind=EXIT
node o2 kind=OP op=MUL
node o3 kind=OP op=MUL
data a:0 -> o:0
data c:0 -> o:1
data o:0 -> x:0
data o:0 -> o2:0
data o2:0 -> o3:0
end
"""


@pytest.mark.parametrize("op", ["MUL", "ADD"])
@pytest.mark.parametrize("body, nodes", [("", 5), ("int z; z = 7; ", 6)])
def test_a_plan_larger_than_the_graph_keeps_its_near_miss(op, body, nodes):
    # Six pattern nodes: on five graph nodes no full match can exist, but the
    # near-miss is the same as on six. With two ADDs the seed of round 0 has
    # a candidate, and the near-miss comes from the branch that round defers.
    g = graph_of("int f(int a) { %sreturn a + 1; }" % body)
    assert len(g.nodes) == nodes
    plan = parse_plan(LARGER_THAN_GRAPH_PLAN.replace("MUL", op))
    results = _same_search(g, plan, 0.6)
    assert [(r.score, sorted(r.binding)) for r in results] == [(Fraction(2, 3), ["a", "c", "o", "x"])]


SUB_NODE_PLANS = """\
plan "the-param" kind=cliche category=pe
node p kind=PARAM
export value = p
end
plan "the-add" kind=cliche category=pe
node o kind=OP op=ADD
export sum = o
end
plan "param-add-exit" kind=cliche category=pe
sub sp plan="the-param"
sub sa plan="the-add"
node a kind=PARAM
node c kind=CONST const=1
node o kind=OP op=ADD
node x kind=EXIT
data a:0 -> o:0
data sp:0 -> o:0
data c:0 -> o:1
data o:0 -> x:0
data sa:0 -> x:0
end
"""


def test_a_plan_with_sub_nodes_can_outnumber_the_graph_nodes():
    # six pattern nodes on five graph nodes, but two of them bind sub-matches:
    # the four real ones fit, and stage one finds the full match
    base = PlanBase()
    for plan in parse_plans(SUB_NODE_PLANS):
        base_add(base, plan)
    g = graph_of("int f(int a) { return a + 1; }")
    assert len(g.nodes) == 5
    accepted: dict[str, list] = {}
    for level in dependency_order(base, base.names()):
        for name in level:
            accepted[name] = [r for r in _same_search(g, base.plans[name], 1.0, accepted, base.plans)
                              if r.accepted]
    assert len(accepted["param-add-exit"]) == 1


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


def test_recognize_is_deterministic_across_runs(base):
    # fresh graphs each time, goal-directed and whole-base, off-by-one and
    # correct: every run lists the same results in the same order
    strip = lambda rec: [
        (name, [(r.plan, list(r.binding.items()), r.score) for r in results])
        for name, results in rec.by_plan.items()
    ]
    for source in (SUM_SOURCE, OFF_BY_ONE_SOURCE):
        for goals in (["running-total"], None):
            runs = [strip(recognize(graph_of(source), base, goals=goals)) for _ in range(3)]
            assert runs[0] == runs[1] == runs[2]


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


# -- the search's step accounting

# Steps charged per plan when the whole shipped base is recognized on each
# corpus program, in the order of STEP_PLANS. The budget bounds exactly this
# count. The search deliberately skips branches that can only record
# bindings scoring below theta, so these are fewer than a search of every
# seed round and fallback skip makes (that search is _ReferenceUnifier
# below, and the property tests there guard that the results are the same).
# A change that moves any entry changes which searches the budget truncates.
# A sub pattern node's candidates are only the sub-matches whose export node
# sits on a data edge to an already-bound neighbour (pseudo_candidates); three
# entries are one step lower than with every sub-match tried: average on
# average__swapped_operands.c and swapped-division on average.c (seeded at
# the division, whose dividend is not the one running total's accumulator in
# the other program's operand order), and copy-loop on reverse.c (the one
# counted loop's counter is not the index of the reversed write).
STEP_PLANS = (
    "average", "conditional-count", "copy-loop", "counted-loop", "linear-search-flag",
    "max-search", "min-search", "missing-increment", "off-by-one-bound", "product-accumulate",
    "reverse-loop", "running-total", "sentinel-input-loop", "swapped-division",
    "wrong-accumulator-product", "wrong-accumulator-sum",
)
CORPUS_STEPS = {
    "bugs/average__swapped_operands.c": (1, 5, 2, 19, 5, 11, 13, 4, 9, 3, 0, 15, 1, 2, 1, 13),
    "bugs/copy__off_by_one.c": (0, 12, 3, 7, 3, 4, 4, 1, 14, 1, 0, 7, 6, 0, 1, 7),
    "bugs/count__off_by_one.c": (0, 41, 0, 14, 14, 4, 4, 2, 21, 1, 0, 10, 10, 0, 1, 10),
    "bugs/count__wrong_init.c": (0, 43, 2, 23, 16, 11, 13, 5, 13, 3, 0, 12, 10, 0, 1, 10),
    "bugs/max__missing_increment.c": (0, 6, 0, 9, 11, 35, 29, 5, 2, 6, 0, 6, 0, 0, 2, 2),
    "bugs/product__wrong_accumulator.c": (0, 14, 2, 16, 5, 12, 14, 4, 6, 11, 0, 9, 6, 0, 9, 7),
    "bugs/product__wrong_init.c": (0, 13, 2, 15, 5, 11, 13, 4, 6, 11, 0, 9, 6, 0, 9, 7),
    "bugs/sum__missing_increment.c": (0, 4, 0, 14, 5, 4, 7, 4, 6, 1, 0, 7, 6, 0, 1, 7),
    "bugs/sum__off_by_one.c": (0, 3, 0, 10, 3, 4, 4, 1, 17, 1, 0, 13, 1, 0, 1, 13),
    "bugs/sum__wrong_accumulator.c": (0, 5, 2, 20, 5, 12, 14, 4, 9, 3, 0, 15, 1, 0, 1, 13),
    "bugs/sum__wrong_init.c": (0, 5, 2, 19, 5, 11, 13, 4, 9, 3, 0, 15, 1, 0, 1, 13),
    "correct/average.c": (2, 5, 2, 19, 5, 11, 13, 4, 9, 3, 0, 15, 1, 1, 1, 13),
    "correct/copy.c": (0, 14, 7, 16, 5, 12, 14, 4, 6, 3, 4, 9, 6, 0, 1, 7),
    "correct/count.c": (0, 43, 2, 23, 16, 11, 13, 5, 13, 3, 0, 12, 10, 0, 1, 10),
    "correct/max.c": (0, 20, 5, 17, 12, 44, 39, 5, 7, 8, 0, 14, 6, 0, 3, 9),
    "correct/min.c": (0, 20, 5, 20, 12, 31, 50, 8, 7, 8, 0, 14, 6, 0, 3, 9),
    "correct/product.c": (0, 13, 2, 15, 5, 11, 13, 4, 6, 11, 0, 9, 6, 0, 9, 7),
    "correct/reverse.c": (0, 14, 5, 16, 5, 12, 14, 4, 6, 3, 23, 9, 6, 0, 1, 7),
    "correct/search.c": (0, 20, 2, 16, 22, 11, 13, 5, 7, 3, 0, 9, 6, 0, 1, 7),
    "correct/sentinel.c": (0, 3, 0, 7, 2, 0, 0, 1, 6, 0, 0, 4, 27, 0, 0, 5),
    "correct/sum.c": (0, 5, 2, 19, 5, 11, 13, 4, 9, 3, 0, 15, 1, 0, 1, 13),
}


def _count_steps(patch) -> dict[str, int]:
    """Wraps _Unifier's stages through patch(cls, name, value), and returns
    the dict they fill: a plan's steps after its last stage. Recognition runs
    first_stage() and resume() separately, for recognize and for unify."""
    counted: dict[str, int] = {}

    def counting(stage):
        def wrapper(self):
            try:
                return stage(self)
            finally:
                counted[self.plan.name] = self.steps
        return wrapper

    for name in ("first_stage", "resume"):
        patch(matcher._Unifier, name, counting(getattr(matcher._Unifier, name)))
    return counted


@pytest.fixture()
def steps_per_plan(monkeypatch):
    return _count_steps(monkeypatch.setattr)


def test_steps_per_plan_on_the_corpus(steps_per_plan, corpus_dir, base):
    assert sorted(base.plans) == list(STEP_PLANS)
    for relpath, expected in CORPUS_STEPS.items():
        path = corpus_dir / relpath
        steps_per_plan.clear()
        recognize(graph_of(path.read_text(), path.name), base).by_plan  # runs every near-miss stage
        assert tuple(steps_per_plan[name] for name in STEP_PLANS) == expected, relpath


def test_steps_on_the_dense_chain(steps_per_plan):
    unify(graph_of(dense_source()), parse_plan(CHAIN_PLAN))
    assert steps_per_plan == {"add-chain": 1084}


# Run in a fresh interpreter per hash seed: the dense-chain pin and two
# CORPUS_STEPS rows, as JSON.
_STEPS_SCRIPT = """
import json, sys
from adil import matcher
from adil.flowgraph import graph_of
from adil.planlib import load_plan_base, parse_plan
from conftest import ROOT
from test_matcher import CHAIN_PLAN, _count_steps, dense_source

counted = _count_steps(setattr)
matcher.unify(graph_of(dense_source()), parse_plan(CHAIN_PLAN))
found = {"dense-chain": dict(counted)}
base = load_plan_base(ROOT / "plans")
for relpath in sys.argv[1:]:
    counted.clear()
    path = ROOT / "corpus" / relpath
    matcher.recognize(graph_of(path.read_text(), path.name), base).by_plan
    found[relpath] = [counted[name] for name in sorted(base.plans)]
print(json.dumps(found))
"""


@pytest.mark.parametrize("seed", ["0", "1"])
def test_steps_do_not_depend_on_the_hash_seed(seed):
    rows = ["correct/max.c", "bugs/count__wrong_init.c"]
    tests = Path(__file__).parent
    proc = subprocess.run(
        [sys.executable, "-c", _STEPS_SCRIPT, *rows], capture_output=True, text=True, cwd=tests,
        env={"PATH": "", "PYTHONHASHSEED": seed, "PYTHONPATH": f"{tests.parent / 'src'}{os.pathsep}{tests}"},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"dense-chain": {"add-chain": 1084},
                                       **{row: list(CORPUS_STEPS[row]) for row in rows}}


def _compiled_orders(base: PlanBase) -> dict[str, dict]:
    """Each plan's kept orders, as copies of the dicts."""
    return {name: dict(plan.tables.orders) for name, plan in base.plans.items()}


def test_one_base_shares_its_compiled_orders_across_graphs(plans_dir, corpus_dir):
    # each plan compiles its skip-free matching order once per seed, and the
    # order of each near-miss state once, on its tables; a base that grades
    # every program, twice over in opposite orders, finds what a fresh base
    # per program finds, in the same steps. by_plan runs every plan's
    # near-miss stage, so every skip order any program needs is kept in the
    # first pass, and the second pass compiles none again (orders hold
    # _Steps, which compare by identity)
    paths = sorted(corpus_dir.glob("*/*.c"))
    graphs = {path: graph_of(path.read_text(), path.name) for path in paths}
    shared = load_plan_base(plans_dir)

    def grade(paths, steps):
        for path in paths:
            steps.clear()
            fresh = recognize(graphs[path], load_plan_base(plans_dir))
            found = (fresh.by_plan, fresh.truncated, dict(steps))  # by_plan first: it resumes
            steps.clear()
            got = recognize(graphs[path], shared)
            assert (got.by_plan, got.truncated, steps) == found, path

    with pytest.MonkeyPatch.context() as mp:
        steps = _count_steps(mp.setattr)
        grade(paths, steps)
        orders = _compiled_orders(shared)
        # a seed's order skips nothing
        assert all(0 < sum(not skipped for _, skipped in plan.tables.orders) <= len(plan.tables.pid_order)
                   for plan in shared.plans.values())
        assert max(len(plan.tables.orders) for plan in shared.plans.values()) < matcher.MAX_ORDERS
        assert sum(bool(skipped) for plan in shared.plans.values() for _, skipped in plan.tables.orders) > 0
        grade(paths[::-1], steps)
    assert _compiled_orders(shared) == orders  # none compiled


def _step_fields(step) -> tuple | None:
    return None if step is None else tuple(getattr(step, name) for name in matcher._Step.__slots__)


def test_every_kept_skip_order_is_the_walk_from_its_key(base, corpus_dir):
    # a branch that has bound `bound` and skipped `skipped` takes the next
    # node _step picks, binds it, and so on: the kept order lists exactly
    # those steps from position len(bound), then None; below it, only a lone
    # seed's position holds a step, the seed's own, where its round starts.
    # An order that skips nothing is a seed's own
    for path in sorted(corpus_dir.glob("*/*.c")):
        recognize(graph_of(path.read_text(), path.name), base).by_plan
    kept = 0
    for plan in base.plans.values():
        tables = plan.tables
        for (bound, skipped), order in tables.orders.items():
            assert bound and (skipped or len(bound) == 1) and bound.isdisjoint(skipped)
            head = [matcher._Step(tables, *bound, ())] if len(bound) == 1 else [None] * len(bound)
            walked, now = list(head), set(bound)
            while (step := matcher._step(tables, now, skipped)) is not None:
                walked.append(step)
                now.add(step.pid)
            walked.append(None)
            assert list(map(_step_fields, order)) == list(map(_step_fields, walked)), (plan.name, bound, skipped)
            kept += bool(skipped)
    assert kept > 0


def _recognized(g, base: PlanBase, counted: dict[str, int]):
    counted.clear()
    rec = recognize(g, base)
    return rec.by_plan, rec.truncated, dict(counted)  # by_plan first: it resumes


@pytest.mark.parametrize("cap", [0, 3])
def test_the_skip_order_cap_changes_no_result_and_no_step(cap, plans_dir, corpus_dir, monkeypatch):
    # an order past the cap is compiled for its branch and not kept, so the
    # search is the same whichever orders are kept: every result, truncation
    # and step count, on a base shared by the corpus and on each oracle instance
    graphs = [graph_of(path.read_text(), path.name) for path in sorted(corpus_dir.glob("*/*.c"))]
    instances = [random_instance(seed) for seed in range(220)]
    counted = _count_steps(monkeypatch.setattr)

    def run():
        shared = load_plan_base(plans_dir)
        found = [_recognized(g, shared, counted) for g in graphs]
        for g, plan in instances:
            single = PlanBase({plan.name: dataclasses.replace(plan)})  # its own tables
            found.append(_recognized(g, single, counted))
            assert len(single.plans[plan.name].tables.orders) <= matcher.MAX_ORDERS
        assert all(len(plan.tables.orders) <= matcher.MAX_ORDERS for plan in shared.plans.values())
        return found

    default = run()
    monkeypatch.setattr(matcher, "MAX_ORDERS", cap)
    assert run() == default


def test_unify_and_recognize_agree_at_every_budget(corpus_dir, base):
    # both run their searches through Recognition.add: at each budget, unify
    # fed each sub-plan's accepted results returns for a plan that recognize
    # leaves whole and raises for one it truncates, with the same results
    names = [name for level in dependency_order(base, base.names()) for name in level]
    budgets = [SearchBudget(max_extension_steps=n) for n in range(1, 41)] + [SearchBudget()]
    raised = returned = 0
    for path in sorted(corpus_dir.glob("*/*.c")):
        g = graph_of(path.read_text(), path.name)
        for budget in budgets:
            rec = recognize(g, base, budget=budget)
            expected = rec.by_plan  # runs every near-miss stage, so truncated is final
            accepted: dict[str, list] = {}
            for name in names:
                try:
                    results = unify(g, base.plans[name], budget, accepted, base.plans)
                except BudgetExceeded as err:
                    assert name in rec.truncated, (path.name, budget, name)
                    results, raised = err.results, raised + 1
                else:
                    assert name not in rec.truncated, (path.name, budget, name)
                    returned += 1
                assert results == expected[name], (path.name, budget, name)
                accepted[name] = [r for r in results if r.accepted]
    assert raised and returned


def test_a_dropped_plan_is_garbage_collected(sum_graph):
    # the search tables built for a plan must not outlive it
    plan = parse_plan(FLAT_RUNNING_TOTAL)
    assert any(r.accepted for r in unify(sum_graph, plan))
    ref = weakref.ref(plan)
    del plan
    gc.collect()
    assert ref() is None


# -- theta-bound pruning, the two search stages and near-miss scope

class _ReferenceUnifier(matcher._Unifier):
    """The search without theta-bound pruning: every seed round and every
    fallback skip, whatever score the branch could still reach; and every
    sub-match as a candidate for a sub pattern node, unfiltered.

    It also checks and proposes every edge, real or sub-match, through one
    generic path over FlowGraph's accessor methods (the former data_edge_ok,
    _out_sources and in_port_variants), so the property tests compare the
    matcher's direct adjacency checks against it.

    It picks each next pattern node afresh from the binding (the former
    _Unifier.next_pid), so the matcher's compiled orders are compared
    against an order computed independently of them."""

    def __init__(self, *args):
        super().__init__(*args)
        self.data_nbrs, self.ctrl_nbrs = self.plan.tables.data_nbrs, self.plan.tables.ctrl_nbrs

    def next_pid(self, binding: dict[str, int], skipped: frozenset) -> str | None:
        bound = binding.keys()
        for nbrs in (self.data_nbrs, self.ctrl_nbrs):
            for pid in self.pid_order:
                if pid in binding or pid in skipped:
                    continue
                if not bound.isdisjoint(nbrs[pid]):
                    return pid
        return None

    def node_matches(self, pid, nid):
        pn = self.pnodes[pid]
        if pn.subplan is not None:
            return nid < 0 and self.pseudo_by_id[nid].match.plan == pn.subplan
        if nid < 0:
            return False
        node = self.g.nodes[nid]
        return (node.kind is pn.kind and (pn.opcode is None or node.opcode is pn.opcode)
                and (pn.const is None or node.value == pn.const))

    def in_port_variants(self, pid, port, nid):
        if pid in self.plan.commutable_pids() and nid >= 0:
            node = self.g.nodes[nid]
            if (node.kind is NodeKind.OP and node.opcode in COMMUTATIVE
                    and node.in_ports == 2 and port in (0, 1)):
                return [port, 1 - port]
        return [port]

    def out_sources(self, nid, port):
        if nid >= 0:
            return {nid} if port == 0 else set()  # a graph value is its node
        exports = self.pseudo_by_id[nid].export_nodes
        return {exports[port]} if port < len(exports) else set()

    def in_targets(self, pid, nid, port):
        if nid >= 0:
            return nid, self.in_port_variants(pid, port, nid)
        exports = self.pseudo_by_id[nid].export_nodes
        if port >= len(exports):
            return None, []
        return exports[port], range(self.g.nodes[exports[port]].in_ports)

    def data_edge_ok(self, edge, binding):
        (a, po), (b, pi) = edge
        sources = self.out_sources(binding[a], po)
        target, ports = self.in_targets(b, binding[b], pi)
        return any(self.g.producer_of.get((target, ip)) in sources for ip in ports)

    def ctrl_nodes(self, nid):
        return {nid} if nid >= 0 else self.pseudo_by_id[nid].all_nodes

    def ctrl_edge_ok(self, edge, binding):
        a, b, label = edge
        targets = self.ctrl_nodes(binding[b])
        return any(dst in targets and (label is None or lab == label)
                   for src in self.ctrl_nodes(binding[a]) for dst, lab in self.g.ctrl_out.get(src, ()))

    def consistent(self, pid, nid, binding):
        return (self.node_matches(pid, nid)
                and all(self.data_edge_ok(edge, binding)
                        for other, edge in self.plan.tables.data_at[pid] if other in binding)
                and all(self.ctrl_edge_ok(edge, binding)
                        for other, edge in self.plan.tables.ctrl_at[pid] if other in binding))

    def candidates_via_edges(self, pid, binding):
        pn = self.pnodes[pid]
        if pn.subplan is not None:
            return [p.pseudo_id for p in self.pseudos[pn.subplan]]
        out = []
        for _, edge in self.plan.tables.data_at[pid]:
            (a, po), (b, pi) = edge
            if a == pid and b in binding:
                target, ports = self.in_targets(b, binding[b], pi)
                out += [src for ip in ports if (src := self.g.producer_of.get((target, ip))) is not None]
            elif b == pid and a in binding:
                # straight from the edges, not from the successor lists
                sources = self.out_sources(binding[a], po)
                out += [dst for src, (dst, _) in self.g.data_edges if src in sources]
        if not out:
            for _, (a, b, label) in self.plan.tables.ctrl_at[pid]:
                if a == pid and b in binding:
                    out += [src for t in self.ctrl_nodes(binding[b])
                            for src, lab in self.g.ctrl_in.get(t, ()) if label is None or lab == label]
                elif b == pid and a in binding:
                    out += [dst for s in self.ctrl_nodes(binding[a])
                            for dst, lab in self.g.ctrl_out.get(s, ()) if label is None or lab == label]
        return sorted(set(out))

    def run(self):
        by_rarity = sorted(self.pid_order, key=lambda pid: len(self.node_candidates(pid)))
        skipped: frozenset = frozenset()
        for seed in by_rarity:
            for nid in self.node_candidates(seed):
                self.charge()
                binding = {seed: nid}
                if self.consistent(seed, nid, binding):
                    self.extend(binding, {nid}, skipped)
            skipped = skipped | {seed}
        return [self.result(b) for b in self.finish()]

    def extend(self, binding, used, skipped):
        pid = self.next_pid(binding, skipped)
        if pid is None:
            self.record(binding)
            return
        progressed = False
        for nid in self.candidates_via_edges(pid, binding):
            self.charge()
            if nid in used:
                continue
            binding[pid] = nid
            if self.consistent(pid, nid, binding):
                progressed = True
                used.add(nid)
                self.extend(binding, used, skipped)
                used.remove(nid)
            del binding[pid]
        if not progressed:
            self.extend(binding, used, skipped | {pid})


THETAS = (0.5, 0.6, 0.8, 1.0)

OUT_PORT_1_PLAN = """\
plan "second-output" kind=cliche category=pe
node sum kind=OP op=ADD
node total kind=JOIN
data total:1 -> sum:0
end
"""


def _run(search) -> list[MatchResult]:
    """The whole search, both stages, as unify runs it: every maximal match,
    best first."""
    rec = matcher.Recognition()
    rec.add(search.plan.name, search)
    results = rec.by_plan[search.plan.name]
    assert not rec.truncated
    return results


def _same_search(g, plan, theta, sub_matches=None, sub_plans=None):
    """unify's results equal the reference search's, in fewer or as many steps;
    and its two stages, run one after the other, are exactly _run(): the first
    holds every full (so every accepted) match, and the second builds none of
    the first's results again."""
    budget = SearchBudget(theta=theta)
    make = lambda cls: cls(g, plan, budget, sub_matches or {}, sub_plans or {})
    pruned, staged, reference = make(matcher._Unifier), make(matcher._Unifier), make(_ReferenceUnifier)
    got, expected = _run(pruned), reference.run()
    # MatchResult equality covers binding, score, slots, constraint outcomes and spans
    assert got == expected
    # the search ranks bindings; the order is the results' own key
    pids = plan.tables.pid_order
    assert got == sorted(got, key=lambda r: (-r.score, min(r.real_nodes(), default=0),
                                             tuple(r.binding.get(pid, -10**9) for pid in pids)))
    assert pruned.steps <= reference.steps
    first = [staged.result(b) for b in staged.first_stage()]
    assert first == [r for r in got if r.score == 1]
    assert [r for r in first if r.accepted] == [r for r in got if r.accepted]
    first_steps = staged.steps
    resumed = [staged.result(b) for b in staged.resume()]
    assert resumed == got
    assert staged.steps == pruned.steps >= first_steps
    assert all(any(r is s for s in resumed) for r in first)
    return got


@pytest.mark.parametrize("theta", (0.5, 1.0))
def test_an_edge_from_a_missing_out_port_is_refused_at_parse(theta, sum_graph):
    # the loop's JOIN feeds the ADD at in-port 0, but a JOIN has one
    # out-port, so an edge leaving port 1 fits no pair of nodes: the parser
    # refuses it, and the search never tests a node's ports; the same edge
    # from port 0 is found whole at each theta
    with pytest.raises(PlanSemanticError, match=r"total \(kind=JOIN\) has no out-port 1"):
        parse_plan(OUT_PORT_1_PLAN)
    port_0 = parse_plan(OUT_PORT_1_PLAN.replace("total:1", "total:0"))
    assert any(r.score == 1 for r in _same_search(sum_graph, port_0, theta))


SELF_LOOP_PLAN = """\
plan "idle-loop-variable" kind=cliche category=pe
node p kind=PARAM
node j kind=JOIN
data p:0 -> j:0
data j:0 -> j:1
end
"""


@pytest.mark.parametrize("theta", (0.5, 1.0))
def test_a_self_loop_edge_is_checked_where_its_node_is_bound(theta):
    # `y = y;` feeds y's loop JOIN its own output. The one PARAM is the rarer
    # key, so j is bound second from a compiled step, and it is the seed of
    # the round that skips p.
    idle = "int f(int p) { int c; int y; c = 0; y = p; while (c < 3) { y = y; c = c + 1; } return y; }"
    plan = parse_plan(SELF_LOOP_PLAN)
    assert [r.score for r in _same_search(graph_of(idle), plan, theta)] == [1]
    busy = idle.replace("y = y;", "y = y + 1;")
    assert all(r.score < 1 for r in _same_search(graph_of(busy), plan, theta))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10_000), theta=st.sampled_from(THETAS))
def test_property_pruned_search_matches_reference(seed, theta):
    g, plan = random_instance(seed)
    _same_search(g, plan, theta)


@pytest.mark.parametrize("theta", THETAS)
def test_pruned_search_matches_reference_on_the_corpus(theta, corpus_dir, base):
    # the shipped plans: up to 11 pattern nodes, with sub-plan pseudo-nodes
    sub_plans = dict(base.plans)
    for path in sorted(corpus_dir.glob("*/*.c")):
        g = graph_of(path.read_text(), path.name)
        accepted: dict[str, list] = {}
        for level in dependency_order(base, base.names()):
            for name in level:
                results = _same_search(g, base.plans[name], theta, accepted, sub_plans)
                accepted[name] = [r for r in results if r.accepted]


class _StageCheckedRecords(list):
    """A search's recorded bindings, checking each as it is appended: stage
    one records no binding twice, and stage two none that stage one did."""

    def __init__(self, search):
        super().__init__()
        self.search = search
        self.first: set[frozenset] = set()
        self.counts = [0, 0]  # records per stage

    def append(self, binding):
        key = frozenset(binding.items())
        assert key not in self.first, (self.search.plan.name, self.search.stage, binding)
        if self.search.stage == 1:
            self.first.add(key)
        self.counts[self.search.stage - 1] += 1
        super().append(binding)


class _StageCheckedUnifier(matcher._Unifier):
    """The search, recording into _StageCheckedRecords; stage one records
    without a seen-set, which is sound only while the checks hold."""

    def __init__(self, *args):
        super().__init__(*args)
        self.recorded = _StageCheckedRecords(self)
        self.stage = 0

    def first_stage(self):
        self.stage = 1
        return super().first_stage()

    def resume(self):
        self.stage = 2
        return super().resume()


def _stage_checked(g, plan, theta, sub_matches=None, sub_plans=None):
    """unify's results, with every record checked; and the records per stage."""
    search = _StageCheckedUnifier(g, plan, SearchBudget(theta=theta), sub_matches or {}, sub_plans or {})
    return _run(search), search.recorded.counts


@pytest.mark.parametrize("theta", THETAS)
def test_no_binding_is_recorded_twice_or_by_both_stages(theta, corpus_dir, base):
    # the corpus against the shipped base, the dense chain, and the oracle's
    # generated instances
    counts = []  # records per stage, per search
    sub_plans = dict(base.plans)
    for path in sorted(corpus_dir.glob("*/*.c")):
        g = graph_of(path.read_text(), path.name)
        accepted: dict[str, list] = {}
        for level in dependency_order(base, base.names()):
            for name in level:
                results, found = _stage_checked(g, base.plans[name], theta, accepted, sub_plans)
                accepted[name] = [r for r in results if r.accepted]
                counts.append(found)
    results, found = _stage_checked(graph_of(dense_source()), parse_plan(CHAIN_PLAN), theta)
    assert found[0] == sum(r.score == 1 for r in results) > 0
    counts.append(found)
    counts += [_stage_checked(*random_instance(seed), theta)[1] for seed in range(220)]
    # both stages record something, except at theta 1, where stage two
    # (near-misses only) has no branch to run
    first, second = map(sum, zip(*counts))
    assert first and bool(second) is (theta < 1), (first, second)


def _resumed(base, goals, everything):
    """The plans a diagnosis of goals resumes, from the whole-base results:
    the sub-closure of each goal without an accepted match, and the plan each
    accepted bug plan corrupts when that plan lies in a goal's sub-closure."""
    in_scope = {name for goal in goals for name in sub_closure(base, goal)}
    wanted = {name for goal in goals if not everything.accepted(goal)
              for name in sub_closure(base, goal)}
    wanted |= {plan.corrupts for name, plan in base.plans.items()
               if plan.kind == "bug" and plan.corrupts in in_scope and everything.accepted(name)}
    return wanted


def test_goal_directed_recognize_searches_bug_plans_for_full_matches(corpus_cases, base, monkeypatch):
    # a plan's near-miss stage runs when a reader first asks for more than
    # its full matches; diagnose asks exactly for the plans _resumed names
    resumed: list[str] = []
    resume = matcher._Unifier.resume

    def spied(self):
        resumed.append(self.plan.name)
        return resume(self)

    monkeypatch.setattr(matcher._Unifier, "resume", spied)
    cases = [(program.read_text(), program.name, parse_spec(spec_path.read_text()))
             for program, spec_path in corpus_cases]
    running_total = parse_spec('spec "sum"\ngoal "running-total" required\nend\n')
    cases += [(source, name, running_total) for name, source in GOAL_AND_BUG_PROGRAMS]
    unread_near_misses = 0
    resumed_for_a_bug = 0
    for source, program, spec in cases:
        g = graph_of(source, program)
        goals = [goal.name for goal in spec.goals]
        resumed.clear()
        diagnose(g, spec, base)
        read = sorted(resumed)
        everything = recognize(g, base)
        expected = _resumed(base, goals, everything)
        assert read == sorted(expected), program  # each plan resumed once
        resumed_for_a_bug += any(everything.accepted(goal) for goal in goals) and bool(expected)
        directed = recognize(g, base, goals=goals)
        for name, results in directed.by_plan.items():
            assert results == everything.by_plan[name], (program, name)
            if name not in expected:
                unread_near_misses += sum(r.score < 1 for r in results)
        # a second read of the same plan resumes nothing
        rec = recognize(g, base, goals=goals)
        resumed.clear()
        for _ in range(2):
            rec.best_near_miss(goals[0])
        assert resumed == [goals[0]], program
    assert unread_near_misses  # the whole-base search does find near-misses there
    assert resumed_for_a_bug  # and a recognized goal's plan is resumed for a bug cliche


def _sum_loops_source(k: int) -> str:
    """K sequential sum loops over one array, each with its own total and counter."""
    decls = "".join(f"    int s{j};\n    int i{j};\n" for j in range(k))
    loops = "".join(f"    s{j} = 0;\n    i{j} = 0;\n    while (i{j} < n) {{\n"
                    f"        s{j} = s{j} + a[i{j}];\n        i{j} = i{j} + 1;\n    }}\n"
                    for j in range(k))
    return f"int sums(int a[], int n) {{\n{decls}{loops}    return s{k - 1};\n}}\n"


def test_sub_match_candidates_come_through_export_nodes(steps_per_plan, base):
    # With every counted-loop match tried for running-total's sub node, each
    # of the K seeds tests all K of them and the steps grow as K(K+5). Through
    # the export node on the edge to the bound array read, one is tried.
    steps = {}
    for k in (32, 64):
        steps_per_plan.clear()
        rec = recognize(graph_of(_sum_loops_source(k)), base, goals=["running-total"])
        assert len(rec.accepted("running-total")) == k
        steps[k] = steps_per_plan["running-total"]
    assert steps[64] == 2 * steps[32]


# -- results built on read

def _readers_agree_with_lists(rec, names):
    # the readers first, so they run before by_plan builds every result
    read = {name: (rec.best(name), rec.best_accepted(name), rec.best_near_miss(name))
            for name in names}
    for name in names:
        results = rec.by_plan.get(name, [])
        assert read[name] == (
            next(iter(results), None),
            next((r for r in results if r.accepted), None),
            next((r for r in results if not r.accepted), None),
        ), name
        assert rec.accepted(name) == [r for r in results if r.accepted], name


def test_readers_agree_with_result_lists_on_the_corpus(corpus_cases, base):
    names = base.names() + ["no-such-plan"]
    for program, spec_path in corpus_cases:
        goals = [goal.name for goal in parse_spec(spec_path.read_text()).goals]
        for chosen in (goals, None):
            g = graph_of(program.read_text(), program.name)
            _readers_agree_with_lists(recognize(g, base, goals=chosen), names)


def test_readers_agree_with_result_lists_on_generated_cases():
    readers_differ = 0
    for seed in range(150):
        g, plan = random_instance(seed)
        base = base_add(PlanBase(), plan)
        for theta in (0.5, 1.0):
            rec = recognize(g, base, budget=SearchBudget(theta=theta))
            _readers_agree_with_lists(rec, [plan.name])
            results = rec.by_plan[plan.name]
            readers_differ += bool(results) and results[0] is not rec.best_accepted(plan.name)
    assert readers_differ  # some best result is not the best accepted one


def test_diagnose_of_the_dense_chain_checks_one_result(monkeypatch):
    # hundreds of full matches of the add chain, found in whole or cut short
    # by the budget; the verdict reads only the first
    base = base_add(PlanBase(), parse_plan(CHAIN_PLAN))
    spec = parse_spec('spec "dense"\ngoal "add-chain" required\nend\n')
    calls = []
    checked = matcher.check_constraints
    monkeypatch.setattr(matcher, "check_constraints",
                        lambda *args: calls.append(args) or checked(*args))
    for source, steps, truncated in ((dense_source(), 1_000_000, False),
                                     (dense_source(40), 1000, True)):
        calls.clear()
        report = diagnose(graph_of(source), spec, base, SearchBudget(max_extension_steps=steps))
        assert report.verdicts == {"add-chain": "RECOGNIZED"}
        assert report.budget_truncated is truncated
        assert len(calls) <= 1


def test_no_search_outlives_its_diagnosis(monkeypatch, base):
    # a Recognition reads results through its searches; once diagnose
    # returns, none of them may still be alive
    searches = []
    init = matcher._Unifier.__init__

    def tracked(self, *args):
        init(self, *args)
        searches.append(weakref.ref(self))

    monkeypatch.setattr(matcher._Unifier, "__init__", tracked)
    spec = parse_spec('spec "sum"\ngoal "running-total" required\nend\n')
    reports = [diagnose(graph_of(source), spec, base) for source in (SUM_SOURCE, OFF_BY_ONE_SOURCE)]
    assert [r.verdicts["running-total"] for r in reports] == ["RECOGNIZED", "BUGGY"]
    gc.collect()
    assert searches and all(ref() is None for ref in searches)


def test_recognition_keeps_no_search_state(base):
    # a search drops its state once its near-miss stage has run, and by_plan
    # runs every plan's
    rec = recognize(graph_of(OFF_BY_ONE_SOURCE), base, goals=["running-total"])
    assert rec.by_plan["running-total"]
    for search, _ in rec._ranked.values():
        assert not (search.seen or search.recorded or search.deferred)


# -- generated stage-one kernels

def _compiled_from_the_start(plan: Plan) -> None:
    """Marks every order of plan as searched once, so that even its first
    search runs a generated kernel."""
    for pid in plan.tables.pid_order:
        plan.tables.kernels.setdefault(pid, None)


def _state(search) -> tuple:
    """Steps, recorded bindings in order (each in bound order) and deferred branches."""
    return (search.steps, [list(b.items()) for b in search.recorded],
            [(list(b.items()), used, skipped) for b, used, skipped in search.deferred])


def _stages(search) -> list[tuple]:
    """Both stages, as recognize runs them: per stage, the bindings it
    returns (None when it is truncated, since what finish() keeps then
    follows from the recorded ones), whether it was truncated, and the
    search's state after it. A truncated stage one is not resumed."""
    out = []
    for stage in (search.first_stage, search.resume):
        try:
            found = [list(b.items()) for b in stage()]
        except BudgetExceeded:
            found = None
        out.append((found, found is None, _state(search)))
        if found is None:
            break
    return out


class _Tiers:
    """Two copies of a plan, each with its own tables: one searched through
    extend() alone, the other through generated kernels, each compiled on
    its first search and kept for every later one."""

    def __init__(self, plan: Plan):
        self.generic, self.compiled = dataclasses.replace(plan), dataclasses.replace(plan)

    def agree(self, g, budget=None, sub_matches=None, sub_plans=None):
        """Searches both copies; they leave the same steps, records, deferred
        branches, results and truncation after either stage. Returns the
        generic search's stages, and the search."""
        runs = []
        for plan in (self.generic, self.compiled):
            if plan is self.generic:
                plan.tables.kernels.clear()
            else:
                _compiled_from_the_start(plan)
            search = matcher._Unifier(g, plan, budget or SearchBudget(), sub_matches or {}, sub_plans or {})
            runs.append((_stages(search), search))
        (generic, search), (compiled, kernel_search) = runs
        assert all(kernel is None for kernel in self.generic.tables.kernels.values())
        # a kernel exactly when the order fits in one function
        for seed in kernel_search.seeds[:1]:
            fits = len(matcher._order(self.compiled.tables, frozenset((seed,)), frozenset())) - 1 <= matcher.MAX_POSITIONS
            assert (self.compiled.tables.kernels[seed] is not None) is fits
        assert compiled == generic, self.generic.name
        return generic, search


def _tiers_agree(g, plan, budget=None, sub_matches=None, sub_plans=None):
    return _Tiers(plan).agree(g, budget, sub_matches, sub_plans)


def _accepted(stages, search) -> list[MatchResult]:
    return [r for r in (search.result(dict(b)) for b in stages[-1][0]) if r.accepted]


def _tiers_agree_on_base(g, base: PlanBase, tiers: dict[Plan, _Tiers]) -> None:
    """Every plan of base, bottom-up, each sub-plan's accepted matches bound
    by the plans above it; tiers keeps each plan's copies across calls."""
    accepted: dict[str, list] = {}
    for level in dependency_order(base, base.names()):
        for name in level:
            plan = base.plans[name]
            if plan not in tiers:
                tiers[plan] = _Tiers(plan)
            stages, search = tiers[plan].agree(g, None, accepted, base.plans)
            accepted[name] = _accepted(stages, search)


def test_kernels_agree_with_extend_on_the_corpus_and_the_dense_chain(corpus_dir, base):
    tiers: dict[Plan, _Tiers] = {}
    for path in sorted(corpus_dir.glob("*/*.c")):
        _tiers_agree_on_base(graph_of(path.read_text(), path.name), base, tiers)
    stages, _ = _tiers_agree(graph_of(dense_source()), parse_plan(CHAIN_PLAN))
    assert len(stages[0][0]) == 288 and stages[1][2][0] == 1084


def _doubling_chain():
    """The dense chain with one doubling step: x3 reads x2 on both operands."""
    g = graph_of(dense_source().replace("x3 = x2 + x1;", "x3 = x2 + x2;"))
    x2, x3 = (nid for nid, n in g.nodes.items() if n.var_name in ("x2", "x3") and n.kind is NodeKind.OP)
    return g, x2, x3


def test_kernels_agree_with_extend_on_a_dense_chain_with_a_doubling_step():
    g, x2, x3 = _doubling_chain()
    assert sorted(dst for src, (dst, _) in g.data_edges if src == x2).count(x3) == 2
    assert g.successors[x2].count(x3) == 1  # listed once, so tried once
    plan = parse_plan(CHAIN_PLAN)
    stages, _ = _tiers_agree(g, plan)
    assert stages[0][0] and stages[0][0] == [list(r.binding.items()) for r in _same_search(g, plan, 1.0)]


def _workload_cases(seed: int):
    """(graph, base) for every item of every benchmark workload at one seed,
    each with its workload's base; an authoring item's base also holds the
    plan acquired from it, as the benchmark grades it."""
    for workload in workloads.WORKLOADS:
        items = workloads.make_items(workload, seed, ROOT)
        shared = pipeline.setup(ROOT, workload, workloads.spec_texts(items)).base
        for item in items:
            ast = parse_c(item.source, filename=item.name)
            base = shared
            if workload == "authoring":
                base = PlanBase(dict(shared.plans))
                for plan in parse_plans(print_plan(acquire_plan(ast, item.plan_name))):
                    base_add(base, plan)
            yield build_flow_graph(desugar(ast)), base


def test_kernels_agree_with_extend_on_every_workload_item():
    cases = 0
    tiers: dict[Plan, _Tiers] = {}
    for g, base in _workload_cases(3):
        _tiers_agree_on_base(g, base, tiers)
        cases += 1
    assert cases == 278


def test_kernels_agree_with_extend_on_the_oracle_instances():
    full = 0
    for seed in range(220):
        stages, _ = _tiers_agree(*random_instance(seed))
        full += bool(stages[0][0])
    assert full  # some instances have full matches, found by stage one


@pytest.mark.parametrize("case", ["dense-chain", "bugs/count__wrong_init.c"])
def test_kernels_agree_with_extend_at_every_budget(case, corpus_dir, base):
    # every budget from 1 to one past a plan's whole search, so the budget
    # runs out at every step of either stage, or not at all
    if case == "dense-chain":
        g, plans, sub_plans = graph_of(dense_source()), [parse_plan(CHAIN_PLAN)], {}
    else:
        g = graph_of((corpus_dir / case).read_text(), case)
        plans = [base.plans[name] for level in dependency_order(base, base.names()) for name in level]
        sub_plans = base.plans
    accepted: dict[str, list] = {}
    truncations = 0
    for plan in plans:
        tiers = _Tiers(plan)
        stages, search = tiers.agree(g, None, accepted, sub_plans)
        accepted[plan.name] = _accepted(stages, search)
        steps = stages[-1][2][0]
        for budget in range(1, steps + 2):
            cut, _ = tiers.agree(g, SearchBudget(max_extension_steps=budget), accepted, sub_plans)
            truncations += cut[-1][1]
            assert cut[-1][1] is (budget < steps)
    assert truncations > (1000 if case == "dense-chain" else 100)


# -- ranking full matches

@pytest.fixture()
def full_rankings(monkeypatch):
    """Checks each first stage's full bindings against sorted(key=rank), and
    lists (plan, number of full bindings, whether the plan has sub nodes)."""
    checked = []
    first_stage = matcher._Unifier.first_stage

    def checking(self):
        full = first_stage(self)
        assert full == sorted((b for b in self.recorded if len(b) == self.size), key=self.rank), self.plan.name
        checked.append((self.plan.name, len(full), bool(self.plan.tables.subplans)))
        return full

    monkeypatch.setattr(matcher._Unifier, "first_stage", checking)
    return checked


def test_full_matches_rank_as_rank_orders_them_on_the_corpus(full_rankings, corpus_dir, base):
    for path in sorted(corpus_dir.glob("*/*.c")):
        recognize(graph_of(path.read_text(), path.name), base)
    # no corpus program has two full matches of one plan; eight sum loops do
    assert {subs for _, n, subs in full_rankings if n} == {False, True}
    full_rankings.clear()
    recognize(graph_of(_sum_loops_source(8)), base)
    assert {subs for _, n, subs in full_rankings if n == 8} == {False, True}


def test_full_matches_rank_as_rank_orders_them_on_chains_and_one_node(full_rankings):
    # pattern order starts at the reversed chain's last node, so its matches
    # order by their lowest node before their nodes in pattern order
    reversed_chain = CHAIN_PLAN.replace("add-chain", "reversed-chain").translate(str.maketrans("12345", "54321"))
    one_add = 'plan "one-add" kind=cliche category=pe\nnode a kind=OP op=ADD\nend\n'
    for g in (graph_of(dense_source()), _doubling_chain()[0]):
        for text in (CHAIN_PLAN, reversed_chain):
            unify(g, parse_plan(text))
        assert len(unify(g, parse_plan(one_add))) == 24  # one per addition
    assert len(full_rankings) == 6 and all(n > 1 for _, n, _ in full_rankings)
    reversed_matches = unify(graph_of(dense_source()), parse_plan(reversed_chain))
    assert all(r.binding["a1"] > r.binding["a5"] for r in reversed_matches if r.score == 1)


def test_full_matches_rank_as_rank_orders_them_on_every_workload_item(full_rankings):
    for g, base in _workload_cases(3):
        recognize(g, base)
    assert {subs for _, n, subs in full_rankings if n > 1} == {False, True}


@pytest.mark.parametrize("theta", (0.3, 0.6))
def test_a_kernel_records_a_partial_leaf_only_at_theta(theta):
    # The plan parser refuses a disconnected plan; built directly, the one
    # MUL ties for the rarest seed and comes first, and no edge leads on
    # from it, so stage one's leaf binds a third of the plan, which only
    # theta 0.3 records.
    plan = Plan(name="two-parts", kind="cliche", category="pe", corrupts=None, doc_template="",
                pnodes=(PatternNode("m", NodeKind.OP, OpCode.MUL), PatternNode("c", NodeKind.CONST, const=1),
                        PatternNode("a", NodeKind.OP, OpCode.ADD)),
                pdata=((("c", 0), ("a", 1)),), pctrl=(), constraints=(), exports=())
    g = graph_of("int f(int u) { int x0; int x1; x0 = u + 1; x1 = x0 * u; return x1; }")
    stages, _ = _tiers_agree(g, plan, SearchBudget(theta=theta))
    assert stages[0][2][1] == ([[("m", 4)]] if theta < 1 / 3 else [])


def _chain_plan(n: int) -> Plan:
    text = f'plan "chain-{n}" kind=cliche category=pe\n'
    text += "".join(f"node a{i} kind=OP op=ADD\n" for i in range(n))
    text += "".join(f"data a{i}:0 -> a{i + 1}:0\n" for i in range(n - 1))
    return parse_plan(text + "end\n")


def _chain_graph(k: int):
    """k additions, each feeding the next one's left operand."""
    decls = "".join(f"    int x{i};\n" for i in range(k))
    body = "    x0 = u + 1;\n" + "".join(f"    x{i} = x{i - 1} + 1;\n" for i in range(1, k))
    return graph_of(f"int f(int u) {{\n{decls}{body}    return x{k - 1};\n}}\n")


def test_the_longest_order_compiles_into_one_function():
    n, k = matcher.MAX_POSITIONS, matcher.MAX_POSITIONS + 10
    plan = _chain_plan(n)
    stages, _ = _tiers_agree(_chain_graph(k), plan)
    assert len(stages[0][0]) == k - n + 1
    source = kernel._KernelWriter(plan.tables, matcher._order(plan.tables, frozenset({"a0"}), frozenset())).source()
    nodes = list(ast.walk(ast.parse(source)))
    assert sum(isinstance(node, ast.FunctionDef) for node in nodes) == 1
    assert sum(isinstance(node, ast.For) for node in nodes) == n


def test_an_order_too_long_for_one_function_is_never_compiled():
    n, k = matcher.MAX_POSITIONS + 1, matcher.MAX_POSITIONS + 11
    plan = _chain_plan(n)
    g = _chain_graph(k)
    for _ in range(3):
        assert sum(r.score == 1 for r in matcher.unify(g, plan)) == k - n + 1
    assert plan.tables.kernels == {"a0": None}
    stages, _ = _tiers_agree(g, plan)
    assert len(stages[0][0]) == k - n + 1
    assert len(_same_search(g, plan, 1.0)) == k - n + 1


HOSTILE = ['a"', "b'\n)", "c) or True or (", "d\\", 'e"""']


def _hostile_plan() -> Plan:
    """Built directly, past the plan parser: pattern node ids, ctrl labels and
    the plan's name full of quotes, newlines and parentheses."""
    c, a, b, d, e = HOSTILE
    return Plan(
        name='evil")\n', kind="cliche", category="pe", corrupts=None, doc_template="",
        pnodes=(PatternNode(c, NodeKind.CONST, const=1), PatternNode(a, NodeKind.OP, OpCode.ADD),
                PatternNode(b, NodeKind.OP, OpCode.ADD), PatternNode(d, NodeKind.OP, OpCode.ADD),
                PatternNode(e, NodeKind.OP)),
        pdata=(((c, 0), (a, 1)), ((a, 0), (b, 0)), ((b, 0), (d, 1))),
        pctrl=((a, b, None), (d, e, "se'q)\n")),
        constraints=(Predicate("commutable", (d,)),), exports=(),
    )


def test_generated_sources_hold_no_plan_text():
    plan = _hostile_plan()
    g = graph_of("int f(int u) { int x0; int x1; int x2; int x3; x0 = u + 1; x1 = x0 + u; "
                 "x2 = x1 + u; x3 = x2 * x1; return x3; }")
    stages, _ = _tiers_agree(g, plan)
    # the last label fits no edge: no full match, a deferred branch, and the
    # near-miss it leads to binds every other pattern node
    assert stages[0][0] == [] and len(stages[0][2][2]) == 1
    assert [len(b) for b in stages[1][0]] == [4]
    texts = HOSTILE + [plan.name, "se'q"]
    for seed in plan.tables.pid_order:
        source = kernel._KernelWriter(plan.tables, matcher._order(plan.tables, frozenset((seed,)), frozenset())).source()
        assert not any(text in source for text in texts), seed
        # the only constants are ports, step counts and None / False
        constants = {type(node.value) for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.Constant)}
        assert constants <= {int, bool, type(None)}, (seed, constants)


def test_a_plan_compiles_each_order_it_searches_on_the_second_search(monkeypatch, plans_dir):
    compiled = []
    compile_kernel = kernel.compile_kernel
    monkeypatch.setattr(kernel, "compile_kernel",
                        lambda tables, order: compiled.append((id(tables), order[0].pid))
                        or compile_kernel(tables, order))
    base = load_plan_base(plans_dir)
    spec = parse_spec('spec "sum"\ngoal "running-total" required\nend\n')
    reports = [debugger.report_to_json(diagnose(graph_of(OFF_BY_ONE_SOURCE), spec, base))]
    searched = [(id(plan.tables), seed) for plan in base.plans.values() for seed in plan.tables.kernels]
    assert searched and not compiled  # one diagnosis compiles nothing
    reports.append(debugger.report_to_json(diagnose(graph_of(OFF_BY_ONE_SOURCE), spec, base)))
    assert sorted(compiled) == sorted(searched)  # the second compiles each order it searches, once
    reports.append(debugger.report_to_json(diagnose(graph_of(OFF_BY_ONE_SOURCE), spec, base)))
    assert len(compiled) == len(searched)
    assert reports[0] == reports[1] == reports[2]
