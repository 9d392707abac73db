from __future__ import annotations

import dataclasses

import pytest

from adil.acquire import AcquireError, AcquireOptions, acquire_plan, review_stub
from adil.flowgraph import NodeKind, graph_of
from adil.frontend import parse_c
from adil.matcher import SearchBudget, unify
from adil.planlib import parse_plan, print_plan

from conftest import SUM_SOURCE
from generators import rename_variant


def _draft(source: str, name: str = "draft", opts: AcquireOptions | None = None):
    return acquire_plan(parse_c(source, filename="exemplar.c"), name, opts)


def test_keep_list_constant_stays_literal():
    plan = _draft("int main(){int x;x=0;}")
    consts = [pn for pn in plan.pnodes if pn.kind is NodeKind.CONST]
    assert len(consts) == 1
    assert consts[0].const == 0
    assert consts[0].slot is None


def test_other_constants_become_free_slots():
    plan = _draft("int main(){int x;x=7;}")
    consts = [pn for pn in plan.pnodes if pn.kind is NodeKind.CONST]
    assert consts[0].const is None
    assert consts[0].slot is not None
    # the slot stays unconstrained
    assert not any(p.op != "commutable" and f"${consts[0].slot}" in map(str, p.args)
                   for p in plan.constraints)


def test_keep_list_is_configurable():
    plan = _draft("int main(){int x;x=7;}", opts=AcquireOptions(keep_literals=frozenset({7})))
    consts = [pn for pn in plan.pnodes if pn.kind is NodeKind.CONST]
    assert consts[0].const == 7


def test_draft_self_recognizes_sum():
    plan = _draft(SUM_SOURCE, "sum-draft")
    g = graph_of(SUM_SOURCE, "sum.c")
    accepted = [r for r in unify(g, plan, SearchBudget()) if r.accepted]
    assert accepted and accepted[0].score == 1


def test_draft_accepts_renamed_and_perturbed_variant():
    source = "int f(int u){int x;int y;x=u+7;y=x*3;return y;}"
    plan = _draft(source)
    variant = rename_variant(source).replace("7", "9").replace("3", "4")
    g = graph_of(variant, "variant.c")
    assert any(r.accepted for r in unify(g, plan, SearchBudget()))


def test_draft_marks_add_mul_commutable():
    plan = _draft("int f(int u){int x;x=u*u;return x+1;}")
    commutable = plan.commutable_pids()
    ops = {pn.pid for pn in plan.pnodes if pn.kind is NodeKind.OP}
    assert commutable == ops


def test_draft_emits_samevar_for_value_chains():
    plan = _draft(SUM_SOURCE, "sum-draft")
    samevars = [p for p in plan.constraints if p.op == "samevar"]
    assert len(samevars) == 4  # two loop joins, two inputs each


def test_draft_round_trips_and_has_doc_stub():
    plan = _draft(SUM_SOURCE, "sum-draft")
    assert plan.doc_template == "TODO: describe sum-draft"
    assert parse_plan(print_plan(plan)) == plan


def test_oversized_exemplar_rejected():
    body = "".join(f"    int v{i};\n    v{i} = {i};\n" for i in range(70))
    with pytest.raises(AcquireError):
        _draft("int main(){\n" + body + "}")


def test_review_stub_flags_every_slot_plus_doc():
    plan = _draft("int f(int u){int x;int y;x=u+7;y=x*9;return y;}", "two-slots")
    # a U+2028 in the doc is one of its characters, not a line break
    for plan in (plan, dataclasses.replace(plan, doc_template="first line\u2028second")):
        stub = review_stub(plan)
        reviews = [l for l in stub.splitlines() if l.startswith("; REVIEW:")]
        assert len(reviews) == len(plan.slots()) + 1
        assert len(plan.slots()) == 2
        # stripping the comments parses back to the same plan
        assert parse_plan(stub) == plan


def test_corpus_drafts_self_recognize(corpus_dir):
    for path in sorted((corpus_dir / "correct").glob("*.c"))[:4]:
        plan = _draft(path.read_text(), f"draft-{path.stem}")
        g = graph_of(path.read_text(), str(path))
        assert any(r.accepted for r in unify(g, plan, SearchBudget())), path.name
