"""Which of adil's record classes are frozen, and why.

A frozen dataclass costs about twice as much to define at import time and
about three times as much to build (one `object.__setattr__` per field), so
a record is frozen only where a check or a cache depends on its fields
staying fixed. Every other record (Ast nodes, graph nodes, match results,
findings, specs) is a plain dataclass that callers must not mutate, made by
`adil.records.record`, which must keep `dataclass`'s equality and repr.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from dataclasses import dataclass, field

import pytest

from adil.matcher import SearchBudget
from adil.planlib import PatternNode, Plan, Predicate
from adil.records import record

MODULES = ("source", "records", "frontend", "flowgraph", "planlib", "matcher", "debugger", "explain",
           "acquire", "cli")

KEPT_FROZEN = {
    SearchBudget,  # __post_init__ validates theta and the step limit; a later assignment would skip that
    Plan,  # Plan.tables is a cached_property computed from the plan's fields
    PatternNode,  # PlanTables indexes a plan's pattern nodes
    Predicate,  # PlanTables reads the commutable predicates
}


def _records() -> list[type]:
    found = []
    for name in MODULES:
        module = importlib.import_module(f"adil.{name}")
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls):
                found.append(cls)
    return found


def test_only_the_kept_records_are_frozen():
    records = _records()
    assert len(records) >= 34  # the scan found adil's records
    frozen = {cls for cls in records if cls.__dataclass_params__.frozen}
    assert frozen == KEPT_FROZEN


def _twins():
    """The same class made by `record` and by `dataclass`."""

    def body():
        class Node:
            op: str
            args: tuple
            note: str = field(default="", compare=False)
            height: int = field(default=0, repr=False)
        return Node

    return record(body()), dataclass(body())


def test_record_matches_dataclass_equality_repr_and_hash():
    made_by_record, made_by_dataclass = _twins()
    assert [(f.name, f.compare, f.repr) for f in dataclasses.fields(made_by_record)] == \
        [(f.name, f.compare, f.repr) for f in dataclasses.fields(made_by_dataclass)]
    cases = [("+", (1, 2), "", 0), ("+", (1, 2), "other note", 0), ("+", (1, 2), "", 3),
             ("-", (1, 2), "", 0), ("+", (2, 1), "", 0), ("+", (float("nan"),), "", 0)]
    for a in cases:
        for b in cases:
            assert (made_by_record(*a) == made_by_record(*b)) == \
                (made_by_dataclass(*a) == made_by_dataclass(*b)), (a, b)
        assert repr(made_by_record(*a)) == repr(made_by_dataclass(*a))
        assert made_by_record(*a) != made_by_dataclass(*a)  # another class is never equal
        with pytest.raises(TypeError):
            hash(made_by_record(*a))
    reprs = []
    for cls in (made_by_record, made_by_dataclass):
        nested = cls("*", ())
        nested.args = (nested,)  # a cycle prints as ...
        reprs.append(repr(nested))
    assert reprs[0] == reprs[1] and reprs[0].endswith("Node(op='*', args=(...,), note='')")


def test_unfrozen_records_keep_value_equality():
    """Ast nodes keep their fields, repr and value equality."""
    from adil.frontend import Binary, VarRef
    from adil.source import SourceSpan

    span = SourceSpan("f.c", 1, 1, 1, 5)
    a = Binary("+", VarRef("x", 0, span), VarRef("y", 1, span), span)
    b = Binary("+", VarRef("x", 0, span), VarRef("y", 1, span), span)
    assert a == b and a.height == 1
    assert repr(a) == ("Binary(op='+', lhs=VarRef(name='x', slot=0, span=SourceSpan(file='f.c', "
                       "line_start=1, col_start=1, line_end=1, col_end=5)), rhs=VarRef(name='y', "
                       "slot=1, span=SourceSpan(file='f.c', line_start=1, col_start=1, line_end=1, "
                       "col_end=5)), span=SourceSpan(file='f.c', line_start=1, col_start=1, "
                       "line_end=1, col_end=5))")
    assert [f.name for f in dataclasses.fields(Binary)] == ["op", "lhs", "rhs", "span", "height"]


def test_a_graph_node_is_one_record_carrying_its_annotation():
    """A flow-graph node holds its span, variable and role itself."""
    from adil import flowgraph

    assert [f.name for f in dataclasses.fields(flowgraph.GraphNode)] == \
        ["kind", "in_ports", "span", "opcode", "value", "var_name", "role"]
    assert not hasattr(flowgraph, "Annotation")
