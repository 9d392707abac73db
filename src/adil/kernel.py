"""Generated seed-round kernels: one plan's matching order from one seed,
with the seeds before it skipped, written out as Python source and compiled.

`matcher._Unifier` runs a seed round generically, as one `extend` call from
an empty binding, the first time it searches an order; the second time,
`matcher._kernel` compiles the order here and keeps the function on
`Plan.tables.kernels`. This module is imported only then, so a one-shot run
neither loads it nor compiles one.

A kernel does exactly what `extend` does on its seed round, in the same
order: the same candidates (a lone producer or `FlowGraph.successors` list
as it stands, `sorted(set(...))` over anything else, reverse-sorted for a
sub-match), one step charged per candidate before the injectivity test, and
the same records. Every leaf records the tuple of its loop variables in
pattern order (`PlanTables.pid_order`), with `matcher.UNBOUND` at each
pattern node the order does not bind, as `extend` records a match. The two
stages differ in where a leaf's tuple goes, and at a position where no
candidate passes:

- stage one's round skips nothing, and its leaf, a full match, is appended
  to `_Unifier.full`. A position where no candidate passes defers its
  branch to the near-miss stage;
- a near-miss round skips the seeds before its own. A leaf goes through
  `_Unifier.record`, which tests theta and keeps each match once, and a
  position where no candidate passes, while the round may skip one more
  node, continues through `extend` from the branch's state, as `extend`
  itself does. The kernel hands `extend` its step count and takes it back.

What depends only on the plan is settled when the source is written: each
edge's direction, ports and commutable() alternative, each node's kind,
opcode and constant test, the ctrl labels (of `_Step.ctrl_gen`, since a
checked plan has no ctrl self-loop), and which ends are sub-plan nodes
(those ends go through `_source`, `_sink`, `_producers`, `_consumers` and
`_ctrl_nodes`, as in `extend`). As in `consistent`, no graph node's ports
are tested: a checked plan names only ports that its nodes' kinds have
(`flowgraph.SHAPES`), and a real node is its own value, so its successors
are the candidates of every edge leaving it.

The source holds no text from the plan: pattern node ids, kinds, opcodes,
constants, labels, sub-plan names and the skipped sets are bound to
generated names in the exec namespace, and ports enter as int literals.

An order becomes exactly one function, one nested `for` per position.
CPython 3.10 to 3.12 refuse a 21st statically nested block, so
`matcher._kernel` brings only orders of at most `matcher.MAX_POSITIONS`
positions here; a longer order keeps running `extend`.
"""

from __future__ import annotations

from collections.abc import Callable

from .matcher import UNBOUND, BudgetExceeded, _ctrl_adjacent, _ctrl_linked, _order, _Step
from .planlib import PlanTables


def compile_kernel(tables: PlanTables, order: list[_Step | None], skipped: frozenset[str]) -> Callable:
    """The seed round of an order (`matcher._order`), which starts from its
    seed with `skipped` skipped, as one function `(search, seed_candidates)`
    that leaves the search as extend() would."""
    return _KernelWriter(tables, order, skipped).compile()


def _indent(text: str) -> str:
    return "".join("    " + line for line in text.splitlines(True))


# The pieces of a kernel's source. The function binds the search's tables to
# locals, read or not, then what its stage reads; each position is one loop
# that charges a step per candidate and skips the candidate when a test fails.
_PROLOGUE = """\
nodes = u.g.nodes
producer_of = u.producer_of
succ = u.successors
commutative = u.commutative
ctrl_out = u.ctrl_out
ctrl_in = u.ctrl_in
pseudos = u.pseudos
pseudos_at = u.pseudos_at
_source = u._source
_sink = u._sink
_producers = u._producers
_consumers = u._consumers
_ctrl_nodes = u._ctrl_nodes
max_steps = u.max_steps
may_skip = u.max_skipped > %(skipped)d
"""
_STAGE_ONE = """\
record = u.full.append
defer = u.deferred.append
"""
_NEAR_MISS = """\
record = u.record
extend = u.extend
tables = u.tables
"""
_LOOP = """\
for n%(i)d in %(candidates)s:
    steps += 1
    if steps > max_steps:
        u.steps = steps
        raise BudgetExceeded(u.plan.name, [])
    if %(tests)s:
        continue
"""
# n<b>'s producer at an in-port, as a tuple of the one node or of none; q is
# read at once, so every part of every position may reuse the name
_LONE_PRODUCER = "((q,) if (q := producer_of.get((n%d, %d))) is not None else ())"
# a position where no candidate passed: stage one defers the branch, skipping
# the position's node; a near-miss round goes on at once, through extend()
_EXTENSION = """\
pr%(i)d = False
%(loop)s    pr%(i)d = True
%(inner)sif not pr%(i)d and may_skip:
%(skip)s"""
_DEFER = """\
    defer(({%(binding)s}, {%(bound)s}, F%(i)d))
"""
_CONTINUE = """\
    u.steps = steps
    extend({%(binding)s}, {%(bound)s}, F%(i)d, _order(tables, B%(i)d, F%(i)d))
    steps = u.steps
"""


class _KernelWriter:
    """Position i of the order is one `for n<i>` loop, nested in position
    i-1's, over the candidates `candidates_via_edges` would list, with the
    tests of `consistent` written out for the position's edges. An order
    that skips nothing is stage one's."""

    def __init__(self, tables: PlanTables, order: list[_Step | None], skipped: frozenset[str] = frozenset()):
        self.steps = order[:-1]
        self.skipped = skipped
        self.pid_order = tables.pid_order
        self.commutable = tables.commutable
        self.pos = {step.pid: i for i, step in enumerate(self.steps)}
        self.ns: dict = {"U": UNBOUND, "BudgetExceeded": BudgetExceeded, "_order": _order,
                         "_ctrl_linked": _ctrl_linked, "_ctrl_adjacent": _ctrl_adjacent}
        for i, step in enumerate(self.steps):
            # F<i>: the skipped set of a branch that skips position i's node;
            # B<i>: the pattern nodes such a branch has bound
            self.ns.update({f"P{i}": step.pid, f"F{i}": skipped | {step.pid}, f"S{i}": step.subplan,
                            f"K{i}": step.kind, f"O{i}": step.opcode, f"C{i}": step.const})
            if skipped:
                self.ns[f"B{i}"] = frozenset([s.pid for s in self.steps[:i]])

    def source(self) -> str:
        stage = _NEAR_MISS if self.skipped else _STAGE_ONE
        body = (_PROLOGUE % {"skipped": len(self.skipped)} + stage + "steps = u.steps\n"
                + self.position(0) + "u.steps = steps\n")
        return "def kernel(u, cands):\n" + _indent(body)

    def compile(self) -> Callable:
        name = "<near-miss kernel>" if self.skipped else "<stage-one kernel>"
        exec(compile(self.source(), name, "exec"), self.ns)
        return self.ns["kernel"]

    def position(self, i: int) -> str:
        """Position i's loop, with every later position inside it."""
        if i + 1 == len(self.steps):  # the leaf: its match, U where the order binds no node
            inner = "record((%s,))\n" % ", ".join(f"n{self.pos[pid]}" if pid in self.pos else "U"
                                                  for pid in self.pid_order)
        else:
            inner = self.position(i + 1)
        tests = self.tests(i)
        if not i:
            loop = _LOOP % {"i": 0, "candidates": "cands", "tests": " or ".join(tests) or "False"}
            return loop + _indent(inner)
        tests.insert(0, " or ".join(f"n{i} == n{j}" for j in range(i)))  # injectivity
        loop = _LOOP % {"i": i, "candidates": self.candidates(i), "tests": " or ".join(tests)}
        branch = {"i": i, "binding": ", ".join(f"P{j}: n{j}" for j in range(i)),
                  "bound": ", ".join(f"n{j}" for j in range(i))}
        skip = (_CONTINUE if self.skipped else _DEFER) % branch
        return _EXTENSION % {"i": i, "loop": loop, "inner": _indent(inner), "skip": skip}

    def real(self, i: int) -> bool:
        return self.steps[i].subplan is None

    def ctrl_nodes(self, i: int) -> str:
        return f"(n{i},)" if self.real(i) else f"_ctrl_nodes(n{i})"

    def label(self, label: str | None) -> str:
        name = f"L{len(self.ns)}"
        self.ns[name] = label
        return name

    def tests(self, i: int) -> list[str]:
        """consistent() at position i, as conditions any of which rejects n<i>."""
        step = self.steps[i]
        tests = []
        if step.subplan is None:
            tests.append(f"(d{i} := nodes[n{i}]).kind is not K{i}")
            if step.opcode is not None:
                tests.append(f"d{i}.opcode is not O{i}")
            if step.const is not None:
                tests.append(f"d{i}.value != C{i}")
        for (a, po), (b, pi) in step.data_checks:
            a, po, b, pi = self.pos[a], int(po), self.pos[b], int(pi)
            if self.real(a) and self.real(b):
                # n<a> produces n<b>'s in-port pi, or the other operand when
                # pattern node b is commutable()
                test = f"producer_of.get((n{b}, {pi})) != n{a}"
                if self.steps[b].pid in self.commutable and pi in (0, 1):
                    test = (f"({test} and (n{b} not in commutative"
                            f" or producer_of.get((n{b}, {1 - pi})) != n{a}))")
                tests.append(test)
            else:
                tests.append(f"(s := _source(n{a}, {po})) is None"
                             f" or s not in _producers(*_sink(P{b}, n{b}, {pi}))")
        for a, b, label in step.ctrl_gen:
            tests.append(f"not _ctrl_linked(ctrl_out, {self.ctrl_nodes(self.pos[a])}, "
                         f"{self.ctrl_nodes(self.pos[b])}, {self.label(label)})")
        return tests

    def candidates(self, i: int) -> str:
        """candidates_via_edges() at position i."""
        step = self.steps[i]
        if step.subplan is not None:  # pseudo_candidates()
            if not step.data_gen:
                return f"[p.pseudo_id for p in pseudos[S{i}]]"
            (a, po), (b, pi) = step.data_gen[0]
            a, po, b, pi = self.pos[a], int(po), self.pos[b], int(pi)
            port, nodes = ((po, f"_producers(*_sink(P{b}, n{b}, {pi}))") if a == i
                           else (pi, f"_consumers(_source(n{a}, {po}))"))
            return (f"sorted({{p for x in {nodes} for p in pseudos_at[S{i}].get(({port}, x), ())}},"
                    " reverse=True)")
        parts = []
        for (a, po), (b, pi) in step.data_gen:
            a, po, b, pi = self.pos[a], int(po), self.pos[b], int(pi)
            if a != i:
                parts.append(f"succ.get(n{a}, ())" if self.real(a) else
                             f"_consumers(_source(n{a}, {po}))")
            elif not self.real(b):
                parts.append(f"_producers(*_sink(P{b}, n{b}, {pi}))")
            else:
                parts.append(_LONE_PRODUCER % (b, pi))
                if self.steps[b].pid in self.commutable and pi in (0, 1):
                    parts.append(f"({_LONE_PRODUCER % (b, 1 - pi)} if n{b} in commutative else ())")
        ctrl = [f"_ctrl_adjacent(ctrl_in, {self.ctrl_nodes(self.pos[b])}, {self.label(label)})"
                if self.pos[a] == i else
                f"_ctrl_adjacent(ctrl_out, {self.ctrl_nodes(self.pos[a])}, {self.label(label)})"
                for a, b, label in step.ctrl_gen]
        if len(parts) == 1 and not ctrl and not parts[0].startswith("_producers"):
            return parts[0]  # at most one producer, or one node's successors: sorted and distinct
        if len(parts) + len(ctrl) == 1:
            return f"sorted(set({(parts + ctrl)[0]}))"
        listed = " or ".join(f"[{', '.join('*' + part for part in group)}]"
                             for group in (parts, ctrl) if group)
        return f"sorted(set({listed}))"
