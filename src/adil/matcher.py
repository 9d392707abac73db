"""Unification of flow graphs against plans, then constraint testing.

The search is anchor-seeded backtracking subgraph matching: seeding starts
at the pattern node whose (kind, opcode) key is rarest in the graph, and
partial bindings grow along pattern data edges first, control edges second.
Subgraph matching is NP-hard in general, so every attempted assignment
burns one step of an explicit budget; hitting the ceiling raises
BudgetExceeded with the results found so far attached.

The search records bare matches, and tests theta as one integer, the most
pattern nodes a match may leave unbound (`max_skipped`). Every match is
recorded as the tuple of its graph nodes in pattern order, the
pattern-indexed mapping VF2 keeps, with UNBOUND at each pattern node it
leaves unbound. Only when the search ends (or the budget runs out) does an
exact maximality filter drop every match that another one strictly
contains. The survivors are put in result order by a key computed from the
match alone, and a MatchResult, with its {pid: node} binding, constraint
checks and Fraction score, is built only when a reader reaches it:
`Recognition.best_accepted` on a plan with 200 full matches builds one
binding and one result.

Each candidate assignment is checked only against the pattern edges
incident to its pattern node. An edge whose two ends are real graph nodes
is checked straight against `FlowGraph.producer_of`: the source produces the
target's in-port, or the other operand when the target's pattern node is
commutable() and the node is in `g.commutative_nodes`. No port is tested
against a graph node: `planlib.check_plan` refuses a pattern edge at a port
its node's kind lacks (`flowgraph.SHAPES`), and a graph value is the node
that makes it, so an edge's source is the real node bound to its end. A
Plan built directly, past the plan parser, is the caller's to check. A real
pattern node's candidates are the producers
of its bound neighbours and their `FlowGraph.successors` lists (each node's
distinct consumers, ascending, built once per graph), so one source needs
no sort. Only an edge with a sub-match at an end first resolves that end to
the export node its port addresses. A sub-plan pattern node's candidates
are the sub-matches whose export node is a producer or consumer of an
already-bound neighbour, found through an index by export node rather than
by trying every sub-match. The incident edges and the plan's other lookup
tables (`Plan.tables`) are built once per Plan and live on it, so they are
shared by every graph the plan is matched against and die with the plan.

The search attempts nothing that could only record a binding below theta.
A pattern node it skipped is never bound, so once max_skipped nodes are
skipped, the seed rounds stop and a branch skips no further node. The
results are exactly those of the unpruned search; only the steps are fewer.

The search runs in two stages over exactly the same branches. The first
stage seeds round 0 only, and defers every branch that would skip a pattern
node; since a branch with a skipped node can never bind them all, it finds
every full match. The second, resumable stage runs the deferred branches and
then seed rounds 1 and up, which is where near-misses come from. Both stages
charge one step counter, and a result is built once whichever stage needs it
first. Both `recognize` and `unify` hand each search to `Recognition.add`,
which runs stage one and keeps the search for its second.

Stage one appends its matches to `full` with no test. Its branches skip
nothing, so each follows its seed's compiled order, and at each position its
candidates (`node_candidates` for the seed, `candidates_via_edges` after it)
offer every node once: two stage-one leaves differ at the first position
where their branches part, so none is recorded twice. Each is a full match,
since `_order` refuses a plan that is not connected. Every stage-two branch
leaves unbound a pattern node that every stage-one match holds, a deferred
branch its skipped node and seed rounds 1 and up the first seed, so stage
two never reaches a stage-one match either; its own branches can meet again
through different skips, so `record` keeps their matches as the keys of a
dict (`near`), in the order first recorded. Stage one ranks its tuples as
they are, by lowest real node, then tuple: that is `rank`'s order, since
every full match has the plan's size. It sorts the tuples, then sorts them
stably by lowest real node, which for a plan without sub nodes is `min`, so
no Python code runs per match. `finish` lists the full matches first, ranked
as stage one ranks them, and tests every near-miss (none after stage one)
against them.

The order in which a branch binds pattern nodes depends only on the plan
and the branch's state: the nodes it has bound and the nodes it has
skipped. Next comes the first pattern node, in pattern order, with a bound
data neighbour, else with a bound ctrl one. So a branch binds exactly what
the walk from its state reaches, and that order is compiled once per plan
and state (`_order`), one `_Step` per position, indexed by the number of
nodes bound, and kept on `Plan.tables`, shared by every graph and dropped
with the plan. A seed's order is the one from the seed alone, skipping
nothing; seed rounds 1 and up start from the seed with the seeds before it
skipped; a deferred branch, when `resume` runs it, and a stage-two branch
that skips one more node start from their own state. Every program a
shared base grades meets the same states, and one search meets a state
again from many candidates. A plan keeps at most MAX_ORDERS orders; past
that, an order is compiled for the branch that needs it and dropped with
it. A step holds its pattern node's test and the incident edges whose
other end is bound before it, so checking a candidate tests no edge for
being bound, and `extend` reads each branch's next step from its order.

Every seed round, stage one's and the near-miss ones, runs in two tiers.
The first time a plan searches a seed order, it runs `extend`, the search's
one generic loop, over the compiled order from an empty binding. The second
time, the order is compiled into one generated Python function
(`kernel.compile_kernel`), kept on `Plan.tables.kernels` under the order's
key, ({seed}, skipped) as in `orders`, and dropped with the plan; every
later search of that order runs it. Only an order that `orders` keeps is
compiled, so a plan holds at most MAX_ORDERS kernels. A one-shot run, or a
plan built for one item, never pays for generating code; a plan that grades
a class generates each order it uses once. The kernel is one nested loop
per position of the order, with every plan-only fact (edge directions,
ports, commutable() alternatives, node tests, ctrl labels, which ends are
sub-matches) settled in its source. It takes the same candidates in the
same order, charges the same steps and leaves the same records and deferred
branches as `extend`, also when the budget runs out: where no candidate
passes at a position, stage one's kernel defers the branch, and a near-miss
kernel goes on through `extend` from the branch's state with one more node
skipped. No text from the plan enters the source: pattern node ids, skipped
sets, labels, kinds and the like are names bound in its namespace, and
ports are int literals. An order of more than MAX_POSITIONS positions is
never compiled and always runs `extend`: CPython 3.10 to 3.12 refuse a 21st
statically nested block, and no shipped plan comes near that. A branch that
starts from a bound state, a deferred one or a skip inside a near-miss
branch, always runs `extend`.

Hierarchy is bottom-up: accepted matches of a sub-plan become bindable
pseudo-nodes for the plans that contain it, and `recognize` orders plans so
sub-plans always run first. `recognize` runs first stages only, so those
accepted lists are final when they are bound; they are the only results it
builds for itself. A plan's second stage runs the first time a reader of the
returned `Recognition` asks for more than its full matches, so a diagnosis
resumes just the plans whose near-misses it reads. Every other plan lists its
full matches alone; every accepted list is the same as with the whole search.

Results are deterministic: identical inputs produce identical result lists,
in an order fixed by a total sort key, not by the order of exploration.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Collection, Iterable, Iterator, Sequence, Set
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat

from .flowgraph import FlowGraph, NodeKind, node_index, value_chains
from .planlib import Plan, PlanBase, PlanTables, Predicate, closure, dependency_order
from .records import record
from .source import SourceSpan


@dataclass(frozen=True)
class SearchBudget:
    max_extension_steps: int = 1_000_000
    theta: float = 0.6  # near-miss score threshold

    def __post_init__(self) -> None:
        if not (0 < self.theta <= 1):
            raise ValueError("theta must be in (0, 1]")
        if self.max_extension_steps < 1:
            raise ValueError("max_extension_steps must be positive")


@lru_cache(maxsize=64)
def theta_fraction(theta: float) -> Fraction:
    """theta as the exact decimal it is written as (0.8000001 > 4/5)."""
    return Fraction(str(theta))


# A match as the search records it is the tuple of its graph nodes in pattern
# order (PlanTables.pid_order), with UNBOUND, never a node or sub-match id, at
# each pattern node it leaves unbound.
UNBOUND = -10**9


@record
class ConstraintOutcome:
    predicate: Predicate
    passed: bool
    evaluated: bool
    detail: str


@record
class MatchResult:
    plan: str
    binding: dict[str, int]  # pid -> node id (negative ids denote sub-matches)
    sub_matches: dict[str, "MatchResult"]  # pid -> accepted sub-match
    slots: dict[str, int]  # slot -> the value of the CONST node bound to its pattern node
    score: Fraction
    constraint_outcomes: tuple[ConstraintOutcome, ...]
    spans: tuple[SourceSpan, ...]

    @property
    def accepted(self) -> bool:
        return self.score == 1 and all(o.passed for o in self.constraint_outcomes)

    def real_nodes(self) -> set[int]:
        """Bound graph nodes, with sub-matches expanded recursively."""
        nodes: set[int] = set()
        for pid, nid in self.binding.items():
            if nid >= 0:
                nodes.add(nid)
            else:
                nodes.update(self.sub_matches[pid].real_nodes())
        return nodes


class BudgetExceeded(Exception):
    """Search truncated, not proof of absence. unify() raises it with the
    plan's results so far: what its Recognition lists for a truncated plan."""

    def __init__(self, plan: str, results: list[MatchResult]):
        super().__init__(f"matching budget exhausted while unifying plan {plan!r}")
        self.plan = plan
        self.results = results


class Recognition:
    """recognize() output, and unify()'s for its one plan: per-plan results
    plus the plans whose search was cut short. `add` starts each search.

    A plan's results are every maximal match scoring at least theta, best
    first. recognize ran each plan's first stage, which finds its full
    matches; its near-miss stage runs once, the first time a reader asks for
    more than those (`best`, `best_near_miss`, `by_plan`). So `truncated`
    grows as plans are read. A plan truncated in the first stage is never
    resumed, and a truncated plan lists what its search found before the
    budget ran out.

    Each plan keeps its matches in result order, and a MatchResult (with its
    constraint checks) is built only when a reader reaches it, and once.
    `best`, `best_accepted` and `best_near_miss` stop at their answer;
    `accepted` builds a plan's full matches and `by_plan` every result of
    every plan, the first time it is read.
    """

    def __init__(self) -> None:
        # plan -> (its search, its recorded matches best first)
        self._ranked: dict[str, tuple[_Unifier, list[tuple[int, ...]]]] = {}
        self._pending: dict[str, _Unifier] = {}  # plan -> its search, before its near-miss stage
        self.truncated: set[str] = set()
        self._by_plan: dict[str, list[MatchResult]] | None = None

    def add(self, name: str, search: _Unifier) -> None:
        """Runs stage one of name's search. A search the budget cut short
        ends there; any other waits for its near-miss stage."""
        self.run_stage(name, search, search.first_stage)
        if name in self.truncated:
            search.end_search()
        else:
            self._pending[name] = search

    def run_stage(self, name: str, search: _Unifier, stage: Callable[[], list[tuple[int, ...]]]) -> None:
        """Runs one stage of name's search and keeps its matches; a stage the
        budget cuts short keeps what it found, and marks the plan truncated."""
        try:
            self._ranked[name] = (search, stage())
        except BudgetExceeded:
            self._ranked[name] = (search, search.finish())
            self.truncated.add(name)

    @property
    def by_plan(self) -> dict[str, list[MatchResult]]:
        if self._by_plan is None:
            self._by_plan = {name: list(self._results(name, False)) for name in sorted(self._ranked)}
        return self._by_plan

    def _results(self, plan: str, full_only: bool) -> Iterator[MatchResult]:
        if not full_only and plan in self._pending:
            search = self._pending.pop(plan)
            self.run_stage(plan, search, search.resume)
            search.end_search()
        search, matches = self._ranked.get(plan, (None, ()))
        for match in matches:
            if full_only and UNBOUND in match:
                return  # full matches sort first, and only they can be accepted
            yield search.result(match)

    def accepted(self, plan: str) -> list[MatchResult]:
        return [m for m in self._results(plan, True) if m.accepted]

    def best(self, plan: str) -> MatchResult | None:
        for m in self._results(plan, False):
            return m
        return None

    def best_accepted(self, plan: str) -> MatchResult | None:
        for m in self._results(plan, True):
            if m.accepted:
                return m
        return None

    def best_near_miss(self, plan: str) -> MatchResult | None:
        for m in self._results(plan, False):
            if not m.accepted:
                return m
        return None


# ---------------------------------------------------------------------------
# Single-plan unification

@record
class _Pseudo:
    pseudo_id: int
    match: MatchResult
    export_nodes: list[int]  # real node per export role, lexicographic role order
    all_nodes: set[int]


class _Step:
    """One place in a matching order: the pattern node bound there, its node
    test, and its incident edges as seen from the nodes bound before it.

    `data_gen` and `ctrl_gen`, the edges whose other end is bound, are where
    candidates come from and what `consistent` tests, with the data
    self-loops added in `data_checks`: `check_plan` refuses a ctrl one."""

    __slots__ = ("pid", "subplan", "kind", "opcode", "const", "data_checks", "data_gen", "ctrl_gen")

    def __init__(self, tables: PlanTables, pid: str, bound: Collection[str]):
        pn = tables.pnodes[pid]
        self.pid, self.subplan = pid, pn.subplan
        self.kind, self.opcode, self.const = pn.kind, pn.opcode, pn.const
        self.data_gen, self.data_checks = data_gen, data_checks = [], []
        for other, edge in tables.data_at[pid]:
            if other in bound:
                data_gen.append(edge)
                data_checks.append(edge)
            elif other == pid:
                data_checks.append(edge)
        self.ctrl_gen = [edge for other, edge in tables.ctrl_at[pid] if other in bound]


def _step(tables: PlanTables, bound: Set[str], skipped: Collection[str]) -> _Step | None:
    """The next pattern node to bind, as a step, or None when no pattern node
    outside bound and skipped has a bound neighbour: the first such node in
    pattern order with a bound data neighbour, else with a bound ctrl one."""
    for nbrs in (tables.data_nbrs, tables.ctrl_nbrs):
        for pid in tables.pid_order:
            if pid in bound or pid in skipped:
                continue
            if not bound.isdisjoint(nbrs[pid]):
                return _Step(tables, pid, bound)
    return None


# The most orders one plan keeps, over twice what any shipped plan needs (see
# PlanTables.orders); past it, an order is compiled for the branch that needs
# it and dropped with the branch.
MAX_ORDERS = 64


def _order(tables: PlanTables, bound: frozenset[str], skipped: frozenset[str]) -> list[_Step | None]:
    """The steps a branch takes once it has bound `bound` and skipped
    `skipped`, one per node it binds, then None, indexed by the number of
    nodes bound. Positions below len(bound) hold None and are never read,
    except position 0 of a lone seed's order: the seed's own step, where its
    seed round starts. A seed's order, which skips nothing, is the one for
    ({seed}, {}). An order that skips nothing must bind every pattern node:
    a ValueError names a plan whose pattern is not connected. Kept on the
    plan's tables, up to MAX_ORDERS per plan."""
    key = (bound, skipped)
    order = tables.orders.get(key)
    if order is None:
        order = [None] * len(bound)
        if len(bound) == 1:
            order[0] = _Step(tables, next(iter(bound)), ())
        now = set(bound)
        while (step := _step(tables, now, skipped)) is not None:
            order.append(step)
            now.add(step.pid)
        order.append(None)
        if not skipped and len(order) <= len(tables.pid_order):
            # stage one records each leaf of such an order as a full match
            raise ValueError(f"plan {tables.name!r}: pattern graph is not connected")
        if len(tables.orders) < MAX_ORDERS:
            tables.orders[key] = order
    return order


# The longest order compiled into a kernel, which nests one loop per position:
# CPython 3.10 to 3.12 refuse a 21st statically nested block.
MAX_POSITIONS = 20


def _kernel(tables: PlanTables, key: tuple[frozenset[str], frozenset[str]],
            order: list[_Step | None]) -> Callable | None:
    """The generated seed round for the order kept under key, ({seed},
    skipped): None on the order's first search, which runs extend(); compiled
    on its second, and kept. Only an order that tables.orders keeps is ever
    compiled, so a plan holds at most MAX_ORDERS kernels, and an order longer
    than MAX_POSITIONS never is."""
    kernels = tables.kernels
    kernel = kernels.get(key)
    if kernel is None:
        if key not in kernels:
            if key in tables.orders:
                kernels[key] = None
            return None
        if len(order) - 1 > MAX_POSITIONS:
            return None
        from .kernel import compile_kernel  # loaded only by a search that compiles

        kernel = kernels[key] = compile_kernel(tables, order, key[1])
    return kernel


def _ctrl_linked(ctrl_out, sources: Collection[int], targets: Collection[int], label: str | None) -> bool:
    """Whether a ctrl edge with the label (any, for None) leads from sources to targets."""
    return any(dst in targets and (label is None or lab == label)
               for src in sources for dst, lab in ctrl_out.get(src, ()))


def _ctrl_adjacent(adjacency, nodes: Collection[int], label: str | None) -> list[int]:
    """The nodes one ctrl edge with the label (any, for None) away from nodes,
    along ctrl_out or ctrl_in."""
    return [other for nid in nodes for other, lab in adjacency.get(nid, ())
            if label is None or lab == label]


class _Unifier:
    def __init__(self, g: FlowGraph, plan: Plan, budget: SearchBudget,
                 sub_matches: dict[str, list[MatchResult]], sub_plans: dict[str, Plan]):
        self.g = g
        self.plan = plan
        self.max_steps = budget.max_extension_steps
        self.steps = 0
        self.index = node_index(g)
        self.commutative = g.commutative_nodes
        self.producer_of, self.successors = g.producer_of, g.successors
        self.ctrl_out, self.ctrl_in = g.ctrl_out, g.ctrl_in
        tables = plan.tables
        # theta as the most pattern nodes a match may leave unbound (or a branch
        # skip): with u unbound, (size - u) * den >= num * size iff
        # u <= size - ceil(num * size / den), since size - u is an integer
        theta = theta_fraction(budget.theta)
        size = len(tables.pid_order)
        self.max_skipped = size + (-theta.numerator * size // theta.denominator)
        self.tables = tables
        self.pid_order = tables.pid_order
        self.commutable = tables.commutable

        # pseudo-node table for sub-plan pattern nodes, and each sub-plan's
        # pseudo-nodes by (export port, export node), in table order
        self.pseudos: dict[str, list[_Pseudo]] = {}
        self.pseudos_at: dict[str, dict[tuple[int, int], list[int]]] = {}
        next_pseudo = -1
        for sub_name in tables.subplans:
            entries = []
            at: dict[tuple[int, int], list[int]] = {}
            sub_plan = sub_plans[sub_name]
            roles = [pid for _, pid in sorted(sub_plan.exports)]
            for m in sub_matches.get(sub_name, []):
                pseudo = _Pseudo(next_pseudo, m, [m.binding[p] for p in roles], m.real_nodes())
                entries.append(pseudo)
                for port, nid in enumerate(pseudo.export_nodes):
                    at.setdefault((port, nid), []).append(next_pseudo)
                next_pseudo -= 1
            self.pseudos[sub_name] = entries
            self.pseudos_at[sub_name] = at
        self.pseudo_by_id = {p.pseudo_id: p for entries in self.pseudos.values() for p in entries}

        self.candidates: dict[str, list[int]] = {}  # node_candidates, per pid
        self.seeds: list[str] = []  # pids by rarity, set by first_stage
        self.deferred: list[tuple[dict[str, int], set[int], frozenset]] = []  # for resume
        # stage one's matches; stage two's at or above theta, as a dict's keys.
        # A search sets 23 attributes: at 30, CPython 3.11 to 3.13 stop sharing
        # instance dict keys, and every attribute read slows
        self.full: list[tuple[int, ...]] = []
        self.near: dict[tuple[int, ...], None] = {}
        self.built: dict[tuple[int, ...], MatchResult] = {}  # results, by match

    # -- candidate enumeration

    def node_candidates(self, pid: str) -> list[int]:
        found = self.candidates.get(pid)
        if found is None:
            pn = self.tables.pnodes[pid]
            if pn.subplan is not None:
                found = [p.pseudo_id for p in self.pseudos[pn.subplan]]
            elif pn.kind is NodeKind.OP and pn.opcode is None:
                found = sorted(nid for (kind, _), nids in self.index.items() if kind is NodeKind.OP
                               for nid in nids)
            else:
                found = self.index.get((pn.kind, pn.opcode), [])
            self.candidates[pid] = found
        return found

    def _source(self, nid: int, port: int) -> int | None:
        """The graph node whose value bound endpoint nid:port stands for: a
        real node itself, the export node port addresses for a sub-match."""
        return nid if nid >= 0 else self._export_target(nid, port)

    def _sink(self, pid: str, nid: int, port: int) -> tuple[int | None, Sequence[int]]:
        """The graph node and in-ports that the input pid:port, bound to nid,
        stands for: the port, or both operands of a commutative node when pid
        is commutable(); any in-port of a sub-match's addressed export node."""
        if nid >= 0:
            if pid in self.commutable and nid in self.commutative and port in (0, 1):
                return nid, (port, 1 - port)
            return nid, (port,)
        target = self._export_target(nid, port)
        return target, () if target is None else range(self.g.nodes[target].in_ports)

    def _export_target(self, nid: int, port: int) -> int | None:
        exports = self.pseudo_by_id[nid].export_nodes
        return exports[port] if port < len(exports) else None

    def _producers(self, target: int | None, ports: Sequence[int]) -> list[int]:
        """The nodes producing target's given in-ports."""
        producer_of = self.producer_of
        return [src for ip in ports if (src := producer_of.get((target, ip))) is not None]

    def _consumers(self, src: int | None) -> Sequence[int]:
        """The nodes consuming src's value, ascending."""
        return () if src is None else self.successors.get(src, ())

    def ctrl_edge_ok(self, edge, binding: dict[str, int]) -> bool:
        a, b, label = edge
        return _ctrl_linked(self.ctrl_out, self._ctrl_nodes(binding[a]), self._ctrl_nodes(binding[b]), label)

    def _ctrl_nodes(self, nid: int) -> set[int]:
        return {nid} if nid >= 0 else self.pseudo_by_id[nid].all_nodes

    def consistent(self, step: _Step, nid: int, binding: dict[str, int]) -> bool:
        """Whether nid passes the step's node test and every edge it checks;
        binding already maps step.pid to nid, and injectivity is the caller's.

        Every candidate of a real pattern node is a real node, and every
        candidate of a sub pattern node a sub-match of its own sub-plan (see
        node_candidates and candidates_via_edges), so only a real node's
        kind, opcode and constant are tested."""
        if step.subplan is None:
            node = self.g.nodes[nid]
            if (node.kind is not step.kind
                    or step.opcode is not None and node.opcode is not step.opcode
                    or step.const is not None and node.value != step.const):
                return False
        producer_of = self.producer_of
        for edge in step.data_checks:
            (a, po), (b, pi) = edge
            na, nb = binding[a], binding[b]
            if na >= 0 and nb >= 0:
                # na produces nb's in-port pi, or the other operand when
                # pattern node b is commutable()
                if producer_of.get((nb, pi)) != na:
                    if not (b in self.commutable and nb in self.commutative and pi in (0, 1)):
                        return False
                    if producer_of.get((nb, 1 - pi)) != na:
                        return False
            else:
                source = self._source(na, po)
                if source is None or source not in self._producers(*self._sink(b, nb, pi)):
                    return False
        for edge in step.ctrl_gen:
            if not self.ctrl_edge_ok(edge, binding):
                return False
        return True

    def candidates_via_edges(self, step: _Step, binding: dict[str, int]) -> list[int]:
        """Nodes adjacent in the graph to the step's bound pattern neighbors."""
        if step.subplan is not None:
            return self.pseudo_candidates(step, binding)
        pid = step.pid
        producer_of = self.producer_of
        out: list[int] = []
        for edge in step.data_gen:
            (a, po), (b, pi) = edge
            if a == pid:
                nb = binding[b]
                if nb < 0:
                    out.extend(self._producers(*self._sink(b, nb, pi)))
                    continue
                src = producer_of.get((nb, pi))
                if src is not None:
                    out.append(src)
                if b in self.commutable and nb in self.commutative and pi in (0, 1):
                    src = producer_of.get((nb, 1 - pi))
                    if src is not None:
                        out.append(src)
            else:
                na = binding[a]
                if na < 0:
                    out.extend(self._consumers(self._source(na, po)))
                else:
                    out.extend(self.successors.get(na, ()))
        if not out:
            for a, b, label in step.ctrl_gen:
                if a == pid:
                    out.extend(_ctrl_adjacent(self.ctrl_in, self._ctrl_nodes(binding[b]), label))
                else:
                    out.extend(_ctrl_adjacent(self.ctrl_out, self._ctrl_nodes(binding[a]), label))
        return sorted(set(out))

    def pseudo_candidates(self, step: _Step, binding: dict[str, int]) -> list[int]:
        """Sub-matches that may stand for the step's pattern node, in table order.

        Filtered through its first data edge to a bound pattern node: a
        sub-match stays if its export node at that edge's port is a producer
        (the step's node is the source) or a consumer (the target) of the
        bound node, by the port rules of `consistent`. Every other sub-match
        fails that edge there. With no such edge, every sub-match.
        """
        if not step.data_gen:
            return [p.pseudo_id for p in self.pseudos[step.subplan]]
        (a, po), (b, pi) = step.data_gen[0]
        if a == step.pid:
            port = po
            nodes = self._producers(*self._sink(b, binding[b], pi))
        else:
            port = pi
            nodes = self._consumers(self._source(binding[a], po))
        by_export = self.pseudos_at[step.subplan]
        # pseudo ids count down in table order
        return sorted({p for nid in nodes for p in by_export.get((port, nid), ())}, reverse=True)

    # -- search
    #
    # One binding dict and one set of its bound nodes are shared by the whole
    # search: each level adds its pattern node before recursing and removes
    # it after. A leaf records its match as a tuple of nodes in pattern order.

    def first_stage(self) -> list[tuple[int, ...]]:
        """Round 0 from the rarest seed, with every fallback skip deferred.

        A branch that skipped a pattern node can never bind all of them, so
        this stage finds every full match; it returns them best first, each
        as the tuple of its nodes in pattern order.
        """
        # Seed at the rarest pattern key first. Later rounds skip earlier
        # seeds entirely, so near-misses that exclude any one pattern node
        # are still reachable; their supersets from earlier rounds win in
        # the final maximality filter. Ties keep pattern-node order (the
        # sort is stable). Round i skips i seeds, so rounds past
        # max_skipped can record nothing.
        self.seeds = sorted(self.pid_order, key=lambda pid: len(self.node_candidates(pid)))
        self.seed_rounds(0, 1)
        return self.finish()

    def resume(self) -> list[tuple[int, ...]]:
        """The near-miss stage: the deferred branches, then seed rounds
        1..max_skipped. Returns every maximal match, best first."""
        deferred, self.deferred = self.deferred, []
        for binding, used, skipped in deferred:
            self.extend(binding, used, skipped, _order(self.tables, frozenset(binding), skipped))
        self.seed_rounds(1, self.max_skipped + 1)
        return self.finish()

    def seed_rounds(self, start: int, stop: int) -> None:
        tables = self.tables
        skipped = frozenset(self.seeds[:start])
        for seed in self.seeds[start:stop]:
            key = (frozenset((seed,)), skipped)
            order = _order(tables, *key)
            kernel = _kernel(tables, key, order)
            if kernel is not None:
                kernel(self, self.node_candidates(seed))
            else:
                self.extend({}, set(), skipped, order)
            skipped = skipped | {seed}

    def extend(self, binding: dict[str, int], used: set[int], skipped: frozenset,
               order: list[_Step | None]) -> None:
        """Grows the branch at order[len(binding)]; from an empty binding, a
        seed round over the seed's node_candidates, which skips no seed."""
        step = order[len(binding)]
        if step is None:
            # a tuple from a list, whose size tuple() knows (see PlanTables)
            match = tuple(list(map(binding.get, self.pid_order, repeat(UNBOUND))))
            if skipped:
                self.record(match)
            else:  # full, reached once and never by stage two (see the module docstring)
                self.full.append(match)
            return
        pid = step.pid
        progressed = False
        for nid in self.candidates_via_edges(step, binding) if binding else self.node_candidates(pid):
            self.steps += 1
            if self.steps > self.max_steps:  # what was found so far is finish(); Recognition keeps it
                raise BudgetExceeded(self.plan.name, [])
            if nid in used:
                continue  # injectivity
            binding[pid] = nid
            if self.consistent(step, nid, binding):
                progressed = True
                used.add(nid)
                self.extend(binding, used, skipped, order)
                used.remove(nid)
            del binding[pid]
        if not progressed and binding and len(skipped) < self.max_skipped:
            # pid is unbindable here; keep growing elsewhere so near-misses
            # report the largest structure that does exist. Only stage one
            # has branches that skipped nothing, and it leaves this to resume().
            if skipped:
                skipped = skipped | {pid}
                self.extend(binding, used, skipped, _order(self.tables, frozenset(binding), skipped))
            else:
                self.deferred.append((dict(binding), set(used), frozenset((pid,))))

    def record(self, match: tuple[int, ...]) -> None:
        """Keeps a near-miss leaf's match, once, if it scores at least theta:
        if it leaves at most max_skipped pattern nodes unbound."""
        if match.count(UNBOUND) <= self.max_skipped:
            self.near[match] = None

    def result(self, match: tuple[int, ...]) -> MatchResult:
        """The match's MatchResult, built once over both stages."""
        found = self.built.get(match)
        if found is None:
            binding = dict(compress(zip(self.pid_order, match), map(UNBOUND.__ne__, match)))
            found = self.built[match] = self.build_result(binding)
        return found

    def build_result(self, binding: dict[str, int]) -> MatchResult:
        subs = {pid: self.pseudo_by_id[nid].match for pid, nid in binding.items() if nid < 0}
        result = MatchResult(
            plan=self.plan.name,
            binding=binding,
            sub_matches=subs,
            slots={},
            score=Fraction(len(binding), len(self.pid_order)),
            constraint_outcomes=(),
            spans=(),
        )
        return check_constraints(result, self.plan, self.g)

    def finish(self) -> list[tuple[int, ...]]:
        """The recorded matches a result list shows, best first.

        First stage one's full matches, ranked as they are by lowest real
        node, then tuple: rank()'s order, since every full match has the
        plan's size. A full match is never strictly contained, so they need
        no filter. Then every near-miss that no recorded match strictly
        contains, in rank() order (stage one records none). Fewer than two
        records need no filter and no sort. Also runs on BudgetExceeded, so a
        truncated search keeps its partial results. Results are built from
        these by result(), each once over both stages, and only when someone
        reads them.
        """
        full = sorted(self.full)  # then a stable sort by lowest real node keeps tuple order on ties
        if len(full) > 1:
            full.sort(key=self.lowest if self.tables.subplan_of else min)  # min: every node is real
        if not self.near:
            return full
        near = list(self.near)
        if len(full) + len(near) > 1:
            near = maximal_bindings(near, full)
            if len(near) > 1:
                near.sort(key=self.rank)
        return full + near

    def lowest(self, match: tuple[int, ...]) -> int:
        """The lowest real node a match binds; a sub-match stands for its
        real nodes, never empty."""
        lowest = min(match)
        if lowest < 0:
            lowest = min(nid if nid >= 0 else min(self.pseudo_by_id[nid].all_nodes)
                         for nid in match if nid != UNBOUND)
        return lowest

    def rank(self, match: tuple[int, ...]) -> tuple:
        """Result order, from the match alone: score (size is fixed, so the
        unbound count), lowest real node, then the match itself. A total
        order: distinct matches differ as tuples."""
        return (match.count(UNBOUND), self.lowest(match), match)

    def end_search(self) -> None:
        """Drop what only the search needs; result() keeps working."""
        self.full.clear()
        self.near.clear()
        self.deferred.clear()


def maximal_bindings(matches: list[tuple[int, ...]],
                     containers: Iterable[tuple[int, ...]] = ()) -> list[tuple[int, ...]]:
    """The matches that no other match strictly contains, nor any of
    containers, in input order. A match is taken as its (position, node)
    pairs, UNBOUND left out; a container is a full match, not itself tested.

    A strict superset of m holds every pair of m, so it appears in the
    posting list of each of those pairs. Testing m only against the shortest
    of its lists is therefore exact, and costs far less than comparing every
    pair of matches.
    """
    keys = [frozenset(compress(enumerate(m), map(UNBOUND.__ne__, m))) for m in matches]
    every = keys + [frozenset(enumerate(c)) for c in containers]
    postings: dict[tuple[int, int], list[frozenset]] = {}
    for key in every:
        for pair in key:
            postings.setdefault(pair, []).append(key)
    kept = []
    for m, key in zip(matches, keys):
        pool = min((postings[pair] for pair in key), key=len, default=every)
        if not any(key < other for other in pool):
            kept.append(m)
    return kept


def unify(g: FlowGraph, plan: Plan, budget: SearchBudget | None = None,
          sub_matches: dict[str, list[MatchResult]] | None = None,
          sub_plans: dict[str, Plan] | None = None) -> list[MatchResult]:
    """All maximal matches of one plan against the graph, best first: the
    plan's `Recognition.by_plan` entry, or BudgetExceeded carrying it when
    the budget cuts the search short.

    Plans containing `sub` pattern nodes need the accepted matches of those
    sub-plans (and their Plan objects) passed in; `recognize` arranges this
    bottom-up automatically.
    """
    budget = budget or SearchBudget()
    missing = set(plan.tables.subplans) - set(sub_plans or {})
    if missing:
        raise ValueError(f"plan {plan.name!r} needs sub-plan definitions for {sorted(missing)}")
    rec = Recognition()
    rec.add(plan.name, _Unifier(g, plan, budget, sub_matches or {}, sub_plans or {}))
    results = rec.by_plan[plan.name]
    if plan.name in rec.truncated:
        raise BudgetExceeded(plan.name, results)
    return results


# ---------------------------------------------------------------------------
# Constraint testing

def check_constraints(m: MatchResult, plan: Plan, g: FlowGraph) -> MatchResult:
    """Evaluate every predicate against the binding; failures are data, not errors."""
    chains = value_chains(g)
    # the parser puts a slot on a CONST pattern node only, which binds a CONST node
    slots = {pn.slot: g.nodes[m.binding[pn.pid]].value for pn in plan.pnodes
             if pn.slot is not None and pn.pid in m.binding}
    outcomes = tuple([_evaluate(pred, m, slots, chains, g) for pred in plan.constraints])
    spans = tuple(sorted(g.nodes[nid].span for nid in m.real_nodes()))
    return MatchResult(m.plan, m.binding, m.sub_matches, slots, m.score, outcomes, spans)


# A comparison's test, and what a failed one says it expected, before the right operand
_COMPARISONS = {
    "eq": (operator.eq, "expected "), "ne": (operator.ne, "expected anything but "),
    "lt": (operator.lt, "expected < "), "le": (operator.le, "expected <= "),
    "gt": (operator.gt, "expected > "), "ge": (operator.ge, "expected >= "),
}


def _evaluate(pred: Predicate, m: MatchResult, slots: dict[str, int], chains: dict[int, int],
              g: FlowGraph) -> ConstraintOutcome:
    """One predicate's outcome on the match. A comparison reads its slots' constants:
    its left operand is a $slot, its right an int or a $slot (the parser's rule)."""
    if pred.op == "commutable":
        return ConstraintOutcome(pred, True, True, "matcher directive")
    if pred.op in ("samevar", "distinctvar"):
        pids = [str(a) for a in pred.args]
        if any(pid not in m.binding for pid in pids):
            return ConstraintOutcome(pred, False, False, "not evaluable: pattern node unbound")
        reps = [chains[m.binding[pid]] for pid in pids]
        same = reps[0] == reps[1]
        passed = same if pred.op == "samevar" else not same
        names = [g.nodes[m.binding[pid]].var_name or f"node {m.binding[pid]}" for pid in pids]
        relation = "the same variable" if same else "different variables"
        return ConstraintOutcome(pred, passed, True, f"{names[0]} and {names[1]} are {relation}")

    values: list[int] = []
    for arg in pred.args:
        if isinstance(arg, int):
            values.append(arg)
        elif (value := slots.get(arg[1:])) is None:
            return ConstraintOutcome(pred, False, False, f"not evaluable: slot {arg} unbound")
        else:
            values.append(value)
    lhs, rhs = values
    test, wanted = _COMPARISONS[pred.op]
    if test(lhs, rhs):
        return ConstraintOutcome(pred, True, True, f"{pred.args[0][1:]}={lhs}")
    return ConstraintOutcome(pred, False, True, f"{pred.args[0][1:]}={lhs}, {wanted}{rhs}")


# ---------------------------------------------------------------------------
# Whole-base recognition

def recognize(g: FlowGraph, base: PlanBase, goals: set[str] | list[str] | None = None,
              budget: SearchBudget | None = None) -> Recognition:
    """Match the goal closure (or the whole base) bottom-up against the graph.

    Every plan runs the search's first stage, which finds all its full
    matches, so the accepted lists that parent plans bind are final. Only
    plans that another plan binds as a sub-plan have their accepted results
    built here, since those become pseudo-nodes. A plan's near-miss stage
    runs when the returned Recognition is first asked for more than its full
    matches, so only the plans a reader needs are resumed; a plan truncated
    in the first stage never is. The Recognition builds every other result
    when it is first read.
    """
    budget = budget or SearchBudget()
    names = base.names() if goals is None else closure(base, list(goals))
    sub_plans = {name: base.plans[name] for name in names}
    bound_as_sub = {sub for name in names for sub in base.plans[name].tables.subplans}
    rec = Recognition()
    accepted: dict[str, list[MatchResult]] = {}
    for level in dependency_order(base, names):
        for name in level:
            rec.add(name, _Unifier(g, base.plans[name], budget, accepted, sub_plans))
            if name in bound_as_sub:
                accepted[name] = rec.accepted(name)
    return rec


# ---------------------------------------------------------------------------
# Rendering support: stringified slot and role values for doc templates

def binding_values(plan: Plan, m: MatchResult, g: FlowGraph) -> tuple[dict[str, str], dict[str, str]]:
    slot_strs = {name: str(value) for name, value in m.slots.items()}
    role_strs: dict[str, str] = {}
    for role, pid in plan.exports:
        nid = m.binding.get(pid)
        if nid is None:
            continue
        node = g.nodes[nid]
        if node.var_name:
            role_strs[role] = node.var_name
        elif node.role:
            role_strs[role] = node.role
        elif node.kind is NodeKind.CONST:
            role_strs[role] = str(node.value)
        else:
            role_strs[role] = node.kind.value.lower()
    return slot_strs, role_strs
