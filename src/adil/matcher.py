"""Unification of flow graphs against plans, then constraint testing.

The search is anchor-seeded backtracking subgraph matching: seeding starts
at the pattern node whose (kind, opcode) key is rarest in the graph, and
partial bindings grow along pattern data edges first, control edges second.
Subgraph matching is NP-hard in general, so every attempted assignment
burns one step of an explicit budget; hitting the ceiling raises
BudgetExceeded with the results found so far attached.

The search records bare bindings. Only when it ends (or the budget runs
out) does an exact maximality filter drop every binding that another one
strictly contains; MatchResults, with their constraint checks, are built
for the survivors alone. Each candidate assignment is checked only against
the pattern edges incident to its pattern node, precomputed per plan.

Hierarchy is bottom-up: accepted matches of a sub-plan become bindable
pseudo-nodes for the plans that contain it, and `recognize` orders plans so
sub-plans always run first.

Results are deterministic: identical inputs produce identical result lists,
regardless of how many worker threads `recognize` uses.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .flowgraph import COMMUTATIVE, FlowGraph, NodeKind, node_index, value_chains
from .planlib import Plan, PlanBase, Predicate, closure, dependency_order
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


@dataclass(frozen=True)
class VarIdentity:
    """A slot bound to a value chain rather than a constant."""
    chain: int  # representative node id of the variable-threading class
    name: str | None

    def __str__(self) -> str:
        return self.name if self.name else f"<value #{self.chain}>"


@dataclass(frozen=True)
class ConstraintOutcome:
    predicate: Predicate
    passed: bool
    evaluated: bool
    detail: str


@dataclass(frozen=True)
class MatchResult:
    plan: str
    binding: dict[str, int]  # pid -> node id (negative ids denote sub-matches)
    sub_matches: dict[str, "MatchResult"]  # pid -> accepted sub-match
    slots: dict[str, int | VarIdentity]
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

    def export_node(self, plan: Plan, role: str) -> int:
        pid = dict(plan.exports)[role]
        return self.binding[pid]


class BudgetExceeded(Exception):
    """Search truncated, not proof of absence; partial results attached."""

    def __init__(self, plan: str, results: list[MatchResult]):
        super().__init__(f"matching budget exhausted while unifying plan {plan!r}")
        self.plan = plan
        self.results = results


@dataclass
class Recognition:
    """recognize() output: per-plan results plus the plans whose search was cut short."""
    by_plan: dict[str, list[MatchResult]]
    truncated: frozenset[str]

    def accepted(self, plan: str) -> list[MatchResult]:
        return [m for m in self.by_plan.get(plan, []) if m.accepted]


# ---------------------------------------------------------------------------
# Single-plan unification

@dataclass
class _Pseudo:
    pseudo_id: int
    match: MatchResult
    export_nodes: list[int]  # real node per export role, lexicographic role order
    all_nodes: set[int]


class _Unifier:
    def __init__(self, g: FlowGraph, plan: Plan, budget: SearchBudget,
                 sub_matches: dict[str, list[MatchResult]], sub_plans: dict[str, Plan]):
        self.g = g
        self.plan = plan
        self.budget = budget
        self.theta = Fraction(budget.theta).limit_denominator(10**6)
        self.steps = 0
        self.index = node_index(g)
        self.commutable = plan.commutable_pids()
        self.pid_order = [pn.pid for pn in plan.pnodes]

        # pseudo-node table for sub-plan pattern nodes
        self.pseudos: dict[str, list[_Pseudo]] = {}
        next_pseudo = -1
        for sub_name in sorted({pn.subplan for pn in plan.pnodes if pn.is_sub}):
            entries = []
            sub_plan = sub_plans[sub_name]
            roles = [pid for _, pid in sorted(sub_plan.exports)]
            for m in sub_matches.get(sub_name, []):
                entries.append(_Pseudo(next_pseudo, m, [m.binding[p] for p in roles], m.real_nodes()))
                next_pseudo -= 1
            self.pseudos[sub_name] = entries
        self.pseudo_by_id = {p.pseudo_id: p for entries in self.pseudos.values() for p in entries}

        # per pattern node: its incident data and ctrl edges in declaration
        # order, each paired with the pattern node at the other end
        self.pnodes = {pn.pid: pn for pn in plan.pnodes}
        self.data_at: dict[str, list] = {pid: [] for pid in self.pid_order}
        self.ctrl_at: dict[str, list] = {pid: [] for pid in self.pid_order}
        for edge in plan.pdata:
            (a, _), (b, _) = edge
            self.data_at[a].append((b, edge))
            if b != a:
                self.data_at[b].append((a, edge))
        for edge in plan.pctrl:
            a, b, _ = edge
            self.ctrl_at[a].append((b, edge))
            if b != a:
                self.ctrl_at[b].append((a, edge))

        self.recorded: list[dict[str, int]] = []  # bindings at or above theta
        self.seen: set[frozenset] = set()

    # -- candidate enumeration

    def node_candidates(self, pid: str) -> list[int]:
        pn = self.pnodes[pid]
        if pn.is_sub:
            return [p.pseudo_id for p in self.pseudos[pn.subplan]]
        if pn.kind is NodeKind.OP and pn.opcode is None:
            return sorted(nid for (kind, _), nids in self.index.items() if kind is NodeKind.OP
                          for nid in nids)
        return list(self.index.get((pn.kind, pn.opcode), []))

    def node_matches(self, pid: str, nid: int) -> bool:
        pn = self.pnodes[pid]
        if pn.is_sub:
            return nid < 0 and self.pseudo_by_id[nid].match.plan == pn.subplan
        if nid < 0:
            return False
        node = self.g.nodes[nid]
        if node.kind is not pn.kind:
            return False
        if pn.opcode is not None and node.opcode is not pn.opcode:
            return False
        if pn.const is not None and node.value != pn.const:
            return False
        return True

    def in_port_variants(self, pid: str, port: int, nid: int) -> list[int]:
        """Acceptable graph in-ports for pattern in-port, honoring commutable()."""
        if pid in self.commutable and nid >= 0:
            node = self.g.nodes[nid]
            if (node.kind is NodeKind.OP and node.opcode in COMMUTATIVE
                    and node.in_ports == 2 and port in (0, 1)):
                return [port, 1 - port]
        return [port]

    def data_edge_ok(self, edge, binding: dict[str, int]) -> bool:
        (a, po), (b, pi) = edge
        na, nb = binding[a], binding[b]
        src_nodes = self._out_sources(a, na, po)
        if nb >= 0:
            return any(self.g.producer(nb, ip) is not None and self.g.producer(nb, ip)[0] in src_nodes
                       for ip in self.in_port_variants(b, pi, nb))
        # edge into a sub-match: any in-port of the addressed export node
        target = self._export_target(b, nb, pi)
        if target is None:
            return False
        node = self.g.nodes[target]
        return any(self.g.producer(target, ip) is not None and self.g.producer(target, ip)[0] in src_nodes
                   for ip in range(node.in_ports))

    def _out_sources(self, pid: str, nid: int, port: int) -> set[int]:
        """Graph nodes that pattern endpoint pid:port (as a source) may stand for."""
        if nid >= 0:
            node = self.g.nodes[nid]
            return {nid} if port < node.out_ports else set()
        target = self._export_target(pid, nid, port)
        return set() if target is None else {target}

    def _export_target(self, pid: str, nid: int, port: int) -> int | None:
        exports = self.pseudo_by_id[nid].export_nodes
        return exports[port] if port < len(exports) else None

    def ctrl_edge_ok(self, edge, binding: dict[str, int]) -> bool:
        a, b, label = edge
        sources = self._ctrl_nodes(binding[a])
        targets = self._ctrl_nodes(binding[b])
        return any(dst in targets and (label is None or lab == label)
                   for src in sources for dst, lab in self.g.ctrl_succs(src))

    def _ctrl_nodes(self, nid: int) -> set[int]:
        return {nid} if nid >= 0 else self.pseudo_by_id[nid].all_nodes

    def consistent(self, pid: str, nid: int, binding: dict[str, int]) -> bool:
        if not self.node_matches(pid, nid):
            return False
        if nid in binding.values():
            return False  # injectivity
        trial = dict(binding)
        trial[pid] = nid
        for other, edge in self.data_at[pid]:
            if other in trial and not self.data_edge_ok(edge, trial):
                return False
        for other, edge in self.ctrl_at[pid]:
            if other in trial and not self.ctrl_edge_ok(edge, trial):
                return False
        return True

    def candidates_via_edges(self, pid: str, binding: dict[str, int]) -> list[int]:
        """Nodes adjacent in the graph to pid's bound pattern neighbors."""
        pn = self.pnodes[pid]
        if pn.is_sub:
            return [p.pseudo_id for p in self.pseudos[pn.subplan]]
        out: list[int] = []
        for _, edge in self.data_at[pid]:
            (a, po), (b, pi) = edge
            if a == pid and b in binding:
                nb = binding[b]
                if nb >= 0:
                    ports = self.in_port_variants(b, pi, nb)
                    targets = [nb]
                else:
                    t = self._export_target(b, nb, pi)
                    if t is None:
                        continue
                    targets = [t]
                    ports = range(self.g.nodes[t].in_ports)
                for t in targets:
                    for ip in ports:
                        src = self.g.producer(t, ip)
                        if src is not None:
                            out.append(src[0])
            elif b == pid and a in binding:
                for src_node in self._out_sources(a, binding[a], po):
                    node = self.g.nodes[src_node]
                    for op in range(node.out_ports):
                        out.extend(dst for dst, _ in self.g.consumers(src_node, op))
        if not out:
            for _, edge in self.ctrl_at[pid]:
                a, b, label = edge
                if a == pid and b in binding:
                    for t in self._ctrl_nodes(binding[b]):
                        out.extend(src for src, lab in self.g.ctrl_preds(t)
                                   if label is None or lab == label)
                elif b == pid and a in binding:
                    for s in self._ctrl_nodes(binding[a]):
                        out.extend(dst for dst, lab in self.g.ctrl_succs(s)
                                   if label is None or lab == label)
        seen: set[int] = set()
        uniq = []
        for nid in out:
            if nid not in seen:
                seen.add(nid)
                uniq.append(nid)
        return sorted(uniq)

    # -- search

    def run(self) -> list[MatchResult]:
        if len(self.plan.pnodes) > len(self.g.nodes):
            return []  # pigeonhole: no full match can exist
        # Seed at the rarest pattern key first. Later rounds skip earlier
        # seeds entirely, so near-misses that exclude any one pattern node
        # are still reachable; their supersets from earlier rounds win in
        # the final maximality filter.
        by_rarity = sorted(self.pid_order,
                           key=lambda pid: (len(self.node_candidates(pid)),
                                            self.pid_order.index(pid)))
        skipped: frozenset = frozenset()
        for seed in by_rarity:
            for nid in self.node_candidates(seed):
                self.charge()
                if self.consistent(seed, nid, {}):
                    self.extend({seed: nid}, skipped)
            skipped = skipped | {seed}
        return self.finish()

    def charge(self) -> None:
        self.steps += 1
        if self.steps > self.budget.max_extension_steps:
            raise BudgetExceeded(self.plan.name, self.finish())

    def next_pid(self, binding: dict[str, int], skipped: frozenset) -> str | None:
        for incident in (self.data_at, self.ctrl_at):
            for pid in self.pid_order:
                if pid in binding or pid in skipped:
                    continue
                if any(other in binding for other, _ in incident[pid]):
                    return pid
        return None

    def extend(self, binding: dict[str, int], skipped: frozenset) -> None:
        pid = self.next_pid(binding, skipped)
        if pid is None:
            self.record(binding)
            return
        progressed = False
        for nid in self.candidates_via_edges(pid, binding):
            self.charge()
            if self.consistent(pid, nid, binding):
                progressed = True
                trial = dict(binding)
                trial[pid] = nid
                self.extend(trial, skipped)
        if not progressed:
            # pid is unbindable here; keep growing elsewhere so near-misses
            # report the largest structure that does exist
            self.extend(binding, skipped | {pid})

    def record(self, binding: dict[str, int]) -> None:
        key = frozenset(binding.items())
        if key in self.seen:
            return
        self.seen.add(key)
        score = Fraction(len(binding), len(self.plan.pnodes))
        if score < 1 and score < self.theta:
            return
        self.recorded.append(binding)

    def build_result(self, binding: dict[str, int]) -> MatchResult:
        subs = {pid: self.pseudo_by_id[nid].match for pid, nid in binding.items() if nid < 0}
        result = MatchResult(
            plan=self.plan.name,
            binding=dict(binding),
            sub_matches=subs,
            slots={},
            score=Fraction(len(binding), len(self.plan.pnodes)),
            constraint_outcomes=(),
            spans=(),
        )
        return check_constraints(result, self.plan, self.g)

    def finish(self) -> list[MatchResult]:
        # Drop every recorded binding that another one strictly contains,
        # then build results (and check constraints) for the survivors only.
        # Also runs on BudgetExceeded, so a truncated search keeps its
        # partial results.
        results = [self.build_result(b) for b in maximal_bindings(self.recorded)]
        results.sort(key=lambda r: (-r.score, min(r.real_nodes(), default=0),
                                    tuple(r.binding.get(pid, -10**9) for pid in self.pid_order)))
        return results


def maximal_bindings(bindings: list[dict[str, int]]) -> list[dict[str, int]]:
    """The bindings that no other binding strictly contains, in input order.

    A strict superset of b holds every (pid, node) pair of b, so it appears
    in the posting list of each of those pairs. Testing b only against the
    shortest of its lists is therefore exact, and costs far less than
    comparing every pair of bindings.
    """
    keys = [frozenset(b.items()) for b in bindings]
    postings: dict[tuple[str, int], list[frozenset]] = {}
    for key in keys:
        for pair in key:
            postings.setdefault(pair, []).append(key)
    kept = []
    for b, key in zip(bindings, keys):
        pool = min((postings[pair] for pair in key), key=len, default=keys)
        if not any(key < other for other in pool):
            kept.append(b)
    return kept


def unify(g: FlowGraph, plan: Plan, budget: SearchBudget | None = None,
          sub_matches: dict[str, list[MatchResult]] | None = None,
          sub_plans: dict[str, Plan] | None = None) -> list[MatchResult]:
    """All maximal matches of one plan against the graph, best first.

    Plans containing `sub` pattern nodes need the accepted matches of those
    sub-plans (and their Plan objects) passed in; `recognize` arranges this
    bottom-up automatically.
    """
    budget = budget or SearchBudget()
    needed = {pn.subplan for pn in plan.pnodes if pn.is_sub}
    missing = needed - set(sub_plans or {})
    if missing:
        raise ValueError(f"plan {plan.name!r} needs sub-plan definitions for {sorted(missing)}")
    return _Unifier(g, plan, budget, sub_matches or {}, sub_plans or {}).run()


# ---------------------------------------------------------------------------
# Constraint testing

def check_constraints(m: MatchResult, plan: Plan, g: FlowGraph) -> MatchResult:
    """Evaluate every predicate against the binding; failures are data, not errors."""
    chains = value_chains(g)
    slots: dict[str, int | VarIdentity] = {}
    for pn in plan.pnodes:
        if pn.slot is None or pn.pid not in m.binding:
            continue
        nid = m.binding[pn.pid]
        if nid < 0:
            continue
        node = g.nodes[nid]
        if node.kind is NodeKind.CONST:
            slots[pn.slot] = node.value
        else:
            rep = chains[nid]
            name = node.ann.var_name or g.nodes[rep].ann.var_name
            slots[pn.slot] = VarIdentity(rep, name)

    outcomes: list[ConstraintOutcome] = []
    for pred in plan.constraints:
        outcomes.append(_evaluate(pred, m, slots, chains, g))

    spans = tuple(sorted(g.nodes[nid].ann.span for nid in m.real_nodes()))
    return MatchResult(m.plan, m.binding, m.sub_matches, slots, m.score, tuple(outcomes), spans)


def _evaluate(pred: Predicate, m: MatchResult, slots: dict, chains: dict[int, int],
              g: FlowGraph) -> ConstraintOutcome:
    if pred.op == "commutable":
        return ConstraintOutcome(pred, True, True, "matcher directive")
    if pred.op in ("samevar", "distinctvar"):
        pids = [str(a) for a in pred.args]
        if any(pid not in m.binding or m.binding[pid] < 0 for pid in pids):
            return ConstraintOutcome(pred, False, False, "not evaluable: pattern node unbound")
        reps = [chains[m.binding[pid]] for pid in pids]
        same = reps[0] == reps[1]
        passed = same if pred.op == "samevar" else not same
        names = [g.nodes[m.binding[pid]].ann.var_name or f"node {m.binding[pid]}" for pid in pids]
        relation = "the same variable" if same else "different variables"
        return ConstraintOutcome(pred, passed, True, f"{names[0]} and {names[1]} are {relation}")

    # value comparisons over slots
    values: list[int] = []
    for arg in pred.args:
        if isinstance(arg, int):
            values.append(arg)
        else:
            slot_name = arg[1:]
            value = slots.get(slot_name)
            if value is None:
                return ConstraintOutcome(pred, False, False, f"not evaluable: slot {arg} unbound")
            if isinstance(value, VarIdentity):
                return ConstraintOutcome(pred, False, True,
                                         f"{arg} is bound to variable {value}, not a constant")
            values.append(value)
    lhs, rhs = values
    ops = {"eq": lhs == rhs, "ne": lhs != rhs, "lt": lhs < rhs,
           "le": lhs <= rhs, "gt": lhs > rhs, "ge": lhs >= rhs}
    passed = ops[pred.op]
    label = str(pred.args[0])[1:] if isinstance(pred.args[0], str) else str(pred.args[0])
    wanted = {"eq": f"expected {rhs}", "ne": f"expected anything but {rhs}",
              "lt": f"expected < {rhs}", "le": f"expected <= {rhs}",
              "gt": f"expected > {rhs}", "ge": f"expected >= {rhs}"}[pred.op]
    detail = f"{label}={lhs}" + ("" if passed else f", {wanted}")
    return ConstraintOutcome(pred, passed, True, detail)


# ---------------------------------------------------------------------------
# Whole-base recognition

def recognize(g: FlowGraph, base: PlanBase, goals: set[str] | list[str] | None = None,
              budget: SearchBudget | None = None, jobs: int = 1) -> Recognition:
    """Match the goal closure (or the whole base) bottom-up against the graph."""
    budget = budget or SearchBudget()
    names = closure(base, list(goals)) if goals is not None else base.names()
    levels = dependency_order(base, names)
    by_plan: dict[str, list[MatchResult]] = {}
    accepted: dict[str, list[MatchResult]] = {}
    truncated: set[str] = set()
    sub_plans = {name: base.plans[name] for name in names}

    def run_one(name: str) -> tuple[str, list[MatchResult], bool]:
        try:
            return name, unify(g, base.plans[name], budget, accepted, sub_plans), False
        except BudgetExceeded as err:
            return name, err.results, True

    for level in levels:
        if jobs > 1 and len(level) > 1:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                outcomes = list(pool.map(run_one, level))
        else:
            outcomes = [run_one(name) for name in level]
        for name, results, cut in sorted(outcomes, key=lambda t: t[0]):
            by_plan[name] = results
            accepted[name] = [r for r in results if r.accepted]
            if cut:
                truncated.add(name)
    return Recognition({name: by_plan.get(name, []) for name in names}, frozenset(truncated))


# ---------------------------------------------------------------------------
# Rendering support: stringified slot and role values for doc templates

def binding_values(plan: Plan, m: MatchResult, g: FlowGraph) -> tuple[dict[str, str], dict[str, str]]:
    slot_strs = {name: str(value) for name, value in m.slots.items()}
    role_strs: dict[str, str] = {}
    for role, pid in plan.exports:
        nid = m.binding.get(pid)
        if nid is None:
            continue
        if nid < 0:
            role_strs[role] = m.sub_matches[pid].plan
            continue
        node = g.nodes[nid]
        if node.ann.var_name:
            role_strs[role] = node.ann.var_name
        elif node.ann.role:
            role_strs[role] = node.ann.role
        elif node.kind is NodeKind.CONST:
            role_strs[role] = str(node.value)
        else:
            role_strs[role] = node.kind.value.lower()
    return slot_strs, role_strs
