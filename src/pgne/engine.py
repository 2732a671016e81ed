"""Execution core for transition membrane systems with polarization.

A system is a static description: a labeled membrane tree, initial region
contents, a rule list, and a strict partial order of rule priorities.  The
engine compiles that description once and then drives configurations
forward step by step.  Most of compiling (resolving labels to region
indices, extending the priority order to a total order, precomputing the
transitive higher-priority sets and the selection index) depends only on
the tree's labels and the rules' conditions, not on initial contents or
rule products.  `compile_system` does that part once per such plan and
shares it whole among the systems that have it, such as sampled games of
one shape, which differ only in the products of a few rules.  Products
therefore live apart from the compiled rules, in a per-system list.

Step semantics, fixed here and relied on by every test in the suite:

  * A transition applies rules in a parallel and maximal way: the chosen
    multiset of rule applications cannot be extended by any further
    application against the step's starting resources.
  * Selection is greedy in a fixed total order that extends the declared
    priority order, tie-broken by declaration order.  This makes runs
    deterministic and replayable without changing which behaviors are
    reachable for confluent systems.
  * Priorities are strong: a rule is skipped while some transitively
    higher-priority rule could still fire against the remaining resources.
  * Applicability is gated by the charges membranes had at the start of
    the step; charge changes are staged and committed after all object
    rewriting, and each membrane's charge may be changed by at most one
    rule application per step.
  * Objects produced during a step become visible only at the next step.

Selection is index driven.  Compilation files each rule under one
watched key, the (region, symbol) of its first need.  A step visits the
rules watching the symbols present at its start, and a visited rule is a
candidate if its charges match and its other needed symbols are present
(zero counts are never stored).  Any other rule lacks a need or a charge
for the whole step, so it could neither apply nor be starved.  Candidates
go through every check in the total order, and the count against the
residual resources is the final judge: a threshold need can be present
but short.  Most rules have one need, and count it inline.

A step's record is a `StepRecord`: the applied rules and their counts in
two parallel lists, read as a sequence of (rule, count) pairs.  A trace
keeps every record of its run, so one tuple per application would be one
more object per application for CPython's cyclic collector to track and
walk on every collection; two lists keep that at three objects a step.

A step works in place: applied rules consume straight from the live
region dicts, and after selection the step commits products by walking
its own record.  A step that applies nothing leaves the configuration
untouched.  Only strict mode reads start-of-step counts once consumption
begins, so only it snapshots them.

The region surrounding the skin is modeled as an explicit pseudo-region
with the reserved label "@env", so output expelled through the skin can be
inspected like any other region.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import compress, count
from operator import attrgetter, ne
from typing import (Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
                    Tuple)

from .symbols import Multiset, Sym

NEUTRAL = 0
PLUS = 1
MINUS = -1

CHARGES = (NEUTRAL, PLUS, MINUS)
ENV_LABEL = "@env"

class StructureError(Exception):
    """Raised when a system description violates a structural invariant."""


# ============================================================
# Static description
# ============================================================


@dataclass
class MembraneNode:
    """One membrane: a unique label, its children, and its initial content."""

    label: str
    children: List["MembraneNode"] = field(default_factory=list)
    contents: Multiset = field(default_factory=Multiset)
    charge: int = NEUTRAL


@dataclass
class ChildPattern:
    """Nested bracket of a two-level rule: one named child of the target."""

    label: str
    pre: int = NEUTRAL
    post: int = NEUTRAL
    consume: Dict[Sym, int] = field(default_factory=dict)
    produce: Dict[Sym, int] = field(default_factory=dict)


@dataclass
class RuleSpec:
    """One evolution rule.

    The target membrane is named by label (labels are unique, so a rule
    addresses exactly one membrane).  `consume_out`/`produce_out` act on
    the region surrounding the target, `consume_in`/`produce_in` on the
    target's own region, and `child` optionally on one named child.
    """

    id: str
    target: str
    pre: int = NEUTRAL
    post: int = NEUTRAL
    consume_out: Dict[Sym, int] = field(default_factory=dict)
    produce_out: Dict[Sym, int] = field(default_factory=dict)
    consume_in: Dict[Sym, int] = field(default_factory=dict)
    produce_in: Dict[Sym, int] = field(default_factory=dict)
    child: Optional[ChildPattern] = None

    def consumes_nothing(self) -> bool:
        if self.consume_out or self.consume_in:
            return False
        return not (self.child and self.child.consume)

    def copy(self) -> "RuleSpec":
        """A copy that shares no multiset or child pattern with this rule."""
        c = self.child
        return RuleSpec(self.id, self.target, self.pre, self.post,
                        dict(self.consume_out), dict(self.produce_out),
                        dict(self.consume_in), dict(self.produce_in),
                        None if c is None else
                        ChildPattern(c.label, c.pre, c.post, dict(c.consume),
                                     dict(c.produce)))


@dataclass
class PSystem:
    """A complete static system: tree, rules, and priority pairs."""

    tree: MembraneNode
    rules: List[RuleSpec]
    priority: List[Tuple[str, str]] = field(default_factory=list)
    name: str = ""

    def walk(self) -> Iterator[Tuple[MembraneNode, Optional[MembraneNode]]]:
        """Every membrane in preorder with its parent (None for the skin)."""
        stack: List[Tuple[MembraneNode, Optional[MembraneNode]]] = [
            (self.tree, None)]
        while stack:
            node, parent = stack.pop()
            yield node, parent
            stack.extend((ch, node) for ch in reversed(node.children))

    def labels(self) -> List[str]:
        return [node.label for node, _ in self.walk()]


# ============================================================
# Compilation
# ============================================================


class CRule:
    """A rule resolved against the region table, ready for the hot loop.

    Its products are in `CompiledSystem.gives`, so systems share it."""

    __slots__ = (
        "id", "order", "target", "pre", "post", "child", "child_pre",
        "child_post", "needs", "flips", "locks", "higher",
        "target_label", "rest",
    )

    def __init__(self, spec: RuleSpec, target: int, parent: int,
                 child: int) -> None:
        self.id = spec.id
        self.order = -1
        self.target = target
        self.pre = spec.pre
        self.post = spec.post
        self.child = child
        c = spec.child
        self.child_pre = c.pre if c else NEUTRAL
        self.child_post = c.post if c else NEUTRAL
        self.target_label = spec.target
        self.needs = _triples((parent, spec.consume_out),
                              (target, spec.consume_in),
                              (child, c.consume if c else {}))
        # Selection watches the first need; the rest it checks for presence.
        self.rest = self.needs[1:]
        # (region, new charge) per membrane the rule re-charges; each one
        # is locked for the rest of the step once the rule fires.
        flips = [(target, self.post)] if self.post != self.pre else []
        if self.child_post != self.child_pre:
            flips.append((child, self.child_post))
        self.flips = tuple(flips)
        self.locks = tuple([r for r, _ in flips])
        self.higher: Tuple["CRule", ...] = ()

    def fireable(self, avail: List[Dict[Sym, int]], charges: Sequence[int],
                 locked: List[bool]) -> bool:
        """True if one application could fire right now.

        Resource test runs against `avail` (residual start-of-step
        resources); charge test against start-of-step charges; a rule
        whose charge change hits an already locked membrane cannot fire.
        """
        if charges[self.target] != self.pre:
            return False
        if self.child >= 0 and charges[self.child] != self.child_pre:
            return False
        for r, s, n in self.needs:
            if avail[r].get(s, 0) < n:
                return False
        for r in self.locks:
            if locked[r]:
                return False
        return True

    def max_count(self, avail: List[Dict[Sym, int]]) -> int:
        k = None
        for r, s, n in self.needs:
            fit = avail[r].get(s, 0) // n
            if k is None or fit < k:
                if fit == 0:
                    return 0
                k = fit
        return k if k is not None else 0

    def __repr__(self) -> str:
        return f"<rule {self.id} @ {self.target_label}>"


def _triples(*parts: Tuple[int, Mapping[Sym, int]]) -> tuple:
    """(region, symbol, count) of each multiset in parts, by region index,
    then symbol text: equal multisets give equal tuples in any key order."""
    out = [(r, s, n) for r, ms in parts if ms for s, n in ms.items()]
    if len(out) > 1:
        out.sort(key=lambda t: (t[0], t[1].text))
    return tuple(out)


def _gives(spec: RuleSpec, cr: CRule, parents: List[int]) -> tuple:
    """The products of spec, compiled as cr, as canonical triples."""
    c = spec.child
    return _triples((parents[cr.target], spec.produce_out),
                    (cr.target, spec.produce_in),
                    (cr.child, c.produce if c else {}))


# Plans kept for reuse, most recent first; a process that compiles games
# of one preset compiles one plan.
_PLAN_SHAPES = 4
_PLANS: List["_Plan"] = []

# A rule's fields that its plan depends on, its child pattern with its
# products included, and the products a binding may change.
_CONDITIONS = attrgetter("id", "target", "pre", "post", "consume_out",
                         "consume_in", "child")
_PRODUCTS = attrgetter("produce_out", "produce_in")


class _Plan:
    """What compiling derives from a system's conditions alone.

    That is the region table, from the tree's labels and parents, and the
    rules resolved from each rule's id, target, charges, consumed
    multisets and child pattern, with the priority order and the indexes
    over them.  `gives` holds the products of the system the plan was
    built from.  A plan keeps copies of what it depends on, and holds no
    system and no container a caller can reach.
    """

    def __init__(self, sys: PSystem, nodes: list) -> None:
        specs = [spec.copy() for spec in sys.rules]
        # What compile_system compares to find the plan, and the products
        # its gives were compiled from.
        self.key = (nodes, list(map(_CONDITIONS, specs)),
                    frozenset(sys.priority))
        self.products = list(map(_PRODUCTS, specs))

        self.region_labels: List[str] = [ENV_LABEL]
        self.parents: List[int] = [-1]
        self.label_index: Dict[str, int] = {ENV_LABEL: 0}

        for node, parent in sys.walk():
            if node.label == ENV_LABEL:
                raise StructureError(f"label {ENV_LABEL!r} is reserved")
            if node.label in self.label_index:
                raise StructureError(f"duplicate membrane label {node.label!r}")
            self.label_index[node.label] = len(self.region_labels)
            self.region_labels.append(node.label)
            self.parents.append(
                0 if parent is None else self.label_index[parent.label])
        self.n_regions = len(self.region_labels)

        # Resolve rules.
        self.rules: List[CRule] = []
        by_id: Dict[str, int] = {}
        for spec in specs:
            if spec.id in by_id:
                raise StructureError(f"duplicate rule id {spec.id!r}")
            if spec.consumes_nothing():
                raise StructureError(f"rule {spec.id}: consumes nothing")
            t = self.label_index.get(spec.target)
            if t is None:
                raise StructureError(f"rule {spec.id}: unknown label {spec.target!r}")
            child = -1
            if spec.child is not None:
                child = self.label_index.get(spec.child.label, -1)
                if child < 0:
                    raise StructureError(
                        f"rule {spec.id}: unknown child label {spec.child.label!r}")
                if self.parents[child] != t:
                    raise StructureError(
                        f"rule {spec.id}: {spec.child.label!r} is not a child "
                        f"of {spec.target!r}")
            by_id[spec.id] = len(self.rules)
            self.rules.append(CRule(spec, t, self.parents[t], child))

        # Priority edges, total order, transitive higher sets.
        n = len(self.rules)
        adj: List[List[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for hi, lo in sys.priority:
            if hi == lo:
                raise StructureError(f"priority pair {hi} > {lo} is reflexive")
            try:
                a, b = by_id[hi], by_id[lo]
            except KeyError as miss:
                raise StructureError(f"priority names unknown rule {miss.args[0]!r}")
            adj[a].append(b)
            indeg[b] += 1

        heap = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(heap)
        order: List[int] = []
        while heap:
            i = heapq.heappop(heap)
            order.append(i)
            for j in adj[i]:
                indeg[j] -= 1
                if indeg[j] == 0:
                    heapq.heappush(heap, j)
        if len(order) != n:
            raise StructureError("priority relation contains a cycle")
        self.ordered: List[CRule] = []
        for pos, i in enumerate(order):
            cr = self.rules[i]
            cr.order = pos
            self.ordered.append(cr)
        self.gives = [_gives(specs[i], self.rules[i], self.parents)
                      for i in order]

        # Transitive closure of "strictly higher priority than", for the
        # rules some edge reaches (the rest keep higher == ()): in topological
        # order every rule's set is complete before its edges pass it on.
        above: Dict[int, set] = {}
        for a in order:
            ups = above.get(a, ())
            for b in adj[a]:
                into = above.get(b)
                if into is None:
                    into = above[b] = set()
                into.add(a)
                into.update(ups)
        for b, ups in above.items():
            self.rules[b].higher = tuple(self.rules[j] for j in sorted(ups))

        # Rules by (target region, pre charge): what a charge state arms.
        self.buckets: Dict[Tuple[int, int], List[CRule]] = {}
        for cr in self.ordered:
            self.buckets.setdefault((cr.target, cr.pre), []).append(cr)

        # Selection index: per region, symbol -> the rules whose first need
        # it is.  A step checks their other needs only when it is present.
        watchers: List[Dict[Sym, List[CRule]]] = [{} for _ in self.parents]
        for cr in self.rules:
            r, s, _ = cr.needs[0]
            watchers[r].setdefault(s, []).append(cr)
        self.watchers = [(r, w) for r, w in enumerate(watchers) if w]


class CompiledSystem:
    """A PSystem lowered to index arrays plus the derived total order.

    All but `source`, the initial contents and charges and `gives` is its
    plan's own: the region table, the compiled rules, their total order
    and the selection indexes.  A plan depends only on the tree's labels
    and parents, on each rule's id, target, charges, consumed multisets
    and child pattern, and on the set of priority pairs.  `gives[cr.order]`
    holds rule cr's products as (region, symbol, count) triples; it is the
    plan's list unless some rule's `produce_out` or `produce_in` differs
    from the plan's.  Compiled systems are read-only.  The last
    `_PLAN_SHAPES` (4) plans stay cached.
    """

    def __init__(self, plan: _Plan, sys: PSystem,
                 initial: List[Dict[Sym, int]], charges: List[int],
                 gives: List[Tuple[Tuple[int, Sym, int], ...]]) -> None:
        self.source = sys
        self.region_labels = plan.region_labels
        self.parents = plan.parents
        self.label_index = plan.label_index
        self.n_regions = plan.n_regions
        self.rules = plan.rules
        self.ordered = plan.ordered
        self.buckets = plan.buckets
        self.watchers = plan.watchers
        self.gives = gives
        self._initial = initial
        self._initial_charges = charges

    def comparable(self, a: CRule, b: CRule) -> bool:
        return a in b.higher or b in a.higher

    def initial_configuration(
            self,
            contents: Optional[Mapping[str, Mapping[Sym, int] | Multiset]] = None,
    ) -> "Configuration":
        """Fresh start state; `contents` overrides initial region multisets.

        Zero counts are dropped and negative ones refused.
        """
        cont = [dict(c) for c in self._initial]
        if contents is not None:
            for label, ms in contents.items():
                idx = self.label_index.get(label)
                if idx is None:
                    raise StructureError(f"unknown label {label!r}")
                cont[idx] = {}
                for s, n in ms.items():
                    if n < 0:
                        raise StructureError(
                            f"initial {label!r}: negative count {n} for {s}")
                    if n:
                        cont[idx][s] = n
        return Configuration(self, cont, list(self._initial_charges), 0)


def compile_system(sys: PSystem) -> CompiledSystem:
    """Lower sys for stepping, reusing the plan of an earlier system.

    The plan is found by an exact snapshot of what it depends on: each
    membrane's label and its parent's, each rule's id, target, charges,
    consumed multisets and child pattern, and the set of priority pairs.
    Multisets compare as dicts, in any key order, because a plan lists
    needs and gives in canonical order.  A cached plan keeps copies, so
    changing sys or its parts later cannot change a plan.  A miss builds
    the plan and raises StructureError for a malformed system.  Every
    compile then binds sys to its plan: it keeps sys as `source`, copies
    the initial contents and charges, and takes the plan's `gives`, copied
    and patched where a rule's products are not the plan's.
    """
    nodes: list = []  # each membrane's label and its parent's, in walk order
    initial: List[Dict[Sym, int]] = [{}]
    charges = [NEUTRAL]
    for node, parent in sys.walk():
        nodes += node.label, None if parent is None else parent.label
        initial.append(dict(node.contents.counts))
        charges.append(node.charge)
    specs = sys.rules
    # Pair order and repeats change neither the order nor the closure.
    key = (nodes, list(map(_CONDITIONS, specs)), frozenset(sys.priority))
    for at, plan in enumerate(_PLANS):
        if plan.key == key:
            _PLANS.insert(0, _PLANS.pop(at))
            break
    else:
        plan = _Plan(sys, nodes)
        _PLANS.insert(0, plan)
        del _PLANS[_PLAN_SHAPES:]
    gives = plan.gives
    for i in compress(count(), map(ne, map(_PRODUCTS, specs), plan.products)):
        if gives is plan.gives:
            gives = list(gives)
        cr = plan.rules[i]
        gives[cr.order] = _gives(specs[i], cr, plan.parents)
    return CompiledSystem(plan, sys, initial, charges, gives)


# ============================================================
# Dynamic state
# ============================================================


class Configuration:
    """Instantaneous state: per-region contents and charges, plus a step count."""

    __slots__ = ("csys", "contents", "charges", "step")

    def __init__(self, csys: CompiledSystem, contents: List[Dict[Sym, int]],
                 charges: List[int], step: int) -> None:
        self.csys = csys
        self.contents = contents
        self.charges = charges
        self.step = step

    def copy(self) -> "Configuration":
        return Configuration(self.csys, [dict(c) for c in self.contents],
                             list(self.charges), self.step)


def read_region(cfg: Configuration, label: str,
                base: Optional[str] = None) -> Multiset:
    """Filtered copy of one region's contents; cfg is left untouched."""
    idx = cfg.csys.label_index.get(label)
    if idx is None:
        raise StructureError(f"unknown label {label!r}")
    out = Multiset()
    for s, n in cfg.contents[idx].items():
        if base is None or s.base == base:
            out.counts[s] = n
    return out


# ============================================================
# Stepping
# ============================================================


@dataclass
class Ambiguity:
    """Two priority-incomparable rules competed for one symbol in one region."""

    step: int
    region: str
    symbol: Sym
    winner: str
    loser: str


class StepRecord:
    """The applications of one step, as parallel lists of rules and counts.

    Reads as the sequence of (rule, count) pairs in selection order: len
    and iteration.  An empty record is falsy, and records compare equal
    only to records.
    """

    __slots__ = ("rules", "counts")

    def __init__(self, rules: List[CRule], counts: List[int]) -> None:
        self.rules = rules
        self.counts = counts

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Tuple[CRule, int]]:
        return zip(self.rules, self.counts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, StepRecord):
            return self.rules == other.rules and self.counts == other.counts
        return NotImplemented

    def __repr__(self) -> str:
        return f"StepRecord({list(self)!r})"


_ORDER = attrgetter("order")


def maximal_step(cfg: Configuration, strict: bool = False,
                 ambiguities: Optional[List[Ambiguity]] = None) -> StepRecord:
    """Advance cfg by one transition in place.

    Returns the applications performed, in selection order; an empty
    record means no rule was applicable (cfg unchanged, step counter not
    advanced).
    """
    csys = cfg.csys
    charges = cfg.charges
    avail = cfg.contents

    # Candidates: rules with every consumed key present and matching
    # target and child charges.  Any other rule has k = 0 for the whole step.
    cand: List[CRule] = []
    add = cand.append
    for r, watch in csys.watchers:
        for s in avail[r]:
            for cr in watch.get(s, ()):
                if charges[cr.target] != cr.pre or (
                        cr.child >= 0 and charges[cr.child] != cr.child_pre):
                    continue
                if cr.rest:
                    for q, t, _ in cr.rest:
                        if t not in avail[q]:
                            break
                    else:
                        add(cr)
                else:
                    add(cr)
    cand.sort(key=_ORDER)

    if strict:
        pre = [dict(c) for c in avail]
        consumers: Dict[Tuple[int, Sym], List[CRule]] = {}
    locked = [False] * csys.n_regions
    charge_next: Optional[List[int]] = None
    record = StepRecord([], [])
    applied, counts = record.rules.append, record.counts.append

    for cr in cand:
        # `locks` names at most the target and one child.
        if cr.locks and (locked[cr.locks[0]] or locked[cr.locks[-1]]):
            continue
        if cr.rest:
            k = cr.max_count(avail)
        else:
            (r, s, n), = cr.needs
            k = avail[r].get(s, 0) // n
        if k == 0:
            if strict and ambiguities is not None and cr.max_count(pre):
                # Starved by earlier consumption; flag incomparable culprits.
                for r, s, n in cr.needs:
                    if avail[r].get(s, 0) < n:
                        for culprit in consumers.get((r, s), ()):
                            if culprit is not cr and not csys.comparable(culprit, cr):
                                ambiguities.append(Ambiguity(
                                    cfg.step, csys.region_labels[r], s,
                                    culprit.id, cr.id))
            continue
        blocked = False
        for h in cr.higher:
            if h.fireable(avail, charges, locked):
                blocked = True
                break
        if blocked:
            continue
        if cr.locks:
            k = 1
            if charge_next is None:
                charge_next = list(charges)
            for r, c in cr.flips:
                charge_next[r] = c
                locked[r] = True
        for r, s, n in cr.needs:
            into = avail[r]
            left = into[s] - n * k
            if left:
                into[s] = left
            else:
                del into[s]
            if strict:
                consumers.setdefault((r, s), []).append(cr)
        applied(cr)
        counts(k)

    if not record.rules:
        return record
    _commit_products(avail, zip(record.rules, record.counts), csys.gives)
    if charge_next is not None:
        cfg.charges = charge_next
    cfg.step += 1
    return record


def _commit_products(regions: List[Dict[Sym, int]],
                     record: Iterable[Tuple[CRule, int]],
                     gives: List[Tuple[Tuple[int, Sym, int], ...]]) -> None:
    """Add each application's products, n * k per give, after all consumption."""
    for cr, k in record:
        for r, s, n in gives[cr.order]:
            into = regions[r]
            into[s] = into.get(s, 0) + n * k


# ============================================================
# Runs and traces
# ============================================================


@dataclass
class Trace:
    """The full story of a run: per-step applications and the final state.

    `snapshots` is always empty: records replay with `apply_record`.  The
    field stays because the benchmark builds a `Trace` positionally.
    """

    records: List[StepRecord]
    snapshots: List[Configuration]
    final: Configuration
    halted: bool
    halt_reason: str
    ambiguities: List[Ambiguity]

    @property
    def steps(self) -> int:
        return len(self.records)


def run(sys: PSystem | CompiledSystem, max_steps: int,
        initial: Optional[Mapping[str, Mapping[Sym, int] | Multiset]] = None,
        strict: bool = False) -> Trace:
    """Drive a system to quiescence or to the step budget.

    The trace keeps each step's record and the final configuration; any
    earlier state is rebuilt by replaying records with `apply_record`.
    """
    if max_steps < 0:
        raise ValueError("max_steps must be >= 0")
    csys = sys if isinstance(sys, CompiledSystem) else compile_system(sys)
    cfg = csys.initial_configuration(initial)
    records: List[StepRecord] = []
    ambiguities: List[Ambiguity] = []
    halted = False
    for _ in range(max_steps):
        rec = maximal_step(cfg, strict=strict, ambiguities=ambiguities)
        if not rec.rules:
            halted = True
            break
        records.append(rec)
    else:
        # Budget spent; check whether the system happens to be quiet anyway.
        probe = cfg.copy()
        halted = not maximal_step(probe)
    reason = "quiescent" if halted else "budget"
    return Trace(records, [], cfg, halted, reason, ambiguities)


def apply_record(cfg: Configuration, record: StepRecord) -> None:
    """Replay one recorded step onto cfg without any selection logic."""
    avail = cfg.contents
    charge_next = list(cfg.charges)
    for cr, k in record:
        for r, s, n in cr.needs:
            left = avail[r].get(s, 0) - n * k
            if left < 0:
                raise StructureError(
                    f"replay of {cr.id} x{k}: insufficient {s} in "
                    f"{cfg.csys.region_labels[r]}")
            if left:
                avail[r][s] = left
            else:
                avail[r].pop(s, None)
        for r, c in cr.flips:
            charge_next[r] = c
    _commit_products(avail, record, cfg.csys.gives)
    cfg.charges = charge_next
    cfg.step += 1


def export_trace_text(trace: Trace) -> str:
    """Line-oriented trace: step index then rule_id@label×count entries."""
    lines = []
    for t, rec in enumerate(trace.records, start=1):
        entries = sorted(f"{cr.id}@{cr.target_label}x{k}" for cr, k in rec)
        lines.append(f"{t} " + " ".join(entries))
    return "\n".join(lines) + ("\n" if lines else "")
