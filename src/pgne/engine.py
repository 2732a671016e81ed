"""Execution core for transition membrane systems with polarization.

A system is a static description: a labeled membrane tree, initial region
contents, a rule list, and a strict partial order of rule priorities.  The
engine compiles that description once and then drives configurations
forward step by step.  Most of compiling (resolving labels to region
indices, extending the priority order to a total order, precomputing the
transitive higher-priority sets and the selection index) depends only on
the tree's labels and the rules' conditions, not on initial contents or
rule products.  `compile_system` does that part once per such plan, keeps
the last plan, and shares it whole among the systems that have it, such
as sampled games of one shape, which differ only in the products of a few
rules.  Products therefore live apart from the compiled rules, in two
per-system lists.

Step semantics, fixed here and relied on by every test in the suite:

  * A transition applies rules in a parallel and maximal way: the chosen
    multiset of rule applications cannot be extended by any further
    application against the step's starting resources.
  * Selection is greedy in a fixed total order that extends the declared
    priority order, tie-broken by declaration order.  This makes runs
    deterministic and replayable without changing which behaviors are
    reachable for confluent systems.
  * Priorities are weak: a rule never applies while some transitively
    higher-priority rule could still fire against the remaining resources,
    so a lower rule takes what the higher rules of the step left.  The
    greedy walk gives this by construction, with no check of its own.
    Every higher rule comes earlier in the total order, and once the walk
    has passed a rule, that rule cannot fire for the rest of the step.  If
    it was no candidate, a charge mismatched (charges do not change during
    selection) or a needed slot was absent (the live store only shrinks).
    If a lock stopped it, locks stay set.  If it counted 0, the residual
    only shrinks.  If it applied without a lock, it applied as often as
    its scarcest need allowed, so that slot now holds too little; with a
    lock, it applied once and locked its membranes.  So when the walk
    reaches a rule, none of its higher rules can fire.  `CRule.higher`
    serves strict mode only, to tell ordered rules from incomparable ones.
  * Applicability is gated by the charges membranes had at the start of
    the step; charge changes are staged and committed after all object
    rewriting, and each membrane's charge may be changed by at most one
    rule application per step.
  * Objects produced during a step become visible only at the next step.

Objects sit in one of two stores.  Compilation gives each (region,
symbol) that some rule consumes a dense integer slot, and a configuration
keeps those objects in one dict, `live`, from slot to count.  Every other
object, such as a loop's exported results or waste that no collector
takes, goes into a per-region `inert` dict that selection never reads.
Exports pile up loop by loop in `inert`, so the live store, which every
step walks, stays the same size over a long run.

Selection is index driven.  Compilation files each rule under one slot,
that of its first need, as a tuple of what the scan reads: target and
charge, child and child charge, the other needed slots and the rule's
order number.  A step walks the live store once and visits the entries
filed under each present slot; a visited rule is a candidate if its
charges match and its other needed slots are present (zero counts are
never stored).  Any other rule lacks a need or a charge for the whole
step, so it could neither apply nor be starved.  Candidates are order
numbers, so a plain sort puts them in the total order, and every one goes
through every check in that order: the count against the residual
resources is the final judge, since a threshold need can be present but
short.  The table of membranes locked by a charge change is made at the
step's first charge-changing candidate, so most steps make none.

A step's record is a `StepRecord`: the applied rules and their counts in
two parallel lists, read as a sequence of (rule, count) pairs.  A trace
keeps every record of its run, so one tuple per application would be one
more object per application for CPython's cyclic collector to track and
walk on every collection; two lists keep that at three objects a step.

A step works in place: applied rules consume straight from the live
store.  Most rules have one need, kept as `CRule.slot` and `CRule.n`
beside `takes`; such a rule reads its slot once, counts with one floor
division and stores or deletes that slot, while a rule with more needs
counts with `max_count` and consumes each of its `takes`.  After
selection the step commits products from its record's two lists, each
product into the store compilation chose for it; `apply_record` commits
through the same function.  A step that applies nothing leaves the
configuration untouched.  Only strict mode reads start-of-step counts
once consumption begins, so only it snapshots the live store, and it
notes each applied rule as a consumer of its slots after that rule has
consumed.

The region surrounding the skin is modeled as an explicit pseudo-region
with the reserved label "@env", so output expelled through the skin can be
inspected like any other region.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import compress, count
from operator import attrgetter, ne
from types import MappingProxyType
from typing import (Dict, Iterable, Iterator, List, Mapping, NamedTuple,
                    Optional, Tuple)

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


class _Frozen(dict):
    """A rule's multiset, symbol to count: a dict that refuses in-place edits.

    Games of one shape and compiled plans share rules, so a rule's
    multisets never change; a changed rule is a new rule.
    """

    __slots__ = ()

    def _refuse(self, *args, **kwargs):
        raise TypeError("a rule's multisets are read-only; make a new rule "
                        "(its _replace method copies the rest)")

    __setitem__ = __delitem__ = __ior__ = _refuse
    update = pop = popitem = clear = setdefault = _refuse

    # copy and pickle rebuild a dict subclass item by item; build it whole.
    def __reduce__(self):
        return _Frozen, (dict(self),)


_EMPTY = _Frozen()


def _frozen(ms: Mapping[Sym, int]) -> _Frozen:
    """ms itself if read-only already, else a read-only copy of it."""
    if type(ms) is _Frozen:
        return ms
    return _Frozen(ms) if ms else _EMPTY


class _ChildFields(NamedTuple):
    label: str
    pre: int
    post: int
    consume: Mapping[Sym, int]
    produce: Mapping[Sym, int]


class ChildPattern(_ChildFields):
    """Nested bracket of a two-level rule: one named child of the target.

    An immutable value, like `RuleSpec`: its multisets are read-only.
    """

    __slots__ = ()

    def __new__(cls, label: str, pre: int = NEUTRAL, post: int = NEUTRAL,
                consume: Mapping[Sym, int] = _EMPTY,
                produce: Mapping[Sym, int] = _EMPTY) -> "ChildPattern":
        return tuple.__new__(cls, (label, pre, post, _frozen(consume),
                                   _frozen(produce)))

    # _replace builds through _make, which would skip __new__.
    @classmethod
    def _make(cls, fields: Iterable) -> "ChildPattern":
        return cls(*fields)


class _RuleFields(NamedTuple):
    id: str
    target: str
    pre: int
    post: int
    consume_out: Mapping[Sym, int]
    produce_out: Mapping[Sym, int]
    consume_in: Mapping[Sym, int]
    produce_in: Mapping[Sym, int]
    child: Optional[ChildPattern]


class RuleSpec(_RuleFields):
    """One evolution rule, an immutable value.

    The target membrane is named by label (labels are unique, so a rule
    addresses exactly one membrane).  `consume_out`/`produce_out` act on
    the region surrounding the target, `consume_in`/`produce_in` on the
    target's own region, and `child` optionally on one named child.

    Every way of making a rule (positional or keyword arguments, `_make`
    and `_replace`) keeps each multiset given read-only, copying any that
    is not, so games of one shape and compiled plans can share rule
    objects.  To change a rule, make a new one, for example with
    `_replace`, and put it in the system's list.
    """

    __slots__ = ()

    def __new__(cls, id: str, target: str, pre: int = NEUTRAL,
                post: int = NEUTRAL, consume_out: Mapping[Sym, int] = _EMPTY,
                produce_out: Mapping[Sym, int] = _EMPTY,
                consume_in: Mapping[Sym, int] = _EMPTY,
                produce_in: Mapping[Sym, int] = _EMPTY,
                child: Optional[ChildPattern] = None) -> "RuleSpec":
        return tuple.__new__(cls, (id, target, pre, post,
                                   _frozen(consume_out), _frozen(produce_out),
                                   _frozen(consume_in), _frozen(produce_in),
                                   child))

    @classmethod
    def _make(cls, fields: Iterable) -> "RuleSpec":
        return cls(*fields)

    def consumes_nothing(self) -> bool:
        if self.consume_out or self.consume_in:
            return False
        return not (self.child and self.child.consume)


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

    It holds no products, so every system of its plan shares it: each
    compiled system keeps them in `live_gives` and `inert_gives`."""

    __slots__ = (
        "id", "order", "target", "pre", "post", "child", "child_pre",
        "child_post", "needs", "takes", "flips", "locks", "higher",
        "target_label", "rest", "slot", "n",
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
        self.needs = _triples(spec.id, (parent, spec.consume_out),
                              (target, spec.consume_in),
                              (child, c.consume if c else {}))
        # The needs as (slot, count) pairs, the first of them as slot and
        # n, and the slots of all but the first, which selection checks
        # for presence; set by the plan.
        self.takes: Tuple[Tuple[int, int], ...] = ()
        self.slot = self.n = -1
        self.rest: Tuple[int, ...] = ()
        # (region, new charge) per membrane the rule re-charges; each one
        # is locked for the rest of the step once the rule fires.
        flips = [(target, self.post)] if self.post != self.pre else []
        if self.child_post != self.child_pre:
            flips.append((child, self.child_post))
        self.flips = tuple(flips)
        self.locks = tuple([r for r, _ in flips])
        self.higher: Tuple["CRule", ...] = ()

    def max_count(self, live: Dict[int, int]) -> int:
        k = None
        for slot, n in self.takes:
            fit = live.get(slot, 0) // n
            if k is None or fit < k:
                if fit == 0:
                    return 0
                k = fit
        return k if k is not None else 0

    def __repr__(self) -> str:
        return f"<rule {self.id} @ {self.target_label}>"


def _triples(rid: str, *parts: Tuple[int, Mapping[Sym, int]]) -> tuple:
    """(region, symbol, count) of each multiset in parts, by region index,
    then symbol text: equal multisets give equal tuples in any key order."""
    out = [(r, s, _count(rid, s, n)) for r, ms in parts if ms
           for s, n in ms.items()]
    if len(out) > 1:
        out.sort(key=lambda t: (t[0], t[1].text))
    return tuple(out)


def _count(rid: str, s: Sym, n: object) -> int:
    """n as an int, or StructureError naming rule rid if n is not a positive
    integer.  A plan compares multisets as dicts, where 1.0 == 1, so a
    cold compile reads such a count as the int it equals."""
    try:
        k = int(n)
    except (TypeError, ValueError, OverflowError):
        k = 0
    if k < 1 or k != n:
        raise StructureError(
            f"rule {rid}: count {n!r} of {s} is not a positive integer")
    return k


def _gives(spec: RuleSpec, cr: CRule, plan: "_Plan") -> Tuple[tuple, tuple]:
    """The products of spec, compiled as cr, in canonical order: (slot,
    count) pairs for the keys some rule consumes, and (region, symbol,
    count) triples for the rest."""
    c = spec.child
    live, inert = [], []
    for g in _triples(spec.id, (plan.parents[cr.target], spec.produce_out),
                      (cr.target, spec.produce_in),
                      (cr.child, c.produce if c else {})):
        slot = plan.region_slots[g[0]].get(g[1])
        if slot is None:
            inert.append(g)
        else:
            live.append((slot, g[2]))
    return tuple(live), tuple(inert)


# The plan of the last compile.  Each benchmark workload and each pgne
# command compiles systems of one plan only.
_PLAN: Optional["_Plan"] = None

# A rule's fields that its plan depends on, its child pattern with its
# products included.  Two rules equal in these differ at most in
# `produce_out` and `produce_in`, which a binding patches.
_CONDITIONS = attrgetter("id", "target", "pre", "post", "consume_out",
                         "consume_in", "child")


class _Plan:
    """What compiling derives from a system's conditions alone.

    That is the region table, from the tree's labels and parents, and the
    rules resolved from each rule's id, target, charges, consumed
    multisets and child pattern, with the priority order and the indexes
    over them.  `live_gives` and `inert_gives` hold the products of the
    rules in `specs`, the system the plan was built from.  A plan holds no
    system and no container a caller can reach: it keeps the system's
    rules, which are immutable, by reference, and the labels, the rule
    list and the priority list in lists of its own.
    """

    def __init__(self, sys: PSystem, nodes: list) -> None:
        specs = sys.rules
        # What `patches` compares.
        self.nodes = nodes
        self.specs = list(specs)
        self.priority = list(sys.priority)
        self.pairs = frozenset(self.priority)

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

        # Transitive closure of "strictly higher priority than", for the
        # rules some edge reaches (the rest keep higher == ()): in topological
        # order every rule's set is complete before its edges pass it on.
        # Only strict mode reads it, through `comparable`.
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

        # Slots: a dense number for each (region, symbol) some rule consumes,
        # in the order rules first need them.
        self.region_slots: List[Dict[Sym, int]] = [{} for _ in self.parents]
        self.slot_key: List[Tuple[int, Sym]] = []
        for cr in self.rules:
            takes = []
            for r, s, n in cr.needs:
                slot = self.region_slots[r].get(s)
                if slot is None:
                    slot = self.region_slots[r][s] = len(self.slot_key)
                    self.slot_key.append((r, s))
                takes.append((slot, n))
            cr.takes = tuple(takes)
            cr.slot, cr.n = takes[0]
            cr.rest = tuple([slot for slot, _ in takes[1:]])

        # Selection index: per slot, what the scan reads of each rule whose
        # first need it is.  A step checks the other needs only when the
        # slot is present.
        self.watch: List[List[tuple]] = [[] for _ in self.slot_key]
        for cr in self.rules:
            self.watch[cr.slot].append((cr.target, cr.pre, cr.child,
                                        cr.child_pre, cr.rest, cr.order))
        gives = [_gives(specs[i], self.rules[i], self) for i in order]
        self.live_gives = [live for live, _ in gives]
        self.inert_gives = [inert for _, inert in gives]

    def patches(self, nodes: list, specs: List[RuleSpec],
                priority: List[Tuple[str, str]]) -> Optional[List[int]]:
        """The places of the rules of specs that differ from the plan's, if
        the system of nodes, specs and priority has this plan; else None.

        A rule equal in value to the plan's rule at its place matches
        whole, be it the plan's own object, an equal copy or a parsed twin.
        Only the differing rules have their conditions compared; if those
        match, such a rule differs in its products alone.  The priority
        list is compared as a set only where it differs as a list.
        """
        mine = self.specs
        if len(specs) != len(mine) or nodes != self.nodes:
            return None
        diff = list(compress(count(), map(ne, specs, mine)))
        for i in diff:
            if _CONDITIONS(specs[i]) != _CONDITIONS(mine[i]):
                return None
        # Pair order and repeats change neither the order nor the closure.
        if priority != self.priority and frozenset(priority) != self.pairs:
            return None
        return diff


class CompiledSystem:
    """A PSystem lowered to index arrays plus the derived total order.

    All but `source`, the initial contents and charges and the two
    product lists is its plan's own: the region table, the compiled rules,
    their total order, the slots and the selection index.  A plan depends
    only on the tree's labels and parents, on each rule's id, target,
    charges, consumed multisets and child pattern, and on the set of
    priority pairs.

    Every (region, symbol) that some rule consumes has a slot, a dense
    int: `region_slots[r]` maps each such symbol of region r to its slot,
    and `slot_key` maps a slot back to its (region, symbol).  `watch[slot]`
    holds a scan tuple (target, pre, child, child_pre, rest, order) for
    each rule whose first need is that slot; a rule's `takes` are its
    needs as (slot, count) pairs, the first of them also `slot` and `n`.
    Rule cr's products are `live_gives[cr.order]`, (slot, count) pairs, and
    `inert_gives[cr.order]`, (region, symbol, count) triples of the keys no
    rule consumes.  The two are the plan's lists unless some rule's
    `produce_out` or `produce_in` differs from the plan's.  Compiled
    systems are read-only.  The last plan compiled stays cached.
    """

    def __init__(self, plan: _Plan, sys: PSystem, live: Dict[int, int],
                 inert: List[Dict[Sym, int]], charges: List[int],
                 live_gives: List[tuple], inert_gives: List[tuple]) -> None:
        self.source = sys
        self.region_labels = plan.region_labels
        self.parents = plan.parents
        self.label_index = plan.label_index
        self.n_regions = plan.n_regions
        self.rules = plan.rules
        self.ordered = plan.ordered
        self.buckets = plan.buckets
        self.slot_key = plan.slot_key
        self.region_slots = plan.region_slots
        self.watch = plan.watch
        self.live_gives = live_gives
        self.inert_gives = inert_gives
        self._live = live
        self._inert = inert
        self._initial_charges = charges

    def comparable(self, a: CRule, b: CRule) -> bool:
        return a in b.higher or b in a.higher

    def initial_configuration(
            self,
            contents: Optional[Mapping[str, Mapping[Sym, int] | Multiset]] = None,
    ) -> "Configuration":
        """Fresh start state; `contents` overrides initial region multisets.

        An override replaces its region's live slots and its inert dict.
        Counts are read as `_place` reads them.
        """
        live = dict(self._live)
        inert = [dict(c) for c in self._inert]
        if contents is not None:
            for label, ms in contents.items():
                idx = self.label_index.get(label)
                if idx is None:
                    raise StructureError(f"unknown label {label!r}")
                for slot in self.region_slots[idx].values():
                    live.pop(slot, None)
                inert[idx] = {}
                _place(self.region_slots[idx], label, ms, live, inert[idx])
        return Configuration(self, live, inert, list(self._initial_charges), 0)


def _place(slots: Dict[Sym, int], label: str,
           ms: Mapping[Sym, int] | Multiset, live: Dict[int, int],
           inert: Dict[Sym, int]) -> None:
    """Put a region's contents ms into live by its slots, or else into inert.

    A count equal to a non-negative int is that int, as `_count` reads a
    rule's counts, and zero counts are dropped; any other count raises
    StructureError naming the membrane and the symbol.
    """
    for s, n in ms.items():
        if type(n) is not int:
            try:
                k = int(n)
            except (TypeError, ValueError, OverflowError):
                k = None
            if k is None or k != n:
                raise StructureError(
                    f"initial {label!r}: count {n!r} of {s} is not an integer")
            n = k
        if n < 0:
            raise StructureError(f"initial {label!r}: negative count {n} for {s}")
        if n:
            slot = slots.get(s)
            if slot is None:
                inert[s] = n
            else:
                live[slot] = n


def compile_system(sys: PSystem) -> CompiledSystem:
    """Lower sys for stepping, reusing the plan of the last compile.

    The last plan is reused if an exact snapshot of what it depends on
    matches sys: each membrane's label and its parent's, each rule's id,
    target, charges, consumed multisets and child pattern, and the set of
    priority pairs.  Multisets compare as dicts, in any key order, because
    a plan lists needs and gives in canonical order.  Rules are immutable
    and the plan keeps the labels, the rules and the priority pairs in
    lists of its own, so a later change to sys (its rule list, its
    priority list or its tree) cannot change it.  One value compare of
    the rule lists, in C, finds the rules that differ from the plan's at
    their place, and only their conditions are compared (see
    `_Plan.patches`).  If the plan does not match, a new one is built and
    replaces the cached one; a malformed system raises StructureError and
    leaves the cache alone.  Every compile then binds sys to its plan: it
    keeps sys as `source`, copies the initial contents into the two stores
    and the charges, and takes the plan's two product lists, copied and
    patched at the differing rules if there are any.
    """
    global _PLAN
    nodes: list = []  # each membrane's label and its parent's, in walk order
    contents = []
    charges = [NEUTRAL]
    for node, parent in sys.walk():
        nodes += node.label, None if parent is None else parent.label
        contents.append(node.contents)
        charges.append(node.charge)
    specs = sys.rules
    plan = _PLAN
    diff = None if plan is None else plan.patches(nodes, specs, sys.priority)
    if diff is None:
        plan = _PLAN = _Plan(sys, nodes)
        diff = []  # its products are the plan's
    live: Dict[int, int] = {}
    inert: List[Dict[Sym, int]] = [{} for _ in plan.parents]
    for r, ms in enumerate(contents, start=1):
        _place(plan.region_slots[r], plan.region_labels[r], ms, live, inert[r])
    live_gives, inert_gives = plan.live_gives, plan.inert_gives
    if diff:
        live_gives, inert_gives = list(live_gives), list(inert_gives)
        for i in diff:
            cr = plan.rules[i]
            live_gives[cr.order], inert_gives[cr.order] = _gives(
                specs[i], cr, plan)
    return CompiledSystem(plan, sys, live, inert, charges, live_gives,
                          inert_gives)


# ============================================================
# Dynamic state
# ============================================================


class Configuration:
    """Instantaneous state: region contents in two stores, charges and a
    step count.

    `live` maps each slot of the compiled system to its count, the objects
    some rule consumes; `inert[r]` holds region r's other objects, such as
    exports and waste no collector takes, by symbol.  A step reads and
    writes `live` and only adds to `inert`.  No store keeps a zero count.
    """

    __slots__ = ("csys", "live", "inert", "charges", "step")

    def __init__(self, csys: CompiledSystem, live: Dict[int, int],
                 inert: List[Dict[Sym, int]], charges: List[int],
                 step: int) -> None:
        self.csys = csys
        self.live = live
        self.inert = inert
        self.charges = charges
        self.step = step

    @property
    def contents(self) -> List[Mapping[Sym, int]]:
        """Each region's contents, both stores joined: a read-only view
        built on each call, which later steps do not change."""
        out = [dict(c) for c in self.inert]
        key = self.csys.slot_key
        for slot, n in self.live.items():
            r, s = key[slot]
            out[r][s] = n
        return [MappingProxyType(c) for c in out]

    def copy(self) -> "Configuration":
        return Configuration(self.csys, dict(self.live),
                             [dict(c) for c in self.inert],
                             list(self.charges), self.step)


def read_region(cfg: Configuration, label: str,
                base: Optional[str] = None) -> Multiset:
    """Filtered copy of one region's contents; cfg is left untouched."""
    idx = cfg.csys.label_index.get(label)
    if idx is None:
        raise StructureError(f"unknown label {label!r}")
    out = Multiset()
    live = cfg.live
    for s, slot in cfg.csys.region_slots[idx].items():
        n = live.get(slot)
        if n and (base is None or s.base == base):
            out.counts[s] = n
    for s, n in cfg.inert[idx].items():
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


def maximal_step(cfg: Configuration,
                 ambiguities: Optional[List[Ambiguity]] = None) -> StepRecord:
    """Advance cfg by one transition in place.

    Returns the applications performed, in selection order; an empty
    record means no rule was applicable (cfg unchanged, step counter not
    advanced).  Given a list, the step is strict: it appends to
    ambiguities each rule starved by a priority-incomparable one.
    """
    strict = ambiguities is not None
    csys = cfg.csys
    charges = cfg.charges
    live = cfg.live
    watch = csys.watch

    # Candidates, by order number: rules with every consumed slot present
    # and matching target and child charges.  Any other rule has k = 0 for
    # the whole step.
    cand: List[int] = []
    add = cand.append
    for slot in live:
        for target, pre, child, child_pre, rest, order in watch[slot]:
            if charges[target] != pre or (
                    child >= 0 and charges[child] != child_pre):
                continue
            if rest:
                for t in rest:
                    if t not in live:
                        break
                else:
                    add(order)
            else:
                add(order)
    cand.sort()

    if strict:
        pre = dict(live)
        consumers: Dict[int, List[CRule]] = {}
    ordered = csys.ordered
    locked: Optional[List[bool]] = None
    charge_next: Optional[List[int]] = None
    rules: List[CRule] = []
    counts: List[int] = []
    applied, counted = rules.append, counts.append

    for o in cand:
        cr = ordered[o]
        locks = cr.locks
        if locks:
            # `locks` names at most the target and one child.
            if locked is None:
                locked = [False] * csys.n_regions
            elif locked[locks[0]] or locked[locks[-1]]:
                continue
        if cr.rest:
            k = cr.max_count(live)
            if k:
                if locks:
                    k = 1
                for slot, n in cr.takes:
                    left = live[slot] - n * k
                    if left:
                        live[slot] = left
                    else:
                        del live[slot]
        else:
            slot, n = cr.slot, cr.n
            have = live.get(slot, 0)
            k = have // n
            if k:
                if locks:
                    k = 1
                left = have - n * k
                if left:
                    live[slot] = left
                else:
                    del live[slot]
        if not k:
            if strict and cr.max_count(pre):
                # Starved by earlier consumption; flag incomparable culprits.
                for slot, n in cr.takes:
                    if live.get(slot, 0) < n:
                        r, s = csys.slot_key[slot]
                        for culprit in consumers.get(slot, ()):
                            if culprit is not cr and not csys.comparable(culprit, cr):
                                ambiguities.append(Ambiguity(
                                    cfg.step, csys.region_labels[r], s,
                                    culprit.id, cr.id))
            continue
        if locks:
            if charge_next is None:
                charge_next = list(charges)
            for r, c in cr.flips:
                charge_next[r] = c
                locked[r] = True
        if strict:
            for slot, _ in cr.takes:
                consumers.setdefault(slot, []).append(cr)
        applied(cr)
        counted(k)

    record = StepRecord(rules, counts)
    if not rules:
        return record
    _commit_products(cfg, rules, counts)
    if charge_next is not None:
        cfg.charges = charge_next
    cfg.step += 1
    return record


def _commit_products(cfg: Configuration, rules: List[CRule],
                     counts: List[int]) -> None:
    """Add each application's products, n * k per give, after all consumption."""
    live, inert = cfg.live, cfg.inert
    live_gives, inert_gives = cfg.csys.live_gives, cfg.csys.inert_gives
    get = live.get
    for cr, k in zip(rules, counts):
        o = cr.order
        for slot, n in live_gives[o]:
            live[slot] = get(slot, 0) + n * k
        gives = inert_gives[o]
        if gives:
            for r, s, n in gives:
                into = inert[r]
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
        rec = maximal_step(cfg, ambiguities if strict else None)
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


def apply_record(cfg: Configuration,
                 record: StepRecord | Iterable[Tuple[CRule, int]]) -> None:
    """Replay one recorded step, or any (rule, count) pairs, onto cfg
    without any selection logic."""
    live = cfg.live
    charge_next = list(cfg.charges)
    rules: List[CRule] = []
    counts: List[int] = []
    for cr, k in record:
        rules.append(cr)
        counts.append(k)
        for slot, n in cr.takes:
            left = live.get(slot, 0) - n * k
            if left < 0:
                r, s = cfg.csys.slot_key[slot]
                raise StructureError(
                    f"replay of {cr.id} x{k}: insufficient {s} in "
                    f"{cfg.csys.region_labels[r]}")
            if left:
                live[slot] = left
            else:
                live.pop(slot, None)
        for r, c in cr.flips:
            charge_next[r] = c
    _commit_products(cfg, rules, counts)
    cfg.charges = charge_next
    cfg.step += 1


def export_trace_text(trace: Trace) -> str:
    """Line-oriented trace: step index then rule_id@label×count entries."""
    lines = []
    for t, rec in enumerate(trace.records, start=1):
        entries = sorted(f"{cr.id}@{cr.target_label}x{k}" for cr, k in rec)
        lines.append(f"{t} " + " ".join(entries))
    return "\n".join(lines) + ("\n" if lines else "")
