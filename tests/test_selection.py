"""Indexed candidate selection against a naive full-scan reference step.

`maximal_step` examines only rules whose consumed slots are all present
in the live store at the start of the step.  The reference below keeps a
dict per region instead and walks every rule of the total order, with
the same per-rule checks, and reads each rule's products off its source
`RuleSpec` rather than the compiled lists.  The property test requires
identical records, ambiguities and final states on small random systems.

The reference also skips a rule while some rule of its `higher` set
could still fire against the residual, as weak priority says.  The
engine makes no such check: every higher rule comes earlier in the total
order, and a rule the walk has passed cannot fire for the rest of the
step (it was no candidate, was locked out, counted 0, or applied as often
as it could), so the check could never skip anything.  The reference
counts its skips, and the property test requires that count to be 0.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from pgne.engine import (CHARGES, NEUTRAL, Ambiguity, ChildPattern,
                         CompiledSystem, CRule, MembraneNode, PSystem,
                         RuleSpec, StepRecord, compile_system, run)
from pgne.symbols import Multiset, Sym, sym

_SYMS = [sym(t) for t in "abc"]
_LABELS = ["m1", "m2", "m3"]


class RefState:
    """The reference's own state: a dict per region, charges, a step count."""

    def __init__(self, csys: CompiledSystem) -> None:
        # Region 0 is the environment; the rest follow the tree's walk.
        nodes = [node for node, _ in csys.source.walk()]
        self.csys = csys
        self.contents = [{}] + [dict(node.contents.counts) for node in nodes]
        self.charges = [NEUTRAL] + [node.charge for node in nodes]
        self.step = 0
        # Rules skipped because a higher rule could still fire: always 0.
        self.priority_skips = 0
        self.specs = {spec.id: spec for spec in csys.source.rules}


def products(spec: RuleSpec, cr: CRule, parents: List[int]
             ) -> List[Tuple[int, Sym, int]]:
    """(region, symbol, count) of each product, read off the source rule:
    `produce_out` goes to the target's parent, `produce_in` to the target
    and the child pattern's `produce` to the child."""
    parts = [(parents[cr.target], spec.produce_out),
             (cr.target, spec.produce_in)]
    if spec.child is not None:
        parts.append((cr.child, spec.child.produce))
    return [(r, s, n) for r, ms in parts for s, n in ms.items()]


def fireable(cr: CRule, avail: List[Dict[Sym, int]], charges: List[int],
             locked: List[bool]) -> bool:
    """One application of cr could fire against avail, charges and locks."""
    if charges[cr.target] != cr.pre:
        return False
    if cr.child >= 0 and charges[cr.child] != cr.child_pre:
        return False
    if any(avail[r].get(s, 0) < n for r, s, n in cr.needs):
        return False
    return not any(locked[r] for r in cr.locks)


def reference_step(cfg: RefState, strict: bool,
                   ambiguities: List[Ambiguity]) -> StepRecord:
    """One maximal step that scans every rule in the total order."""
    csys = cfg.csys
    charges = cfg.charges
    start = [dict(c) for c in cfg.contents]
    avail = [dict(c) for c in cfg.contents]
    locked = [False] * csys.n_regions
    charge_next = list(charges)
    consumers: Dict[Tuple[int, Sym], list] = {}
    deltas: Dict[Tuple[int, Sym], int] = {}
    record = StepRecord([], [])
    for cr in csys.ordered:
        if charges[cr.target] != cr.pre:
            continue
        if cr.child >= 0 and charges[cr.child] != cr.child_pre:
            continue
        if any(locked[r] for r in cr.locks):
            continue
        k = min(avail[r].get(s, 0) // n for r, s, n in cr.needs)
        if strict and k == 0 and fireable(
                cr, start, charges, [False] * csys.n_regions):
            for r, s, n in cr.needs:
                if avail[r].get(s, 0) >= n:
                    continue
                for culprit in consumers.get((r, s), ()):
                    if culprit is not cr and not csys.comparable(culprit, cr):
                        ambiguities.append(Ambiguity(
                            cfg.step, csys.region_labels[r], s,
                            culprit.id, cr.id))
        if k == 0:
            continue
        if any(fireable(h, avail, charges, locked) for h in cr.higher):
            cfg.priority_skips += 1
            continue
        if cr.locks:
            k = 1
        for r, s, n in cr.needs:
            avail[r][s] -= n * k
            if not avail[r][s]:
                del avail[r][s]
            consumers.setdefault((r, s), []).append(cr)
        for r, s, n in products(cfg.specs[cr.id], cr, csys.parents):
            deltas[(r, s)] = deltas.get((r, s), 0) + n * k
        for r in cr.locks:
            locked[r] = True
            charge_next[r] = cr.post if r == cr.target else cr.child_post
        record.rules.append(cr)
        record.counts.append(k)
    if record:
        for (r, s), n in deltas.items():
            avail[r][s] = avail[r].get(s, 0) + n
        cfg.contents = avail
        cfg.charges = charge_next
        cfg.step += 1
    return record


def _bags(max_size: int, most: int = 3, min_size: int = 0):
    return st.dictionaries(st.sampled_from(_SYMS), st.integers(1, most),
                           min_size=min_size, max_size=max_size)


_CONTENT, _ONE, _TWO = _bags(3, 6, 1), _bags(1), _bags(2)
# Mostly neutral, so that charge guards pass often enough to matter.
_CHARGE = st.sampled_from(CHARGES + (NEUTRAL, NEUTRAL))


@st.composite
def systems(draw) -> PSystem:
    depth = draw(st.integers(1, 3))
    nodes: List[MembraneNode] = []
    for label in reversed(_LABELS[:depth]):
        nodes.insert(0, MembraneNode(label, nodes[:1],
                                     Multiset(draw(_CONTENT)), draw(_CHARGE)))
    rules: List[RuleSpec] = []
    for n in range(draw(st.integers(1, 10))):
        at = draw(st.integers(0, depth - 1))
        child = None
        if at + 1 < depth and draw(st.booleans()):
            child = ChildPattern(_LABELS[at + 1], draw(_CHARGE),
                                 draw(_CHARGE), draw(_TWO), draw(_TWO))
        spec = RuleSpec(f"r{n}", _LABELS[at], draw(_CHARGE), draw(_CHARGE),
                        draw(_ONE), draw(_ONE), draw(_TWO), draw(_TWO), child)
        if spec.consumes_nothing():
            spec = spec._replace(consume_in={draw(st.sampled_from(_SYMS)): 1})
        rules.append(spec)
    # Pairs that agree with one random ranking are acyclic by construction.
    rank = draw(st.permutations(range(len(rules))))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(rules) - 1),
                                    st.integers(0, len(rules) - 1)),
                          max_size=6))
    priority = sorted({(rules[a].id, rules[b].id) for a, b in pairs
                       if rank[a] < rank[b]})
    if draw(st.integers(0, 3)) == 0:
        # A contested pair, declared first: both consume one symbol in one
        # region, which holds enough of it for either, and both match the
        # region's charge, so both can fire at the first step.  The rule
        # declared second has priority, so an engine that took rules in
        # declaration order would let the lower one take the symbol.
        node = nodes[draw(st.integers(0, depth - 1))]
        s = draw(st.sampled_from(_SYMS))
        need = [draw(st.integers(1, 2)) for _ in range(2)]
        node.contents.counts[s] = max(need + [node.contents.get(s)])
        rules[:0] = [RuleSpec(rid, node.label, node.charge, draw(_CHARGE),
                              consume_in={s: k}, produce_in=draw(_TWO))
                     for rid, k in zip(("lo", "hi"), need)]
        priority.append(("hi", "lo"))
    return PSystem(nodes[0], rules, priority)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(systems(), st.booleans())
def test_indexed_selection_matches_full_scan(sysd: PSystem, strict: bool):
    csys = compile_system(sysd)
    tr = run(csys, max_steps=6, strict=strict)

    cfg = RefState(csys)
    records: List[StepRecord] = []
    ambiguities: List[Ambiguity] = []
    for _ in range(6):
        rec = reference_step(cfg, strict, ambiguities)
        if not rec:
            break
        records.append(rec)

    assert tr.records == records
    assert tr.ambiguities == ambiguities
    assert tr.final.contents == cfg.contents
    assert tr.final.charges == cfg.charges
    assert cfg.priority_skips == 0
