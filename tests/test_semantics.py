"""The engine's steps against the declarative step semantics.

`test_selection` checks `maximal_step` against a reference that walks the
same total order with the same checks, so a misreading shared by both
would not show there.  This test reads only the source system (its tree,
its `RuleSpec`s and its priority pairs) and each step's start contents
and charges, and from the record only each rule's id and count.  Against
those it checks the definition of a step with weak priorities:

  * resources suffice for the whole multiset of applications;
  * every applied rule's target and child charges match at step start;
  * each membrane takes at most one charge-changing application, with
    count 1;
  * no applied rule has a higher-priority rule (transitively) that would
    still be applicable to the residual if every rule below that higher
    rule gave back what it took, so a lower rule only takes what the
    rules it does not outrank left;
  * and the multiset is maximal: adding any single application breaks
    one of the above.

It does not enumerate the maximal multisets, so it does not say which one
the engine should pick.  A second test checks every step of two systems
the builder makes, whose priority families the random systems lack, on
all but maximality, which would try each of a thousand rules per step.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Set, Tuple

from hypothesis import given, settings

from pgne.builder import build_gne_system, build_mult_system
from pgne.engine import (ENV_LABEL, PSystem, RuleSpec, compile_system,
                         maximal_step)
from pgne.harness import sample_experiment
from pgne.symbols import Sym
from test_selection import systems

Key = Tuple[int, Sym]  # (region index, symbol)


class Rule(NamedTuple):
    needs: Dict[Key, int]
    guard: Tuple[Tuple[int, int], ...]  # (region, charge) at step start
    flips: Set[int]  # membranes whose charge the rule changes


def regions(sysd: PSystem) -> Tuple[List[str], List[int]]:
    """Region labels and parents, the environment first, then the tree in
    preorder."""
    labels, parents = [ENV_LABEL], [-1]
    for node, parent in sysd.walk():
        labels.append(node.label)
        parents.append(labels.index(parent.label) if parent else 0)
    return labels, parents


def resolve(spec: RuleSpec, labels: List[str], parents: List[int]) -> Rule:
    t = labels.index(spec.target)
    parts = [(parents[t], spec.consume_out), (t, spec.consume_in)]
    guard, flips = [(t, spec.pre)], set()
    if spec.post != spec.pre:
        flips.add(t)
    c = spec.child
    if c is not None:
        ci = labels.index(c.label)
        parts.append((ci, c.consume))
        guard.append((ci, c.pre))
        if c.post != c.pre:
            flips.add(ci)
    needs: Dict[Key, int] = {}
    for r, ms in parts:
        for s, n in ms.items():
            needs[(r, s)] = needs.get((r, s), 0) + n
    return Rule(needs, tuple(guard), flips)


def higher_than(sysd: PSystem) -> Dict[str, Set[str]]:
    """Per rule id, the ids of every rule transitively above it."""
    above: Dict[str, Set[str]] = {r.id: set() for r in sysd.rules}
    for hi, lo in sysd.priority:
        above[lo].add(hi)
    grew = True
    while grew:
        grew = False
        for ups in above.values():
            more = set().union(*(above[u] for u in ups)) - ups
            if more:
                ups |= more
                grew = True
    return above


def residual(rules: Dict[str, Rule], apps: Dict[str, int],
             start: Dict[Key, int]) -> Optional[Dict[Key, int]]:
    """What is left of start after apps, or None if it does not suffice."""
    left = dict(start)
    for rid, k in apps.items():
        for key, n in rules[rid].needs.items():
            left[key] = left.get(key, 0) - n * k
            if left[key] < 0:
                return None
    return left


def valid(rules: Dict[str, Rule], above: Dict[str, Set[str]],
          apps: Dict[str, int], start: Dict[Key, int],
          charges: List[int]) -> bool:
    """apps is a valid multiset of applications from start and charges."""
    left = residual(rules, apps, start)
    if left is None:
        return False
    changed: Set[int] = set()
    for rid, k in apps.items():
        rule = rules[rid]
        if any(charges[r] != c for r, c in rule.guard):
            return False
        if rule.flips:
            if k != 1 or rule.flips & changed:
                return False
            changed |= rule.flips
    # A higher rule h may not be left able to fire even if every rule
    # below it gave back what it took: a lower rule takes only what the
    # rules it does not outrank left.
    for hid in set().union(*(above[rid] for rid in apps)):
        h = rules[hid]
        kept = {g: k for g, k in apps.items() if hid not in above[g]}
        left = residual(rules, kept, start)
        locked = set().union(*(rules[g].flips for g in kept))
        if (all(charges[r] == c for r, c in h.guard)
                and all(left.get(key, 0) >= n for key, n in h.needs.items())
                and not h.flips & locked):
            return False
    return True


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(systems())
def test_each_step_is_a_maximal_valid_multiset(sysd: PSystem):
    labels, parents = regions(sysd)
    rules = {spec.id: resolve(spec, labels, parents) for spec in sysd.rules}
    above = higher_than(sysd)
    csys = compile_system(sysd)
    assert csys.region_labels == labels
    cfg = csys.initial_configuration()
    for _ in range(3):
        start = {(r, s): n for r, ms in enumerate(cfg.contents)
                 for s, n in ms.items()}
        charges = list(cfg.charges)
        record = maximal_step(cfg)
        apps = {cr.id: k for cr, k in record}
        assert len(apps) == len(record)
        assert all(k >= 1 for k in apps.values())
        assert valid(rules, above, apps, start, charges)
        for rid in rules:
            more = {**apps, rid: apps.get(rid, 0) + 1}
            assert not valid(rules, above, more, start, charges), rid
        if not record:
            break


def test_builder_runs_take_valid_steps():
    for sysd in (build_gne_system(sample_experiment(2, "small")),
                 build_mult_system(13, 9)):
        labels, parents = regions(sysd)
        rules = {spec.id: resolve(spec, labels, parents)
                 for spec in sysd.rules}
        above = higher_than(sysd)
        assert any(above.values())
        cfg = compile_system(sysd).initial_configuration()
        for step in range(5000):
            start = {(r, s): n for r, ms in enumerate(cfg.contents)
                     for s, n in ms.items()}
            charges = list(cfg.charges)
            record = maximal_step(cfg)
            if not record:
                break
            apps = {cr.id: k for cr, k in record}
            assert len(apps) == len(record)
            assert valid(rules, above, apps, start, charges), step
        assert step > 0 and not record
