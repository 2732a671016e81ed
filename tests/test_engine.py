"""Single-step and small-system semantics of the rewriting engine."""

from __future__ import annotations

import copy
import gc
import math
import pickle
import re
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgne import engine
from pgne.builder import (build_gne_system, build_mult_system, load_game,
                          loop_steps_bound, mult_steps)
from pgne.engine import (ENV_LABEL, MINUS, NEUTRAL, PLUS, ChildPattern,
                        MembraneNode, PSystem, RuleSpec, StepRecord,
                        StructureError, apply_record, compile_system,
                        export_trace_text, maximal_step, read_region, run)
from pgne.harness import run_gne, sample_experiment
from pgne.pspec import parse_system, serialize_system
from pgne.symbols import Multiset, sym
from test_gne import _DATA

A, B, C, D, X, Y = (sym(t) for t in "abcdxy")


def region_system(rules, priority=(), contents=None):
    tree = MembraneNode("m", contents=Multiset(contents or {}))
    return PSystem(tree, list(rules), list(priority))


def one_region(rules, priority=(), contents=None):
    return compile_system(region_system(rules, priority, contents))


def rule(rid, **kw):
    kw.setdefault("target", "m")
    return RuleSpec(id=rid, **kw)


def fired(tr, rule_id, step):
    """Application count of rule_id at 1-based transition `step`."""
    return dict((cr.id, k) for cr, k in tr.records[step - 1]).get(rule_id, 0)


def ids(tr, step):
    """Rule ids applied at 1-based transition `step`, in selection order."""
    return [cr.id for cr, _ in tr.records[step - 1]]


def charge(cfg, label):
    return cfg.charges[cfg.csys.label_index[label]]


def same_state(a, b):
    return a.contents == b.contents and a.charges == b.charges


def step_and_replay(csys, max_steps):
    """Step one configuration and replay each record onto a second one,
    which must match the first after every step; True if the run halted."""
    cfg = csys.initial_configuration()
    replayed = csys.initial_configuration()
    for _ in range(max_steps):
        rec = maximal_step(cfg)
        if not rec:
            return True
        apply_record(replayed, rec)
        assert same_state(replayed, cfg) and replayed.step == cfg.step
    return False


# ============================================================
# Core stepping semantics
# ============================================================


def test_maximality_consumes_everything():
    csys = one_region([rule("r", consume_in={A: 2}, produce_in={B: 1})],
                      contents={A: 7})
    tr = run(csys, max_steps=5)
    assert tr.steps == 1
    assert fired(tr, "r", 1) == 3  # floor(7 / 2) applications
    assert read_region(tr.final, "m").counts == {A: 1, B: 3}


def test_products_invisible_until_commit():
    csys = one_region([
        rule("make", consume_in={A: 1}, produce_in={B: 1}),
        rule("use", consume_in={B: 1}, produce_in={C: 1}),
    ], contents={A: 1})
    tr = run(csys, max_steps=5)
    # b exists only after step 1, so `use` cannot fire before step 2.
    assert ids(tr, 1) == ["make"]
    assert ids(tr, 2) == ["use"]
    assert read_region(tr.final, "m").counts == {C: 1}


@pytest.mark.parametrize("start,made", [(A, B), (B, A)],
                         ids=["watched-need-present", "other-need-present"])
def test_two_need_rule_waits_for_a_need_made_this_step(start, made):
    # `both` is filed under its first need, a, and checks b for presence.
    # One need is there at the start; `make` makes the other in step 1.
    csys = one_region([
        rule("make", consume_in={C: 1}, produce_in={made: 1}),
        rule("both", consume_in={A: 1, B: 1}, produce_in={D: 1}),
    ], contents={start: 1, C: 1})
    assert csys.rules[1].needs[0][1] == A
    for strict in (False, True):
        tr = run(csys, max_steps=5, strict=strict)
        assert ids(tr, 1) == ["make"]
        assert ids(tr, 2) == ["both"]
        assert tr.steps == 2
        assert read_region(tr.final, "m").counts == {D: 1}


def test_greedy_declaration_order_splits_shared_tokens():
    csys = one_region([
        rule("first", consume_in={A: 1}, produce_in={B: 1}),
        rule("second", consume_in={A: 1}, produce_in={C: 1}),
    ], contents={A: 3})
    tr = run(csys, max_steps=2)
    # Unrelated rules run greedily in declaration order: first takes all.
    assert fired(tr, "first", 1) == 3
    assert fired(tr, "second", 1) == 0


def test_priority_inverts_declaration_order():
    csys = one_region([
        rule("first", consume_in={A: 1}, produce_in={B: 1}),
        rule("second", consume_in={A: 1}, produce_in={C: 1}),
    ], priority=[("second", "first")], contents={A: 3})
    tr = run(csys, max_steps=2)
    assert fired(tr, "second", 1) == 3
    assert fired(tr, "first", 1) == 0


def test_strong_priority_blocks_while_higher_applicable():
    # high needs both a and x; with x missing it cannot fire, so low runs.
    rules = [
        rule("high", consume_in={A: 1, X: 1}, produce_in={B: 1}),
        rule("low", consume_in={A: 1}, produce_in={C: 1}),
    ]
    blocked = run(one_region(rules, [("high", "low")], {A: 2, X: 1}),
                  max_steps=3)
    # One high application exhausts x; the leftover a then goes to low
    # in the same step because high is no longer applicable.
    assert fired(blocked, "high", 1) == 1
    assert fired(blocked, "low", 1) == 1

    free = run(one_region(rules, [("high", "low")], {A: 2}), max_steps=3)
    assert fired(free, "high", 1) == 0
    assert fired(free, "low", 1) == 2


def test_charge_cap_exhausts_applicability_for_blocking():
    # high is charge-changing: the one-change cap spends its
    # applicability for the step, so low may run alongside.
    rules = [
        rule("high", pre=NEUTRAL, post=PLUS, consume_in={X: 1}),
        rule("low", consume_in={A: 1}, produce_in={C: 1}),
    ]
    tr = run(one_region(rules, [("high", "low")], {A: 1, X: 5}), max_steps=9)
    assert fired(tr, "high", 1) == 1
    assert fired(tr, "low", 1) == 1


def test_transitive_priority_closure():
    rules = [
        rule("top", consume_in={X: 1}, produce_in={B: 1}),
        rule("mid", consume_in={Y: 1}, produce_in={B: 1}),
        rule("bot", consume_in={A: 1}, produce_in={C: 1}),
    ]
    pri = [("top", "mid"), ("mid", "bot")]
    csys = one_region(rules, pri, {A: 1, X: 1})
    by_id = {c.id: c for c in csys.rules}
    assert {h.id for h in by_id["bot"].higher} == {"top", "mid"}
    assert {h.id for h in by_id["mid"].higher} == {"top"}
    assert by_id["top"].higher == ()
    # Selection still processes higher rules first; the starved mid
    # takes nothing and the others fire in the same step.
    tr = run(csys, max_steps=3)
    assert fired(tr, "top", 1) == 1
    assert fired(tr, "mid", 1) == 0
    assert fired(tr, "bot", 1) == 1


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.permutations(range(n)),
    st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
             max_size=3 * n))))
def test_priority_closure_is_reachability(relation):
    rank, pairs = relation
    # Pairs that agree with one ranking are acyclic by construction.
    edges = {(f"r{a}", f"r{b}") for a, b in pairs if rank[a] < rank[b]}
    ids = [f"r{i}" for i in range(len(rank))]
    csys = one_region([rule(i, consume_in={A: 1}) for i in ids], edges)
    above = {b: {a for a, lo in edges if lo == b} for b in ids}
    for _ in ids:
        above = {b: ups.union(*(above[a] for a in ups))
                 for b, ups in above.items()}
    for cr in csys.rules:
        assert {h.id for h in cr.higher} == above[cr.id]
        for other in csys.rules:
            assert (csys.comparable(cr, other) == csys.comparable(other, cr)
                    == (cr.id in above[other.id] or other.id in above[cr.id]))


# ============================================================
# Charges
# ============================================================


def test_charge_gates_applicability():
    csys = one_region([
        rule("flip", pre=NEUTRAL, post=PLUS, consume_in={A: 1}),
        rule("plus_only", pre=PLUS, post=PLUS, consume_in={B: 1},
             produce_in={C: 1}),
    ], contents={A: 1, B: 1})
    tr = run(csys, max_steps=5)
    # plus_only sees the new charge one step after flip stages it.
    assert ids(tr, 1) == ["flip"]
    assert ids(tr, 2) == ["plus_only"]


def test_charge_change_applies_once_per_step():
    csys = one_region([rule("flip", pre=NEUTRAL, post=PLUS,
                            consume_in={A: 1})], contents={A: 5})
    tr = run(csys, max_steps=1)
    assert fired(tr, "flip", 1) == 1
    assert read_region(tr.final, "m").get(A) == 4
    assert charge(tr.final, "m") == PLUS


def test_one_charge_change_per_membrane_per_step():
    csys = one_region([
        rule("to_plus", pre=NEUTRAL, post=PLUS, consume_in={A: 1}),
        rule("to_minus", pre=NEUTRAL, post=MINUS, consume_in={B: 1}),
    ], contents={A: 1, B: 1})
    tr = run(csys, max_steps=1)
    assert ids(tr, 1) == ["to_plus"]
    assert charge(tr.final, "m") == PLUS
    assert read_region(tr.final, "m").counts == {B: 1}
    # The same for a child: two incomparable rules of p flip its child q,
    # and the second flips p too.  The first in total order locks q, so
    # the second waits although p is still unlocked.
    tree = MembraneNode("p", contents=Multiset({A: 1, B: 1}),
                        children=[MembraneNode("q")])
    rules = [
        RuleSpec(id="q_plus", target="p", consume_in={A: 1},
                 child=ChildPattern("q", NEUTRAL, PLUS)),
        RuleSpec(id="both_minus", target="p", post=MINUS, consume_in={B: 1},
                 child=ChildPattern("q", NEUTRAL, MINUS)),
    ]
    tr = run(compile_system(PSystem(tree, rules)), max_steps=1)
    assert ids(tr, 1) == ["q_plus"]
    assert charge(tr.final, "q") == PLUS
    assert charge(tr.final, "p") == NEUTRAL
    assert read_region(tr.final, "p").counts == {B: 1}


def test_rewriting_rules_run_alongside_the_charge_change():
    csys = one_region([
        rule("flip", pre=NEUTRAL, post=MINUS, consume_in={A: 1}),
        rule("work", pre=NEUTRAL, post=NEUTRAL, consume_in={B: 1},
             produce_in={C: 1}),
    ], contents={A: 1, B: 4})
    tr = run(csys, max_steps=1)
    # work is gated on the pre-step charge, so it fires in the same step.
    assert fired(tr, "work", 1) == 4
    assert charge(tr.final, "m") == MINUS


def test_child_pattern_and_charge():
    tree = MembraneNode("p", children=[
        MembraneNode("q", contents=Multiset({A: 2}))])
    rules = [RuleSpec(id="open", target="p",
                      consume_in={X: 1},
                      child=ChildPattern("q", NEUTRAL, PLUS, {A: 1}, {B: 1}))]
    csys = compile_system(PSystem(tree, rules))
    tr = run(csys, max_steps=3, initial={"p": {X: 2}})
    # Child charge flip caps the rule at one application despite x^2.
    assert fired(tr, "open", 1) == 1
    assert charge(tr.final, "q") == PLUS
    assert read_region(tr.final, "q").counts == {A: 1, B: 1}
    # Second application blocked: child now ^+ but pattern wants ^0.
    assert tr.steps == 1


def test_out_consumption_reaches_parent_region():
    tree = MembraneNode("p", contents=Multiset({X: 3}), children=[
        MembraneNode("q")])
    rules = [RuleSpec(id="pull", target="q",
                      consume_out={X: 1}, produce_in={B: 1})]
    tr = run(compile_system(PSystem(tree, rules)), max_steps=2)
    assert fired(tr, "pull", 1) == 3
    assert read_region(tr.final, "q").counts == {B: 3}
    assert read_region(tr.final, "p").counts == {}


def test_skin_out_production_lands_in_environment():
    tree = MembraneNode("s", contents=Multiset({A: 2}))
    rules = [RuleSpec(id="emit", target="s", consume_in={A: 1},
                      produce_out={Y: 1})]
    tr = run(compile_system(PSystem(tree, rules)), max_steps=2)
    assert read_region(tr.final, ENV_LABEL).counts == {Y: 2}


# ============================================================
# Traces, replay, determinism
# ============================================================


def loopy_system():
    tree = MembraneNode("s", contents=Multiset({A: 6, X: 1}), children=[
        MembraneNode("t", contents=Multiset({B: 2}))])
    rules = [
        RuleSpec(id="r1", target="s", consume_in={A: 2}, produce_in={C: 1}),
        RuleSpec(id="r2", target="s", pre=NEUTRAL, post=PLUS,
                 consume_in={X: 1}, produce_in={Y: 1}),
        RuleSpec(id="r3", target="s", pre=PLUS, post=PLUS,
                 consume_in={C: 1}, produce_out={C: 1}),
        RuleSpec(id="r4", target="t", consume_in={B: 1}, produce_out={D: 1}),
        RuleSpec(id="r5", target="s", pre=PLUS, post=PLUS, consume_in={D: 1},
                 child=ChildPattern("t", NEUTRAL, MINUS, {}, {A: 1})),
    ]
    return PSystem(tree, rules, [("r2", "r1")])


def test_full_trace_replays_exactly():
    assert step_and_replay(compile_system(loopy_system()), max_steps=20)


def test_records_only_replay_via_apply_record():
    csys = compile_system(loopy_system())
    tr = run(csys, max_steps=20)
    cfg = csys.initial_configuration()
    for rec in tr.records:
        apply_record(cfg, rec)
    assert same_state(cfg, tr.final)


# ============================================================
# Step records
# ============================================================


def two_rule_step():
    csys = one_region([rule("r", consume_in={A: 2}, produce_in={B: 1}),
                       rule("s", consume_in={C: 1}, produce_in={D: 1})],
                      contents={A: 5, C: 1})
    return csys, csys.initial_configuration()


def test_step_record_reads_as_pairs():
    csys, cfg = two_rule_step()
    rec = maximal_step(cfg)
    r, s = csys.rules
    pairs = [(r, 2), (s, 1)]
    assert len(rec) == 2
    assert list(rec) == pairs
    assert rec == StepRecord([r, s], [2, 1])
    assert rec != StepRecord([r], [2]) and rec != StepRecord([s, r], [1, 2])
    # Records compare only with records, not with their pairs.
    assert rec != pairs and pairs != rec
    assert rec.rules == [r, s] and rec.counts == [2, 1]
    assert repr(rec) == "StepRecord([(<rule r @ m>, 2), (<rule s @ m>, 1)])"


def test_apply_record_replays_a_step_record():
    _, cfg = two_rule_step()
    work = cfg.copy()
    apply_record(work, maximal_step(cfg))
    assert same_state(work, cfg) and work.step == cfg.step == 1


def test_empty_step_record_is_falsy():
    csys = one_region([rule("r", consume_in={A: 1})], contents={B: 1})
    cfg = csys.initial_configuration()
    rec = maximal_step(cfg)
    assert not rec and len(rec) == 0 and list(rec) == []
    assert rec == StepRecord([], [])
    assert cfg.step == 0


def _tracked(roots, stop=frozenset()):
    """Ids of the GC-tracked objects reachable from roots, not through
    stop, a type or a module."""
    seen = set()
    todo = list(roots)
    while todo:
        o = todo.pop()
        if (id(o) in seen or id(o) in stop or not gc.is_tracked(o)
                or isinstance(o, (type, ModuleType))):
            continue
        seen.add(id(o))
        todo.extend(gc.get_referents(o))
    return seen


def test_step_records_own_few_gc_objects():
    # A trace keeps every record alive, and every object a record owns is
    # walked by each collection that reaches it: a step's record owns at
    # most itself and its two lists, whatever its number of applications.
    trace = run_gne(sample_experiment(27, "default")).trace
    owned = _tracked(trace.records, _tracked([trace.final.csys]))
    assert sum(map(len, trace.records)) > 15 * trace.steps
    assert len(owned) <= 3 * trace.steps


def default_27():
    spec = sample_experiment(27, "default")
    budget = loop_steps_bound(spec.r_disc) * (spec.loops + 1)
    return compile_system(build_gne_system(spec)), budget


def test_steps_mutate_the_live_regions():
    # A non-strict step consumes from and commits into the live store and
    # the inert dicts cfg already holds; a step that applies nothing leaves
    # them as they were.  Strict mode snapshots the start of each step and
    # must select the same applications.
    csys, budget = default_27()
    cfg = csys.initial_configuration()
    live, inert = cfg.live, list(cfg.inert)
    records = []
    for _ in range(budget):
        before = cfg.copy()
        rec = maximal_step(cfg)
        assert cfg.live is live
        assert len(cfg.inert) == len(inert) == csys.n_regions
        assert all(now is held for now, held in zip(cfg.inert, inert))
        if not rec:
            assert cfg.contents == before.contents
            assert cfg.charges == before.charges and cfg.step == before.step
            break
        records.append(rec)
    else:
        pytest.fail("default/27 did not halt within its budget")
    strict = run(csys, max_steps=budget, strict=True)
    assert strict.halted and strict.records == records


def test_exports_stay_out_of_the_live_store():
    # Only objects some rule consumes are live, so the live store of a
    # long run peaks no higher than a short one's; each loop's `result`
    # exports pile up in the skin's inert dict instead.
    def peak(loops):
        spec = sample_experiment(27, "default", loops=loops)
        csys = compile_system(build_gne_system(spec))
        cfg = csys.initial_configuration()
        most = len(cfg.live)
        for _ in range(loop_steps_bound(spec.r_disc) * (loops + 1)):
            if not maximal_step(cfg):
                break
            most = max(most, len(cfg.live))
        else:
            pytest.fail(f"default/27 at {loops} loops did not halt")
        skin = csys.label_index["0"]
        results = {s: n for s, n in read_region(cfg, "0").items()
                   if s.base == "result"}
        assert results
        assert {s: n for s, n in cfg.inert[skin].items()
                if s.base == "result"} == results
        assert all(s.base != "result" for s in csys.region_slots[skin])
        return most, len(results)

    (short, exported_short), (long, exported_long) = peak(10), peak(30)
    assert short == long
    assert exported_long > exported_short


def test_budget_stop_leaves_a_resumable_final_state():
    # run() probes for quiescence on a copy: the final state of a run cut
    # at k steps is the state after k steps, and stepping it on gives the
    # uninterrupted run's records from step k + 1.
    csys, budget = default_27()
    whole = run(csys, max_steps=budget)
    k = whole.steps // 2
    cut = run(csys, max_steps=k)
    assert not cut.halted and cut.steps == k
    at_k = csys.initial_configuration()
    for rec in whole.records[:k]:
        apply_record(at_k, rec)
    assert cut.final.contents == at_k.contents
    assert cut.final.charges == at_k.charges and cut.final.step == k
    rest = []
    for _ in range(budget):
        rec = maximal_step(cut.final)
        if not rec:
            break
        rest.append(rec)
    assert rest == whole.records[k:]


def test_identical_runs_identical_traces():
    a = run(compile_system(loopy_system()), max_steps=20)
    b = run(compile_system(loopy_system()), max_steps=20)
    assert export_trace_text(a) == export_trace_text(b)


def test_trace_export_shape():
    tr = run(one_region([rule("r", consume_in={A: 1}, produce_in={B: 1})],
                        contents={A: 2}), max_steps=3)
    assert export_trace_text(tr) == "1 r@mx2\n"


def test_budget_exhaustion_reported():
    # a -> a spins forever.
    tr = run(one_region([rule("r", consume_in={A: 1}, produce_in={A: 1})],
                        contents={A: 1}), max_steps=7)
    assert not tr.halted
    assert tr.halt_reason == "budget"
    assert tr.steps == 7


def test_budget_equal_to_halt_is_still_quiescent():
    tr = run(one_region([rule("r", consume_in={A: 1}, produce_in={B: 1})],
                        contents={A: 1}), max_steps=1)
    assert tr.halted
    assert tr.halt_reason == "quiescent"


def test_initial_override_replaces_region():
    csys = one_region([rule("r", consume_in={A: 1}, produce_in={B: 1})],
                      contents={A: 5})
    tr = run(csys, max_steps=3, initial={"m": {A: 2, X: 1}})
    assert read_region(tr.final, "m").counts == {B: 2, X: 1}
    with pytest.raises(StructureError, match="unknown label"):
        run(csys, max_steps=1, initial={"zz": {A: 1}})


def test_initial_override_refuses_negative_counts():
    csys = one_region([rule("r", consume_in={A: 1}, produce_in={B: 1})],
                      contents={A: 5})
    # Zeros are dropped, as in a Multiset.
    tr = run(csys, max_steps=3, initial={"m": {A: 2, X: 0}})
    assert read_region(tr.final, "m").counts == {B: 2}
    with pytest.raises(StructureError, match=r"'m'.*-3 for x"):
        run(csys, max_steps=1, initial={"m": {A: 1, X: -3}})


@pytest.mark.parametrize("n,k", [(2.5, None), (math.nan, None), ("3", None),
                                 (2.0, 2), (True, 1)], ids=repr)
@pytest.mark.parametrize("s", [A, X], ids=["live", "inert"])
@pytest.mark.parametrize("path", ["compile", "override"])
def test_initial_counts_must_equal_ints(path, s, n, k):
    # As with a rule's counts, a count equal to an int is that int; any
    # other count is refused by membrane and symbol, in either store.
    sysd = region_system([rule("r", consume_in={A: 1}, produce_in={B: 1})])
    initial = None
    if path == "compile":
        sysd.tree.contents.counts[s] = n
    else:
        initial = {"m": {s: n}}
    if k is None:
        with pytest.raises(StructureError, match=re.escape(
                f"initial 'm': count {n!r} of {s} is not an integer")):
            run(sysd, max_steps=3, initial=initial)
        return
    final = read_region(run(sysd, max_steps=3, initial=initial).final, "m")
    assert final.counts == ({B: k} if s is A else {s: k})
    assert [type(c) for c in final.counts.values()] == [int]


def test_initial_override_reads_back_through_both_stores():
    # a is consumed, so it is live; x and b are not, so they are inert.
    # An override replaces both stores' share of its region.
    csys = one_region([rule("r", consume_in={A: 1}, produce_in={B: 1})],
                      contents={A: 5, X: 2})
    cfg = csys.initial_configuration({"m": {A: 3, X: 4, B: 0}})
    assert read_region(cfg, "m").counts == {A: 3, X: 4}
    assert cfg.live == {csys.region_slots[csys.label_index["m"]][A]: 3}
    assert cfg.inert[csys.label_index["m"]] == {X: 4}
    assert read_region(csys.initial_configuration({"m": {}}), "m").counts == {}
    assert read_region(csys.initial_configuration(), "m").counts == {A: 5, X: 2}
    for bad in ({A: -1}, {X: -1}):
        with pytest.raises(StructureError, match="negative count -1"):
            csys.initial_configuration({"m": bad})


# ============================================================
# Strict-mode ambiguity flags
# ============================================================


def test_incomparable_starvation_is_flagged():
    rules = [
        rule("eat", consume_in={A: 2}, produce_in={B: 1}),
        rule("also", consume_in={A: 2}, produce_in={C: 1}),
    ]
    tr = run(one_region(rules, (), {A: 3}), max_steps=3, strict=True)
    assert len(tr.ambiguities) == 1
    amb = tr.ambiguities[0]
    assert (amb.winner, amb.loser) == ("eat", "also")
    assert amb.symbol == A and amb.region == "m"


def test_prioritized_competition_is_not_flagged():
    rules = [
        rule("eat", consume_in={A: 2}, produce_in={B: 1}),
        rule("also", consume_in={A: 2}, produce_in={C: 1}),
    ]
    tr = run(one_region(rules, [("eat", "also")], {A: 3}), max_steps=3,
             strict=True)
    assert tr.ambiguities == []


def test_partial_share_is_not_flagged():
    # also still fires once; only full starvation is ambiguous.
    rules = [
        rule("eat", consume_in={A: 2}, produce_in={B: 1}),
        rule("also", consume_in={A: 1}, produce_in={C: 1}),
    ]
    tr = run(one_region(rules, (), {A: 3}), max_steps=3, strict=True)
    assert fired(tr, "also", 1) == 1
    assert tr.ambiguities == []


# ============================================================
# Structural validation
# ============================================================


def rejected(bad, twin, match):
    """bad raises on a cold plan cache, and again once twin, a valid system
    of the same shape, has compiled."""
    for warm in (False, True):
        engine._PLAN = None
        if warm:
            compile_system(twin)
        with pytest.raises(StructureError, match=match):
            compile_system(bad)


def test_duplicate_membrane_label_rejected():
    rejected(PSystem(MembraneNode("s", children=[MembraneNode("s")]), []),
             PSystem(MembraneNode("s", children=[MembraneNode("t")]), []),
             "duplicate membrane")


def test_env_label_reserved():
    rejected(PSystem(MembraneNode(ENV_LABEL), []),
             PSystem(MembraneNode("e"), []), "reserved")


def test_duplicate_rule_id_rejected():
    rejected(region_system([rule("r", consume_in={A: 1}),
                            rule("r", consume_in={B: 1})]),
             region_system([rule("r", consume_in={A: 1}),
                            rule("q", consume_in={B: 1})]),
             "duplicate rule id")


def test_consume_nothing_rejected():
    rejected(region_system([rule("r", produce_in={A: 1})]),
             region_system([rule("r", consume_in={B: 1}, produce_in={A: 1})]),
             "consumes nothing")


def test_unknown_target_rejected():
    rejected(region_system([rule("r", target="nope", consume_in={A: 1})]),
             region_system([rule("r", consume_in={A: 1})]), "unknown label")


def test_child_must_be_direct_child():
    # Both trees list p, q, r in the same order; only r's parent differs.
    def system(*children):
        return PSystem(MembraneNode("p", children=list(children)), [RuleSpec(
            id="x", target="p", consume_in={A: 1},
            child=ChildPattern("r", NEUTRAL, NEUTRAL, {B: 1}, {}))])
    rejected(system(MembraneNode("q", children=[MembraneNode("r")])),
             system(MembraneNode("q"), MembraneNode("r")), "not a child")


def test_priority_cycle_rejected():
    rules = [rule("a1", consume_in={A: 1}), rule("b1", consume_in={B: 1})]
    rejected(region_system(rules, [("a1", "b1"), ("b1", "a1")]),
             region_system(rules, [("a1", "b1")]), "cycle")


def test_priority_reflexive_rejected():
    rules = [rule("a1", consume_in={A: 1}), rule("b1", consume_in={B: 1})]
    rejected(region_system(rules, [("a1", "a1")]),
             region_system(rules, [("a1", "b1")]), "reflexive")


def test_priority_unknown_rule_rejected():
    rules = [rule("a1", consume_in={A: 1}), rule("b1", consume_in={B: 1})]
    rejected(region_system(rules, [("a1", "zz")]),
             region_system(rules, [("a1", "b1")]), "unknown rule")


def counted(**fields):
    """Rule r at p consumes a, makes b and, in its child q, turns c into
    d; fields replace those multisets, child with a (consume, produce)
    pair."""
    kw = {"consume_in": {A: 1}, "produce_in": {B: 1}, **fields}
    consume, produce = kw.pop("child", ({C: 1}, {D: 1}))
    tree = MembraneNode("p", children=[
        MembraneNode("q", contents=Multiset({C: 2}))],
        contents=Multiset({A: 2}))
    return PSystem(tree, [
        rule("r", target="p", child=ChildPattern("q", NEUTRAL, NEUTRAL,
                                                 consume, produce), **kw)])


@pytest.mark.parametrize("fields", [
    {"consume_in": {A: 0}},
    {"consume_in": {A: -1}},
    {"consume_out": {A: 2, X: -1}},
    {"consume_in": {A: 1.5}},
    {"produce_in": {B: -2}},
    {"produce_out": {B: 0}},
    {"produce_in": {B: "1"}},
    {"produce_in": {B: float("nan")}},
    {"child": ({C: 0}, {D: 1})},
    {"child": ({C: 1}, {D: -1})},
], ids=repr)
def test_rule_counts_must_be_positive_ints(fields):
    # Products alone differ from the twin's in a warm compile's patch.
    rejected(counted(**fields), counted(), "rule r: count")


def test_counts_equal_to_ints_compile_as_those_ints():
    # A plan compares counts by value, so 1.0 and True match a plan built
    # with 1; a cold compile reads them as 1 too.
    def view(csys):
        counts = [t[-1] for cr in csys.rules
                  for t in (*cr.needs, *csys.live_gives[cr.order],
                            *csys.inert_gives[cr.order])]
        return compiled_view(csys, 3), list(map(type, counts))
    want = view(compile_system(counted()))
    assert want[1] == [int] * 4
    for fields in ({"consume_in": {A: 1.0}}, {"produce_in": {B: True}},
                   {"child": ({C: 1.0}, {D: 1})}):
        assert cold_view(counted(**fields), 3) == want[0]
        for warm in (False, True):
            engine._PLAN = None
            if warm:
                compile_system(counted())
            assert view(compile_system(counted(**fields))) == want


def test_kahn_order_respects_declaration_rank():
    rules = [rule(f"r{i}", consume_in={A: 1}) for i in range(5)]
    csys = one_region(rules, [("r3", "r0")])
    order = [c.id for c in csys.ordered]
    # r3 must precede r0; everything else keeps declaration order.
    assert order == ["r1", "r2", "r3", "r0", "r4"]


# ============================================================
# Plan reuse
# ============================================================


def compiled_view(csys, budget):
    """The trace of a run on csys, and what compiling decided, by rule id.

    The last field says each rule's higher rules are csys's own rules.
    Every rule's first need is also its `slot` and `n`.
    """
    own = set(map(id, csys.rules))
    assert all((cr.slot, cr.n) == cr.takes[0] for cr in csys.rules)
    return (export_trace_text(run(csys, max_steps=budget)),
            [cr.id for cr in csys.ordered],
            [(cr.id, cr.needs, [h.id for h in cr.higher], cr.takes, cr.slot,
              cr.n, cr.rest, csys.live_gives[cr.order],
              csys.inert_gives[cr.order])
             for cr in csys.rules],
            list(csys.buckets), csys.slot_key,
            [[(csys.ordered[w[-1]].id, *w[:-1]) for w in ws]
             for ws in csys.watch],
            all(id(h) in own for cr in csys.rules for h in cr.higher))


def cold_view(sysd, budget):
    engine._PLAN = None
    return compiled_view(compile_system(sysd), budget)


def game(spec):
    budget = loop_steps_bound(spec.r_disc) * (spec.loops + 1)
    return lambda: build_gne_system(spec), budget


def parsed(spec):
    make, budget = game(spec)
    return lambda: parse_system(serialize_system(make())), budget


def mult(m, n):
    return lambda: build_mult_system(m, n), mult_steps(m) + 10


def ranked(first, second, n):
    """A rule above another whose products are first^n and second, in
    that order."""
    return lambda: region_system(
        [rule("hi", consume_in={A: 1}, produce_in={first: n, second: 1}),
         rule("lo", consume_in={A: 1}, produce_in={D: 1})],
        [("hi", "lo")], {A: 3}), 3


def eats(first, second):
    """A rule above another that consumes first and second, in that order."""
    return lambda: region_system(
        [rule("hi", consume_in={first: 1, second: 1}, produce_in={C: 1}),
         rule("lo", consume_in={A: 1}, produce_in={D: 1})],
        [("hi", "lo")], {A: 3, B: 2}), 3


@pytest.fixture
def plans(monkeypatch):
    """The plans compile_system builds from here on, in order."""
    built = []
    make = engine._Plan

    def build(*args):
        built.append(make(*args))
        return built[-1]
    monkeypatch.setattr(engine, "_Plan", build)
    return built


def test_a_warm_compile_is_a_cold_one(plans):
    # Built default and small games, a one-loop small game, the slack-fill
    # game, the multiplier, a two-rule system whose top rule's products
    # differ in count or only in order, and one whose consumed multiset
    # differs only in order.  A parsed default game (its multisets in
    # canonical order) has the built ones' plan.  Both passes mix compiles
    # that reuse the last plan with ones that build a new one.
    cases = {
        "default/1": game(sample_experiment(1, "default")),
        "default/27": game(sample_experiment(27, "default")),
        "small/2": game(sample_experiment(2, "small")),
        "small/4 one loop": game(sample_experiment(4, "small", loops=1)),
        "fill": game(load_game(str(_DATA / "fill.json"))),
        "parsed default/3": parsed(sample_experiment(3, "default")),
        "mult 5x7": mult(5, 7),
        "mult 12x3": mult(12, 3),
        "hi makes b, c": ranked(B, C, 1),
        "hi makes c, b": ranked(C, B, 1),
        "hi makes b^2, c": ranked(B, C, 2),
        "hi eats a, b": eats(A, B),
        "hi eats b, a": eats(B, A),
    }
    want = {name: cold_view(make(), budget)
            for name, (make, budget) in cases.items()}
    engine._PLAN = None
    del plans[:]
    order = [*cases, *reversed(cases)]
    for name in order:
        make, budget = cases[name]
        assert compiled_view(compile_system(make()), budget) == want[name], name
    assert len(plans) < len(order)


def test_games_of_one_shape_share_all_but_their_coefficient_rules():
    engine._PLAN = None
    one = compile_system(build_gne_system(sample_experiment(1, "default")))
    other = compile_system(build_gne_system(sample_experiment(27, "default")))
    assert one.rules is other.rules and len(other.rules) == 1976
    # The kickoff and the pricing rules carry the coefficients; a pricing
    # row the two games happen to share keeps the plan's products.
    own = [cr.id for cr in one.rules
           if (one.live_gives[cr.order], one.inert_gives[cr.order])
           != (other.live_gives[cr.order], other.inert_gives[cr.order])]
    assert own[0] == "S1R02" and len(own) > 1
    assert all(rid.startswith("S1R07_") for rid in own[1:])
    assert len(own) <= 9


def test_a_built_game_and_a_parsed_one_share_a_plan(plans):
    # A parsed system lists its multisets in sorted order and a built one
    # in emission order; both compile to one plan.
    make, budget = parsed(sample_experiment(1, "default"))
    want = cold_view(make(), budget)
    engine._PLAN = None
    del plans[:]
    built = compile_system(build_gne_system(sample_experiment(2, "default")))
    csys = compile_system(make())
    assert len(plans) == 1
    assert all(a is b for a, b in zip(built.rules, csys.rules))
    assert compiled_view(csys, budget) == want


def _swap(rid, **fields):
    """An edit that replaces rule rid, in place, by a copy with fields."""
    def edit(sysd):
        at = [r.id for r in sysd.rules].index(rid)
        sysd.rules[at] = sysd.rules[at]._replace(**fields)
    return edit


def _copy_rule(sysd):
    sysd.rules[100] = RuleSpec(*sysd.rules[100])


def _new_pair(sysd):
    sysd.priority[0] = ("S1R05", "S1R06")


# Edits of a default game, one thing at a time, and whether each builds a
# new plan once a game of its shape has compiled.
_ONE_EDIT = {
    "equal copy of a rule": (_copy_rule, 0),
    "consumed count": (_swap("S5R39_k01_i03_n000",
                             consume_in={sym("iter", 0): 2}), 1),
    "products only": (_swap("S5R39_k01_i03_n000",
                            produce_in={sym("stamp", 1): 7}), 0),
    "priority reordered": (lambda sysd: sysd.priority.reverse(), 0),
    "priority pair replaced": (_new_pair, 1),
}


@pytest.mark.parametrize("name, kind", [
    *(pytest.param(name, game, id=name) for name in _ONE_EDIT),
    *(pytest.param(name, parsed, id=f"parsed, {name}") for name in _ONE_EDIT)])
def test_a_plan_check_compares_what_is_not_the_plans_own(plans, name, kind):
    # A rule equal in value to the plan's at its place matches it whole,
    # be it the plan's own object, an equal copy or a parsed twin; only a
    # rule that differs has its conditions compared.  The priority list is
    # compared as a set.  A built game compiles first, so a parsed system
    # shares no rule object with the plan.
    edit, builds = _ONE_EDIT[name]
    make, budget = kind(sample_experiment(1, "default"))
    sysd = make()
    edit(sysd)
    want = cold_view(sysd, budget)
    engine._PLAN = None
    warm = compile_system(build_gne_system(sample_experiment(2, "default")))
    del plans[:]
    csys = compile_system(sysd)
    assert len(plans) == builds
    assert compiled_view(csys, budget) == want
    if name == "products only":
        at = {cr.id: cr.order for cr in csys.rules}["S5R39_k01_i03_n000"]
        assert ((csys.live_gives[at], csys.inert_gives[at])
                != (warm.live_gives[at], warm.inert_gives[at]))


def _setitem(ms):
    ms[A] = 1


def _delitem(ms):
    del ms[next(iter(ms), A)]


def _ior(ms):
    ms |= {A: 1}


_EDITS = {"[]=": _setitem, "del": _delitem, "|=": _ior,
          "update": lambda ms: ms.update({A: 1}),
          "pop": lambda ms: ms.pop(next(iter(ms), A)),
          "popitem": lambda ms: ms.popitem(), "clear": lambda ms: ms.clear(),
          "setdefault": lambda ms: ms.setdefault(A, 1)}
_FULL = ("r", "p", NEUTRAL, PLUS, {A: 1}, {B: 2}, {C: 1}, {D: 1},
         ChildPattern("q", NEUTRAL, MINUS, {X: 1}, {Y: 3}))
_MADE = {
    "positional": lambda: [RuleSpec(*_FULL)],
    "keywords": lambda: [RuleSpec(
        id="r", target="p", consume_out={A: 1}, produce_out={B: 2},
        consume_in={C: 1}, produce_in={D: 1},
        child=ChildPattern(label="q", consume={X: 1}, produce={Y: 3}))],
    "defaults": lambda: [RuleSpec("r", "p", child=ChildPattern("q"))],
    "_make": lambda: [RuleSpec._make(_FULL[:-1] + (ChildPattern._make(
        ("q", NEUTRAL, MINUS, {X: 1}, {Y: 3})),))],
    "_replace": lambda: [RuleSpec(*_FULL)._replace(
        consume_in={A: 2}, produce_out={}, child=_FULL[-1]._replace(
            consume={B: 1}))],
    "parse": lambda: parse_system(serialize_system(PSystem(
        MembraneNode("p", children=[MembraneNode("q")]),
        [RuleSpec(*_FULL)]))).rules,
    "build": lambda: build_gne_system(sample_experiment(1, "small")).rules,
}


@pytest.mark.parametrize("made", list(_MADE))
def test_rule_multisets_refuse_in_place_edits(made):
    # Games of one shape and compiled plans share rule objects, so no
    # multiset of a rule, however it was made, may change in place.
    for r in _MADE[made]():
        c = r.child
        for ms in (r.consume_out, r.produce_out, r.consume_in, r.produce_in,
                   *((c.consume, c.produce) if c else ())):
            was = dict(ms)
            for name, edit in _EDITS.items():
                with pytest.raises(TypeError, match="read-only"):
                    edit(ms)
                assert ms == was, name
    assert RuleSpec("r", "p").consume_in == {}


def test_copied_and_pickled_systems_run_like_their_original():
    q = MembraneNode("q", contents=Multiset({X: 1}))
    p = MembraneNode("p", children=[q], contents=Multiset({C: 1}))
    sysd = PSystem(MembraneNode("s", children=[p], contents=Multiset({A: 1})),
                   [RuleSpec(*_FULL)])
    want = export_trace_text(run(sysd, 5))
    assert want == "1 r@px1\n"
    for twin in (copy.deepcopy(sysd), pickle.loads(pickle.dumps(sysd))):
        assert export_trace_text(run(twin, 5)) == want
        assert type(twin.rules[0].child.produce) is type(_FULL[-1].produce)


def mutate(sysd):
    """Change every kind of thing a plan or a binding is made from.

    Rules refuse in-place edits, so edited rules replace them in the list.
    """
    at = {r.id: n for n, r in enumerate(sysd.rules)}
    stamp = sysd.rules[at["S5R39_k01_i03_n000"]]
    with pytest.raises(TypeError, match="read-only"):
        stamp.consume_in[sym("iter", 0)] = 2
    sysd.rules[at["S5R39_k01_i03_n000"]] = stamp._replace(
        consume_in={**stamp.consume_in, sym("iter", 0): 2},
        produce_in={**stamp.produce_in, sym("stamp", 1): 7})
    load = sysd.rules[at["S2R01_k01_i03"]]
    with pytest.raises(AttributeError):
        load.child.pre = PLUS
    with pytest.raises(TypeError, match="read-only"):
        load.child.consume[sym("apre")] = 9
    sysd.rules[at["S2R01_k01_i03"]] = load._replace(child=load.child._replace(
        pre=PLUS, consume={**load.child.consume, sym("apre"): 9}))
    sysd.tree.children[0].contents.counts[sym("tick")] = 5
    sysd.tree.children[1].children.pop()
    sysd.priority.append(("S1R05", "S1R06"))


def test_mutating_a_compiled_system_leaves_the_next_compile_alone():
    make, budget = game(sample_experiment(1, "default"))
    want = cold_view(make(), budget)
    engine._PLAN = None
    # The first compile builds the plan from its system, the second
    # reuses it; each compiled system and the next twin stay as cold.
    for _ in range(2):
        csys = compile_system(make())
        mutate(csys.source)
        assert compiled_view(csys, budget) == want
        twin = compile_system(make())
        assert all(a is b for a, b in zip(csys.rules, twin.rules))
        assert compiled_view(twin, budget) == want
