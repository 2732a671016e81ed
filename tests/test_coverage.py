"""Every rule family the builder emits fires, no rule is shadowed, waste
never waits, every run halts clean, and every loop takes the steps of the
builder's step law.

The corpus is the golden acceptance instances and non-preset shapes, the
rare-path games and 80 derandomized random shapes.  A family is a
`rule_tag` (stage, num), an embedded multiplier rule by its R-number, or
a waste collector by its region kind and charge.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from pgne.builder import build_mult_system, mult_steps, rule_tag, stage_steps
from pgne.engine import CRule, CompiledSystem, apply_record, compile_system
from pgne.harness import run_gne, sample_experiment
from pgne.oracle import simulate
from pgne.symbols import sym
from test_builder import region_kind
from test_gne import RARE_GAMES, game_shapes, rare_game
from test_golden import _INSTANCES, _SHAPES

_WASTE = sym("waste")


def _random_shapes():
    specs = []

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(game_shapes())
    def collect(spec):
        specs.append(spec)

    collect()
    return specs


@pytest.fixture(scope="module")
def traces():
    specs = {f"{p}/{s}": sample_experiment(s, p) for p, s in _INSTANCES}
    specs.update((name, sample_experiment(s, p))
                 for name, (p, s) in _SHAPES.items())
    specs.update((name, rare_game(name)) for name in RARE_GAMES)
    specs.update((f"random{j}", spec)
                 for j, spec in enumerate(_random_shapes()))
    return {name: run_gne(spec) for name, spec in specs.items()}


def _family(cr: CRule):
    tag = rule_tag(cr.id)
    if tag is not None:
        return tag[:2]
    if cr.id.startswith(("S2X_", "S4X_")):
        return cr.id[:3], cr.id[-3:]
    return "S1R16", region_kind(cr.target_label), cr.pre


def test_every_emitted_family_fires(traces):
    emitted, fired = set(), set()
    for trace in (res.trace for res in traces.values()):
        emitted.update(map(_family, trace.final.csys.ordered))
        fired.update(map(_family, {cr for rec in trace.records
                                   for cr, _ in rec}))
    assert sorted(emitted - fired, key=str) == []


def _shadowed(csys: CompiledSystem):
    """Ids of the rules an earlier rule of the total order shadows: one
    with the same target, pre charge, child, child pre charge and needs
    that flips no charge, so it takes all there is and leaves none."""
    first, out = set(), []
    for cr in csys.ordered:
        key = cr.target, cr.pre, cr.child, cr.child_pre, cr.needs
        if key in first:
            out.append(cr.id)
        elif not cr.flips:
            first.add(key)
    return out


def test_no_rule_is_shadowed(traces):
    systems = {name: res.trace.final.csys for name, res in traces.items()}
    systems["mult_3x5"] = compile_system(build_mult_system(3, 5))
    shadowed = {name: _shadowed(csys) for name, csys in systems.items()}
    assert {name: ids for name, ids in shadowed.items() if ids} == {}


def test_waste_never_waits(traces):
    # At every step, each region collects all the waste it holds, so no
    # waste lands in a cell without a collector.  The halted state
    # collects nothing and must hold none.
    for name, res in traces.items():
        trace = res.trace
        assert trace.halted, name
        cfg = trace.final.csys.initial_configuration()
        for rec in trace.records + [[]]:
            collected = {}
            for cr, n in rec:
                if cr.id.startswith("S1R16_"):
                    collected[cr.target] = collected.get(cr.target, 0) + n
            held = {r: c[_WASTE] for r, c in enumerate(cfg.contents)
                    if r and _WASTE in c}
            assert held == collected, (name, cfg.step)
            apply_record(cfg, rec)


def test_halt_is_clean(traces):
    # The skin keeps the results and err, the environment nothing, and a
    # strategy membrane only the ovf markers of the reference's backlog.
    ovf = sym("ovf")
    for name, res in traces.items():
        final = res.trace.final
        held = {}
        for label, region in zip(final.csys.region_labels, final.contents):
            if label == "0":
                assert {s.base for s in region} <= {"result", "err"}, name
            elif region:
                held[label] = dict(region)
        backlog = simulate(res.spec).final().backlog
        assert held == {f"S_{i}_{k}": {ovf: n}
                        for (k, i), n in backlog.items() if n}, name


def test_corpus_runs_warning_free(traces):
    assert {name: res.warnings for name, res in traces.items()
            if res.warnings} == {}


def test_step_law_exact(traces):
    # Each stage takes exactly what `stage_steps` gives at the largest
    # count of its loop's start state, and a run takes the sum of
    # 50 + 2 M_n over its loops, less the 6 restart steps of the last.
    for name, res in traces.items():
        loops = res.spec.loops
        assert [lt.loop for lt in res.timings] == list(range(1, loops + 1))
        total = -6
        for lt, z in zip(res.timings, res.states):
            top = max(z.counts.values())
            took = [(sp.stage, sp.end - sp.start + 1) for sp in lt.spans]
            law = stage_steps(top, lt.loop == loops)
            assert took == list(enumerate(law, start=1)), (name, lt.loop)
            total += 50 + 2 * mult_steps(top)
        assert res.trace.steps == total, name
