"""End-to-end agreement between the membrane run and the count oracle."""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pgne.builder import (MICRO, GameSpec, build_gne_system, load_game,
                          payoff_coefficients, stage_boundaries,
                          stage_steps)
from pgne.engine import compile_system, read_region, run
from pgne.harness import compare_engines, run_gne, sample_experiment
from pgne.oracle import simulate, trajectory_csv
from pgne.symbols import sym


def tiny_spec(loops: int = 2) -> GameSpec:
    # Degenerate pricing: no congestion, no private cost curvature.
    # The whole trajectory is driven by the beta offsets.
    return GameSpec(players=1, slots=2, strategies=[[1, 2]],
                    d_diag=[0.0, 0.0], j_bar=[0.0, 0.0],
                    alpha=[[0.0, 0.0]], beta=[[0.01, 0.02]],
                    mass=[3.0], r_disc=100, loops=loops)


# ============================================================
# Exact agreement
# ============================================================


def test_tiny_fixture_counts_and_err():
    res = run_gne(tiny_spec())
    assert res.warnings == []
    assert res.trace.halted and res.trace.halt_reason == "quiescent"
    assert res.loops_completed == 2
    # beta makes slot 2 costlier; one count migrates per loop is too
    # slow here: rates round to zero and the split stays put.
    assert res.states[1].counts == {(1, 1): 50, (1, 2): 50}
    assert res.states[2].counts == {(1, 1): 50, (1, 2): 50}
    assert all(v == 0 for v in res.states[2].err.values())


def test_tiny_fixture_against_oracle():
    rep = compare_engines(tiny_spec())
    assert rep.agree, rep.text()
    assert rep.loops_checked == 2


@pytest.mark.parametrize("preset,seed", [
    ("small", 2),      # shared-slot cross terms with distinct masses
    ("small", 26),
    ("default", 27),   # three-strategy populations, every slot shared
    ("default", 32),
])
def test_sampled_agreement(preset, seed):
    spec = sample_experiment(seed, preset, loops=6)
    rep = compare_engines(spec)
    assert rep.agree, rep.text()
    assert rep.engine_warnings == []
    assert rep.loops_checked == 6


def test_engine_csv_equals_oracle_csv():
    spec = sample_experiment(3, "small", loops=5)
    res = run_gne(spec)
    assert res.csv() == trajectory_csv(simulate(spec))


# ============================================================
# Loop anatomy
# ============================================================


def test_loop_step_counts_and_payoff_timing():
    spec = sample_experiment(27, "default", loops=4)
    res = run_gne(spec)
    assert len(res.timings) == 4
    for lt, start in zip(res.timings, res.states):
        assert lt.missing == []
        assert lt.total <= 136
        law = stage_steps(max(start.counts.values()), lt.loop == 4)
        assert [sp.end - sp.start + 1 for sp in lt.spans] == list(law)
        assert lt.payoff_step - lt.start + 1 == 8


def test_loops_are_contiguous():
    res = run_gne(sample_experiment(5, "small", loops=3))
    ts = res.timings
    assert ts[0].start == 1
    for a, b in zip(ts, ts[1:]):
        assert b.start == a.end + 1


# ============================================================
# Stress: saturating rates, population-scale overflow
# ============================================================


def test_extreme_offsets_still_agree():
    # A huge flat-cost gap makes the first update overshoot the whole
    # population, driving the overflow pooling and carry paths.
    spec = GameSpec(players=1, slots=2, strategies=[[1, 2]],
                    d_diag=[0.0, 0.0], j_bar=[0.0, 0.0],
                    alpha=[[0.0, 0.0]], beta=[[0.0, 500.0]],
                    mass=[1.0], r_disc=100, loops=2)
    rep = compare_engines(spec)
    assert rep.agree, rep.text()
    traj = simulate(spec)
    # Everyone abandons the expensive slot at once.
    assert traj.states[1].counts == {(1, 1): 100, (1, 2): 0}


def test_two_player_contested_slot_agrees():
    spec = GameSpec(players=2, slots=2, strategies=[[1, 2], [1, 2]],
                    d_diag=[0.9, 0.1], j_bar=[4.0, 2.0],
                    alpha=[[1.0, 9.0], [8.0, 2.0]],
                    beta=[[0.5, 0.1], [0.2, 0.9]],
                    mass=[3.0, 4.0], r_disc=100, loops=8)
    rep = compare_engines(spec)
    assert rep.agree, rep.text()


# ============================================================
# Stage 5's rare paths
# ============================================================

_DATA = Path(__file__).resolve().parent / "data"

# Game file: the stage-5 families it must fire, and whether err ends > 0.
# fill takes the slack fill S5R21; the err games take the surplus and
# deficit fallbacks S5R23 and S5R24, and S5R50 moves their err out.  A
# deficit needs a player's count + zdot total below 0, so that game has
# many strategies and a small R.
RARE_GAMES = {"fill": ({(5, 21)}, False),
              "surplus_err": ({(5, 23), (5, 50)}, True),
              "deficit_err": ({(5, 24), (5, 50)}, True)}


def rare_game(name: str) -> GameSpec:
    return load_game(str(_DATA / f"{name}.json"))


@pytest.mark.parametrize("name", RARE_GAMES)
def test_rare_paths_agree_exactly(name):
    families, err = RARE_GAMES[name]
    res = run_gne(rare_game(name))
    rep = compare_engines(res.spec, result=res)
    assert rep.agree and not rep.engine_warnings, rep.text()
    fired = {key[:2] for lt in res.timings for key in lt.apps}
    assert families <= fired
    assert (res.states[-1].err[1] > 0) == err


# ============================================================
# Random shapes
# ============================================================


def _quantized(lo: int, hi: int):
    """Values in [lo, hi] * 1e-4, the builder's input grid."""
    return st.integers(lo, hi).map(lambda q: q / MICRO)


@st.composite
def game_shapes(draw) -> GameSpec:
    """Random shapes beyond the presets, with zero and extreme coefficients."""
    players = draw(st.integers(1, 4))
    slots = draw(st.integers(2, 5))
    strategies = [sorted(draw(st.sets(st.integers(1, slots), min_size=2)))
                  for _ in range(players)]

    def vec(n: int, hi: int):
        # Either all zero or drawn from [0, hi] * 1e-4.
        value = draw(st.sampled_from([st.just(0.0), _quantized(0, hi)]))
        return [draw(value) for _ in range(n)]

    mass = draw(st.sampled_from([_quantized(1, 100), _quantized(1, 4 * MICRO),
                                 _quantized(100 * MICRO, 1000 * MICRO)]))
    return GameSpec(
        players=players, slots=slots, strategies=strategies,
        d_diag=vec(slots, MICRO), j_bar=[draw(_quantized(0, 4 * MICRO))
                                         for _ in range(slots)],
        alpha=[vec(len(s), 10 * MICRO) for s in strategies],
        beta=[vec(len(s), MICRO) for s in strategies],
        mass=[draw(mass) for _ in range(players)],
        r_disc=draw(st.sampled_from([2, 3, 7, 257])),
        loops=draw(st.integers(1, 4)))


# Derandomized generation repeats some shapes; 80 examples give about 50
# distinct ones, spread over every player count, slot count, r_disc and
# loop count.
@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(game_shapes())
def test_random_shapes_agree_exactly(spec: GameSpec):
    rep = compare_engines(spec)
    assert rep.agree and not rep.engine_warnings, rep.text()
    assert rep.loops_checked == spec.loops


# ============================================================
# Determinism
# ============================================================


def test_build_is_deterministic():
    spec = sample_experiment(9, "small", loops=2)
    a = build_gne_system(spec)
    b = build_gne_system(spec)
    assert [r.id for r in a.rules] == [r.id for r in b.rules]
    assert a.priority == b.priority
    assert ([c.id for c in compile_system(a).ordered]
            == [c.id for c in compile_system(b).ordered])


def test_run_is_deterministic():
    spec = sample_experiment(9, "small", loops=3)
    assert run_gne(spec).csv() == run_gne(spec).csv()


def test_rule_ids_sorted_and_unique():
    sysd = build_gne_system(tiny_spec())
    ids = [r.id for r in sysd.rules]
    assert ids == sorted(ids)
    assert len(ids) == len(set(ids))


# ============================================================
# Trace audit details
# ============================================================


def test_results_stay_in_skin():
    res = run_gne(tiny_spec())
    env = read_region(res.trace.final, "@env")
    assert env.get(sym("result", 1, 1, 1, 1)) == 0
    skin = read_region(res.trace.final, "0", base="result")
    # 2 loops x 2 pairs x 50 tokens each.
    assert sum(skin.counts.values()) == 200


def test_strict_mode_flags_nothing_on_tiny():
    res = run_gne(tiny_spec(), strict=True)
    assert res.trace.ambiguities == []
