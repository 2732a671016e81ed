"""Game specs, validation, and the integer coefficient tables."""

from __future__ import annotations

import json
import math
import re
from dataclasses import asdict

import numpy as np
import pytest

import pgne.builder as builder
from pgne.builder import (MICRO, GameError, GameSpec, RuleTag, _rid, build_gne_system,
                          build_mult_system, coefficient_matrices,
                          initial_distribution, load_game, payoff_coefficients,
                          quantize, rule_tag, save_game, validate_game)
from pgne.engine import MINUS, NEUTRAL, PLUS, PSystem
from pgne.harness import sample_experiment
from pgne.pspec import serialize_system
from pgne.symbols import sym
from test_gne import _DATA


def good_spec() -> GameSpec:
    return GameSpec(players=2, slots=3, strategies=[[1, 3], [2, 3]],
                    d_diag=[0.5, 0.25, 1.0], j_bar=[3.0, 2.5, 2.0],
                    alpha=[[2.0, 4.0], [1.5, 3.5]],
                    beta=[[0.1, 0.2], [0.3, 0.4]],
                    mass=[3.5, 3.25], r_disc=100, loops=5)


# ============================================================
# Validation and persistence
# ============================================================


def test_good_spec_validates_clean():
    assert validate_game(good_spec()) == []


@pytest.mark.parametrize("mutate,needle", [
    (lambda s: setattr(s, "players", 0), "players"),
    (lambda s: setattr(s, "r_disc", 1), "r_disc"),
    (lambda s: setattr(s, "loops", 0), "loops"),
    (lambda s: s.strategies[0].reverse(), "ascending"),
    (lambda s: s.strategies.__setitem__(0, [2]), "at least 2"),
    (lambda s: s.strategies[1].append(9), "outside"),
    (lambda s: s.d_diag.pop(), "length"),
    (lambda s: s.alpha[0].pop(), "length must match"),
    (lambda s: s.beta[1].__setitem__(0, 0.00003), "not quantized"),
    (lambda s: s.d_diag.__setitem__(0, -0.5), ">= 0"),
    (lambda s: s.mass.__setitem__(0, 0.0), "> 0"),
    (lambda s: s.mass.__setitem__(0, math.inf), "mass value inf is not finite"),
    (lambda s: s.d_diag.__setitem__(1, math.nan),
     "d_diag value nan is not finite"),
    (lambda s: s.mass.__setitem__(0, 1e305), "mass value 1e+305 is too large"),
])
def test_validation_catches(mutate, needle):
    s = good_spec()
    mutate(s)
    assert any(needle in msg for msg in validate_game(s))


@pytest.mark.parametrize("name", ["alpha", "beta"])
def test_negative_entries_give_one_diagnostic_per_field(name):
    # A default game has three rows, each with a negative entry here.
    s = sample_experiment(1, "default")
    setattr(s, name, [[-1.0] * len(row) for row in getattr(s, name)])
    assert validate_game(s) == [f"{name} entries must be >= 0"]


def test_save_load_round_trip(tmp_path):
    path = str(tmp_path / "game.json")
    s = good_spec()
    save_game(s, path)
    t = load_game(path)
    assert t == s
    save_game(t, path)
    assert load_game(path) == s


def _write_game(tmp_path, **fields) -> str:
    doc = asdict(good_spec())
    doc.update(fields)
    path = tmp_path / "game.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("fields,needle", [
    ({"players": "2"}, "players value '2' is not a number"),
    ({"loops": True}, "loops value True is not a number"),
    ({"strategies": [[1, "3"], [2, 3]]}, "strategies value '3' is not a number"),
    ({"mass": ["3.5", 3.25]}, "mass value '3.5' is not a number"),
    ({"alpha": [[2.0, False], [1.5, 3.5]]}, "alpha value False is not a number"),
])
def test_load_refuses_strings_and_bools(fields, needle, tmp_path):
    with pytest.raises(GameError, match=re.escape(needle)):
        load_game(_write_game(tmp_path, **fields))


def test_load_accepts_whole_floats_for_integer_fields(tmp_path):
    path = _write_game(tmp_path, players=2.0, strategies=[[1.0, 3], [2, 3.0]],
                       r_disc=100.0, loops=5.0)
    assert load_game(path) == good_spec()


@pytest.mark.parametrize("game", sorted(_DATA.glob("*.json")),
                         ids=lambda p: p.stem)
def test_save_game_reproduces_data_files(game, tmp_path):
    path = tmp_path / "game.json"
    save_game(load_game(str(game)), str(path))
    assert path.read_bytes() == game.read_bytes()


def test_quantize():
    assert quantize(0.123456) == 0.1235
    assert quantize(2.0) == 2.0


# ============================================================
# Initial split of the population
# ============================================================


def test_initial_distribution_shapes():
    assert initial_distribution(2, 100) == [50, 50]
    assert initial_distribution(3, 100) == [33, 33, 34]
    assert initial_distribution(7, 100) == [14, 14, 14, 14, 14, 14, 16]
    for n in range(2, 12):
        dist = initial_distribution(n, 100)
        assert sum(dist) == 100
        assert all(d > 0 for d in dist)


# ============================================================
# Integer coefficients
# ============================================================


def test_coefficient_values_by_hand():
    s = good_spec()
    co = payoff_coefficients(s)
    # pairs: (1,1) (1,3) (2,2) (2,3); all indices 1-based below.
    assert co.pairs == [(1, 1), (1, 3), (2, 2), (2, 3)]
    # kappa_l = R * (j_bar[slot] + beta), e.g. 100 * (3.0 + 0.1) = 310.
    assert co.kappa == [310, 220, 280, 240]
    # self_l = floor((2 d + alpha) * mass_owner):
    # l=1: (1.0 + 2.0) * 3.5 = 10.5 -> 10
    assert co.self_[0] == 10
    # l=4: (2.0 + 3.5) * 3.25 = 17.875 -> 17
    assert co.self_[3] == 17
    # Shared slot 3 cross terms carry the owner's mass:
    # receiver l=4 from owner l=2: 1.0 * 3.5 = 3.5 -> 3
    assert co.cross[3][1] == 3
    # receiver l=2 from owner l=4: 1.0 * 3.25 = 3.25 -> 3
    assert co.cross[1][3] == 3
    # No interaction across different slots.
    assert co.cross[0][2] == 0 and co.cross[2][0] == 0


def test_linear_row_carries_owner_mass():
    # Regression: every off-diagonal production entry for one token of
    # strategy l must use l's own mass, not the receiver's.
    for seed in (11, 23, 31):
        spec = sample_experiment(seed, "default")
        co = payoff_coefficients(spec)
        dq = [round(x * MICRO) for x in spec.d_diag]
        mq = [round(x * MICRO) for x in spec.mass]
        for l, (k, i) in enumerate(co.pairs, start=1):
            row = co.linear_row(l)
            want_off = (dq[i - 1] * mq[k - 1]) // (MICRO * MICRO)
            for j, (k2, i2) in enumerate(co.pairs, start=1):
                if j == l:
                    continue
                assert row[j - 1] == (want_off if i2 == i else 0)


def test_coefficients_floor_the_float_route():
    for seed in range(6):
        spec = sample_experiment(seed, "small")
        co = payoff_coefficients(spec)
        mats = coefficient_matrices(spec)
        S, alpha = mats["S"], mats["alpha"]
        mass = mats["M"].diagonal()
        n = co.n
        for l in range(n):
            exact = (S[l, l] + alpha[l]) * mass[l]
            assert co.self_[l] - 1e-6 <= exact < co.self_[l] + 1 + 1e-6
            for j in range(n):
                if j == l:
                    continue
                exact = S[j, l] * mass[l]
                assert co.cross[j][l] - 1e-6 <= exact < co.cross[j][l] + 1 + 1e-6
        assert np.allclose(mats["kappa_float"] // 1, co.kappa, atol=1 + 1e-9)


def test_interaction_matrix_identity():
    for seed in range(8):
        spec = sample_experiment(seed, "default")
        mats = coefficient_matrices(spec)
        C, D, S = mats["C"], mats["D"], mats["S"]
        lhs = C.T @ D @ C
        # The interaction matrix doubles the diagonal congestion term.
        blocks = S - lhs
        for l, (k, i) in enumerate(spec.pairs()):
            for j, (k2, i2) in enumerate(spec.pairs()):
                want = spec.d_diag[i - 1] if (k2 == k and i2 == i) else 0.0
                assert abs(blocks[j, l] - want) < 1e-12
        # Gram identity: R^T R == C^T D C for R = sqrt(D) C.
        R = np.sqrt(D) @ C
        assert np.allclose(R.T @ R, lhs, rtol=1e-9, atol=1e-12)


# ============================================================
# Built system surface
# ============================================================


def test_gne_rule_count_scales_with_loops():
    s = good_spec()
    a = build_gne_system(s)
    s.loops = 6
    b = build_gne_system(s)
    # Loop-stamped rules (and their carry-split priorities) grow with L.
    assert len(b.rules) > len(a.rules)
    assert len(b.priority) == len(a.priority) + 4  # one pair per (k, i)


def _cold_text(spec: GameSpec) -> str:
    builder._skeleton.cache_clear()
    return serialize_system(build_gne_system(spec))


def test_skeleton_reuse_is_invisible():
    # Slot 3 is shared by players 1 and 2; with no sensitivity there, their
    # pricing rules lose the zero cross products.
    flat = sample_experiment(3, "default")
    flat.d_diag[2] = 0.0
    games = [sample_experiment(1, "default"), sample_experiment(2, "small"),
             sample_experiment(27, "default"), flat]
    want = [_cold_text(g) for g in games]
    pricing = {r.id: r for r in build_gne_system(flat).rules}
    assert len(pricing["S1R07_k01_i03"].produce_in) == 1
    builder._skeleton.cache_clear()
    for g, text in [*zip(games, want), *zip(games[::-1], want[::-1])]:
        assert serialize_system(build_gne_system(g)) == text


def test_mutating_a_built_system_leaves_the_next_build_alone():
    spec = sample_experiment(1, "default")
    want = _cold_text(spec)
    sysd = build_gne_system(spec)
    at = {r.id: n for n, r in enumerate(sysd.rules)}
    # A rule refuses in-place edits; an edited rule goes into the list.
    stamp = sysd.rules[at["S5R39_k01_i03_n000"]]
    with pytest.raises(TypeError, match="read-only"):
        stamp.produce_in[sym("stamp", 1)] = 7
    sysd.rules[at["S5R39_k01_i03_n000"]] = stamp._replace(
        produce_in={**stamp.produce_in, sym("stamp", 1): 7})
    load = sysd.rules[at["S2R01_k01_i03"]]
    with pytest.raises(TypeError, match="read-only"):
        load.child.produce[sym("apre")] = 9
    sysd.rules[at["S2R01_k01_i03"]] = load._replace(child=load.child._replace(
        produce={**load.child.produce, sym("apre"): 9}))
    sysd.tree.children[0].contents.counts[sym("tick")] = 5
    sysd.tree.children[1].children.pop()
    sysd.priority.append(("S1R05", "S1R06"))
    sysd.rules.pop()
    assert serialize_system(build_gne_system(spec)) == want


def test_an_unused_slot_keeps_the_shape():
    # No rule or membrane reads the slot count, so one more slot that no
    # player uses reuses the skeleton and builds the same bytes.
    game, wide = sample_experiment(27, "default"), sample_experiment(27, "default")
    wide.slots += 1
    wide.d_diag.append(0.5)
    wide.j_bar.append(1.0)
    builder._skeleton.cache_clear()
    want = serialize_system(build_gne_system(game))
    assert serialize_system(build_gne_system(wide)) == want
    assert builder._skeleton.cache_info().misses == 1


def _stage_outputs(spec: GameSpec):
    """(stage function, its rules, its priority pairs) for spec's shape."""
    sh = builder._shape(tuple(map(tuple, spec.strategies)), spec.r_disc,
                        spec.loops)
    out = []
    for fill in builder._STAGES:
        rules, priority = [], []
        fill(sh, rules, priority)
        out.append((fill, rules, priority))
    rules = []
    labels = PSystem(builder._tree(sh), []).labels()
    builder._waste_collectors(sh, labels, rules)
    return out + [(builder._waste_collectors, rules, [])]


@pytest.mark.parametrize("seed, preset", [(1, "default"), (2, "small")])
def test_each_stage_function_emits_its_own_stage(seed, preset):
    spec = sample_experiment(seed, preset)
    stages = dict(zip(builder._STAGES, (1, 2, 3, 4, 5, 5)))
    ids, rules, priority = [], [], []
    for fill, own, pairs in _stage_outputs(spec):
        for r in own:
            tag = rule_tag(r.id)
            if fill is builder._waste_collectors:
                assert r.id.startswith("S1R16_"), r.id
            elif tag is None:
                assert r.id.startswith(f"S{stages[fill]}X_"), r.id
            else:
                assert tag.stage == stages[fill], r.id
        ids += [r.id for r in own]
        rules += own
        priority += pairs
    assert len(ids) == len(set(ids))
    # With the coefficient rules, the stages make up the whole system.
    sysd = build_gne_system(spec)
    coef = ["S1R02", *(_rid(1, 7, k, i) for k, i in spec.pairs())]
    assert sorted(ids + coef) == [r.id for r in sysd.rules]
    assert sorted(rules, key=lambda r: r.id) == [
        r for r in sysd.rules if r.id not in coef]
    assert sorted(priority) == sysd.priority


@pytest.mark.parametrize("preset,seeds,pricing", [
    ("default", (1, 27), 8), ("small", (2, 3), 4)])
def test_games_of_one_shape_share_rule_objects(preset, seeds, pricing):
    # Rules are immutable, so two builds share every rule object but the
    # kickoff and the pricing rules, which carry the coefficients.
    one, other = (build_gne_system(sample_experiment(s, preset)).rules
                  for s in seeds)
    assert one is not other
    assert [r.id for r in one] == [r.id for r in other]
    own = [a.id for a, b in zip(one, other) if a is not b]
    assert own[0] == "S1R02" and len(own) == 1 + pricing
    assert own[1:] == [r.id for r in one if r.id.startswith("S1R07_")]


def test_mass_must_be_positive_to_build():
    s = good_spec()
    s.mass[0] = -1.0
    assert any("> 0" in m for m in validate_game(s))


# ============================================================
# Rule tags
# ============================================================


@pytest.mark.parametrize("preset, multipliers, collectors",
                         [("default", 704, 55), ("small", 352, 29)])
def test_rule_tag_inverts_rid(preset, multipliers, collectors):
    ids = [r.id for r in build_gne_system(sample_experiment(1, preset)).rules]
    tagged = {rid: rule_tag(rid) for rid in ids}
    for rid, tag in tagged.items():
        if tag is not None:
            assert _rid(*tag) == rid
    untagged = [rid for rid, tag in tagged.items() if tag is None]
    assert sum(rid.startswith(("S2X_", "S4X_")) for rid in untagged) \
        == multipliers
    assert sum(rid.startswith("S1R16_r") for rid in untagged) == collectors
    assert len(untagged) == multipliers + collectors


# Loop stamps n each stamped family takes in a system of L loops.
_STAMPS = {39: lambda L: range(0, L), 44: lambda L: range(1, L),
           **{num: lambda L: range(1, L + 1) for num in (41, 42, 45, 47)}}

# The charges waste lands at in each region kind, as `build_gne_system`
# states them.
_SINKS = {"skin": (NEUTRAL,), "player": (NEUTRAL, MINUS),
          "MULT": (NEUTRAL, MINUS), "MULT2": (NEUTRAL, MINUS),
          "S": (NEUTRAL,), "UPD": (PLUS,)}


def region_kind(label: str) -> str:
    if label == "0":
        return "skin"
    return "player" if label.isdigit() else label.split("_")[0]


@pytest.mark.parametrize("spec", [
    sample_experiment(1, "default"), sample_experiment(1, "small"),
    sample_experiment(4, "small", loops=1), good_spec()])
def test_builder_emits_only_reachable_collectors_and_stamps(spec):
    sysd = build_gne_system(spec)
    suffix = {NEUTRAL: "c0", MINUS: "cm", PLUS: "cp"}
    want = {(f"S1R16_r{ridx:03d}_{suffix[charge]}", label, charge)
            for ridx, label in enumerate(sysd.labels(), start=1)
            for charge in _SINKS.get(region_kind(label), ())}
    waste = {sym("waste"): 1}
    assert {(r.id, r.target, r.pre) for r in sysd.rules
            if r.consume_in == waste and r.post == r.pre} == want
    stamps = {}
    for r in sysd.rules:
        tag = rule_tag(r.id)
        if tag is not None and tag.n is not None:
            stamps.setdefault(tag.num, set()).add(tag.n)
    want = {num: set(rng(spec.loops)) for num, rng in _STAMPS.items()}
    assert stamps == {num: ns for num, ns in want.items() if ns}


def test_rule_tag_fields_and_rejects():
    assert rule_tag("S5R39_k01_i03_n002") == RuleTag(5, 39, 1, 3, 2)
    assert rule_tag("S1R02") == RuleTag(1, 2, None, None, None)
    assert rule_tag("S2R10_k03") == RuleTag(2, 10, 3, None, None)
    # Widths and field order other than `_rid`'s are not its ids.
    for rid in ("S1R2", "S1R002", "S3R12_i01_k01", "S5R39_k01_i03_n02",
                "S1R16_r001_c0", "S2X_k01_i01_R01", "S1R02_"):
        assert rule_tag(rid) is None
    assert all(rule_tag(r.id) is None for r in build_mult_system(3, 5).rules)
