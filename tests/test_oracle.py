"""Reference-route checks: real-valued identities and count-exact policy."""

from __future__ import annotations

import numpy as np
import pytest

from pgne import GameSpec, coefficient_matrices, payoff_coefficients
from pgne.oracle import (StateZ, bnn_rate, count_round, discrete_update,
                         excess_payoff, gne_residual, initial_state, payoff,
                         payoff_counts, rate_counts, simulate, trajectory_csv)


def two_player_spec(**over):
    base = dict(players=2, slots=3,
                strategies=[[1, 3], [2, 3]],
                d_diag=[0.5, 0.25, 1.0],
                j_bar=[2.0, 3.0, 2.5],
                alpha=[[1.0, 2.0], [3.0, 4.0]],
                beta=[[0.1, 0.2], [0.3, 0.4]],
                mass=[3.0, 4.0],
                r_disc=100, loops=5)
    base.update(over)
    return GameSpec(**base)


def flat_spec():
    # Two identical strategies per player: an exact symmetric rest point.
    return GameSpec(players=1, slots=2, strategies=[[1, 2]],
                    d_diag=[0.0, 0.0], j_bar=[1.0, 1.0],
                    alpha=[[0.0, 0.0]], beta=[[0.5, 0.5]],
                    mass=[3.0], r_disc=100, loops=4)


# ============================================================
# Real route
# ============================================================


def test_payoff_zero_parameters():
    spec = two_player_spec(d_diag=[0.0] * 3, j_bar=[0.0] * 3,
                           alpha=[[0.0] * 2] * 2, beta=[[0.0] * 2] * 2)
    z = np.array([0.3, 0.7, 0.5, 0.5])
    assert np.allclose(payoff(spec, z), 0.0)


def test_payoff_constant_part():
    spec = two_player_spec()
    got = payoff(spec, np.zeros(4))
    mats = coefficient_matrices(spec)
    want = -(mats["C"].T @ np.asarray(spec.j_bar)) - mats["beta"]
    assert np.allclose(got, want)


def test_payoff_decomposition_identity():
    # Direct form vs price-function route must agree to 1e-9.
    spec = two_player_spec()
    mats = coefficient_matrices(spec)
    C, D, M = mats["C"], mats["D"], mats["M"]
    rng = np.random.default_rng(7)
    for _ in range(10):
        z = rng.uniform(0, 1, 4)
        direct = payoff(spec, z)
        mz = M @ z
        price = D @ (C @ mz) + np.asarray(spec.j_bar)
        own = np.zeros(4)
        off = 0
        for k in range(1, 3):
            nk = len(spec.strategies[k - 1])
            Ck = C[:, off:off + nk]
            own[off:off + nk] = (Ck.T @ D @ Ck) @ mz[off:off + nk]
            off += nk
        alt = -(C.T @ price) - own - mats["alpha"] * mz - mats["beta"]
        assert np.allclose(direct, alt, atol=1e-9)


def test_excess_payoff_basics():
    spec = two_player_spec()
    z = np.array([0.4, 0.6, 0.2, 0.8])
    p = np.array([5.0, 5.0, -2.0, -2.0])
    assert np.allclose(excess_payoff(p, z, spec), 0.0)
    z2 = np.array([1.0, 0.0, 0.0, 1.0])
    ph = excess_payoff(np.array([3.0, 9.0, 4.0, 1.0]), z2, spec)
    assert ph[0] == pytest.approx(0.0)
    assert ph[3] == pytest.approx(0.0)


def test_excess_payoff_orthogonality():
    spec = two_player_spec()
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.uniform(0, 1, 4)
        z[0:2] /= z[0:2].sum()
        z[2:4] /= z[2:4].sum()
        p = rng.normal(0, 10, 4)
        ph = excess_payoff(p, z, spec)
        assert abs(z[0:2] @ ph[0:2]) < 1e-12 * max(1, np.abs(p).max())
        assert abs(z[2:4] @ ph[2:4]) < 1e-12 * max(1, np.abs(p).max())


def test_bnn_rate_rest_and_example():
    spec = two_player_spec()
    z = np.array([0.5, 0.5, 0.5, 0.5])
    assert np.allclose(bnn_rate(np.array([-1.0, -2.0, 0.0, -0.5]), z, spec), 0.0)
    ph = np.array([1.0, -1.0, 0.0, 0.0])
    got = bnn_rate(ph, z, spec)
    assert np.allclose(got[0:2], [0.5, -0.5])


def test_bnn_rate_sums_to_zero():
    spec = two_player_spec()
    rng = np.random.default_rng(11)
    for _ in range(50):
        z = rng.uniform(0, 1, 4)
        z[0:2] /= z[0:2].sum()
        z[2:4] /= z[2:4].sum()
        ph = rng.normal(0, 5, 4)
        rate = bnn_rate(ph, z, spec)
        assert abs(rate[0:2].sum()) < 1e-12
        assert abs(rate[2:4].sum()) < 1e-12


# ============================================================
# Count route
# ============================================================


def test_count_round():
    assert count_round(150, 100) == 1
    assert count_round(151, 100) == 2
    assert count_round(50, 100) == 0
    assert count_round(51, 100) == 1
    assert count_round(0, 100) == 0
    assert count_round(300, 100) == 3


def upd(counts, zdot, spec):
    state = StateZ(dict(counts), {1: 0})
    keyed = {(1, i): v for i, v in zdot.items()}
    out = discrete_update(state, keyed, spec)
    return {i: out.counts[(1, i)] for i in spec.strategies[0]}, out.err[1]


def test_update_fixed_point():
    spec = GameSpec(players=1, slots=3, strategies=[[1, 2, 3]],
                    d_diag=[0.0] * 3, j_bar=[0.0] * 3, alpha=[[0.0] * 3],
                    beta=[[0.0] * 3], mass=[1.0])
    got, err = upd({(1, 1): 33, (1, 2): 33, (1, 3): 34},
                   {1: 0, 2: 0, 3: 0}, spec)
    assert got == {1: 33, 2: 33, 3: 34}
    assert err == 0


def two_strat_spec():
    return GameSpec(players=1, slots=2, strategies=[[1, 2]],
                    d_diag=[0.0] * 2, j_bar=[0.0] * 2, alpha=[[0.0] * 2],
                    beta=[[0.0] * 2], mass=[1.0])


def test_update_cancelling_overflow():
    got, err = upd({(1, 1): 50, (1, 2): 50}, {1: 60, 2: -60}, two_strat_spec())
    assert got == {1: 100, 2: 0}
    assert err == 0


def test_update_excess_then_truncate():
    # Excess 10 fills strategy 2's headroom, then the final forced total
    # truncates in ascending order: all 100 land on strategy 1.
    got, err = upd({(1, 1): 50, (1, 2): 50}, {1: 60, 2: 0}, two_strat_spec())
    assert got == {1: 100, 2: 0}
    assert err == 0


def test_update_deficit_drain():
    got, err = upd({(1, 1): 40, (1, 2): 60}, {1: -50, 2: 0}, two_strat_spec())
    # Deficit 10 drains strategy 2 to 50; the forced total then credits
    # the 50-token shortfall to the first strategy.
    assert got == {1: 50, 2: 50}
    assert err == 0


def test_update_conserves_total():
    spec = two_strat_spec()
    rng = np.random.default_rng(5)
    for _ in range(200):
        a = int(rng.integers(0, 101))
        counts = {(1, 1): a, (1, 2): 100 - a}
        zdot = {1: int(rng.integers(-150, 151)),
                2: int(rng.integers(-150, 151))}
        got, err = upd(counts, zdot, spec)
        assert sum(got.values()) == 100
        assert err >= 0


def test_payoff_counts_match_real_route():
    # Integer templates approximate R * (-payoff) within accumulated floors.
    spec = two_player_spec()
    co = payoff_coefficients(spec)
    state = initial_state(spec)
    pt = payoff_counts(spec, co, state.counts)
    z = state.fractions(spec)
    real = -payoff(spec, z) * spec.r_disc
    for l in range(4):
        assert abs(pt[l] - real[l]) <= 4 + 0.02 * abs(real[l])


def test_simulate_shapes_and_conservation():
    spec = two_player_spec()
    traj = simulate(spec)
    assert len(traj.states) == spec.loops + 1
    for state in traj.states:
        for k in (1, 2):
            assert state.population(spec, k) == 100
    none = simulate(two_player_spec(loops=0))
    assert len(none.states) == 1


def test_rest_point_stability():
    spec = flat_spec()
    traj = simulate(spec)
    assert gne_residual(traj.states[0], spec) == 0.0
    for state in traj.states:
        assert state.counts == traj.states[0].counts
        assert all(v == 0 for v in state.err.values())


def test_residual_positive_off_equilibrium():
    spec = two_player_spec()
    assert gne_residual(initial_state(spec), spec) > 0.0


def test_trajectory_csv_shape():
    traj = simulate(two_player_spec(loops=2))
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "loop,k,i,l,count,err_k"
    assert len(lines) == 1 + 3 * 4
    assert text.endswith("\n")
    assert lines[1].startswith("0,1,1,1,")


def test_rate_counts_pipeline_consistency():
    spec = two_player_spec()
    co = payoff_coefficients(spec)
    state = initial_state(spec)
    p_tilde, p_hat, rate = rate_counts(spec, co, state.counts)
    for k in (1, 2):
        for i in spec.strategies[k - 1]:
            assert rate.q[(k, i)] == max(
                0, p_hat[k] - p_tilde[co.l_of[(k, i)] - 1])
            assert rate.dzp[(k, i)] * rate.dzn[(k, i)] == 0
