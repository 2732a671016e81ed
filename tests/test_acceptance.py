"""End-to-end acceptance gate.

One test per numbered criterion, each emitting a single
"CRITERION n: PASS/FAIL - detail" line, collected into
acceptance_report.txt next to the package root.  The report holds no
wall times, so it only changes when a result does; the timed criteria
print their measured seconds to stdout.  Tolerances are pinned
here and nowhere else.  The one known shortfall (the doubling step
bound at exact powers of two) is carried as a strict expected failure
directly below criterion 2 rather than being absorbed into it.
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, List, Tuple

import numpy as np
import pytest

from pgne.builder import (build_gne_system, build_mult_system,
                          coefficient_matrices)
from pgne.harness import (GneResult, compare_engines, mult_sweep, run_gne,
                          run_mult, sample_experiment)
from pgne.oracle import bnn_rate, excess_payoff, gne_residual, trajectory_csv
from pgne.oracle import simulate
from pgne.pspec import parse_system, serialize_system, systems_equal

_REPORT: List[str] = []

# The engine-vs-reference agreement set: every entry stays within 3
# players and 3 strategies per player, 10 loops each.
_AGREEMENT_SET = [("small", 2), ("small", 9), ("small", 15),
                  ("small", 16), ("small", 17), ("default", 27)]

# Default-preset loop-profile seeds.
_PROFILE_SEEDS = (27, 31, 32)

_GNE_CACHE: Dict[Tuple[str, int], GneResult] = {}


def _gne(preset: str, seed: int) -> GneResult:
    key = (preset, seed)
    if key not in _GNE_CACHE:
        _GNE_CACHE[key] = run_gne(sample_experiment(seed, preset))
    return _GNE_CACHE[key]


def _check(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    _REPORT.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _write_report():
    yield
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "acceptance_report.txt")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(_REPORT) + "\n")


# ============================================================
# 1. Multiplication sweep: exact products, halting, wall time
# ============================================================


def test_criterion_1_all_products_exact_under_60s():
    failures, elapsed = mult_sweep(100, 100)
    ok = failures == [] and elapsed < 60.0
    print(f"criterion 1 wall time: {elapsed:.1f}s")
    _check(1, ok,
           f"10201/10201 pairs halt with exactly m*n output units "
           f"in under 60s; failures: {len(failures)}")


# ============================================================
# 2. Multiplication step counts
# ============================================================


def _is_pow2(m: int) -> bool:
    return m & (m - 1) == 0


def test_criterion_2_step_counts():
    ok = run_mult(0, 4).steps == 5 and run_mult(1, 6).steps == 7
    bound_misses = []
    for m in range(2, 101):
        rep = run_mult(m, 1)
        ok = ok and rep.steps == 7 + 6 * (m.bit_length() - 1)
        bound = 1 + 6 * math.ceil(math.log2(m))
        if rep.steps > bound:
            bound_misses.append(m)
            ok = ok and _is_pow2(m)
        else:
            ok = ok and not _is_pow2(m)
    ok = ok and bound_misses == [2, 4, 8, 16, 32, 64]
    ok = ok and run_mult(100, 1).steps == 43
    _check(2, ok,
           "5 steps at m=0, 7 at m=1, exactly 7+6*(bitlen(m)-1) for all "
           "m<=100; 1+6*ceil(log2 m) bound holds except exact powers of "
           f"two {bound_misses} (one extra doubling round, see xfail)")


@pytest.mark.xfail(strict=True, reason=(
    "exact powers of two take one full extra doubling round, finishing "
    "exactly 6 steps past the 1+6*ceil(log2(m)) bound; see the power-of-"
    "two paragraph under Testing in README.md"))
def test_criterion_2_literal_bound_including_powers_of_two():
    for m in (2, 4, 8, 16, 32, 64):
        assert run_mult(m, 1).steps <= 1 + 6 * math.ceil(math.log2(m))


# ============================================================
# 3. Loop profile on the default preset
# ============================================================


def test_criterion_3_loop_length_and_payoff_timing():
    checked = 0
    worst = 0
    ok = True
    for seed in _PROFILE_SEEDS:
        res = _gne("default", seed)
        ok = ok and res.loops_completed == 10 and res.warnings == []
        for lt in res.timings:
            checked += 1
            worst = max(worst, lt.total)
            ok = (ok and lt.total <= 136 and lt.missing == []
                  and lt.payoff_step - lt.start + 1 == 8)
    _check(3, ok,
           f"{len(_PROFILE_SEEDS)} default-preset seeds x 10 loops: "
           f"every loop <= 136 steps (max {worst}), first payoff "
           f"objects at relative step 8 in all {checked} loops")


# ============================================================
# 4. Exact engine-vs-reference agreement
# ============================================================


def test_criterion_4_exact_count_agreement():
    t0 = time.perf_counter()
    disagreements = []
    for preset, seed in _AGREEMENT_SET:
        rep = compare_engines(sample_experiment(seed, preset),
                              result=_gne(preset, seed))
        if not rep.agree:
            disagreements.append((preset, seed, rep.first()))
    elapsed = time.perf_counter() - t0
    ok = disagreements == [] and elapsed < 300.0
    print(f"criterion 4 wall time: {elapsed:.1f}s")
    _check(4, ok,
           f"{len(_AGREEMENT_SET)} seeded instances (<=3 players, <=3 "
           f"strategies, 10 loops): per-loop counts and error pools agree "
           f"integer for integer in under 300s; "
           f"disagreements: {disagreements}")


# ============================================================
# 5. Population conservation
# ============================================================


def test_criterion_5_conservation_at_zero_error():
    checked = 0
    bad = []
    for preset, seed in _AGREEMENT_SET + [("default", s)
                                          for s in _PROFILE_SEEDS]:
        res = _gne(preset, seed)
        for t, st in enumerate(res.states):
            for k in range(1, res.spec.players + 1):
                if st.err.get(k, 0) != 0:
                    continue
                checked += 1
                total = sum(c for (kk, _), c in st.counts.items() if kk == k)
                if total != res.spec.r_disc:
                    bad.append((preset, seed, t, k, total))
    ok = checked > 0 and bad == []
    _check(5, ok,
           f"{checked} zero-error population states across "
           f"{len(_AGREEMENT_SET) + len(_PROFILE_SEEDS)} runs all sum "
           f"to exactly 100; violations: {bad}")


# ============================================================
# 6. Convergence of the count dynamics
# ============================================================


def test_criterion_6_residual_convergence():
    spec = sample_experiment(1, "default", loops=20)
    rep = compare_engines(spec)
    res = run_gne(spec)
    states = res.states
    # First loop whose update moves nothing.
    first_noop = None
    for t in range(1, len(states)):
        if states[t].counts == states[t - 1].counts:
            first_noop = t
            break
    stays = first_noop is not None and all(
        states[t].counts == states[first_noop].counts
        for t in range(first_noop, len(states)))
    final = gne_residual(states[-1], spec)
    ok = (rep.agree and first_noop is not None and first_noop <= 20
          and stays and final < 0.01)
    # Frozen regression anchor for this seed.
    ok = ok and first_noop == 8
    _check(6, ok,
           f"seed-1 default run freezes at loop {first_noop} (<= 20) and "
           f"never moves again; final per-loop drift {final:.5f} < 0.01 "
           f"(one count unit); both routes agree: {rep.agree}")


# ============================================================
# 7. Real-arithmetic invariants
# ============================================================


def test_criterion_7_rate_invariants_and_gram_identity():
    rng = np.random.default_rng(0)
    max_rate_sum = 0.0
    max_orth = 0.0
    draws = 0
    for s in range(5):
        for preset in ("small", "default"):
            spec = sample_experiment(s, preset)
            sizes = [len(row) for row in spec.strategies]
            for _ in range(100):
                z = rng.uniform(0.05, 1.0, sum(sizes))
                p = rng.normal(0.0, 5.0, sum(sizes))
                at = 0
                for n in sizes:
                    z[at:at + n] /= z[at:at + n].sum()
                    at += n
                ph = excess_payoff(p, z, spec)
                rate = bnn_rate(ph, z, spec)
                at = 0
                for n in sizes:
                    max_rate_sum = max(max_rate_sum,
                                       abs(rate[at:at + n].sum()))
                    max_orth = max(max_orth,
                                   abs(z[at:at + n] @ ph[at:at + n]))
                    at += n
                draws += 1
    max_gram = 0.0
    specs = 0
    for s in range(50):
        for preset in ("small", "default"):
            mats = coefficient_matrices(sample_experiment(s, preset))
            C, D = mats["C"], mats["D"]
            root = np.sqrt(D) @ C
            max_gram = max(max_gram,
                           float(np.abs(root.T @ root - C.T @ D @ C).max()))
            specs += 1
    ok = (draws == 1000 and max_rate_sum < 1e-12 and max_orth < 1e-12
          and specs == 100 and max_gram < 1e-9)
    _check(7, ok,
           f"{draws} random draws: max |sum of rates| {max_rate_sum:.2e} "
           f"and max |z . excess payoff| {max_orth:.2e} (both < 1e-12); "
           f"{specs} random coefficient sets: Gram identity error "
           f"{max_gram:.2e} < 1e-9")


# ============================================================
# 8. Determinism and format round trips
# ============================================================


def test_criterion_8_determinism_and_round_trips():
    spec = sample_experiment(6, "small", loops=4)
    first = run_gne(spec).csv()
    rerun_same = run_gne(spec).csv() == first
    oracle_same = trajectory_csv(simulate(spec)) == first
    big = _gne("default", 27)
    big_same = (run_gne(sample_experiment(27, "default")).csv()
                == big.csv() == trajectory_csv(simulate(big.spec)))

    trips = 0
    trip_ok = True
    sysd = build_mult_system(7, 9)
    trip_ok = systems_equal(parse_system(serialize_system(sysd)), sysd)
    trips += 1
    for s in range(12):
        sysd = build_gne_system(sample_experiment(s, "small", loops=2))
        trip_ok = trip_ok and systems_equal(
            parse_system(serialize_system(sysd)), sysd)
        trips += 1
    for s in range(8):
        sysd = build_gne_system(sample_experiment(s, "default", loops=2))
        trip_ok = trip_ok and systems_equal(
            parse_system(serialize_system(sysd)), sysd)
        trips += 1
    ok = rerun_same and oracle_same and big_same and trip_ok and trips == 21
    _check(8, ok,
           f"same-seed reruns byte-identical and equal to the reference "
           f"trajectory on both presets; {trips}/21 serialize/parse round "
           f"trips structurally equal (1 multiplier + 20 sampled systems)")
