"""Multiplier subsystem against hand-computed transition records.

The per-step rule applications below were derived by executing the rule
table by hand for the small operand cases; they pin down the engine's
greedy order, priority blocking, and charge staging all at once.
"""

from __future__ import annotations

import pytest

from pgne import (ENV_LABEL, build_mult_system, compile_system, mult_steps,
                  read_region, run, sym)
from test_engine import step_and_replay


def apps(trace, t):
    """Sorted (rule_id, count) applications at 1-based transition t."""
    return sorted((cr.id, k) for cr, k in trace.records[t - 1])


def check_records(trace, expected):
    assert trace.steps == len(expected)
    for t, want in enumerate(expected, start=1):
        assert apps(trace, t) == sorted(want), f"transition {t}"


# ============================================================
# Frozen transition records
# ============================================================


def test_zero_multiplicand():
    # No pairs, no odd marker: the round marker escapes and shuts down.
    trace = run(build_mult_system(0, 3), max_steps=50)
    check_records(trace, [
        [("RS01", 1), ("RS19", 3)],
        [("RS18", 1), ("RS20", 3)],
        [("RS21", 3), ("RS43", 1)],
        [("RS37", 1), ("RS44", 3)],
        [("RS39", 1)],
    ])
    assert trace.halted and trace.halt_reason == "quiescent"
    env = read_region(trace.final, ENV_LABEL)
    assert env.get(sym("unit")) == 0
    assert env.get(sym("fin")) == 1


def test_one_times_n():
    trace = run(build_mult_system(1, 2), max_steps=50)
    check_records(trace, [
        [("RS01", 1), ("RS08", 1), ("RS19", 2)],
        [("RS02", 1), ("RS15", 1), ("RS20", 2)],
        [("RS21", 2), ("RS31", 1), ("RS32", 1)],
        [("RS22", 2), ("RS33", 1), ("RS34", 1)],
        [("RS35", 1), ("RS42", 2)],
        [("RS36", 1), ("RS37", 1), ("RS41", 2)],
        [("RS38", 1), ("RS39", 1)],
    ])
    env = read_region(trace.final, ENV_LABEL)
    assert env.get(sym("unit")) == 2
    assert env.get(sym("fin")) == 1


@pytest.mark.parametrize("p", [1, 2, 5])
def test_even_first_transitions(p):
    m = 2 * p
    trace = run(build_mult_system(m, 3), max_steps=200)
    assert apps(trace, 1) == sorted([("RS01", 1), ("RS07", p), ("RS19", 3)])
    want2 = [("RS02", 1), ("RS09", p), ("RS14", 1), ("RS20", 3)]
    if 2 * p - 2:
        want2.append(("RS16", 2 * p - 2))
    assert apps(trace, 2) == sorted(want2)


@pytest.mark.parametrize("p", [1, 2, 5])
def test_odd_first_transitions(p):
    m = 2 * p + 1
    trace = run(build_mult_system(m, 3), max_steps=200)
    assert apps(trace, 1) == sorted(
        [("RS01", 1), ("RS07", p), ("RS08", 1), ("RS19", 3)])
    # The halving pair-eater takes the round marker, so the odd marker
    # leaves through the escape rule rather than the finish rule.
    assert apps(trace, 2) == sorted(
        [("RS02", 1), ("RS09", p), ("RS14", 1), ("RS16", 2 * p - 1),
         ("RS17", 1), ("RS20", 3)])


# ============================================================
# Halt time and product value
# ============================================================


def test_step_count_formula():
    for m in range(0, 101):
        trace = run(build_mult_system(m, 2), max_steps=60)
        assert trace.halted, m
        assert trace.steps == mult_steps(m), m
        env = read_region(trace.final, ENV_LABEL)
        assert env.get(sym("unit")) == 2 * m, m
        assert env.get(sym("fin")) == 1, m


@pytest.mark.parametrize("m,n", [(2, 5), (7, 13), (12, 12), (31, 4), (64, 9),
                                 (100, 100), (5, 0), (0, 0)])
def test_products(m, n):
    trace = run(build_mult_system(m, n), max_steps=60)
    assert trace.halted
    env = read_region(trace.final, ENV_LABEL)
    assert env.get(sym("unit")) == m * n
    assert env.get(sym("fin")) == 1


def test_compiled_reuse_with_overrides():
    # One compiled system can serve many operand pairs via content overrides.
    csys = compile_system(build_mult_system(0, 0))
    from pgne import Multiset
    for m, n in [(3, 4), (9, 2), (16, 1)]:
        init = {
            "0": Multiset.of((sym("mplier"), n)),
            "1": Multiset.of((sym("mcand"), m), (sym("cyc1"), 1)),
        }
        trace = run(csys, max_steps=60, initial=init)
        assert trace.halted
        env = read_region(trace.final, ENV_LABEL)
        assert env.get(sym("unit")) == m * n
        assert trace.steps == mult_steps(m)


# ============================================================
# Engine-level properties on the multiplier
# ============================================================


def test_total_order_extends_priorities():
    # Expected order: declaration order bent only by the priority edges.
    csys = compile_system(build_mult_system(6, 2))
    got = [cr.id for cr in csys.ordered]
    nums = ([1, 4, 5, 6] + list(range(7, 19)) + [2] + list(range(19, 31))
            + [31, 3] + list(range(32, 45)))
    assert got == [f"RS{nn:02d}" for nn in nums]


def test_replay_full_trace():
    assert step_and_replay(compile_system(build_mult_system(13, 7)),
                           max_steps=60)


def test_no_ambiguity_flags():
    trace = run(build_mult_system(21, 5), max_steps=60, strict=True)
    assert trace.halted
    assert trace.ambiguities == []
