"""Tests for the benchmark's own helpers and a one-op smoke run per workload."""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pgnebench  # noqa: E402
import run as bench_run  # noqa: E402
from pgne import (PLUS, MembraneNode, Multiset, PSystem, RuleSpec,  # noqa: E402
                  apply_record, build_gne_system, compile_system,
                  export_trace_text, run_gne, sample_experiment,
                  stage_boundaries, sym)


def test_tail_has_ten_samples_beyond_it():
    rng = random.Random(7)
    for n in (11, 12, 20, 57, 1000):
        xs = rng.sample(range(10 * n), n)
        value, pct = pgnebench.tail(xs)
        beyond = sum(x > value for x in xs)
        assert beyond == 10
        assert pct == pytest.approx(100.0 * (n - 10) / n)
        assert value == sorted(xs)[n - 11]
    assert pgnebench.tail(list(range(10))) is None


def two_rule_system() -> PSystem:
    """Rule a flips membrane 1 from neutral to plus; rule b needs plus."""
    b = sym("b")
    inner = MembraneNode("1", contents=Multiset.of((b, 3)))
    skin = MembraneNode("0", children=[inner])
    rules = [
        RuleSpec("a", "1", pre=0, post=PLUS, consume_in={b: 1}, produce_in={b: 1}),
        RuleSpec("b", "1", pre=PLUS, post=PLUS, consume_in={b: 1}),
    ]
    return PSystem(skin, rules)


def live_bucket_sizes(csys, charges) -> int:
    return sum(len(rules) for (region, charge), rules in csys.buckets.items()
               if charges[region] == charge)


def test_candidate_count_is_live_bucket_sizes():
    csys = compile_system(two_rule_system())
    cfg = csys.initial_configuration()
    assert pgnebench.candidate_count(csys, cfg.charges) == 1
    trace, rp = pgnebench.replay(csys, None, 10)
    assert trace.halted and trace.steps == 2
    assert [[cr.id for cr, _ in rec] for rec in trace.records] == [["a"], ["b"]]
    cfg = csys.initial_configuration()
    for rec, counted in zip(trace.records, rp.candidates):
        assert counted == live_bucket_sizes(csys, cfg.charges) == 1
        apply_record(cfg, rec)
    assert list(rp.apps) == [1, 1]


def test_stage_attribution_sums_to_steps():
    spec = sample_experiment(3, "small", loops=2)
    result = run_gne(spec)
    csys = compile_system(build_gne_system(spec))
    trace, rp = pgnebench.replay(csys, None, 200 * (spec.loops + 1))
    assert export_trace_text(trace) == export_trace_text(result.trace)
    steps, secs = pgnebench.stage_totals(stage_boundaries(trace), rp.step_s)
    assert sum(steps.values()) == trace.steps == result.trace.steps
    assert sum(secs.values()) == pytest.approx(sum(rp.step_s))
    assert all(steps[s] > 0 for s in pgnebench.STAGES)


def benchmark_names(kind: str):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


@pytest.mark.parametrize("name", sorted(pgnebench.WORKLOADS))
def test_one_op_smoke(name):
    wl = pgnebench.WORKLOADS[name](5)
    tracer = pgnebench.Tracer()
    pgnebench.warm_up(wl, tracer.call)
    res = pgnebench.run_ops(wl, 1e-3)
    assert res.attempted >= 1 and res.failed == 0
    gated, _ = bench_run.end_to_end(res, [1.0])
    assert sorted(gated) == sorted(benchmark_names("end_to_end"))

    sid = tracer.open("op", 0)
    out = wl.op(wl.inputs[0], tracer.call)
    tracer.close(sid)
    assert out.ok and wl.check(out)
    op = pgnebench.trace_op(wl, out, tracer, 0)
    assert op.matches
    metrics = pgnebench.layer_metrics(tracer, [op], res.latencies, res.latencies)
    assert sorted(metrics) == sorted(benchmark_names("per_layer"))
