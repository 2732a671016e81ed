"""Closed-loop benchmark of pgne: workloads, spans, checks and metrics.

One client, one thread: the next op starts when the previous one returns.
Each workload draws its inputs from the workload seed; the program only
ever sees the generated inputs.  The layers are reached from outside, by
timing calls into the public functions of builder, engine, pspec, oracle
and harness; nothing inside the package is instrumented.

See README.md in this directory for why each workload exists and which
end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import traceback
from array import array
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from pgne import (ENV_LABEL, CompiledSystem, LoopTiming, Trace,
                  build_gne_system, build_mult_system, compare_engines,
                  compile_system, export_trace_text, maximal_step, mult_steps,
                  parse_system, read_region, run, run_gne, sample_experiment,
                  serialize_system, simulate, stage_boundaries, sym,
                  systems_equal)

# Game seeds drawn per run; ops cycle through them.
SEED_POOL = 256
# Ops whose traces feed the byte-identity digest: the first few of every
# run, so the digest depends on the seed and the code, never on timing.
DIGEST_OPS = 8
# Operands 0..100 in steps of 9, plus every power of two and 100.
MULT_GRID = sorted(set(range(0, 101, 9)) | {1 << b for b in range(7)} | {100})
STAGES = (1, 2, 3, 4, 5)

# ============================================================
# Spans
# ============================================================


def direct(name: str, fn: Callable, *args, **kwargs):
    """Untraced layer call: no bookkeeping at all."""
    del name
    return fn(*args, **kwargs)


class Tracer:
    """Spans kept in memory: (id, parent, op, name, start, end).

    A span is opened for each traced op and closed when the op returns;
    every layer call made meanwhile becomes its child.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.op = -1
        self.parent = -1

    def open(self, name: str, op: int) -> int:
        sid = len(self.spans)
        self.spans.append([sid, self.parent, op, name, perf_counter(), 0.0])
        self.op, self.parent = op, sid
        return sid

    def close(self, sid: int) -> float:
        span = self.spans[sid]
        span[5] = perf_counter()
        self.parent = span[1]
        return span[5] - span[4]

    def call(self, name: str, fn: Callable, *args, **kwargs):
        t0 = perf_counter()
        out = fn(*args, **kwargs)
        t1 = perf_counter()
        self.spans.append([len(self.spans), self.parent, self.op, name, t0, t1])
        return out

    def durations(self, name: str) -> List[float]:
        return [s[5] - s[4] for s in self.spans if s[3] == name]

    def csv(self) -> str:
        lines = ["id,parent,op,name,start_s,end_s"]
        for sid, parent, op, name, t0, t1 in self.spans:
            lines.append(f"{sid},{parent},{op},{name},{t0:.9f},{t1:.9f}")
        return "\n".join(lines) + "\n"


# ============================================================
# Workloads
# ============================================================


@dataclass
class Outcome:
    """What one op produced, enough to check it and to replay its run."""

    ok: bool
    csys: CompiledSystem
    trace: Optional[Trace] = None  # the op's own run, if it steps
    initial: Optional[dict] = None  # contents that run started from
    budget: int = 0  # the step budget that run had
    text: str = ""  # the serialized system, if the op writes one

    @property
    def steps(self) -> int:
        return self.trace.steps if self.trace is not None else 0

    def digest_text(self) -> str:
        """The op's bytes for the identity digest: its trace, else its spec."""
        return export_trace_text(self.trace) if self.trace is not None else self.text


class Workload:
    """Inputs drawn from a seed, shared set-up, one op, and a late check."""

    name = ""
    staged = False  # the op's trace has loop stages to attribute
    inputs: list
    warm_inputs: list

    def prepare(self, call: Callable) -> None:
        """Set-up shared by every op; `call` wraps its layer calls."""

    def op(self, x, call: Callable) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome) -> bool:
        """A check run after the op's latency is taken."""
        return True


class GamePool(Workload):
    """Ops cycle through game seeds drawn from the workload seed."""

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self.inputs = [rng.getrandbits(31) for _ in range(SEED_POOL)]
        self.warm_inputs = [rng.getrandbits(31)]


class GneDefault(GamePool):
    """Sample a default game, build, compile, run both routes, compare."""

    name = "gne-default"
    staged = True

    def op(self, seed: int, call: Callable) -> Outcome:
        spec = call("harness.sample_experiment", sample_experiment, seed, "default")
        sysd = call("builder.build_gne_system", build_gne_system, spec)
        csys = call("engine.compile_system", compile_system, sysd)
        result = call("harness.run_gne", run_gne, spec)
        traj = call("oracle.simulate", simulate, spec)
        report = call("harness.compare_engines", compare_engines, spec,
                      result=result, traj=traj)
        # run_gne's budget: 200 steps per loop, one loop spare.
        return Outcome(report.agree and not report.engine_warnings, csys,
                       result.trace, budget=200 * (spec.loops + 1))


class MultSweep(Workload):
    """One m x n product on a shared compiled multiplier, as mult_sweep runs it."""

    name = "mult-sweep"

    def __init__(self, seed: int) -> None:
        pairs = [(m, n) for m in MULT_GRID for n in MULT_GRID]
        random.Random(seed).shuffle(pairs)
        self.inputs = pairs
        self.warm_inputs = pairs[:100]
        self.csys: Optional[CompiledSystem] = None
        self.mcand, self.cyc, self.mplier = sym("mcand"), sym("cyc1"), sym("mplier")
        self.unit = sym("unit")

    def prepare(self, call: Callable) -> None:
        sysd = call("builder.build_mult_system", build_mult_system, 0, 0)
        self.csys = call("engine.compile_system", compile_system, sysd)

    def op(self, mn: Tuple[int, int], call: Callable) -> Outcome:
        m, n = mn
        want_steps = call("builder.mult_steps", mult_steps, m)
        init = {"0": {self.mplier: n}, "1": {self.mcand: m, self.cyc: 1}}
        trace = call("engine.run", run, self.csys, max_steps=want_steps + 10,
                     initial=init)
        product = read_region(trace.final, ENV_LABEL).get(self.unit)
        ok = product == m * n and trace.halted and trace.steps == want_steps
        return Outcome(ok, self.csys, trace, init, want_steps + 10)


class SpecRoundtrip(GamePool):
    """Sample a default game, build it, serialize, parse, compare, compile."""

    name = "spec-roundtrip"

    def op(self, seed: int, call: Callable) -> Outcome:
        spec = call("harness.sample_experiment", sample_experiment, seed, "default")
        sysd = call("builder.build_gne_system", build_gne_system, spec)
        text = call("pspec.serialize_system", serialize_system, sysd)
        parsed = call("pspec.parse_system", parse_system, text)
        equal = call("pspec.systems_equal", systems_equal, sysd, parsed)
        csys = call("engine.compile_system", compile_system, parsed)
        return Outcome(equal, csys, text=text)

    def check(self, outcome: Outcome) -> bool:
        return serialize_system(outcome.csys.source) == outcome.text


WORKLOADS = {w.name: w for w in (GneDefault, MultSweep, SpecRoundtrip)}


def warm_up(wl: Workload, call: Callable = direct) -> None:
    """Shared set-up and warm-up, everything before the first timed op.

    `call` sees the shared set-up calls, so a traced run reports them.
    """
    wl.prepare(call)
    for x in wl.warm_inputs:
        out = wl.op(x, direct)
        if not (out.ok and wl.check(out)):
            raise RuntimeError(f"{wl.name}: warm-up op {x!r} failed its check")


# ============================================================
# Per-step replay
# ============================================================


def candidate_count(csys: CompiledSystem, charges: Sequence[int]) -> int:
    """Rules maximal_step scans: the live (region, charge) bucket sizes."""
    buckets = csys.buckets
    total = 0
    for idx in range(csys.n_regions):
        got = buckets.get((idx, charges[idx]))
        if got:
            total += len(got)
    return total


@dataclass
class Replay:
    """Per-step counts and times of one op's system stepped to halt."""

    step_s: array
    candidates: array
    apps: array
    run_s: float
    timings: list = field(default_factory=list)  # stage_boundaries of the trace
    matches: bool = False


def replay(csys: CompiledSystem, initial: Optional[dict], budget: int
           ) -> Tuple[Trace, Replay]:
    """Step a fresh configuration as run() would, reading counts per step.

    The candidate count is read before each step, outside its timer.
    `run_s` sums initial_configuration and every maximal_step call,
    including the one that finds nothing to apply.
    """
    t0 = perf_counter()
    cfg = csys.initial_configuration(initial)
    run_s = perf_counter() - t0
    records = []
    step_s, cands, apps = array("d"), array("q"), array("q")
    halted = False
    for _ in range(budget):
        cand = candidate_count(csys, cfg.charges)
        t0 = perf_counter()
        rec = maximal_step(cfg)
        dt = perf_counter() - t0
        run_s += dt
        if not rec:
            halted = True
            break
        records.append(rec)
        step_s.append(dt)
        cands.append(cand)
        apps.append(len(rec))
    trace = Trace(records, [], cfg, halted,
                  "quiescent" if halted else "budget", [])
    return trace, Replay(step_s, cands, apps, run_s)


def stage_totals(timings: Sequence[LoopTiming], step_s: Sequence[float]
                 ) -> Tuple[Dict[int, int], Dict[int, float]]:
    """Steps and summed step seconds per loop stage, over every loop."""
    steps = {s: 0 for s in STAGES}
    secs = {s: 0.0 for s in STAGES}
    for lt in timings:
        for sp in lt.spans:
            steps[sp.stage] += sp.end - sp.start + 1
            secs[sp.stage] += sum(step_s[sp.start - 1:sp.end])
    return steps, secs


# ============================================================
# Statistics and host speed
# ============================================================

# The host's speed drifts by up to 1.6x over spans of a few seconds, for
# every process alike.  A fixed probe that uses nothing from pgne runs
# between ops, at least every PROBE_EVERY_S, and each op's time is rescaled
# by REF_PROBE_S / (probe time around it): the result reads as the wall
# time on a host where the probe takes exactly REF_PROBE_S, roughly the
# probe on an idle 2-vCPU x86 VM.  Raw wall times are reported beside.
PROBE_EVERY_S = 0.25
REF_PROBE_S = 1.5e-3
PROBE_ITERS = 10_000
# A working set larger than the small dict, looked up in scattered order.
_PROBE_TABLE = {k * 7919: k for k in range(1 << 16)}
_PROBE_KEYS = [random.Random(1).randrange(1 << 16) * 7919 for _ in range(PROBE_ITERS)]


def probe_host() -> float:
    """Seconds a fixed pure-Python loop takes now: best of three.

    Half of it updates a 256-key dict, half reads a 64k-key one, so both
    a small and a cache-spilling working set feel the host's state.
    """
    best = float("inf")
    table, keys = _PROBE_TABLE, _PROBE_KEYS
    for _ in range(3):
        t0 = perf_counter()
        acc: Dict[int, int] = {}
        for i in range(PROBE_ITERS):
            k = i & 255
            acc[k] = acc.get(k, 0) + i
        total = 0
        for k in keys:
            total += table[k]
        best = min(best, perf_counter() - t0)
    return best


def tail(samples: Sequence[float]) -> Optional[Tuple[float, float]]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile) or None when there are fewer than eleven
    samples.  The value is the sample of ascending rank n-11 (0-based), so
    ten samples rank above it; the percentile is the share of samples at
    or below that rank.
    """
    n = len(samples)
    if n < 11:
        return None
    return sorted(samples)[n - 11], 100.0 * (n - 10) / n


def median(xs: Sequence[float]) -> float:
    return statistics.median(xs) if len(xs) else 0.0


# ============================================================
# Runs
# ============================================================


@dataclass
class RunResult:
    """One closed-loop run; `wall_s` and `latencies` are host-rescaled.

    Wall times exclude the host probes.
    """

    attempted: int = 0
    failed: int = 0
    steps: int = 0
    wall_s: float = 0.0
    wall_raw_s: float = 0.0
    latencies: List[float] = field(default_factory=list)
    latencies_raw: List[float] = field(default_factory=list)
    probes: List[float] = field(default_factory=list)
    digest: str = ""
    digest_ops: int = 0
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    notes: Dict[str, object] = field(default_factory=dict)


def run_ops(wl: Workload, seconds: float, tracer: Optional[Tracer] = None) -> RunResult:
    """Closed loop for `seconds`; every second op is traced if a tracer is given.

    Latency covers the op's own calls; checks, the digest and the traced
    replay run after it, inside the wall time but outside the latency.
    The host probe runs between ops and is outside both.
    """
    res = RunResult()
    sha = hashlib.sha256()
    passed: List[Tuple[float, int, int, bool]] = []  # latency, interval, steps, traced
    traced: List[TracedOp] = []
    probes = [probe_host()]
    spans: List[float] = []  # wall time between consecutive probes
    start = mark = perf_counter()
    i = 0
    while perf_counter() - start < seconds:
        x = wl.inputs[i % len(wl.inputs)]
        tracing = tracer is not None and i % 2 == 1
        res.attempted += 1
        try:
            if tracing:
                sid = tracer.open("op", i)
                out = wl.op(x, tracer.call)
                lat = tracer.close(sid)
            else:
                t0 = perf_counter()
                out = wl.op(x, direct)
                lat = perf_counter() - t0
            ok = out.ok and wl.check(out)
            if i < DIGEST_OPS:
                sha.update(out.digest_text().encode())
                res.digest_ops += 1
            if tracing:
                traced.append(trace_op(wl, out, tracer, i))
                ok = ok and traced[-1].matches
        except Exception:  # an op that raises is a failed op, not a crash
            traceback.print_exc()
            ok = False
        if ok:
            passed.append((lat, len(spans), out.steps, tracing))
        else:
            res.failed += 1
        i += 1
        now = perf_counter()
        if now - mark >= PROBE_EVERY_S:
            spans.append(now - mark)
            probes.append(probe_host())
            mark = perf_counter()
    spans.append(perf_counter() - mark)
    probes.append(probe_host())
    res.wall_raw_s = sum(spans)

    scale = [2 * REF_PROBE_S / (probes[k] + probes[k + 1]) for k in range(len(spans))]
    res.wall_s = sum(w * f for w, f in zip(spans, scale))
    res.probes = probes
    res.steps = sum(n for _, _, n, _ in passed)
    res.latencies = [lat * scale[k] for lat, k, _, tr in passed if not tr]
    res.latencies_raw = [lat for lat, _, _, tr in passed if not tr]
    res.digest = sha.hexdigest()
    if tracer is not None:
        traced_lat = [lat * scale[k] for lat, k, _, tr in passed if tr]
        res.metrics = layer_metrics(tracer, traced, res.latencies, traced_lat)
        res.notes["traced_ops"] = len(traced_lat)
        res.notes["untraced_ops"] = len(res.latencies)
    return res


@dataclass
class TracedOp:
    """What a traced op leaves for the per-layer metrics; no systems kept."""

    rules: int
    regions: int
    spec_bytes: int
    replay: Optional[Replay]

    @property
    def matches(self) -> bool:
        return self.replay is None or self.replay.matches


def trace_op(wl: Workload, out: Outcome, tracer: Tracer, op: int) -> TracedOp:
    """Replay the op's run step by step; its trace must match byte for byte."""
    rp = None
    if out.trace is not None:
        sid = tracer.open("bench.replay", op)
        trace, rp = replay(out.csys, out.initial, out.budget)
        own = tracer.call("engine.export_trace_text", export_trace_text, out.trace)
        if wl.staged:
            rp.timings = tracer.call("builder.stage_boundaries", stage_boundaries,
                                     trace)
        tracer.close(sid)
        rp.matches = export_trace_text(trace) == own
    return TracedOp(len(out.csys.rules), out.csys.n_regions,
                    len(out.text.encode()), rp)


# Per-layer metrics read off span medians: metric -> span names.
SPAN_METRICS = {
    "engine.compile_ms": ("engine.compile_system",),
    "engine.export_trace_ms": ("engine.export_trace_text",),
    "builder.build_ms": ("builder.build_gne_system", "builder.build_mult_system"),
    "builder.stage_boundaries_ms": ("builder.stage_boundaries",),
    "harness.compare_ms": ("harness.compare_engines",),
    "harness.sample_ms": ("harness.sample_experiment",),
    "harness.run_gne_ms": ("harness.run_gne",),
    "pspec.serialize_ms": ("pspec.serialize_system",),
    "pspec.parse_ms": ("pspec.parse_system",),
    "pspec.equal_ms": ("pspec.systems_equal",),
    "oracle.simulate_ms": ("oracle.simulate",),
}


def layer_metrics(tracer: Tracer, traced: List[TracedOp],
                  untraced_lat: List[float], traced_lat: List[float]
                  ) -> Dict[str, Tuple[float, str]]:
    """Per-layer numbers of a traced run; a layer never called reports 0."""
    m: Dict[str, Tuple[float, str]] = {}
    for name, spans in SPAN_METRICS.items():
        durs = [d for s in spans for d in tracer.durations(s)]
        m[name] = (1e3 * median(durs), "ms")

    replays = [t.replay for t in traced if t.replay is not None]
    steps = [s for rp in replays for s in rp.step_s]
    cands = sum(sum(rp.candidates) for rp in replays)
    apps = sum(sum(rp.apps) for rp in replays)
    m["engine.step_us"] = (1e6 * median(steps), "us")
    m["engine.candidates_per_step"] = (cands / len(steps) if steps else 0.0, "count")
    m["engine.apps_per_step"] = (apps / len(steps) if steps else 0.0, "count")
    m["engine.apps_per_candidate"] = (apps / cands if cands else 0.0, "ratio")
    m["engine.run_ms"] = (1e3 * median([rp.run_s for rp in replays]), "ms")
    m["engine.steps_per_op"] = (median([len(rp.step_s) for rp in replays]), "count")

    stage_steps: Dict[int, List[int]] = {s: [] for s in STAGES}
    stage_ms: Dict[int, List[float]] = {s: [] for s in STAGES}
    for rp in replays:
        st, secs = stage_totals(rp.timings, rp.step_s)
        for s in STAGES:
            stage_steps[s].append(st[s])
            stage_ms[s].append(1e3 * secs[s])
    for s in STAGES:
        m[f"engine.stage{s}.steps"] = (median(stage_steps[s]), "count")
        m[f"engine.stage{s}.ms"] = (median(stage_ms[s]), "ms")

    m["builder.rules"] = (median([t.rules for t in traced]), "count")
    m["builder.regions"] = (median([t.regions for t in traced]), "count")
    m["pspec.bytes"] = (median([t.spec_bytes for t in traced if t.spec_bytes]), "bytes")

    base, over = median(untraced_lat), median(traced_lat)
    m["bench.trace_overhead_pct"] = (
        100.0 * (over - base) / base if base and over else 0.0, "%")
    return m
