"""Experiment orchestration: sampling, runs, comparisons, CSV export.

The harness owns everything above the two engines: a reproducible
parameter sampler, membrane-run drivers that extract count trajectories
from traces, the engine-vs-reference comparator with stage attribution,
and the multiplier sweep used by the acceptance suite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .builder import (GameSpec, LoopTiming, PayoffCoefficients,
                      build_gne_system, build_mult_system, loop_steps_bound,
                      mult_steps, payoff_coefficients, quantize,
                      stage_boundaries, stage_steps)
from .engine import ENV_LABEL, Trace, compile_system, read_region, run
from .oracle import (KI, StateZ, Trajectory, initial_state, simulate,
                     trajectory_csv)
from .symbols import sym

# ============================================================
# Deterministic sampling
# ============================================================

_MASK = (1 << 64) - 1


class SplitMix64:
    """64-bit mixing recurrence; identical streams in any language.

    state += 0x9E3779B97F4A7C15; z = state; z = (z ^ (z >> 30)) *
    0xBF58476D1CE4E5B9; z = (z ^ (z >> 27)) * 0x94D049BB133111EB;
    return z ^ (z >> 31).  Uniform doubles take the top 53 bits.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def uniform(self, lo: float, hi: float) -> float:
        u = (self.next_u64() >> 11) * (2.0 ** -53)
        return lo + (hi - lo) * u


@dataclass
class Preset:
    """Instance shape plus sampling ranges for the random parameters."""

    players: int
    slots: int
    strategies: List[List[int]]
    d_range: Tuple[float, float] = (0.0, 1.0)
    j_range: Tuple[float, float] = (2.0, 4.0)
    alpha_range: Tuple[float, float] = (1.0, 10.0)
    beta_range: Tuple[float, float] = (0.0, 1.0)
    mass_range: Tuple[float, float] = (3.0, 4.0)
    r_disc: int = 100
    loops: int = 10


PRESETS: Dict[str, Preset] = {
    # Three providers over five slots with overlapping strategy sets.
    "default": Preset(3, 5, [[3, 5], [1, 3, 5], [1, 2, 4]]),
    # Two providers over three slots; quick comparison runs.
    "small": Preset(2, 3, [[1, 3], [2, 3]]),
}


def sample_experiment(seed: int, preset: str | Preset = "default",
                      loops: Optional[int] = None) -> GameSpec:
    """Deterministic GameSpec from a seed; fixed draw order, 4-dp values."""
    p = PRESETS[preset] if isinstance(preset, str) else preset
    rng = SplitMix64(seed)
    d_diag = [quantize(rng.uniform(*p.d_range)) for _ in range(p.slots)]
    j_bar = [quantize(rng.uniform(*p.j_range)) for _ in range(p.slots)]
    alpha = [[quantize(rng.uniform(*p.alpha_range)) for _ in row]
             for row in p.strategies]
    beta = [[quantize(rng.uniform(*p.beta_range)) for _ in row]
            for row in p.strategies]
    mass = [quantize(rng.uniform(*p.mass_range)) for _ in range(p.players)]
    return GameSpec(players=p.players, slots=p.slots,
                    strategies=[list(s) for s in p.strategies],
                    d_diag=d_diag, j_bar=j_bar, alpha=alpha, beta=beta,
                    mass=mass, r_disc=p.r_disc,
                    loops=p.loops if loops is None else loops)


# ============================================================
# Multiplier driver
# ============================================================


@dataclass
class MultReport:
    m: int
    n: int
    product: int
    steps: int
    expect_product: int
    expect_steps: int
    bound: Optional[int]
    product_ok: bool
    steps_ok: bool
    bound_ok: bool

    @property
    def ok(self) -> bool:
        # The exact step-count formula is the binding claim.  The looser
        # doubling bound is tracked separately: exact powers of two finish
        # one doubling round past it (see the acceptance tests).
        return self.product_ok and self.steps_ok


def _mult_report(m: int, n: int, trace: Trace) -> MultReport:
    env = read_region(trace.final, ENV_LABEL)
    product = env.get(sym("unit"))
    steps = trace.steps
    bound = 1 + 6 * (m - 1).bit_length() if m >= 2 else None
    return MultReport(
        m=m, n=n, product=product, steps=steps,
        expect_product=m * n, expect_steps=mult_steps(m), bound=bound,
        product_ok=product == m * n and trace.halted,
        steps_ok=steps == mult_steps(m),
        bound_ok=bound is None or steps <= bound)


def run_mult(m: int, n: int) -> MultReport:
    """Build and run one multiplication; verify product, steps, bound."""
    trace = run(build_mult_system(m, n), max_steps=mult_steps(m) + 10)
    return _mult_report(m, n, trace)


def mult_sweep(max_m: int = 100, max_n: int = 100
               ) -> Tuple[List[MultReport], float]:
    """All operand pairs up to the caps on one shared compiled system."""
    csys = compile_system(build_mult_system(0, 0))
    mc, cyc, mp = sym("mcand"), sym("cyc1"), sym("mplier")
    failures: List[MultReport] = []
    t0 = time.perf_counter()
    for m in range(max_m + 1):
        budget = mult_steps(m) + 10
        for n in range(max_n + 1):
            init = {"0": {mp: n}, "1": {mc: m, cyc: 1}}
            trace = run(csys, max_steps=budget, initial=init)
            rep = _mult_report(m, n, trace)
            if not rep.ok:
                failures.append(rep)
    return failures, time.perf_counter() - t0


# ============================================================
# Membrane-run trajectory extraction
# ============================================================


@dataclass
class GneResult:
    """A membrane run reduced to countable facts."""

    spec: GameSpec
    co: PayoffCoefficients
    trace: Trace
    states: List[StateZ]
    timings: List[LoopTiming]
    warnings: List[str]

    @property
    def loops_completed(self) -> int:
        return len(self.states) - 1

    def csv(self) -> str:
        return trajectory_csv(Trajectory(self.spec, self.co, self.states, []))


def _applied(lt: LoopTiming, families: Sequence[Tuple[int, int]], k: int,
             i: Optional[int] = None) -> int:
    """Applications in one loop of the given (stage, num) families at (k, i)."""
    return sum(lt.apps.get((stage, num, k, i), 0) for stage, num in families)


# Rule families whose applications count out each stage's values: payoff
# conversions, mean and excess exports, rounded products, split rates, err.
_PAY = ((1, 10),)
_MEAN = ((2, 10), (2, 11))
_EXCESS = ((3, 12),)
_ZQR = ((4, 15), (4, 16))
_DZP = ((4, 19),)
_DZN = ((4, 20),)
_ERR = ((5, 23), (5, 24))


def run_gne(spec: GameSpec, strict: bool = False) -> GneResult:
    """Build, run, and extract the per-loop counts of the membrane system.

    The trajectory is read off the stamped per-loop export objects in the
    skin; err tokens are attributed to loops by the step window in which
    their forming rules fired.  The step budget is
    `loop_steps_bound(r_disc) * (loops + 1)`: one loop more than the run
    performs.  Each loop whose stages miss `stage_steps` at its start
    state, and each region that holds waste at halt, adds one warning, as
    do fewer loop windows than loops (a kickoff that never fired) and a
    skin whose err count is not the err the loops formed.
    """
    co = payoff_coefficients(spec)
    warnings: List[str] = []
    sysd = build_gne_system(spec)
    budget = loop_steps_bound(spec.r_disc) * (spec.loops + 1)
    trace = run(sysd, max_steps=budget, strict=strict)
    if not trace.halted:
        warnings.append(f"budget exhausted after {trace.steps} steps")
    timings = stage_boundaries(trace)

    # Exported counts, keyed by the loop stamp, and the err tokens that
    # each player's S5R50 moved out to the skin.
    skin = read_region(trace.final, "0")
    by_loop: Dict[int, Dict[KI, int]] = {}
    err_skin = 0
    for s, cnt in skin.items():
        if s.base != "result":
            if s.base == "err":
                err_skin += cnt
            continue
        k, i, l, nn = s.params
        if co.l_of.get((k, i)) != l:
            warnings.append(f"export index mismatch for {s.text}")
        by_loop.setdefault(nn, {})[(k, i)] = cnt

    states = [initial_state(spec)]
    err_run = {k: 0 for k in range(1, spec.players + 1)}
    for nn in range(1, max(by_loop) + 1 if by_loop else 1):
        if nn not in by_loop:
            warnings.append(f"no exports for loop {nn}")
            break
        # A pair with zero tokens exports nothing; absence means zero.
        counts: Dict[KI, int] = {ki: 0 for ki in co.pairs}
        counts.update(by_loop[nn])
        if nn <= len(timings):
            for k in err_run:
                err_run[k] += _applied(timings[nn - 1], _ERR, k)
        states.append(StateZ(counts, dict(err_run)))
    if err_skin != sum(states[-1].err.values()):
        warnings.append(f"skin holds {err_skin} err, the loops formed "
                        f"{sum(states[-1].err.values())}")
    if len(states) - 1 != spec.loops:
        warnings.append(
            f"completed {len(states) - 1} of {spec.loops} iterations")
    if len(timings) < spec.loops:
        warnings.append(
            f"{len(timings)} loop windows for {spec.loops} loops")
    for nn, state in enumerate(states):
        for k in range(1, spec.players + 1):
            if state.err.get(k, 0) == 0 and state.population(spec, k) != spec.r_disc:
                warnings.append(
                    f"loop {nn}: player {k} total "
                    f"{state.population(spec, k)} != {spec.r_disc}")
    # A stage whose marker never fired has no span: it took 0 steps.
    for lt, start in zip(timings, states):
        took = {sp.stage: sp.end - sp.start + 1 for sp in lt.spans}
        law = stage_steps(max(start.counts.values()), lt.loop == spec.loops)
        for stage, want in enumerate(law, start=1):
            if took.get(stage, 0) != want:
                warnings.append(f"loop {lt.loop}: stage {stage} took "
                                f"{took.get(stage, 0)} steps, not {want}")
                break
    waste = sym("waste")
    for label, region in zip(trace.final.csys.region_labels,
                             trace.final.contents):
        if region.get(waste):
            warnings.append(f"{label} holds {region[waste]} waste at halt")
    return GneResult(spec, co, trace, states, timings, warnings)


# ============================================================
# Engine-vs-reference comparison
# ============================================================


@dataclass
class Divergence:
    loop: int
    stage: str
    key: str
    engine: int
    oracle: int


@dataclass
class CompareReport:
    spec: GameSpec
    agree: bool
    divergences: List[Divergence]
    loops_checked: int
    engine_warnings: List[str]

    def first(self) -> Optional[Divergence]:
        return self.divergences[0] if self.divergences else None

    def text(self) -> str:
        lines = [f"loops checked: {self.loops_checked}"]
        if self.agree:
            lines.append("exact agreement")
        else:
            d = self.first()
            lines.append(f"first divergence: loop {d.loop} {d.stage} {d.key}: "
                         f"engine {d.engine} vs reference {d.oracle}")
            lines.append(f"total divergent entries: {len(self.divergences)}")
        for w in self.engine_warnings:
            lines.append(f"warning: {w}")
        return "\n".join(lines) + "\n"


def compare_engines(spec: GameSpec, traj: Optional[Trajectory] = None,
                    result: Optional[GneResult] = None) -> CompareReport:
    """Count-for-count comparison with per-stage attribution.

    Stage values are recovered from the membrane trace by counting rule
    applications inside each loop window: payoff conversions (stage 1),
    mean exports (stage 2), excess exports (stage 3), rounded products
    and split rates (stage 4).  Final counts and err (stage 5) are
    compared for every loop both routes exported, windowed or not, and
    fewer windows than loops is itself a divergence.
    """
    if result is None:
        result = run_gne(spec)
    if traj is None:
        traj = simulate(result.spec)
    co = result.co
    divs: List[Divergence] = []

    def claim(loop: int, stage: str, key: str, got: int, want: int) -> None:
        if got != want:
            divs.append(Divergence(loop, stage, key, got, want))

    checked = min(len(result.timings), len(traj.loops), spec.loops)
    for idx, lt in enumerate(result.timings[:checked]):
        rec = traj.loops[idx]
        loop_no = idx + 1
        for k, i in co.pairs:
            l = co.l_of[(k, i)]
            claim(loop_no, "stage1:payoff", f"p[{l}]",
                  _applied(lt, _PAY, k, i), rec.p_tilde[l - 1])
        for k in range(1, spec.players + 1):
            claim(loop_no, "stage2:mean", f"P[{k}]",
                  _applied(lt, _MEAN, k), rec.p_hat[k])
        for k, i in co.pairs:
            claim(loop_no, "stage3:excess", f"q[{k},{i}]",
                  _applied(lt, _EXCESS, k, i), rec.rate.q[(k, i)])
            claim(loop_no, "stage4:product", f"zqr[{k},{i}]",
                  _applied(lt, _ZQR, k, i), rec.rate.zqr[(k, i)])
            claim(loop_no, "stage4:rate+", f"dzp[{k},{i}]",
                  _applied(lt, _DZP, k, i), rec.rate.dzp[(k, i)])
            claim(loop_no, "stage4:rate-", f"dzn[{k},{i}]",
                  _applied(lt, _DZN, k, i), rec.rate.dzn[(k, i)])
    if checked < spec.loops:
        claim(checked + 1, "stage1:kickoff", "loops", checked, spec.loops)
    for loop_no in range(1, min(len(result.states), len(traj.states))):
        es, os_ = result.states[loop_no], traj.states[loop_no]
        for k, i in co.pairs:
            claim(loop_no, "stage5:counts", f"z[{k},{i}]",
                  es.counts[(k, i)], os_.counts[(k, i)])
        for k in range(1, spec.players + 1):
            claim(loop_no, "stage5:err", f"err[{k}]",
                  es.err.get(k, 0), os_.err.get(k, 0))

    if len(result.states) != len(traj.states):
        divs.append(Divergence(min(len(result.states), len(traj.states)),
                               "stage5:length", "trajectory",
                               len(result.states) - 1, len(traj.states) - 1))
    divs.sort(key=lambda d: d.loop)
    return CompareReport(spec, not divs, divs, checked, result.warnings)
