"""Numerical reference for the equilibrium dynamics.

Two routes live here.  The real-valued route evaluates the game directly:
per-strategy payoffs, excess payoffs, and the switch-rate field whose
rest points are the equilibria.  It imports numpy on first
use, so loading the package and running the count route never does.
The count route mirrors the membrane system integer for integer: floored
coefficient templates, round-to-nearest accumulation (an exact half rounds
down) at the granularity threshold, and the exact overflow/renormalization
policy of the update stage.  Tests compare the engine against the count
route exactly and against the real route within discretization error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from .builder import (GameSpec, PayoffCoefficients, coefficient_matrices,
                      initial_distribution, payoff_coefficients)

if TYPE_CHECKING:
    import numpy as np

KI = Tuple[int, int]


# ============================================================
# Real-valued route
# ============================================================


def _player_blocks(spec: GameSpec) -> Iterator[Tuple[int, int]]:
    """Each player's [start, end) range in the global strategy order."""
    off = 0
    for strategies in spec.strategies:
        yield off, off + len(strategies)
        off += len(strategies)


def payoff(spec: GameSpec, z) -> np.ndarray:
    """Per-strategy payoff at population shares z (nonpositive for costs)."""
    import numpy as np
    z = np.asarray(z, dtype=float)
    mats = coefficient_matrices(spec)
    S, M, C = mats["S"], mats["M"], mats["C"]
    alpha, beta = mats["alpha"], mats["beta"]
    mz = M @ z
    return -(S @ mz) - C.T @ np.asarray(spec.j_bar) - alpha * mz - beta


def excess_payoff(p, z, spec: GameSpec) -> np.ndarray:
    """Payoff minus the population's share-weighted mean payoff."""
    import numpy as np
    p = np.asarray(p, dtype=float)
    z = np.asarray(z, dtype=float)
    out = np.empty_like(p)
    for a, b in _player_blocks(spec):
        out[a:b] = p[a:b] - float(z[a:b] @ p[a:b])
    return out


def bnn_rate(phat, z, spec: GameSpec) -> np.ndarray:
    """Switch-rate field: positive excess inflow minus proportional outflow."""
    import numpy as np
    phat = np.asarray(phat, dtype=float)
    z = np.asarray(z, dtype=float)
    pos = np.maximum(phat, 0.0)
    out = np.empty_like(phat)
    for a, b in _player_blocks(spec):
        out[a:b] = pos[a:b] - z[a:b] * float(np.sum(pos[a:b]))
    return out


# ============================================================
# Count route
# ============================================================


def count_round(x: int, r: int) -> int:
    """Divide by r, rounding to nearest with an exact half rounded down.

    This is the membranes' threshold rounding: the remainder must reach
    r // 2 + 1, so count_round(150, 100) == 1.
    """
    if x < 0:
        raise ValueError("count_round expects nonnegative input")
    q, rem = divmod(x, r)
    return q + (1 if rem >= r // 2 + 1 else 0)


@dataclass
class StateZ:
    """Count-resolution population state.

    counts[(k, i)] holds the number of agents (out of r_disc) of player
    k on slot i.  err accumulates per player the tokens lost to
    unresolvable overflow.  backlog tracks overflow markers parked in a
    strategy membrane when a single update overshoots by more than a
    full population; it is almost always zero and exists so the oracle
    stays exact against the membrane mechanics.
    """

    counts: Dict[KI, int]
    err: Dict[int, int]
    backlog: Dict[KI, int] = field(default_factory=dict)

    def copy(self) -> "StateZ":
        return StateZ(dict(self.counts), dict(self.err), dict(self.backlog))

    def population(self, spec: GameSpec, k: int) -> int:
        return sum(self.counts[(k, i)] for i in spec.strategies[k - 1])

    def fractions(self, spec: GameSpec) -> np.ndarray:
        import numpy as np
        return np.array([self.counts[(k, i)] / spec.r_disc
                         for k, i in spec.pairs()])


def initial_state(spec: GameSpec) -> StateZ:
    counts: Dict[KI, int] = {}
    for k in range(1, spec.players + 1):
        dist = initial_distribution(len(spec.strategies[k - 1]), spec.r_disc)
        for pos, i in enumerate(spec.strategies[k - 1]):
            counts[(k, i)] = dist[pos]
    return StateZ(counts, {k: 0 for k in range(1, spec.players + 1)})


def payoff_counts(spec: GameSpec, co: PayoffCoefficients,
                  counts: Dict[KI, int]) -> List[int]:
    """Integer payoff magnitudes per global strategy index (1/R units)."""
    n = co.n
    z = [counts[pair] for pair in co.pairs]
    out = list(co.kappa)
    for l in range(1, n + 1):
        zl = z[l - 1]
        if not zl:
            continue
        col = co.cross
        for j in range(1, n + 1):
            c = co.self_[l - 1] if j == l else col[j - 1][l - 1]
            if c:
                out[j - 1] += zl * c
    return out


def mean_counts(spec: GameSpec, co: PayoffCoefficients, counts: Dict[KI, int],
                p_tilde: List[int]) -> Dict[int, int]:
    """Rounded population-mean payoff magnitude per player."""
    out: Dict[int, int] = {}
    for k in range(1, spec.players + 1):
        acc = 0
        for i in spec.strategies[k - 1]:
            acc += counts[(k, i)] * p_tilde[co.l_of[(k, i)] - 1]
        out[k] = count_round(acc, spec.r_disc)
    return out


def excess_counts(spec: GameSpec, co: PayoffCoefficients,
                  p_tilde: List[int], p_hat: Dict[int, int]) -> Dict[KI, int]:
    """Positive part of mean-minus-own payoff magnitude, in count units."""
    out: Dict[KI, int] = {}
    for k in range(1, spec.players + 1):
        for i in spec.strategies[k - 1]:
            out[(k, i)] = max(0, p_hat[k] - p_tilde[co.l_of[(k, i)] - 1])
    return out


@dataclass
class RateCounts:
    """Intermediate integer quantities of one rate evaluation."""

    q: Dict[KI, int]
    q_hat: Dict[int, int]
    zq: Dict[KI, int]
    zqr: Dict[KI, int]
    dzp: Dict[KI, int]
    dzn: Dict[KI, int]
    zdot: Dict[KI, int]


def rate_counts(spec: GameSpec, co: PayoffCoefficients,
                counts: Dict[KI, int]) -> Tuple[List[int], Dict[int, int], RateCounts]:
    """Full integer pipeline from counts to the signed per-strategy rate."""
    R = spec.r_disc
    p_tilde = payoff_counts(spec, co, counts)
    p_hat = mean_counts(spec, co, counts, p_tilde)
    q = excess_counts(spec, co, p_tilde, p_hat)
    q_hat = {k: sum(q[(k, i)] for i in spec.strategies[k - 1])
             for k in range(1, spec.players + 1)}
    zq: Dict[KI, int] = {}
    zqr: Dict[KI, int] = {}
    dzp: Dict[KI, int] = {}
    dzn: Dict[KI, int] = {}
    zdot: Dict[KI, int] = {}
    for k in range(1, spec.players + 1):
        for i in spec.strategies[k - 1]:
            zq[(k, i)] = counts[(k, i)] * q_hat[k]
            zqr[(k, i)] = count_round(zq[(k, i)], R)
            dzp[(k, i)] = max(0, q[(k, i)] - zqr[(k, i)])
            dzn[(k, i)] = max(0, zqr[(k, i)] - q[(k, i)])
            zdot[(k, i)] = (count_round(dzp[(k, i)], R)
                            - count_round(dzn[(k, i)], R))
    return p_tilde, p_hat, RateCounts(q, q_hat, zq, zqr, dzp, dzn, zdot)


def discrete_update(state: StateZ, zdot: Dict[KI, int],
                    spec: GameSpec) -> StateZ:
    """Apply one signed rate step with the membrane overflow policy.

    Per strategy: the raw target m = count + rate is clamped to [0, R];
    whole-population overshoots are kept locally (at most one spills per
    loop, the rest is parked as backlog), partial excess and all deficit
    are pooled per player.  Pools cancel pairwise, residual excess fills
    strategies with headroom in ascending slot order, residual deficit
    drains strategies in ascending slot order, leftovers become err.
    Finally the player's total is forced back to exactly R, truncating
    in ascending slot order with any shortfall credited to the first
    strategy.
    """
    R = spec.r_disc
    out = state.copy()
    for k in range(1, spec.players + 1):
        slots = spec.strategies[k - 1]
        w: Dict[int, int] = {}
        headroom: Dict[int, int] = {}
        pool_p = 0
        pool_n = 0
        for i in slots:
            m = state.counts[(k, i)] + zdot.get((k, i), 0)
            cand = max(0, m)
            defc = max(0, -m)
            t, p_res = divmod(cand, R)
            over = state.backlog.get((k, i), 0) + t
            slack = R
            if over >= 1:
                slack = 0
                over -= 1
            out.backlog[(k, i)] = over
            p1 = min(p_res, slack)
            w[i] = R * t + p1
            headroom[i] = slack - p1
            pool_p += p_res - p1
            pool_n += defc
        cancel = min(pool_p, pool_n)
        pool_p -= cancel
        pool_n -= cancel
        for i in slots:
            take = min(pool_p, headroom[i])
            w[i] += take
            headroom[i] -= take
            pool_p -= take
        for i in slots:
            take = min(pool_n, w[i])
            w[i] -= take
            pool_n -= take
        out.err[k] = state.err.get(k, 0) + pool_p + pool_n
        v = R
        for i in slots:
            got = min(w[i], v)
            out.counts[(k, i)] = got
            v -= got
        if v:
            out.counts[(k, slots[0])] += v
    return out


# ============================================================
# Trajectories
# ============================================================


@dataclass
class LoopRecord:
    """Everything the count pipeline computed for one iteration."""

    loop: int
    p_tilde: List[int]
    p_hat: Dict[int, int]
    rate: RateCounts
    err_new: Dict[int, int]


@dataclass
class Trajectory:
    spec: GameSpec
    co: PayoffCoefficients
    states: List[StateZ]
    loops: List[LoopRecord]

    def final(self) -> StateZ:
        return self.states[-1]


def simulate(spec: GameSpec) -> Trajectory:
    """Run the count pipeline for the configured number of iterations."""
    co = payoff_coefficients(spec)
    state = initial_state(spec)
    states = [state]
    recs: List[LoopRecord] = []
    for n in range(1, spec.loops + 1):
        p_tilde, p_hat, rate = rate_counts(spec, co, state.counts)
        nxt = discrete_update(state, rate.zdot, spec)
        err_new = {k: nxt.err[k] - state.err.get(k, 0)
                   for k in range(1, spec.players + 1)}
        recs.append(LoopRecord(n, p_tilde, p_hat, rate, err_new))
        states.append(nxt)
        state = nxt
    return Trajectory(spec, co, states, recs)


def gne_residual(state: StateZ, spec: GameSpec) -> float:
    """Largest per-loop drift of the count state, in real arithmetic.

    Rest-point mismatch max |[phat]+ - z * sum[phat]+| at z = counts/R,
    scaled by the 1/R step one loop applies.  The count dynamics sit
    still only when each per-loop count move rounds to zero, so a frozen
    trajectory lands below the discretization quantum 1/R.
    """
    import numpy as np
    z = state.fractions(spec)
    p = payoff(spec, z)
    phat = excess_payoff(p, z, spec)
    return float(np.max(np.abs(bnn_rate(phat, z, spec)))) / spec.r_disc


def trajectory_csv(traj: Trajectory) -> str:
    """Canonical CSV: loop,k,i,l,count,err_k with loop 0 = initial."""
    lines = ["loop,k,i,l,count,err_k"]
    for loop, state in enumerate(traj.states):
        for l, (k, i) in enumerate(traj.co.pairs, start=1):
            lines.append(f"{loop},{k},{i},{l},{state.counts[(k, i)]},"
                         f"{state.err.get(k, 0)}")
    return "\n".join(lines) + "\n"
