"""Game descriptions and membrane-system construction.

Two builders live here.  `build_mult_system` emits a small three-membrane
system that multiplies two unary numbers by repeated halving and doubling;
it is both a usable component and the calibration target for the engine's
step semantics.  `build_gne_system` emits the full equilibrium-seeking
system for a demand-response game: one skin, one shared pricing membrane,
and per player a strategy/result/multiplier/update membrane complex that
runs Brown-von-Neumann-Nash dynamics entirely in object counts.

All payoff coefficients are computed in exact integer arithmetic over
1e-4 quantized inputs, so the builder is bit-reproducible and the floor
operations cannot be perturbed by float rounding.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from .engine import (MINUS, NEUTRAL, PLUS, ChildPattern, CRule, MembraneNode,
                     PSystem, RuleSpec, Trace)
from .symbols import Multiset, Sym, sym

MICRO = 10 ** 4


class GameError(Exception):
    """Raised when a game description cannot be used."""


# ============================================================
# Game description
# ============================================================


@dataclass
class GameSpec:
    """A quantized demand-response game.

    players: number of flexibility providers (1-based ids).
    slots: number of time slots (strategies are slot numbers).
    strategies[k-1]: ascending slot list for player k.
    d_diag[t-1]: grid sensitivity for slot t (>= 0).
    j_bar[t-1]: base price for slot t.
    alpha[k-1][p]: curvature coefficient for player k, p-th strategy.
    beta[k-1][p]: linear discomfort coefficient, same indexing.
    mass[k-1]: per-player demand mass.
    r_disc: population granularity (counts per player sum to r_disc).
    loops: number of update iterations the membrane system performs.
    """

    players: int
    slots: int
    strategies: List[List[int]]
    d_diag: List[float]
    j_bar: List[float]
    alpha: List[List[float]]
    beta: List[List[float]]
    mass: List[float]
    r_disc: int = 100
    loops: int = 10

    def pairs(self) -> List[Tuple[int, int]]:
        """Global strategy index order: players ascending, slots ascending."""
        out = []
        for k in range(1, self.players + 1):
            for i in self.strategies[k - 1]:
                out.append((k, i))
        return out


def quantize(x: float) -> float:
    return round(x, 4)


def save_game(spec: GameSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(spec), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _real(name: str, x) -> float:
    """x as a float, refusing the strings and bools float() would coerce."""
    if isinstance(x, (str, bool)):
        raise GameError(f"{name} value {x!r} is not a number")
    return float(x)


def _whole(name: str, x) -> int:
    """x as an int, refusing a float that is not a whole number."""
    if not _real(name, x).is_integer():
        raise GameError(f"{name} value {x} is not a whole number")
    return int(x)


def load_game(path: str) -> GameSpec:
    """Read a game file; any malformed content raises GameError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        return GameSpec(
            players=_whole("players", doc["players"]),
            slots=_whole("slots", doc["slots"]),
            strategies=[[_whole("strategies", i) for i in s]
                        for s in doc["strategies"]],
            d_diag=[_real("d_diag", x) for x in doc["d_diag"]],
            j_bar=[_real("j_bar", x) for x in doc["j_bar"]],
            alpha=[[_real("alpha", x) for x in row] for row in doc["alpha"]],
            beta=[[_real("beta", x) for x in row] for row in doc["beta"]],
            mass=[_real("mass", x) for x in doc["mass"]],
            r_disc=_whole("r_disc", doc.get("r_disc", 100)),
            loops=_whole("loops", doc.get("loops", 10)),
        )
    except KeyError as miss:
        raise GameError(f"game file missing field {miss.args[0]!r}")
    except (ValueError, TypeError, OverflowError) as exc:
        raise GameError(f"malformed game file {path}: {exc}")


def validate_game(spec: GameSpec) -> List[str]:
    """Collect human-readable diagnostics; empty list means usable."""
    out: List[str] = []
    if spec.players < 1:
        out.append("players must be >= 1")
    if spec.slots < 1:
        out.append("slots must be >= 1")
    if spec.r_disc < 2:
        out.append("r_disc must be >= 2")
    if spec.loops < 1:
        out.append("loops must be >= 1")
    if len(spec.strategies) != spec.players:
        out.append("strategies must list one slot set per player")
        return out
    for k, slots in enumerate(spec.strategies, start=1):
        if not slots:
            out.append(f"player {k}: empty strategy set")
            continue
        if sorted(set(slots)) != slots:
            out.append(f"player {k}: strategy slots must be ascending and unique")
        if len(slots) < 2:
            out.append(f"player {k}: needs at least 2 strategies")
        for i in slots:
            if not 1 <= i <= spec.slots:
                out.append(f"player {k}: slot {i} outside 1..{spec.slots}")
    for name, row, want in (("d_diag", spec.d_diag, spec.slots),
                            ("j_bar", spec.j_bar, spec.slots),
                            ("mass", spec.mass, spec.players)):
        if len(row) != want:
            out.append(f"{name} must have length {want}")
    for name, rows in (("alpha", spec.alpha), ("beta", spec.beta)):
        if len(rows) != spec.players:
            out.append(f"{name} must list one row per player")
            continue
        for k, row in enumerate(rows, start=1):
            if len(row) != len(spec.strategies[k - 1]):
                out.append(f"{name}[{k}] length must match player {k} strategies")
    for name, vals in (("d_diag", spec.d_diag), ("j_bar", spec.j_bar),
                       ("alpha", [x for r in spec.alpha for x in r]),
                       ("beta", [x for r in spec.beta for x in r]),
                       ("mass", spec.mass)):
        for x in vals:
            if not math.isfinite(x):
                out.append(f"{name} value {x} is not finite")
                break
            if not math.isfinite(x * MICRO):
                out.append(f"{name} value {x} is too large")
                break
            if abs(x * MICRO - round(x * MICRO)) > 1e-6:
                out.append(f"{name} value {x} is not quantized to 1e-4")
                break
    for x in spec.d_diag:
        if x < 0:
            out.append("d_diag entries must be >= 0")
            break
    for x in spec.mass:
        if x <= 0:
            out.append("mass entries must be > 0")
            break
    for rows, name in ((spec.alpha, "alpha"), (spec.beta, "beta")):
        if any(x < 0 for row in rows for x in row):
            out.append(f"{name} entries must be >= 0")
    return out


# ============================================================
# Payoff coefficients (exact integers)
# ============================================================


@dataclass
class PayoffCoefficients:
    """Integer payoff templates on the global strategy index.

    The membranes track payoff magnitudes (costs), so every template is
    a nonnegative count.  For global index l with slot s(l) and player
    mass m(l), with all inputs scaled to integers by 1e4:

      cross[j][l] = floor(D[s(l)] * m(l))          when s(j) == s(l), j != l
      self_[l]    = floor((2 D[s(l)] + alpha_l) * m(l))
      kappa[l]    = floor(R * (j_bar[s(l)] + beta_l))
    """

    n: int
    pairs: List[Tuple[int, int]]
    l_of: Dict[Tuple[int, int], int]
    kappa: List[int]
    cross: List[List[int]]
    self_: List[int]

    def linear_row(self, l: int) -> List[int]:
        """Units of pl{j} produced per unit of strategy l (1-based l).

        Column l of cross (receiver-major storage), so every entry
        carries the token owner's mass, with the self term on the
        diagonal.
        """
        out = [self.cross[j][l - 1] for j in range(self.n)]
        out[l - 1] = self.self_[l - 1]
        return out


def payoff_coefficients(spec: GameSpec) -> PayoffCoefficients:
    pairs = spec.pairs()
    n = len(pairs)
    l_of = {pair: l for l, pair in enumerate(pairs, start=1)}
    dq = [round(x * MICRO) for x in spec.d_diag]
    jq = [round(x * MICRO) for x in spec.j_bar]
    mq = {k: round(spec.mass[k - 1] * MICRO) for k in range(1, spec.players + 1)}
    aq: Dict[Tuple[int, int], int] = {}
    bq: Dict[Tuple[int, int], int] = {}
    for k in range(1, spec.players + 1):
        for pos, i in enumerate(spec.strategies[k - 1]):
            aq[(k, i)] = round(spec.alpha[k - 1][pos] * MICRO)
            bq[(k, i)] = round(spec.beta[k - 1][pos] * MICRO)

    kappa: List[int] = []
    self_: List[int] = []
    cross = [[0] * n for _ in range(n)]
    scale2 = MICRO * MICRO
    for l, (k, i) in enumerate(pairs, start=1):
        d = dq[i - 1]
        kappa.append((spec.r_disc * (jq[i - 1] + bq[(k, i)])) // MICRO)
        self_.append(((2 * d + aq[(k, i)]) * mq[k]) // scale2)
        for j, (k2, i2) in enumerate(pairs, start=1):
            if j != l and i2 == i:
                cross[j - 1][l - 1] = (d * mq[k]) // scale2
    return PayoffCoefficients(n, pairs, l_of, kappa, cross, self_)


def coefficient_matrices(spec: GameSpec):
    """Float reference route for the same coefficients (numpy, tests)."""
    import numpy as np

    pairs = spec.pairs()
    n = len(pairs)
    C = np.zeros((spec.slots, n))
    for l, (k, i) in enumerate(pairs):
        C[i - 1, l] = 1.0
    D = np.diag(spec.d_diag)
    mass_for = np.array([spec.mass[k - 1] for k, _ in pairs])
    M = np.diag(mass_for)
    blocks = np.zeros((n, n))
    off = 0
    for k in range(1, spec.players + 1):
        nk = len(spec.strategies[k - 1])
        Ck = C[:, off:off + nk]
        blocks[off:off + nk, off:off + nk] = Ck.T @ D @ Ck
        off += nk
    S = blocks + C.T @ D @ C
    alpha_flat = np.array([spec.alpha[k - 1][spec.strategies[k - 1].index(i)]
                           for k, i in pairs])
    beta_flat = np.array([spec.beta[k - 1][spec.strategies[k - 1].index(i)]
                          for k, i in pairs])
    jbar = np.array(spec.j_bar)
    kappa_float = spec.r_disc * (C.T @ jbar + beta_flat)
    return {"C": C, "D": D, "M": M, "S": S,
            "alpha": alpha_flat, "beta": beta_flat,
            "kappa_float": kappa_float}


def initial_distribution(n_strategies: int, r_disc: int) -> List[int]:
    """Even split of r_disc counts; the last strategy takes the remainder."""
    if n_strategies < 1:
        raise GameError("need at least one strategy")
    base = r_disc // n_strategies
    out = [base] * n_strategies
    out[-1] = r_disc - base * (n_strategies - 1)
    return out


# ============================================================
# Unary multiplier subsystem
# ============================================================

# Symbol vocabulary of the multiplier.  The multiplicand is halved in the
# inner work membrane while the multiplier is doubled in the outer one;
# odd halves commit the current multiplier into the product.
_MC = sym("mcand")
_MC1, _MC2, _MC3, _MC4, _MC5 = (sym(f"mcand{j}") for j in range(1, 6))
_MP = sym("mplier")
_MP1, _MP2, _MP3, _MP4 = (sym(f"mplier{j}") for j in range(1, 5))
_TWIN = sym("mtwin")
_UNIT = sym("unit")
_ODD = sym("odd")
_ODD1, _ODD2, _ODD3 = (sym(f"odd{j}") for j in range(1, 4))
_CYC = [sym(f"cyc{j}") for j in range(1, 7)]
_R0 = sym("round0")
_HALF = sym("half")
_FIN = sym("fin")
_FIN1, _FIN2, _FIN3, _FIN4 = (sym(f"fin{j}") for j in range(1, 5))
_WASTE = sym("waste")


def _mult_rules(skin: str, m1: str, m2: str, unit_out: Sym, fin_out: Sym,
                make_id: Callable[[int], str]) -> Tuple[List[RuleSpec], List[Tuple[str, str]]]:
    """The 44 multiplier rules, retargeted to the given membrane labels.

    unit_out / fin_out name the product unit and the completion flag as
    they leave through `skin`; embeddings relabel them so concurrent
    multiplier instances cannot mix outputs.
    """
    ids = {nn: make_id(nn) for nn in range(1, 45)}

    def rw(nn: int, label: str, charge: int, cons: Dict[Sym, int],
           prod: Dict[Sym, int]) -> RuleSpec:
        return RuleSpec(ids[nn], label, charge, charge,
                        consume_in=cons, produce_in=prod)

    rules = [
        # Six-step work cycle in the halving membrane.
        rw(1, m1, NEUTRAL, {_CYC[0]: 1}, {_CYC[1]: 1, _R0: 1}),
        rw(2, m1, NEUTRAL, {_CYC[1]: 1}, {_CYC[2]: 1}),
        rw(3, m1, NEUTRAL, {_CYC[2]: 1}, {_CYC[3]: 1}),
        rw(4, m1, NEUTRAL, {_CYC[3]: 1}, {_CYC[4]: 1}),
        rw(5, m1, NEUTRAL, {_CYC[4]: 1}, {_CYC[5]: 1}),
        rw(6, m1, NEUTRAL, {_CYC[5]: 1}, {_CYC[0]: 1}),
        # Halving: pairs advance, a leftover single marks the odd case.
        rw(7, m1, NEUTRAL, {_MC: 2}, {_MC1: 1, _HALF: 2}),
        rw(8, m1, NEUTRAL, {_MC: 1}, {_ODD: 1, _HALF: 1}),
        rw(9, m1, NEUTRAL, {_MC1: 1}, {_MC2: 1}),
        rw(10, m1, NEUTRAL, {_MC2: 1}, {_MC3: 1}),
        rw(11, m1, NEUTRAL, {_MC3: 1}, {_MC4: 1}),
        rw(12, m1, NEUTRAL, {_MC4: 1}, {_MC5: 1}),
        rw(13, m1, NEUTRAL, {_MC5: 1}, {_MC: 1}),
        rw(14, m1, NEUTRAL, {_HALF: 2, _R0: 1}, {}),
        # A lone half plus the round marker plus the odd marker means the
        # multiplicand hit 1: raise the completion flag inside and out.
        RuleSpec(ids[15], m1, NEUTRAL, NEUTRAL,
                 consume_in={_HALF: 1, _R0: 1, _ODD: 1},
                 produce_in={_FIN: 1}, produce_out={_FIN: 1}),
        rw(16, m1, NEUTRAL, {_HALF: 1}, {}),
        RuleSpec(ids[17], m1, NEUTRAL, NEUTRAL,
                 consume_in={_ODD: 1}, produce_out={_ODD: 1}),
        RuleSpec(ids[18], m1, NEUTRAL, NEUTRAL,
                 consume_in={_CYC[1]: 1, _R0: 1}, produce_out={_R0: 1}),
        # Doubling pipeline in the outer membrane.
        rw(19, skin, NEUTRAL, {_MP: 1}, {_MP1: 1}),
        rw(20, skin, NEUTRAL, {_MP1: 1}, {_MP2: 1}),
        rw(21, skin, NEUTRAL, {_MP2: 1}, {_MP3: 1}),
        rw(22, skin, NEUTRAL, {_MP3: 1}, {_MP4: 1}),
        rw(23, skin, NEUTRAL, {_MP4: 1}, {_TWIN: 2}),
        rw(24, skin, NEUTRAL, {_TWIN: 1}, {_MP: 1}),
        # Odd commit: while positive, each multiplier token both doubles
        # and deposits one product unit in the store membrane.
        RuleSpec(ids[25], skin, PLUS, PLUS,
                 consume_in={_MP3: 1}, produce_in={_TWIN: 2},
                 child=ChildPattern(m2, NEUTRAL, NEUTRAL, {}, {_UNIT: 1})),
        rw(26, skin, PLUS, {_TWIN: 1}, {_MP: 1}),
        RuleSpec(ids[27], skin, NEUTRAL, PLUS,
                 consume_in={_ODD: 1}, produce_in={_ODD1: 1},
                 produce_out={_WASTE: 1}),
        rw(28, skin, PLUS, {_ODD1: 1}, {_ODD2: 1}),
        rw(29, skin, PLUS, {_ODD2: 1}, {_ODD3: 1}),
        RuleSpec(ids[30], skin, PLUS, NEUTRAL,
                 consume_in={_ODD3: 1}, produce_out={_WASTE: 1}),
        rw(31, m1, NEUTRAL, {_FIN: 1, _CYC[2]: 1}, {}),
        # Shutdown: the flag sweeps through the store membrane and the
        # outer membrane, flushing product units on the way out.
        RuleSpec(ids[32], m2, NEUTRAL, NEUTRAL,
                 consume_out={_FIN: 1}, produce_out={_FIN1: 1},
                 produce_in={_FIN1: 1}),
        RuleSpec(ids[33], m2, NEUTRAL, MINUS,
                 consume_in={_FIN1: 1}, produce_out={_WASTE: 1}),
        RuleSpec(ids[34], skin, NEUTRAL, MINUS,
                 consume_in={_FIN1: 1}, produce_in={_FIN2: 1},
                 produce_out={_WASTE: 1}),
        RuleSpec(ids[35], m2, MINUS, MINUS,
                 consume_out={_FIN2: 1}, produce_out={_FIN3: 1},
                 produce_in={_FIN3: 1}),
        rw(36, m2, MINUS, {_FIN3: 1}, {_FIN4: 1}),
        rw(37, skin, MINUS, {_FIN3: 1}, {_FIN4: 1}),
        RuleSpec(ids[38], m2, MINUS, NEUTRAL,
                 consume_in={_FIN4: 1}, produce_out={_WASTE: 1}),
        RuleSpec(ids[39], skin, MINUS, NEUTRAL,
                 consume_in={_FIN4: 1}, produce_out={fin_out: 1}),
        RuleSpec(ids[40], m2, MINUS, MINUS,
                 consume_in={_UNIT: 1}, produce_out={_UNIT: 1}),
        RuleSpec(ids[41], skin, MINUS, MINUS,
                 consume_in={_UNIT: 1}, produce_out={unit_out: 1}),
        rw(42, skin, MINUS, {_MP4: 1}, {_UNIT: 1}),
        # Zero multiplicand: no odd marker ever appears; the escaped round
        # marker short-circuits straight to shutdown.
        RuleSpec(ids[43], skin, NEUTRAL, MINUS,
                 consume_in={_R0: 1}, produce_in={_FIN3: 1},
                 produce_out={_WASTE: 1}),
        rw(44, skin, MINUS, {_MP3: 1}, {}),
    ]
    priority = [
        (ids[7], ids[8]),
        (ids[14], ids[15]),
        (ids[15], ids[16]),
        (ids[15], ids[17]),
        (ids[15], ids[18]),
        (ids[18], ids[2]),
        (ids[31], ids[3]),
    ]
    return rules, priority


def build_mult_system(m: int, n: int) -> PSystem:
    """Standalone multiplier: halver preloaded with m, outer region with n.

    When it halts, the environment holds exactly m*n product units plus
    one completion flag.
    """
    if m < 0 or n < 0:
        raise GameError("multiplier operands must be >= 0")
    work = MembraneNode("1", contents=Multiset.of((_MC, m), (_CYC[0], 1)))
    store = MembraneNode("2")
    skin = MembraneNode("0", children=[work, store],
                        contents=Multiset.of((_MP, n)))
    rules, priority = _mult_rules("0", "1", "2", _UNIT, _FIN,
                                  lambda nn: f"RS{nn:02d}")
    return PSystem(skin, rules, priority, name=f"mult_{m}x{n}")


def mult_steps(m: int) -> int:
    """Closed-form halt time of the multiplier (independent of n)."""
    if m == 0:
        return 5
    return 7 + 6 * (m.bit_length() - 1)


def stage_steps(max_count: int, last: bool) -> Tuple[int, int, int, int, int]:
    """Exact steps of each stage of one game-system loop.  max_count, the
    largest count at the loop's start, is both multipliers' multiplicand."""
    m = mult_steps(max_count)
    return (10,  # pricing chain in P, from the kickoff to each player's go
            6 + m,  # 2 load the multipliers, m multiply, 4 average
            7,  # excess payoff of each strategy over its player's mean
            9 + m,  # 4 load the multipliers, m multiply, 5 round and split
            12 if last else 18)  # 12 update and export, 6 restart the loop


def loop_steps_bound(r_disc: int) -> int:
    """Most transitions one iteration of a built game system takes.

    Every population count is at most r_disc, so this is the sum of
    `stage_steps(r_disc, False)`: 136 at r_disc = 100.
    """
    return sum(stage_steps(r_disc, False))


# ============================================================
# Equilibrium-seeking system
# ============================================================

# Region label helpers.  Labels must be globally unique, so per-strategy
# membranes carry both the slot and the player in their label.


def _lbl_strat(i: int, k: int) -> str:
    return f"S_{i}_{k}"


def _lbl_res(i: int, k: int) -> str:
    return f"RES_{i}_{k}"


def _lbl_mult(i: int, k: int) -> str:
    return f"MULT_{i}_{k}"


def _lbl_m1(i: int, k: int) -> str:
    return f"M1_{i}_{k}"


def _lbl_m2(i: int, k: int) -> str:
    return f"M2_{i}_{k}"


def _lbl_mult2(i: int, k: int) -> str:
    return f"MULT2_{i}_{k}"


def _lbl_m1p(i: int, k: int) -> str:
    return f"M1p_{i}_{k}"


def _lbl_m2p(i: int, k: int) -> str:
    return f"M2p_{i}_{k}"


def _lbl_upd(i: int, k: int) -> str:
    return f"UPD_{i}_{k}"


def _lbl_acum(k: int) -> str:
    return f"ACUM_{k}"


def _rid(stage: int, num: int, k: Optional[int] = None, i: Optional[int] = None,
         n: Optional[int] = None) -> str:
    """Canonical rule id ``S<stage>R<num>[_k<k>][_i<i>][_n<n>]``.

    stage is the loop stage (1-5), num the rule family within it, k the
    player, i the strategy slot and n the loop stamp; num, k and i take
    at least two digits, n at least three, and absent fields are left out
    (``S5R39_k01_i03_n002``).  `rule_tag` is the exact inverse and the only
    code that reads these fields back.  The embedded multipliers'
    ``S2X_``/``S4X_`` ids, the waste collectors ``S1R16_r<region>_c<charge>``
    and the stand-alone multiplier's ``RS<num>`` are outside this grammar.
    """
    out = f"S{stage}R{num:02d}"
    if k is not None:
        out += f"_k{k:02d}"
    if i is not None:
        out += f"_i{i:02d}"
    if n is not None:
        out += f"_n{n:03d}"
    return out


class RuleTag(NamedTuple):
    """The fields of a canonical rule id; see `_rid`."""

    stage: int
    num: int
    k: Optional[int]
    i: Optional[int]
    n: Optional[int]


_RID_FIELDS = re.compile(r"S(\d+)R(\d+)(?:_k(\d+))?(?:_i(\d+))?(?:_n(\d+))?")


def rule_tag(rule_id: str) -> Optional[RuleTag]:
    """The fields `_rid` wrote into rule_id, or None if `_rid` did not write it."""
    m = _RID_FIELDS.fullmatch(rule_id)
    if m is None:
        return None
    tag = RuleTag(*(None if g is None else int(g) for g in m.groups()))
    return tag if _rid(*tag) == rule_id else None


def build_gne_system(spec: GameSpec) -> PSystem:
    """Emit the full iterative equilibrium seeker for one game.

    The system runs spec.loops update iterations.  Each iteration stamps
    its resulting per-strategy counts out through the skin as
    result{k,i,l,n} objects (n is the 1-based iteration), so the entire
    trajectory can be read off the final environment.

    The game's coefficients set only the products of the pricing
    families S1R02 (`kappa`) and S1R07_k_i (`linear_row`).  Everything
    else depends on the game's shape alone and comes from a cached
    `_skeleton`, so this copies it (each rule by `RuleSpec.copy`), adds
    those two families and sorts.  The copy shares only interned symbols
    and strings with the cache, so callers may mutate the system they get.
    """
    diags = validate_game(spec)
    if diags:
        raise GameError("; ".join(diags))
    skel = _skeleton((spec.players, spec.slots,
                      tuple(tuple(s) for s in spec.strategies),
                      spec.r_disc, spec.loops))
    co = payoff_coefficients(spec)
    rules = [r.copy() for r in skel.rules]
    rules.append(RuleSpec(_rid(1, 2), "P", NEUTRAL, NEUTRAL,
                          consume_in={sym("tick"): 1},
                          produce_in={sym("pl", l): c for l, c in
                                      enumerate(co.kappa, start=1) if c}))
    for l, (k, i) in enumerate(co.pairs, start=1):
        rules.append(RuleSpec(_rid(1, 7, k, i), "P", PLUS, PLUS,
                              consume_in={sym("share", k, i, l): 1},
                              produce_in={sym("pl", j): c for j, c in
                                          enumerate(co.linear_row(l), start=1)
                                          if c}))
    # Declaration order is id order, so a canonical serialize/parse round
    # trip preserves every tie-break the step semantics depends on.
    rules.sort(key=lambda r: r.id)
    return PSystem(_copy_node(skel.tree), rules, list(skel.priority),
                   name=skel.name)


def _copy_node(node: MembraneNode) -> MembraneNode:
    return MembraneNode(node.label, [_copy_node(c) for c in node.children],
                        Multiset(node.contents.counts), node.charge)


# The last shape's skeleton stays cached.  Each benchmark workload and
# each pgne command builds games of one shape only.
@functools.lru_cache(maxsize=1)
def _skeleton(shape: Tuple[int, int, Tuple[Tuple[int, ...], ...], int, int]
              ) -> PSystem:
    """The tree, priorities and every rule but S1R02 and S1R07 of a shape.

    shape is (players, slots, strategies, r_disc, loops) of a valid game.
    Its rules are sorted by id; `build_gne_system` only ever copies it.
    """
    N, _, strategies, R, L = shape
    thr = R // 2 + 1
    players = list(range(1, N + 1))
    l_of = {ki: l for l, ki in enumerate(
        ((k, i) for k in players for i in strategies[k - 1]), start=1)}

    def strat(k: int) -> Tuple[int, ...]:
        return strategies[k - 1]

    # ---- membrane tree ----
    tree_children: List[MembraneNode] = [
        MembraneNode("P", contents=Multiset.of((sym("tick"), 1)))]
    for k in players:
        init = initial_distribution(len(strat(k)), R)
        kids: List[MembraneNode] = []
        for pos, i in enumerate(strat(k)):
            l = l_of[(k, i)]
            res = MembraneNode(_lbl_res(i, k),
                               contents=Multiset.of((sym("iter", 0), 1)))
            kids.append(MembraneNode(
                _lbl_strat(i, k), children=[res],
                contents=Multiset.of((sym("share", k, i, l), init[pos]))))
        for i in strat(k):
            kids.append(MembraneNode(_lbl_mult(i, k), children=[
                MembraneNode(_lbl_m1(i, k)), MembraneNode(_lbl_m2(i, k))]))
        for i in strat(k):
            kids.append(MembraneNode(_lbl_mult2(i, k), children=[
                MembraneNode(_lbl_m1p(i, k)), MembraneNode(_lbl_m2p(i, k))]))
        for i in strat(k):
            kids.append(MembraneNode(_lbl_upd(i, k)))
        kids.append(MembraneNode(_lbl_acum(k)))
        tree_children.append(MembraneNode(str(k), children=kids))
    tree = MembraneNode("0", children=tree_children)

    # Rules and priority pairs are sorted by id at the end, so each stage
    # emits its families in whatever order reads best.
    rules: List[RuleSpec] = []
    priority: List[Tuple[str, str]] = []
    add = rules.append

    def each_ki():
        for k in players:
            for i in strat(k):
                yield k, i, l_of[(k, i)]

    def count_round(ids: List[str], label: str, charge: int, x: Sym,
                    **product: Dict[Sym, int]) -> None:
        # The rule form of `oracle.count_round`: x^R, then x^thr, each make
        # one product, and a leftover x is dropped, in that priority order.
        up, half, drop = ids
        add(RuleSpec(up, label, charge, charge, consume_in={x: R}, **product))
        add(RuleSpec(half, label, charge, charge, consume_in={x: thr},
                     **product))
        add(RuleSpec(drop, label, charge, charge, consume_in={x: 1}))
        priority.extend([(up, half), (half, drop)])

    def embedded_mult(stage: int, num: int, k: int, i: int, outer: str,
                      m1: str, m2: str, unit_out: Sym, fin_out: Sym) -> None:
        # While outer is positive, rules num..num+2 load one multiplicand
        # unit per apre and one multiplier unit per bpre, and mstart starts
        # the work cycle; the 44 multiplier rules get S<stage>X_ ids.
        add(RuleSpec(_rid(stage, num, k, i), outer, PLUS, PLUS,
                     consume_in={sym("apre"): 1},
                     child=ChildPattern(m1, NEUTRAL, NEUTRAL, {}, {_MC: 1})))
        add(RuleSpec(_rid(stage, num + 1, k, i), outer, PLUS, PLUS,
                     consume_in={sym("bpre"): 1}, produce_in={_MP: 1}))
        add(RuleSpec(_rid(stage, num + 2, k, i), outer, PLUS, NEUTRAL,
                     consume_in={sym("mstart"): 1},
                     produce_out={_WASTE: 1},
                     child=ChildPattern(m1, NEUTRAL, NEUTRAL, {},
                                        {_CYC[0]: 1})))
        blk, bprio = _mult_rules(
            outer, m1, m2, unit_out, fin_out,
            lambda nn: f"S{stage}X_k{k:02d}_i{i:02d}_R{nn:02d}")
        rules.extend(blk)
        priority.extend(bprio)

    # -------- stage 1: price the current profile --------
    # The kickoff S1R02 and the pricing S1R07 carry the game's coefficients;
    # `build_gne_system` adds them.
    add(RuleSpec(_rid(1, 5), "0", NEUTRAL, NEUTRAL,
                 consume_in={sym("reg", k): R for k in players},
                 produce_in={sym("gate"): 1}))
    add(RuleSpec(_rid(1, 6), "0", NEUTRAL, NEUTRAL,
                 consume_in={sym("gate"): 1},
                 child=ChildPattern("P", NEUTRAL, PLUS, {}, {sym("ph2"): 1})))
    add(RuleSpec(_rid(1, 8), "P", PLUS, PLUS,
                 consume_in={sym("ph2"): 1}, produce_in={sym("ph3"): 1}))
    add(RuleSpec(_rid(1, 9), "P", PLUS, MINUS,
                 consume_in={sym("ph3"): 1}, produce_in={sym("ph4"): 1},
                 produce_out={sym("waste"): 1}))
    add(RuleSpec(_rid(1, 11), "P", MINUS, MINUS,
                 consume_in={sym("ph4"): 1}, produce_in={sym("ph5"): 1}))
    add(RuleSpec(_rid(1, 13), "P", MINUS, MINUS,
                 consume_in={sym("ph5"): 1}, produce_in={sym("ph6"): 1}))
    add(RuleSpec(_rid(1, 14), "P", MINUS, NEUTRAL,
                 consume_in={sym("ph6"): 1},
                 produce_out={sym("go", k): 1 for k in players}))
    for k in players:
        add(RuleSpec(_rid(1, 15, k), "0", NEUTRAL, NEUTRAL,
                     consume_in={sym("go", k): 1},
                     child=ChildPattern(str(k), NEUTRAL, MINUS, {},
                                        {sym("mstart"): len(strat(k))})))
    for k, i, l in each_ki():
        share = sym("share", k, i, l)
        add(RuleSpec(_rid(1, 1, k, i), _lbl_strat(i, k), NEUTRAL, NEUTRAL,
                     consume_in={share: 1}, produce_in={sym("agent"): 1},
                     produce_out={share: 1}))
        add(RuleSpec(_rid(1, 3, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={share: 1},
                     produce_in={sym("job1", k, i, l): 1},
                     produce_out={share: 1, sym("reg", k): 1}))
        add(RuleSpec(_rid(1, 4, k, i), "P", NEUTRAL, NEUTRAL,
                     consume_out={share: 1}, produce_in={share: 1}))
        add(RuleSpec(_rid(1, 10, k, i), "P", MINUS, MINUS,
                     consume_in={sym("pl", l): 1},
                     produce_out={sym("pay", k, i, l): 1}))
        add(RuleSpec(_rid(1, 12, k, i), "0", NEUTRAL, NEUTRAL,
                     consume_in={sym("pay", k, i, l): 1},
                     child=ChildPattern(str(k), NEUTRAL, NEUTRAL, {},
                                        {sym("pay", k, i, l): 1})))

    # -------- stage 2: average payoff of each population --------
    for k in players:
        acum = _lbl_acum(k)
        add(RuleSpec(_rid(2, 8, k), str(k), MINUS, MINUS,
                     consume_in={sym("fin"): len(strat(k))},
                     child=ChildPattern(acum, NEUTRAL, PLUS,
                                        {}, {sym("acc0"): 1})))
        add(RuleSpec(_rid(2, 9, k), str(k), MINUS, MINUS,
                     consume_in={sym("unit"): 1},
                     child=ChildPattern(acum, NEUTRAL, NEUTRAL,
                                        {}, {sym("pos"): 1})))
        count_round([_rid(2, n, k) for n in (10, 11, 12)], acum, PLUS,
                    sym("pos"), produce_out={sym("pos"): 1})
        add(RuleSpec(_rid(2, 13, k), acum, PLUS, PLUS,
                     consume_in={sym("acc0"): 1}, produce_in={sym("acc1"): 1}))
        add(RuleSpec(_rid(2, 14, k), acum, PLUS, NEUTRAL,
                     consume_in={sym("acc1"): 1}, produce_out={sym("acc2"): 1}))
        add(RuleSpec(_rid(2, 15, k), str(k), MINUS, NEUTRAL,
                     consume_in={sym("acc2"): 1}, produce_in={sym("cmp0"): 1},
                     produce_out={sym("waste"): 1}))
    for k, i, l in each_ki():
        mult = _lbl_mult(i, k)
        add(RuleSpec(_rid(2, 1, k, i), str(k), MINUS, MINUS,
                     consume_in={sym("job1", k, i, l): 1},
                     produce_in={sym("job2", k, i, l): 1},
                     child=ChildPattern(mult, NEUTRAL, NEUTRAL,
                                        {}, {sym("apre"): 1})))
        add(RuleSpec(_rid(2, 2, k, i), str(k), MINUS, MINUS,
                     consume_in={sym("pay", k, i, l): 1},
                     produce_in={sym("neg", i): 1},
                     child=ChildPattern(mult, NEUTRAL, NEUTRAL,
                                        {}, {sym("bpre"): 1})))
        add(RuleSpec(_rid(2, 3, k, i), str(k), MINUS, MINUS,
                     consume_in={sym("mstart"): 1},
                     child=ChildPattern(mult, NEUTRAL, PLUS,
                                        {}, {sym("mstart"): 1})))
        # Embedded multiplier: population count times average payoff.
        embedded_mult(2, 4, k, i, mult, _lbl_m1(i, k), _lbl_m2(i, k),
                      sym("unit"), sym("fin"))
        add(RuleSpec(_rid(2, 7, k, i), str(k), MINUS, MINUS,
                     consume_in={sym("neg", i): 1},
                     child=ChildPattern(_lbl_upd(i, k), NEUTRAL, NEUTRAL,
                                        {}, {sym("neg", i): 1})))

    # -------- stage 3: per-strategy excess payoff --------
    for k in players:
        add(RuleSpec(_rid(3, 1, k), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("cmp0"): 1},
                     produce_in={sym("cmp", 1, i): 1 for i in strat(k)}))
        add(RuleSpec(_rid(3, 3, k), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("pos"): 1},
                     produce_in={sym("posb", i): 1 for i in strat(k)}))
    for k, i, l in each_ki():
        upd = _lbl_upd(i, k)
        add(RuleSpec(_rid(3, 2, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("cmp", 1, i): 1},
                     produce_in={sym("cmp", 2, i): 1},
                     child=ChildPattern(upd, NEUTRAL, PLUS,
                                        {}, {sym("waste"): 1})))
        add(RuleSpec(_rid(3, 4, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("posb", i): 1},
                     child=ChildPattern(upd, PLUS, PLUS,
                                        {}, {sym("posb", i): 1})))
        add(RuleSpec(_rid(3, 5, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("cmp", 2, i): 1},
                     produce_in={sym("cmp", 3, i): 1}))
        add(RuleSpec(_rid(3, 6, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("cmp", 3, i): 1},
                     child=ChildPattern(upd, PLUS, MINUS,
                                        {}, {sym("cmp", 4, i): 1})))
        add(RuleSpec(_rid(3, 7, k, i), upd, MINUS, MINUS,
                     consume_in={sym("neg", i): 1, sym("posb", i): 1}))
        priority.append((_rid(3, 7, k, i), _rid(3, 8, k, i)))
        priority.append((_rid(3, 7, k, i), _rid(3, 9, k, i)))
        add(RuleSpec(_rid(3, 8, k, i), upd, MINUS, MINUS,
                     consume_in={sym("neg", i): 1}))
        add(RuleSpec(_rid(3, 9, k, i), upd, MINUS, MINUS,
                     consume_in={sym("posb", i): 1},
                     produce_in={sym("qplus", i): 1}))
        add(RuleSpec(_rid(3, 10, k, i), upd, MINUS, MINUS,
                     consume_in={sym("cmp", 4, i): 1},
                     produce_in={sym("cmp", 5, i): 1}))
        add(RuleSpec(_rid(3, 11, k, i), upd, MINUS, NEUTRAL,
                     consume_in={sym("cmp", 5, i): 1},
                     produce_in={sym("cmp", 6, i): 1},
                     produce_out={sym("waste"): 1}))
        add(RuleSpec(_rid(3, 12, k, i), upd, NEUTRAL, NEUTRAL,
                     consume_in={sym("qplus", i): 1},
                     produce_out={sym("qsum"): 1, sym("qplus", i): 1}))
        add(RuleSpec(_rid(3, 13, k, i), upd, NEUTRAL, NEUTRAL,
                     consume_in={sym("cmp", 6, i): 1},
                     produce_out={sym("cmp", 7, i): 1}))

    # -------- stage 4: rate counts via a second multiplication --------
    for k in players:
        add(RuleSpec(_rid(4, 1, k), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("cmp", 7, i): 1 for i in strat(k)},
                     produce_in={sym("mz", i, 0): 1 for i in strat(k)}))
        add(RuleSpec(_rid(4, 3, k), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("qsum"): 1},
                     produce_in={sym("qin", i): 1 for i in strat(k)}))
        add(RuleSpec(_rid(4, 10, k), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("fin1"): len(strat(k))},
                     produce_in={sym("rz0"): len(strat(k))}))
    for k, i, l in each_ki():
        s, mult2 = _lbl_strat(i, k), _lbl_mult2(i, k)
        add(RuleSpec(_rid(4, 2, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("mz", i, 0): 1},
                     produce_in={sym("mz", i, 1): 1}))
        add(RuleSpec(_rid(4, 4, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("job2", k, i, l): 1},
                     child=ChildPattern(mult2, NEUTRAL, NEUTRAL,
                                        {}, {sym("apre"): 1})))
        add(RuleSpec(_rid(4, 5, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("qin", i): 1},
                     child=ChildPattern(mult2, NEUTRAL, NEUTRAL,
                                        {}, {sym("bpre"): 1})))
        add(RuleSpec(_rid(4, 6, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("mz", i, 1): 1},
                     child=ChildPattern(mult2, NEUTRAL, PLUS,
                                        {}, {sym("mstart"): 1})))
        embedded_mult(4, 7, k, i, mult2, _lbl_m1p(i, k), _lbl_m2p(i, k),
                      sym("zq", i), sym("fin1"))
        add(RuleSpec(_rid(4, 11, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("rz0"): 1},
                     child=ChildPattern(s, NEUTRAL, PLUS,
                                        {}, {sym("rz1"): 1})))
        add(RuleSpec(_rid(4, 12, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("qplus", i): 1},
                     child=ChildPattern(s, PLUS, PLUS,
                                        {}, {sym("ex0"): 1})))
        add(RuleSpec(_rid(4, 13, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("zq", i): 1},
                     child=ChildPattern(s, PLUS, PLUS,
                                        {}, {sym("zq", i): 1})))
        add(RuleSpec(_rid(4, 14, k, i), s, PLUS, PLUS,
                     consume_in={sym("ex0"): 1}, produce_in={sym("ex1"): 1}))
        count_round([_rid(4, n, k, i) for n in (15, 16, 17)], s, PLUS,
                    sym("zq", i), produce_in={sym("zqr"): 1})
        add(RuleSpec(_rid(4, 18, k, i), s, PLUS, PLUS,
                     consume_in={sym("ex1"): 1, sym("zqr"): 1}))
        priority.append((_rid(4, 18, k, i), _rid(4, 19, k, i)))
        priority.append((_rid(4, 18, k, i), _rid(4, 20, k, i)))
        add(RuleSpec(_rid(4, 19, k, i), s, PLUS, PLUS,
                     consume_in={sym("ex1"): 1}, produce_in={sym("dzp"): 1}))
        add(RuleSpec(_rid(4, 20, k, i), s, PLUS, PLUS,
                     consume_in={sym("zqr"): 1}, produce_in={sym("dzn"): 1}))
        add(RuleSpec(_rid(4, 21, k, i), s, PLUS, PLUS,
                     consume_in={sym("rz1"): 1}, produce_in={sym("rz2"): 1}))
        add(RuleSpec(_rid(4, 22, k, i), s, PLUS, PLUS,
                     consume_in={sym("rz2"): 1}, produce_in={sym("rz3"): 1}))
        add(RuleSpec(_rid(4, 23, k, i), s, PLUS, MINUS,
                     consume_in={sym("rz3"): 1}, produce_in={sym("up0"): 1},
                     produce_out={sym("waste"): 1}))

    # -------- stage 5: Euler step, renormalization, restart --------
    add(RuleSpec(_rid(5, 49), "0", NEUTRAL, NEUTRAL,
                 consume_in={sym("donek", k): 1 for k in players},
                 produce_in={sym("tick"): 1}))
    wake = {sym("wkP"): 1}
    wake.update({sym("wkp", k): 1 for k in players})
    add(RuleSpec(_rid(5, 51), "0", NEUTRAL, NEUTRAL,
                 consume_in={sym("tick"): 1}, produce_in=wake))
    add(RuleSpec(_rid(5, 52), "P", NEUTRAL, NEUTRAL,
                 consume_out={sym("wkP"): 1}, produce_in={sym("wkP0"): 1}))
    add(RuleSpec(_rid(5, 54), "P", NEUTRAL, NEUTRAL,
                 consume_in={sym("wkP0"): 1}, produce_in={sym("wkP1"): 1}))
    add(RuleSpec(_rid(5, 56), "P", NEUTRAL, NEUTRAL,
                 consume_in={sym("wkP1"): 1}, produce_in={sym("wkP2"): 1}))
    add(RuleSpec(_rid(5, 58), "P", NEUTRAL, NEUTRAL,
                 consume_in={sym("wkP2"): 1}, produce_in={sym("tick"): 1}))
    for k in players:
        add(RuleSpec(_rid(5, 20, k), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("cand"): 1, sym("defc"): 1}))
        add(RuleSpec(_rid(5, 23, k), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("cand"): 1}, produce_in={sym("err"): 1}))
        add(RuleSpec(_rid(5, 24, k), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("defc"): 1}, produce_in={sym("err"): 1}))
        add(RuleSpec(_rid(5, 28, k), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("updone", i): 1 for i in strat(k)},
                     produce_in={sym("pool0"): 1}))
        add(RuleSpec(_rid(5, 29, k), str(k), NEUTRAL, PLUS,
                     consume_in={sym("pool0"): 1},
                     produce_in={sym("pool1"): 1, sym("quota"): R},
                     produce_out={sym("waste"): 1}))
        add(RuleSpec(_rid(5, 34, k), str(k), PLUS, NEUTRAL,
                     consume_in={sym("pool1"): 1},
                     produce_out={sym("waste"): 1}))
        add(RuleSpec(_rid(5, 48, k), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("done", i): 1 for i in strat(k)},
                     produce_out={sym("donek", k): 1}))
        add(RuleSpec(_rid(5, 50, k), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("err"): 1}, produce_out={sym("err"): 1}))
        add(RuleSpec(_rid(5, 53, k), str(k), NEUTRAL, NEUTRAL,
                     consume_out={sym("wkp", k): 1},
                     produce_in={sym("wk0"): 1}))
        add(RuleSpec(_rid(5, 55, k), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("wk0"): 1},
                     produce_in={sym("wks", i): 1 for i in strat(k)}))
    for k, i, l in each_ki():
        s, res = _lbl_strat(i, k), _lbl_res(i, k)
        add(RuleSpec(_rid(5, 1, k, i), s, MINUS, MINUS,
                     consume_in={sym("up0"): 1}, produce_in={sym("up1"): 1}))
        add(RuleSpec(_rid(5, 2, k, i), s, MINUS, MINUS,
                     consume_in={sym("dzn"): R, sym("agent"): 1}))
        add(RuleSpec(_rid(5, 3, k, i), s, MINUS, MINUS,
                     consume_in={sym("dzn"): thr, sym("agent"): 1}))
        priority.append((_rid(5, 2, k, i), _rid(5, 3, k, i)))
        priority.append((_rid(5, 3, k, i), _rid(5, 5, k, i)))
        priority.append((_rid(5, 3, k, i), _rid(5, 6, k, i)))
        count_round([_rid(5, n, k, i) for n in (4, 9, 10)], s, MINUS,
                    sym("dzp"), produce_in={sym("cand"): 1})
        add(RuleSpec(_rid(5, 5, k, i), s, MINUS, MINUS,
                     consume_in={sym("agent"): 1}, produce_in={sym("cand"): 1}))
        count_round([_rid(5, n, k, i) for n in (6, 7, 8)], s, MINUS,
                    sym("dzn"), produce_in={sym("defc"): 1})
        add(RuleSpec(_rid(5, 11, k, i), s, MINUS, MINUS,
                     consume_in={sym("up1"): 1},
                     produce_in={sym("up2"): 1, sym("slack"): R}))
        add(RuleSpec(_rid(5, 12, k, i), s, MINUS, MINUS,
                     consume_in={sym("cand"): R}, produce_in={sym("ovf"): 1},
                     produce_out={sym("nz", i): R}))
        add(RuleSpec(_rid(5, 13, k, i), s, MINUS, NEUTRAL,
                     consume_in={sym("up2"): 1}, produce_in={sym("up3"): 1},
                     produce_out={sym("updone", i): 1}))
        add(RuleSpec(_rid(5, 14, k, i), s, NEUTRAL, NEUTRAL,
                     consume_in={sym("cand"): 1}, produce_out={sym("cand"): 1}))
        add(RuleSpec(_rid(5, 15, k, i), s, MINUS, MINUS,
                     consume_in={sym("ovf"): 1, sym("slack"): R}))
        priority.append((_rid(5, 15, k, i), _rid(5, 18, k, i)))
        add(RuleSpec(_rid(5, 16, k, i), s, NEUTRAL, NEUTRAL,
                     consume_in={sym("defc"): 1}, produce_out={sym("defc"): 1}))
        add(RuleSpec(_rid(5, 17, k, i), s, NEUTRAL, NEUTRAL,
                     consume_in={sym("slack"): 1},
                     produce_out={sym("nzslack", i): 1}))
        add(RuleSpec(_rid(5, 18, k, i), s, MINUS, MINUS,
                     consume_in={sym("cand"): 1, sym("slack"): 1},
                     produce_in={sym("candok"): 1}))
        add(RuleSpec(_rid(5, 19, k, i), s, NEUTRAL, NEUTRAL,
                     consume_in={sym("candok"): 1}, produce_out={sym("nz", i): 1}))
        add(RuleSpec(_rid(5, 21, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("cand"): 1, sym("nzslack", i): 1},
                     produce_in={sym("nz", i): 1}))
        add(RuleSpec(_rid(5, 22, k, i), str(k), NEUTRAL, NEUTRAL,
                     consume_in={sym("defc"): 1, sym("nz", i): 1},
                     produce_in={sym("nzslack", i): 1}))
        priority.append((_rid(5, 20, k), _rid(5, 21, k, i)))
        priority.append((_rid(5, 20, k), _rid(5, 22, k, i)))
        priority.append((_rid(5, 21, k, i), _rid(5, 23, k)))
        priority.append((_rid(5, 22, k, i), _rid(5, 24, k)))
        add(RuleSpec(_rid(5, 25, k, i), s, NEUTRAL, NEUTRAL,
                     consume_in={sym("up3"): 1}, produce_in={sym("up4"): 1}))
        add(RuleSpec(_rid(5, 26, k, i), s, NEUTRAL, NEUTRAL,
                     consume_in={sym("up4"): 1}, produce_in={sym("up5"): 1}))
        add(RuleSpec(_rid(5, 27, k, i), s, NEUTRAL, PLUS,
                     consume_in={sym("up5"): 1}, produce_out={sym("up6"): 1}))
        add(RuleSpec(_rid(5, 30, k, i), str(k), PLUS, PLUS,
                     consume_in={sym("nz", i): 1, sym("quota"): 1},
                     produce_in={sym("znew", i): 1}))
        priority.append((_rid(5, 30, k, i), _rid(5, 31, k, i)))
        priority.extend((_rid(5, 30, k, i), _rid(5, 33, k, j))
                        for j in strat(k))
        add(RuleSpec(_rid(5, 31, k, i), str(k), PLUS, PLUS,
                     consume_in={sym("nz", i): 1}))
        add(RuleSpec(_rid(5, 32, k, i), str(k), PLUS, PLUS,
                     consume_in={sym("nzslack", i): 1}))
        add(RuleSpec(_rid(5, 33, k, i), str(k), PLUS, PLUS,
                     consume_in={sym("quota"): 1},
                     produce_in={sym("znew", i): 1}))
        add(RuleSpec(_rid(5, 35, k, i), s, PLUS, PLUS,
                     consume_out={sym("znew", i): 1},
                     produce_in={sym("znew", i): 1}))
        add(RuleSpec(_rid(5, 36, k, i), s, PLUS, NEUTRAL,
                     consume_out={sym("up6"): 1}, produce_in={sym("up7"): 1}))
        add(RuleSpec(_rid(5, 37, k, i), res, NEUTRAL, PLUS,
                     consume_out={sym("up7"): 1}, produce_in={sym("up8"): 1}))
        add(RuleSpec(_rid(5, 38, k, i), res, PLUS, PLUS,
                     consume_out={sym("znew", i): 1},
                     produce_in={sym("zout", i): 1}))
        # Loop L's S5R61 consumes iternext{L}, so iter{L}, stamp{L+1} and
        # result{..,L+1} never exist: S5R39 stamps 0..L-1, S5R44 carries
        # 1..L-1, and the stamp readers take 1..L.
        for nn in range(0, L):
            add(RuleSpec(_rid(5, 39, k, i, nn), res, PLUS, PLUS,
                         consume_in={sym("iter", nn): 1},
                         produce_in={sym("stamp", nn + 1): R,
                                     sym("iternext", nn + 1): 1}))
        for nn in range(1, L):
            add(RuleSpec(_rid(5, 44, k, i, nn), res, NEUTRAL, NEUTRAL,
                         consume_in={sym("iternext", nn): 1},
                         produce_in={sym("iter", nn): 1}))
        for nn in range(1, L + 1):
            result = sym("result", k, i, l, nn)
            add(RuleSpec(_rid(5, 41, k, i, nn), res, MINUS, MINUS,
                         consume_in={sym("zout", i): 1, sym("stamp", nn): 1},
                         produce_out={result: 1}))
            priority.append((_rid(5, 41, k, i, nn), _rid(5, 42, k, i, nn)))
            add(RuleSpec(_rid(5, 42, k, i, nn), res, MINUS, MINUS,
                         consume_in={sym("stamp", nn): 1}))
            add(RuleSpec(_rid(5, 45, k, i, nn), s, NEUTRAL, NEUTRAL,
                         consume_in={result: 1},
                         produce_in={sym("reseed", k, i, l): 1},
                         produce_out={result: 1}))
            add(RuleSpec(_rid(5, 47, k, i, nn), str(k), NEUTRAL, NEUTRAL,
                         consume_in={result: 1}, produce_out={result: 1}))
        add(RuleSpec(_rid(5, 40, k, i), res, PLUS, MINUS,
                     consume_in={sym("up8"): 1}, produce_in={sym("up9"): 1},
                     produce_out={sym("waste"): 1}))
        add(RuleSpec(_rid(5, 43, k, i), res, MINUS, NEUTRAL,
                     consume_in={sym("up9"): 1}, produce_out={sym("up10"): 1}))
        priority.append((_rid(5, 61, k, i), _rid(5, 43, k, i)))
        add(RuleSpec(_rid(5, 46, k, i), s, NEUTRAL, NEUTRAL,
                     consume_in={sym("up10"): 1},
                     produce_out={sym("done", i): 1}))
        add(RuleSpec(_rid(5, 57, k, i), s, NEUTRAL, PLUS,
                     consume_out={sym("wks", i): 1},
                     produce_in={sym("sdone"): 1}))
        add(RuleSpec(_rid(5, 59, k, i), s, PLUS, PLUS,
                     consume_in={sym("reseed", k, i, l): 1},
                     produce_in={sym("share", k, i, l): 1}))
        add(RuleSpec(_rid(5, 60, k, i), s, PLUS, NEUTRAL,
                     consume_in={sym("sdone"): 1},
                     produce_out={sym("waste"): 1}))
        # Loop limit: on the final iteration the countdown token and the
        # result-phase token annihilate, so the restart chain never fires.
        add(RuleSpec(_rid(5, 61, k, i), res, MINUS, MINUS,
                     consume_in={sym("iternext", L): 1, sym("up9"): 1}))

    # Waste collectors only in the (region, charge) cells waste lands in.
    # ridx numbers every region of the tree walk, so a region without
    # collectors renames none.
    sinks = {"0": (NEUTRAL,)}  # nothing ever changes the skin's charge
    for k in players:
        # Stage 2 runs at -; stages 3-5 send waste while it is neutral.
        sinks[str(k)] = (NEUTRAL, MINUS)
        for i in strat(k):
            # Multiplier R33 lands while R34 flips the region to -, and
            # R38 lands while R39 flips it back to 0.
            sinks[_lbl_mult(i, k)] = sinks[_lbl_mult2(i, k)] = (NEUTRAL, MINUS)
            # S5R40 fires after S5R36 has neutralised S_.
            sinks[_lbl_strat(i, k)] = (NEUTRAL,)
            # Its only feeder, S3R02, sets it to + and locks it.
            sinks[_lbl_upd(i, k)] = (PLUS,)
    sysd = PSystem(tree, rules, priority, name="gne")
    for ridx, label in enumerate(sysd.labels(), start=1):
        for charge in sinks.get(label, ()):
            suffix = {NEUTRAL: "c0", MINUS: "cm", PLUS: "cp"}[charge]
            add(RuleSpec(f"S1R16_r{ridx:03d}_{suffix}", label, charge,
                         charge, consume_in={_WASTE: 1}))

    rules.sort(key=lambda r: r.id)
    priority.sort()
    return sysd


# ============================================================
# Trace anatomy
# ============================================================


@dataclass
class StageSpan:
    loop: int
    stage: int
    start: int
    end: int


@dataclass
class LoopTiming:
    """Per-iteration timing: stage windows plus stages that never ran.

    apps sums the loop's rule applications by the (stage, num, k, i) of
    their tags; loop stamps are summed away.
    """

    loop: int
    start: int
    end: int
    spans: List[StageSpan]
    missing: List[int]
    payoff_step: int = 0
    apps: Dict[Tuple[int, int, Optional[int], Optional[int]], int] = \
        field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.end - self.start + 1


def _close_loop(lt: LoopTiming, end: int, first: Dict[Tuple[int, int], int],
                last: Dict[Tuple[int, int], int]) -> None:
    """Cut a loop's window into stages from its families' first/last steps."""
    # Stage 1 ends at the first multiplication kickoff (1, 15), stage 2 at
    # the last population flip back to neutral (2, 15), stage 3 at the
    # last excess-payoff export (3, 13) and stage 4 at the last rate
    # handoff (4, 23); stage 5 runs to the end of the loop.
    marks = (first.get((1, 15), 0), last.get((2, 15), 0),
             last.get((3, 13), 0), last.get((4, 23), 0))
    lt.end = end
    lt.payoff_step = first.get((1, 12), 0)
    cur = lt.start
    for stage, mark in enumerate(marks, start=1):
        if mark:
            lt.spans.append(StageSpan(lt.loop, stage, cur, mark))
            cur = mark + 1
        else:
            lt.missing.append(stage)
    lt.spans.append(StageSpan(lt.loop, 5, cur, end))


# The last plan's `rules` list, and per rule its (stage, num) family and
# its apps key, or None for an untagged rule.  Every system of a plan
# shares its rules, so a process that reads traces of one plan tags each
# rule once.
_TAGS: Tuple[list, Dict[CRule, Optional[Tuple[Tuple[int, int], tuple]]]] = \
    ([], {})


def stage_boundaries(trace: Trace) -> List[LoopTiming]:
    """Partition a run into per-iteration stage windows in one pass.

    A loop opens at each step where its kickoff rule (1, 2) fires and runs
    to the step before the next one.  Stage ends are read off marker
    families (see `_close_loop`); a stage whose marker never fires within
    its loop is reported in `missing`.  Each loop also sums its rule
    applications per tag in `apps`, so callers never read rule ids.

    Each application costs one dict lookup of its rule in a table of the
    tags of the trace's rules, kept for the last plan read; only the steps
    in which a tagged rule fired (about a fifth of the applications in a
    default game are tagged) go on to the loop bookkeeping.
    """
    global _TAGS
    rules = trace.final.csys.rules
    if _TAGS[0] is not rules:
        _TAGS = rules, {cr: None if tag is None else (tag[:2], tag[:4])
                        for cr in rules for tag in (rule_tag(cr.id),)}
    tags = _TAGS[1]
    out: List[LoopTiming] = []
    first: Dict[Tuple[int, int], int] = {}
    last: Dict[Tuple[int, int], int] = {}
    for t, rec in enumerate(trace.records, start=1):
        step = None
        for cr, cnt in rec:
            tagged = tags[cr]
            if tagged is not None:
                if step is None:
                    step = []
                step.append((*tagged, cnt))
        if step is None:
            continue
        if any(fam == (1, 2) for fam, _, _ in step):
            if out:
                _close_loop(out[-1], t - 1, first, last)
            out.append(LoopTiming(len(out) + 1, t, t, [], []))
            first, last = {}, {}
        if not out:
            continue
        apps = out[-1].apps
        for fam, key, cnt in step:
            first.setdefault(fam, t)
            last[fam] = t
            apps[key] = apps.get(key, 0) + cnt
    if out:
        _close_loop(out[-1], len(trace.records), first, last)
    return out
