"""Membrane-computing engine and game-dynamics toolkit.

Layers, bottom up: interned symbols and multisets, a charge-aware
maximally parallel engine with priorities, a plain-text system format,
builders for the multiplier and equilibrium-seeking systems, an
integer/real reference oracle, and an experiment harness.
"""

from __future__ import annotations

from .symbols import Multiset, Sym, parse_sym, sym
from .engine import (CHARGES, ENV_LABEL, MINUS, NEUTRAL, PLUS, Ambiguity,
                     ChildPattern, CompiledSystem, Configuration,
                     MembraneNode, PSystem, RuleSpec, StructureError, Trace,
                     apply_record, charge_from_text, charge_text,
                     compile_system, export_trace_text, maximal_step,
                     read_region, replay_matches, run)
from .builder import (GameError, GameSpec, LoopTiming, PayoffCoefficients,
                      StageSpan, build_gne_system, build_mult_system,
                      coefficient_matrices, initial_distribution, load_game,
                      mult_steps, payoff_coefficients, quantize, save_game,
                      stage_boundaries, validate_game)
from .oracle import (LoopRecord, RateCounts, StateZ, Trajectory, bnn_rate,
                     count_round, discrete_update, excess_counts,
                     excess_payoff, gne_residual, individual_cost,
                     initial_state, mean_counts, payoff, payoff_counts,
                     pricing, rate_counts, simulate, trajectory_csv)
from .pspec import (PSpecError, load_system, parse_system, save_system,
                    serialize_system, systems_equal)
from .harness import (PRESETS, CompareReport, Divergence, GneResult,
                      MultReport, Preset, SplitMix64, compare_engines,
                      mult_sweep, run_gne, run_mult, sample_experiment)

__all__ = [
    "Multiset", "Sym", "parse_sym", "sym",
    "CHARGES", "ENV_LABEL", "MINUS", "NEUTRAL", "PLUS",
    "Ambiguity", "ChildPattern", "CompiledSystem",
    "Configuration", "MembraneNode", "PSystem", "RuleSpec", "StructureError",
    "Trace", "apply_record", "charge_from_text", "charge_text",
    "compile_system", "export_trace_text", "maximal_step", "read_region",
    "replay_matches", "run",
    "GameError", "GameSpec", "LoopTiming", "PayoffCoefficients", "StageSpan",
    "build_gne_system", "build_mult_system", "coefficient_matrices",
    "initial_distribution", "load_game", "mult_steps",
    "payoff_coefficients", "quantize", "save_game", "stage_boundaries",
    "validate_game",
    "LoopRecord", "RateCounts", "StateZ", "Trajectory", "bnn_rate",
    "count_round", "discrete_update", "excess_counts", "excess_payoff",
    "gne_residual", "individual_cost", "initial_state", "mean_counts",
    "payoff", "payoff_counts", "pricing", "rate_counts", "simulate",
    "trajectory_csv",
    "PSpecError", "load_system", "parse_system", "save_system",
    "serialize_system", "systems_equal",
    "PRESETS", "CompareReport", "Divergence", "GneResult", "MultReport", "Preset", "SplitMix64", "compare_engines",
    "mult_sweep", "run_gne", "run_mult", "sample_experiment",
]

__version__ = "0.1.0"
