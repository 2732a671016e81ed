"""Membrane-computing engine and game-dynamics toolkit.

Layers, bottom up: interned symbols and multisets, a charge-aware
maximally parallel engine with priorities, a plain-text system format,
builders for the multiplier and equilibrium-seeking systems, an
integer/real reference oracle, and an experiment harness.

The package namespace holds the names the benchmark and the tests import
from it and the errors the command line reports; every other name is
imported from its module.
"""

from __future__ import annotations

from .symbols import Multiset, sym
from .engine import (ENV_LABEL, PLUS, CompiledSystem, MembraneNode, PSystem,
                     RuleSpec, StructureError, Trace, apply_record,
                     compile_system, export_trace_text, maximal_step,
                     read_region, run)
from .builder import (GameError, GameSpec, LoopTiming, build_gne_system,
                      build_mult_system, coefficient_matrices, mult_steps,
                      payoff_coefficients, stage_boundaries)
from .oracle import simulate
from .pspec import PSpecError, parse_system, serialize_system, systems_equal
from .harness import compare_engines, run_gne, sample_experiment

__all__ = [
    "Multiset", "sym",
    "ENV_LABEL", "PLUS", "CompiledSystem", "MembraneNode", "PSystem",
    "RuleSpec", "StructureError", "Trace", "apply_record", "compile_system",
    "export_trace_text", "maximal_step", "read_region", "run",
    "GameError", "GameSpec", "LoopTiming", "build_gne_system",
    "build_mult_system", "coefficient_matrices", "mult_steps",
    "payoff_coefficients", "stage_boundaries",
    "simulate",
    "PSpecError", "parse_system", "serialize_system", "systems_equal",
    "compare_engines", "run_gne", "sample_experiment",
]

__version__ = "0.1.0"
