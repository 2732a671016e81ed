"""Command line front end.

Subcommands:
  build       emit a system file from a saved game or multiplier operands
  run         execute a system file and summarize the trace
  mult        run one multiplication and check it
  oracle      write the reference count trajectory as CSV
  compare     run both routes and report the first divergence, if any
  experiment  sample a seeded game, run the chosen route(s), write outputs

Exit status is 0 on success, 1 on any checked failure or bad input (one
`error:` line on stderr), 2 on bad usage.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import List, Optional

from .builder import (GameError, build_gne_system, build_mult_system,
                      load_game, save_game, validate_game)
from .engine import (ENV_LABEL, StructureError, compile_system,
                     export_trace_text, read_region, run)
from .harness import (PRESETS, compare_engines, run_gne, run_mult,
                      sample_experiment)
from .oracle import gne_residual, simulate, trajectory_csv
from .pspec import PSpecError, load_system, serialize_system


def _write(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _checked(spec):
    problems = validate_game(spec)
    if problems:
        raise GameError("invalid game: " + "; ".join(problems))
    return spec


def _load_spec(path: str, loops: Optional[int]):
    spec = load_game(path)
    if loops is not None:
        spec.loops = loops
    return _checked(spec)


def cmd_build(args) -> int:
    if args.mult:
        sysd = build_mult_system(args.mult[0], args.mult[1])
    else:
        sysd = build_gne_system(_load_spec(args.spec, args.loops))
    _write(args.out, serialize_system(sysd))
    return 0


def cmd_run(args) -> int:
    sysd = load_system(args.spec)
    csys = compile_system(sysd)
    t0 = time.perf_counter()
    trace = run(csys, max_steps=args.steps, strict=args.strict)
    dt = time.perf_counter() - t0
    print(f"steps: {trace.steps}  halted: {trace.halted} "
          f"({trace.halt_reason})  wall: {dt:.3f}s")
    for label in (ENV_LABEL, sysd.tree.label):
        ms = read_region(trace.final, label)
        if ms.counts:
            inside = " ".join(f"{s.text}^{c}" if c > 1 else s.text
                              for s, c in sorted(ms.items(),
                                                 key=lambda kv: kv[0].text))
            print(f"{label}: {inside}")
    if trace.ambiguities:
        steps = {a.step for a in trace.ambiguities}
        print(f"ambiguous steps: {len(steps)}")
    if args.trace:
        _write(args.trace, export_trace_text(trace))
    return 0 if trace.halted else 1


def cmd_mult(args) -> int:
    rep = run_mult(args.m, args.n)
    verdict = "ok" if rep.ok else "FAIL"
    if rep.ok and not rep.bound_ok:
        verdict = "ok [exceeds doubling bound]"
    bound = "-" if rep.bound is None else str(rep.bound)
    print(f"{rep.m} x {rep.n} = {rep.product} in {rep.steps} steps "
          f"(expected {rep.expect_product} in {rep.expect_steps}, "
          f"bound {bound}): {verdict}")
    return 0 if rep.ok else 1


def cmd_oracle(args) -> int:
    spec = _load_spec(args.spec, args.loops)
    traj = simulate(spec)
    _write(args.out, trajectory_csv(traj))
    print(f"residual at final state: {gne_residual(traj.final(), spec):.6f}",
          file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    spec = _load_spec(args.spec, args.loops)
    rep = compare_engines(spec)
    print(rep.text(), end="")
    return 0 if rep.agree and not rep.engine_warnings else 1


def cmd_experiment(args) -> int:
    spec = _checked(sample_experiment(args.seed, args.preset,
                                      loops=args.loops))
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    save_game(spec, os.path.join(out_dir, "game.json"))
    lines: List[str] = [f"seed: {args.seed}", f"preset: {args.preset}",
                        f"loops: {spec.loops}"]
    status = 0
    result = None
    if args.engine in ("membrane", "both"):
        t0 = time.perf_counter()
        result = run_gne(spec, strict=args.strict)
        dt = time.perf_counter() - t0
        _write(os.path.join(out_dir, "counts_membrane.csv"), result.csv())
        print(f"membrane route: {result.trace.steps} steps in {dt:.2f}s")
        lines.append(f"membrane steps: {result.trace.steps}")
        lines.append(f"halted: {result.trace.halted} "
                     f"({result.trace.halt_reason})")
        for lt in result.timings:
            lines.append(f"  loop {lt.loop}: steps {lt.total} "
                         f"payoff at +{lt.payoff_step - lt.start + 1}")
        if result.trace.ambiguities:
            steps = {a.step for a in result.trace.ambiguities}
            lines.append(f"ambiguous steps: {len(steps)}")
        for w in result.warnings:
            lines.append(f"warning: {w}")
            status = 1
    if args.engine in ("oracle", "both"):
        traj = simulate(spec)
        _write(os.path.join(out_dir, "counts_oracle.csv"),
               trajectory_csv(traj))
        res = gne_residual(traj.final(), spec)
        lines.append(f"reference residual: {res:.6f}")
    if args.engine == "both":
        rep = compare_engines(spec, traj=traj, result=result)
        lines.append(rep.text().rstrip())
        if not rep.agree:
            status = 1
    report = "\n".join(lines) + "\n"
    _write(os.path.join(out_dir, "report.txt"), report)
    print(report, end="")
    return status


def main(argv: Optional[List[str]] = None) -> int:
    top = argparse.ArgumentParser(prog="pgne", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit a system file")
    p.add_argument("--spec", help="game JSON to build from")
    p.add_argument("--mult", nargs=2, type=int, metavar=("M", "N"),
                   help="build the multiplier for M x N instead")
    p.add_argument("--loops", type=int)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("run", help="run a system file")
    p.add_argument("--spec", required=True, help="system file to run")
    p.add_argument("--steps", type=int, default=10000, help="step budget")
    p.add_argument("--strict", action="store_true",
                   help="flag starved concurrent rule applications")
    p.add_argument("--trace", help="write the full firing trace here")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("mult", help="run one multiplication")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_mult)

    p = sub.add_parser("oracle", help="reference trajectory as CSV")
    p.add_argument("--spec", required=True, help="game JSON")
    p.add_argument("--loops", type=int)
    p.add_argument("--out", help="CSV path (default stdout)")
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("compare", help="membrane run vs reference")
    p.add_argument("--spec", required=True, help="game JSON")
    p.add_argument("--loops", type=int)
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("experiment", help="seeded end-to-end run")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--preset", default="default", choices=sorted(PRESETS))
    p.add_argument("--loops", type=int)
    p.add_argument("--engine", default="both",
                   choices=["membrane", "oracle", "both"])
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--strict", action="store_true",
                   help="flag starved concurrent rule applications")
    p.set_defaults(fn=cmd_experiment)

    args = top.parse_args(argv)
    if args.command == "build" and bool(args.spec) == bool(args.mult):
        top.error("build needs exactly one of --spec or --mult")
    try:
        return args.fn(args)
    except (OSError, GameError, PSpecError, StructureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
