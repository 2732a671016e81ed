"""Sampler, drivers, comparator attribution, and the CLI."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys

import pytest

import pgne.builder as builder
import pgne.cli as cli
import pgne.engine as engine
import pgne.harness as harness
import pgne.oracle as oracle_mod
from pgne.builder import (GameSpec, build_gne_system, build_mult_system,
                          load_game, loop_steps_bound, save_game)
from pgne.cli import main
from pgne.engine import compile_system, run
from pgne.harness import (PRESETS, SplitMix64, compare_engines, mult_sweep,
                          run_gne, run_mult, sample_experiment)
from pgne.oracle import simulate
from pgne.pspec import load_system, parse_system, serialize_system
from test_engine import plans  # a fixture
from test_gne import _DATA


# ============================================================
# Deterministic sampling
# ============================================================


def test_splitmix_reference_vector():
    # First outputs for seed 0, from the reference implementation.
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix_seed_masking_and_determinism():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert SplitMix64(1).next_u64() != SplitMix64(2).next_u64()
    big = SplitMix64(2 ** 80 + 5)
    assert big.state == 5


def test_uniform_range():
    rng = SplitMix64(7)
    vals = [rng.uniform(2.0, 4.0) for _ in range(1000)]
    assert all(2.0 <= v < 4.0 for v in vals)
    assert max(vals) > 3.5 and min(vals) < 2.5


def test_sample_experiment_is_deterministic():
    a = sample_experiment(123, "default")
    b = sample_experiment(123, "default")
    assert a == b
    c = sample_experiment(124, "default")
    assert a != c


def test_sample_experiment_shape_and_ranges():
    p = PRESETS["default"]
    spec = sample_experiment(5, "default")
    assert spec.players == 3 and spec.slots == 5
    assert spec.strategies == [[3, 5], [1, 3, 5], [1, 2, 4]]
    assert spec.r_disc == 100 and spec.loops == 10
    for x in spec.d_diag:
        assert p.d_range[0] <= x <= p.d_range[1]
        assert round(x, 4) == x
    for x in spec.j_bar:
        assert p.j_range[0] <= x <= p.j_range[1]
    for row in spec.alpha:
        for x in row:
            assert p.alpha_range[0] <= x <= p.alpha_range[1]
    for row in spec.beta:
        for x in row:
            assert p.beta_range[0] <= x <= p.beta_range[1]
    for x in spec.mass:
        assert p.mass_range[0] <= x <= p.mass_range[1]


def test_loops_override():
    assert sample_experiment(5, "small", loops=3).loops == 3
    assert sample_experiment(5, "small").loops == 10


# ============================================================
# Multiplication driver
# ============================================================


def test_run_mult_reports():
    rep = run_mult(0, 9)
    assert rep.product == 0 and rep.steps == 5 and rep.ok
    assert rep.bound is None
    rep = run_mult(13, 4)
    assert rep.product == 52 and rep.ok
    assert rep.steps == rep.expect_steps == 25
    assert rep.bound == 25


def test_doubling_bound_is_exact():
    # Past 2**53, log2 rounds m - 1 to a power of two and undercounts by
    # a round; the exact bound meets the step count with equality.
    rep = run_mult(2**53 + 1, 3)
    assert rep.bound == rep.steps == 325 and rep.bound_ok and rep.ok
    # Where the float formula is exact, the two agree.
    trace = run(build_mult_system(2, 1), max_steps=20)
    for m in range(2, 4097):
        assert harness._mult_report(m, 1, trace).bound == \
            1 + 6 * math.ceil(math.log2(m)), m


def test_mult_sweep_small_block():
    failures, elapsed = mult_sweep(6, 6)
    assert failures == []
    assert elapsed < 30


def test_mult_sweep_times_on_a_monotonic_clock(monkeypatch):
    # A wall clock can step back (NTP, a manual set); a duration must not.
    wall = iter(range(10**6, 0, -1))
    monkeypatch.setattr(harness.time, "time", lambda: float(next(wall)))
    failures, elapsed = mult_sweep(1, 1)
    assert failures == []
    assert elapsed >= 0


# ============================================================
# Membrane-run driver
# ============================================================


def tiny_spec() -> GameSpec:
    return GameSpec(players=1, slots=2, strategies=[[1, 2]],
                    d_diag=[0.0, 0.0], j_bar=[0.0, 0.0],
                    alpha=[[0.0, 0.0]], beta=[[0.01, 0.02]],
                    mass=[3.0], r_disc=100, loops=2)


def test_a_workload_process_needs_one_plan_one_skeleton_one_tag_table(
        plans, monkeypatch):
    # What a gne-default benchmark op does, on four seeds, and then what a
    # spec-roundtrip op does: every system has one shape and one plan, so
    # caches that hold only the last one miss once each.
    tagged = []
    tag = builder.rule_tag
    monkeypatch.setattr(builder, "rule_tag",
                        lambda rid: tagged.append(rid) or tag(rid))
    engine._PLAN = None
    builder._skeleton.cache_clear()
    for seed in (1, 2, 3, 27):
        spec = sample_experiment(seed, "default")
        csys = compile_system(build_gne_system(spec))
        result = run_gne(spec)
        report = compare_engines(spec, result=result, traj=simulate(spec))
        assert report.agree and not report.engine_warnings
    for seed in (4, 5):
        text = serialize_system(build_gne_system(
            sample_experiment(seed, "default")))
        assert compile_system(parse_system(text)).rules is csys.rules
    assert len(plans) == 1
    assert builder._skeleton.cache_info().misses == 1
    assert builder._TAGS[0] is csys.rules
    assert len(tagged) == len(csys.rules) == 1981


def test_run_gne_clean():
    res = run_gne(sample_experiment(0, "small", loops=2))
    assert res.warnings == []
    assert res.loops_completed == 2
    assert len(res.timings) == 2


def test_run_gne_budget_warning(monkeypatch):
    monkeypatch.setattr(harness, "loop_steps_bound", lambda r_disc: 10)
    res = run_gne(tiny_spec())
    assert any("budget" in w for w in res.warnings)


def test_run_gne_budget_follows_r_disc():
    # Loops grow by 12 steps per bit of r_disc: at 10^5 a loop takes 244
    # steps, past a flat 200-step-per-loop budget.
    spec = dataclasses.replace(sample_experiment(2, "small"), r_disc=100000)
    res = run_gne(spec)
    assert res.trace.halted and res.warnings == []
    assert max(lt.total for lt in res.timings) <= loop_steps_bound(100000)
    assert compare_engines(spec, result=res).agree


def test_loop_steps_bound_matches_default_profile():
    assert loop_steps_bound(100) == 136
    assert loop_steps_bound(100000) - loop_steps_bound(50000) == 12


def test_import_does_not_load_numpy():
    code = "import sys, pgne; print('numpy' in sys.modules)"
    src = os.path.dirname(os.path.dirname(oracle_mod.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout.strip() == "False"


# ============================================================
# Comparator attribution
# ============================================================


def test_agreement_on_tiny():
    rep = compare_engines(tiny_spec())
    assert rep.agree
    assert rep.first() is None
    assert "exact agreement" in rep.text()


def test_tampered_mean_is_attributed_to_stage_2(monkeypatch):
    # Lower the round-half-up threshold from 51 to 50: the population
    # mean on the tiny fixture sits exactly on the boundary (sum 150),
    # so the tampered reference rounds 1 -> 2 there first.
    true_round = oracle_mod.count_round

    def hacked(x: int, r: int) -> int:
        return x // r + (1 if x % r >= r // 2 else 0)

    monkeypatch.setattr(oracle_mod, "count_round", hacked)
    traj = simulate(tiny_spec())
    monkeypatch.setattr(oracle_mod, "count_round", true_round)
    rep = compare_engines(tiny_spec(), traj=traj)
    assert not rep.agree
    first = rep.first()
    assert first.loop == 1
    assert first.stage == "stage2:mean"
    assert first.engine == 1 and first.oracle == 2


def test_tampered_counts_are_attributed_to_stage_5():
    spec = tiny_spec()
    traj = simulate(spec)
    traj.states[1].counts[(1, 1)] += 1
    traj.states[1].counts[(1, 2)] -= 1
    rep = compare_engines(spec, traj=traj)
    assert not rep.agree
    assert rep.first().stage == "stage5:counts"
    assert rep.first().loop == 1
    # Both moved cells are reported.
    assert len([d for d in rep.divergences if d.loop == 1]) == 2


def _drop_rules(monkeypatch, prefix: str) -> None:
    # Every game system the harness builds loses the rules named prefix*.
    build = harness.build_gne_system

    def stripped(spec):
        sysd = build(spec)
        sysd.rules = [r for r in sysd.rules if not r.id.startswith(prefix)]
        return sysd

    monkeypatch.setattr(harness, "build_gne_system", stripped)


def test_compare_without_kickoff_does_not_agree(monkeypatch, tmp_path,
                                                capsys):
    # Without the kickoff S1R02 no loop opens a window, yet every loop
    # still exports counts, and those differ from the reference's.
    _drop_rules(monkeypatch, "S1R02")
    spec = sample_experiment(27, "default")
    rep = compare_engines(spec)
    assert not rep.agree and rep.loops_checked == 0
    first = rep.first()
    assert (first.loop, first.stage, first.engine, first.oracle) == \
        (1, "stage1:kickoff", 0, 10)
    assert {d.loop for d in rep.divergences
            if d.stage == "stage5:counts"} == set(range(1, 11))
    game = str(tmp_path / "game.json")
    save_game(spec, game)
    assert main(["compare", "--spec", game]) == 1
    assert "first divergence: loop 1 stage1:kickoff" in capsys.readouterr().out


def test_run_without_kickoff_is_flagged(monkeypatch, tmp_path, capsys):
    # Every loop still exports counts, but none opens a window.
    _drop_rules(monkeypatch, "S1R02")
    res = run_gne(sample_experiment(27, "default"))
    assert res.timings == []
    assert res.warnings == ["0 loop windows for 10 loops"]
    out = str(tmp_path / "exp")
    assert main(["experiment", "--seed", "27", "--engine", "membrane",
                 "--out", out]) == 1
    assert "warning: 0 loop windows for 10 loops" in capsys.readouterr().out


def test_waste_left_at_halt_is_flagged(monkeypatch):
    _drop_rules(monkeypatch, "S1R16")
    res = run_gne(sample_experiment(27, "default"))
    assert "0 holds 100 waste at halt" in res.warnings
    assert len(res.warnings) == 36
    assert all(w.endswith(" waste at halt") for w in res.warnings)


def test_err_left_in_players_is_flagged(monkeypatch):
    # surplus_err forms one err token; without S5R50 it stays in player 1
    # instead of reaching the skin, where the count is read.
    game = load_game(str(_DATA / "surplus_err.json"))
    assert run_gne(game).warnings == []
    _drop_rules(monkeypatch, "S5R50")
    res = run_gne(game)
    assert sum(res.states[-1].err.values()) == 1
    assert res.warnings == ["skin holds 0 err, the loops formed 1"]


def test_stage_steps_miss_is_flagged(monkeypatch):
    # A law one step longer in stage 3 than the run: every loop warns once.
    law = harness.stage_steps
    monkeypatch.setattr(harness, "stage_steps", lambda m, last: tuple(
        s + (n == 2) for n, s in enumerate(law(m, last))))
    res = run_gne(tiny_spec())
    assert res.warnings == ["loop 1: stage 3 took 7 steps, not 8",
                            "loop 2: stage 3 took 7 steps, not 8"]


# ============================================================
# Command line
# ============================================================


def test_cli_mult_ok(capsys):
    assert main(["mult", "7", "8"]) == 0
    out = capsys.readouterr().out
    assert "7 x 8 = 56" in out and "ok" in out


def test_cli_build_run_round_trip(tmp_path, capsys):
    path = str(tmp_path / "m.pspec")
    assert main(["build", "--mult", "3", "5", "--out", path]) == 0
    sysd = load_system(path)
    assert sysd.name == "mult_3x5"
    assert main(["run", "--spec", path]) == 0
    out = capsys.readouterr().out
    assert "halted: True" in out
    assert "unit^15" in out


def test_cli_run_strict_flags_incomparable_starvation(tmp_path, capsys):
    # Two unordered rules compete for the one a: the first takes it.
    path = tmp_path / "race.pspec"
    path.write_text("membranes:\n  [ 'm ^0 { a } ]\n"
                    "rules:\n"
                    "  rule 'r1 at 'm ^0 -> ^0 in( a -> b )\n"
                    "  rule 'r2 at 'm ^0 -> ^0 in( a -> c )\n")
    assert main(["run", "--spec", str(path)]) == 0
    assert "ambiguous" not in capsys.readouterr().out
    assert main(["run", "--spec", str(path), "--strict"]) == 0
    out = capsys.readouterr().out
    assert "ambiguous steps: 1" in out and "m: b" in out


def test_cli_run_strict_counts_steps_not_races(tmp_path, capsys):
    # Three unordered rules race for one a: two losers, one ambiguous step.
    path = tmp_path / "race3.pspec"
    path.write_text("membranes:\n  [ 'm ^0 { a } ]\n"
                    "rules:\n"
                    "  rule 'r1 at 'm ^0 -> ^0 in( a -> b )\n"
                    "  rule 'r2 at 'm ^0 -> ^0 in( a -> c )\n"
                    "  rule 'r3 at 'm ^0 -> ^0 in( a -> d )\n")
    assert main(["run", "--spec", str(path), "--strict"]) == 0
    out = capsys.readouterr().out
    assert "steps: 1 " in out and "ambiguous steps: 1\n" in out


def test_cli_experiment_strict_reports_ambiguous_steps(tmp_path, capsys):
    # default/27 collects 8 ambiguities over 4 steps; the exit status
    # stays that of the run without --strict.
    out = str(tmp_path / "exp")
    args = ["experiment", "--seed", "27", "--engine", "membrane",
            "--out", out]
    assert main(args) == 0
    assert "ambiguous" not in capsys.readouterr().out
    assert main(args + ["--strict"]) == 0
    printed = capsys.readouterr().out
    assert "ambiguous steps: 4\n" in printed
    with open(os.path.join(out, "report.txt")) as fh:
        assert fh.read() == printed.split("\n", 1)[1]


def test_cli_build_needs_one_source(capsys):
    with pytest.raises(SystemExit):
        main(["build"])


def test_cli_experiment_and_compare(tmp_path, capsys):
    out = str(tmp_path / "exp")
    rc = main(["experiment", "--seed", "6", "--preset", "small",
               "--loops", "2", "--out", out])
    assert rc == 0
    for name in ("game.json", "counts_membrane.csv", "counts_oracle.csv",
                 "report.txt"):
        assert os.path.exists(os.path.join(out, name))
    with open(os.path.join(out, "counts_membrane.csv"), "rb") as fh:
        mem = fh.read()
    with open(os.path.join(out, "counts_oracle.csv"), "rb") as fh:
        assert fh.read() == mem
    game = os.path.join(out, "game.json")
    assert load_game(game) == sample_experiment(6, "small", loops=2)
    assert main(["compare", "--spec", game]) == 0
    capsys.readouterr()


def test_cli_experiment_on_both_engines_simulates_once(tmp_path, monkeypatch,
                                                       capsys):
    calls = []

    def counted(spec):
        calls.append(spec)
        return simulate(spec)
    monkeypatch.setattr(cli, "simulate", counted)
    monkeypatch.setattr(harness, "simulate", counted)
    assert main(["experiment", "--seed", "6", "--preset", "small", "--loops",
                 "2", "--engine", "both", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_cli_experiment_rerun_is_byte_identical(tmp_path, capsys):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["experiment", "--seed", "9", "--preset", "small",
                 "--loops", "2", "--out", a]) == 0
    assert main(["experiment", "--seed", "9", "--preset", "small",
                 "--loops", "2", "--out", b]) == 0
    capsys.readouterr()
    for name in ("game.json", "counts_membrane.csv", "counts_oracle.csv",
                 "report.txt"):
        with open(os.path.join(a, name), "rb") as fh:
            da = fh.read()
        with open(os.path.join(b, name), "rb") as fh:
            assert fh.read() == da, name


def test_cli_oracle_csv(tmp_path, capsys):
    out = str(tmp_path / "exp")
    main(["experiment", "--seed", "2", "--preset", "small", "--loops", "1",
          "--engine", "oracle", "--out", out])
    capsys.readouterr()
    csv = os.path.join(out, "counts_oracle.csv")
    with open(csv, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "loop,k,i,l,count,err_k"
    assert lines[1] == "0,1,1,1,50,0"
    # header + (loops+1) states x 4 pairs
    assert len(lines) == 1 + 2 * 4


def test_cli_missing_file_is_reported(capsys):
    assert main(["oracle", "--spec", "/nonexistent/game.json"]) == 1
    assert "error" in capsys.readouterr().err


# Bad input to each subcommand: a malformed file or an out-of-range value.
_BAD_INPUT = {
    "build": ["build", "--spec", "{game}", "--loops", "0"],
    "run": ["run", "--spec", "{pspec}"],
    "mult": ["mult", "--", "-1", "3"],
    "oracle": ["oracle", "--spec", "{bad}"],
    "oracle-inf": ["oracle", "--spec", "{inf}"],
    "oracle-fraction": ["oracle", "--spec", "{fraction}"],
    "oracle-huge": ["oracle", "--spec", "{huge}"],
    "oracle-string": ["oracle", "--spec", "{string}"],
    "oracle-bool": ["oracle", "--spec", "{bool}"],
    "oracle-loops": ["oracle", "--spec", "{game}", "--loops", "0"],
    "compare": ["compare", "--spec", "{game}", "--loops", "0"],
    "experiment": ["experiment", "--seed", "1", "--preset", "small",
                   "--loops", "0", "--out", "{out}"],
    "experiment-membrane": ["experiment", "--seed", "1", "--loops", "0",
                            "--engine", "membrane", "--out", "{out}"],
    "experiment-oracle": ["experiment", "--seed", "1", "--loops", "0",
                          "--engine", "oracle", "--out", "{out}"],
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUT))
def test_cli_bad_input_is_one_error_line(case, tmp_path, capsys):
    paths = {name: str(tmp_path / name)
             for name in ("game", "pspec", "bad", "inf", "fraction", "huge",
                          "string", "bool", "out")}
    spec = sample_experiment(6, "small", loops=2)
    save_game(spec, paths["game"])
    (tmp_path / "pspec").write_text("not a system\n")
    (tmp_path / "bad").write_text('{"players": "x"}\n')
    # json writes an infinite float as the bare word Infinity.
    save_game(dataclasses.replace(spec, mass=[math.inf] * spec.players),
              paths["inf"])
    slots = [list(s) for s in spec.strategies]
    slots[0][-1] -= 0.3  # truncating would quietly pick the slot below
    save_game(dataclasses.replace(spec, strategies=slots), paths["fraction"])
    # Finite, but too large to quantize: x * 1e4 overflows to infinity.
    save_game(dataclasses.replace(spec, mass=[1e305] * spec.players),
              paths["huge"])
    # int() and float() would quietly coerce these.
    save_game(dataclasses.replace(spec, players=str(spec.players)),
              paths["string"])
    save_game(dataclasses.replace(spec, loops=True), paths["bool"])
    argv = [arg.format(**paths) for arg in _BAD_INPUT[case]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert not os.path.exists(paths["out"])
