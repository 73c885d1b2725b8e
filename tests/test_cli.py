from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bellkit import cli, experiments, lhvt, spin


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
# A child interpreter sees only its environment, not pytest's pythonpath.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}


# six decimals of a negative zero, which the CLI never prints
NEGATIVE_ZERO = re.compile(r"-0\.000000(?!\d)")


def run_cli(*argv):
    return cli.main(list(argv))


def test_pair_table(capsys):
    assert run_cli("pair", "--theta1", "30", "--theta2", "0") == 0
    out = capsys.readouterr().out
    assert "theta1=30.000000deg" in out
    assert "pass  pass  0.375000" in out
    assert "stop  stop  0.375000" in out
    assert "agreement   0.750000" in out
    assert "correlation 0.500000" in out


def test_pair_sweep_matches_library(capsys):
    assert run_cli("pair", "--sweep") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "delta_deg,correlation"
    assert len(lines) == 182
    for line in lines[1:]:
        d, val = line.split(",")
        expected = experiments.entangled_pair_distribution(math.radians(int(d)), 0.0).correlation()
        assert float(val) == expected  # repr round-trips exactly


def test_pair_sweep_matches_golden(capsys):
    assert run_cli("pair", "--sweep") == 0
    golden = (GOLDEN / "pair_sweep.csv").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


# Text outputs pinned byte for byte: tests/golden/<name>.txt holds each one.
TEXT_GOLDENS = {
    **{f"lhvt_{s}": ("lhvt", "--scenario", s)
       for s in ("grid30", "grid120", "electron", "hardy", "ghz", "chsh")},
    "lhvt_chsh_mc1000_seed3": ("lhvt", "--scenario", "chsh", "--mc-trials", "1000", "--seed", "3"),
    "report_all": ("report", "--all"),
    "pair_30_0": ("pair", "--theta1", "30", "--theta2", "0"),
    "poincare_06_08": ("poincare", "--alpha-x", ".6", "--alpha-y", ".8"),
    "rotate_one_30_40_50": ("rotate", "--spin", "one", "--euler", "30", "40", "50",
                            "--state", "1", "0", "0", "0", "0", "0"),
}


@pytest.mark.parametrize("name", TEXT_GOLDENS)
def test_text_output_matches_golden(name, capsys):
    assert run_cli(*TEXT_GOLDENS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")


def test_poincare_linear_x(capsys):
    assert run_cli("poincare", "--alpha-x", "1", "--alpha-y", "0") == 0
    out = capsys.readouterr().out
    assert "s0=1.000000 s1=1.000000 s2=0.000000 s3=0.000000" in out
    assert "2rho=0.000000deg" in out and "2eta=0.000000deg" in out
    assert "theta0=90.000000deg" in out and "phi0=0.000000deg" in out
    assert "rcp=+0.707107+0.000000i" in out


def test_poincare_circular(capsys):
    # equal amplitudes, y leading by 90 deg: right-circular light
    assert run_cli(
        "poincare", "--alpha-x", "0.7071067811865476", "--alpha-y", "0.7071067811865476",
        "--phi-y", "90",
    ) == 0
    out = capsys.readouterr().out
    assert "s3=1.000000" in out
    assert "theta0=0.000000deg" in out


def test_poincare_renormalizes_small_slack(capsys):
    assert run_cli("poincare", "--alpha-x", "0.6000001", "--alpha-y", "0.8") == 0
    captured = capsys.readouterr()
    assert "warning: renormalizing" in captured.err
    assert "s0=1.000000" in captured.out


def test_poincare_usage_errors(capsys):
    assert run_cli("poincare", "--alpha-x", "0", "--alpha-y", "0") == 1
    assert "nothing to normalize" in capsys.readouterr().err
    assert run_cli("poincare", "--alpha-x", "0.7", "--alpha-y", "0.8") == 1
    assert "expected 1 within 1e-6" in capsys.readouterr().err
    assert run_cli("poincare", "--alpha-x", "-0.6", "--alpha-y", "0.8") == 1


def test_rotate_matrix_and_state(capsys):
    assert run_cli("rotate", "--spin", "half", "--euler", "180", "0", "0",
                   "--state", "1", "0", "0", "0") == 0
    out = capsys.readouterr().out
    assert "+0.000000+0.000000i  +1.000000+0.000000i" in out
    assert "-1.000000+0.000000i  +0.000000+0.000000i" in out
    assert "rotated state" in out
    assert "↓  -1.000000+0.000000i" in out


def test_rotate_check_passes(capsys):
    assert run_cli("rotate", "--spin", "one", "--euler", "30", "40", "50", "--check") == 0
    out = capsys.readouterr().out
    assert "check unitarity deviation" in out
    assert "check pair construction" in out


def test_rotate_check_failure_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(spin, "GENERATOR_TOL", 0.0)
    assert run_cli("rotate", "--spin", "half", "--euler", "10", "20", "30", "--check") == 2
    assert "internal check failed" in capsys.readouterr().err


def test_rotate_state_length_error(capsys):
    assert run_cli("rotate", "--spin", "half", "--euler", "0", "0", "0",
                   "--state", "1", "0") == 1
    assert "--state needs 4 numbers" in capsys.readouterr().err


def test_rotate_reduces_huge_euler_angles_by_the_su2_period(capsys):
    # fmod(1e9, 720) = 640 exactly; the closed form's phases at 1e9 degrees
    # round inconsistently, so unreduced angles failed both checks
    assert run_cli("rotate", "--spin", "one", "--euler", "90", "1", "1e9", "--check") == 0
    huge = capsys.readouterr().out.splitlines()
    assert run_cli("rotate", "--spin", "one", "--euler", "90", "1", "640", "--check") == 0
    reduced = capsys.readouterr().out.splitlines()
    assert "chi=1000000000.000000" in huge[0]
    assert huge[1:] == reduced[1:]


def test_poincare_tiny_negative_orientation_exits_0(capsys):
    assert run_cli("poincare", "--alpha-x", "1", "--alpha-y", "1e-16", "--phi-y", "180") == 0
    out = capsys.readouterr().out
    assert "2rho=0.000000deg" in out
    assert "phi0=0.000000deg" in out


def test_poincare_zero_orientation_prints_plus_zero(capsys):
    # phi_y = 180 makes s2 = -0.0, which atan2 turns into a -0.0 orientation
    assert run_cli("poincare", "--alpha-x", "1", "--alpha-y", "0", "--phi-y", "180") == 0
    assert "ellipse     2rho=0.000000deg  2eta=0.000000deg\n" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ("poincare", "--alpha-x", "1", "--alpha-y", "0", "--phi-y", "-90"),
    ("poincare", "--alpha-x", "1", "--alpha-y", "0", "--phi-y", "180"),
    ("poincare", "--alpha-x", "0", "--alpha-y", "1", "--phi-x", "180"),
    ("rotate", "--spin", "half", "--euler", "180", "90", "0"),
    ("lhvt", "--scenario", "chsh", "--angles", "0", "360", "45", "90"),
    ("lhvt", "--scenario", "chsh", "--angles", "1e308", "-1e308", "45", "90"),
], ids=" ".join)
def test_rounded_negative_zero_prints_unsigned(argv, capsys):
    # each of these rounds a -0.0 or a tiny negative value to zero somewhere
    assert run_cli(*argv) == 0
    assert not NEGATIVE_ZERO.search(capsys.readouterr().out)


def test_lhvt_grid30(capsys):
    assert run_cli("lhvt", "--scenario", "grid30") == 0
    out = capsys.readouterr().out
    assert "strategies: 8" in out
    assert "classical agreement max = 2/3 (0.666667), 6 optimal cards" in out
    assert "zero-agreement cards: 2" in out
    assert "quantum agreement at delta=30deg: 0.750000" in out
    assert "verdict: violation" in out


def test_lhvt_hardy(capsys):
    assert run_cli("lhvt", "--scenario", "hardy") == 0
    out = capsys.readouterr().out
    assert "strategies: 16, feasible after zero constraints: 5" in out
    assert out.count("feasible card") == 5
    assert "quantum pass/pass at (0,0): 0.083333" in out
    assert "verdict: violation" in out


def test_lhvt_ghz(capsys):
    assert run_cli("lhvt", "--scenario", "ghz") == 0
    out = capsys.readouterr().out
    assert "strategies: 64; after case A parity filter: 32; after all four: 0" in out
    assert "case A: even detect count certain" in out
    assert "case D: odd detect count certain" in out
    assert "verdict: violation" in out


def test_lhvt_chsh_default_angles(capsys):
    assert run_cli("lhvt", "--scenario", "chsh") == 0
    out = capsys.readouterr().out
    assert "settings deg: 45.000000 90.000000 67.500000 22.500000" in out
    assert "quantum combination = 2.828427" in out
    assert "verdict: violation" in out


def test_lhvt_chsh_custom_angles_consistent(capsys):
    assert run_cli("lhvt", "--scenario", "chsh", "--angles", "0", "90", "0", "180") == 0
    out = capsys.readouterr().out
    assert "quantum combination = 2.000000" in out
    assert "verdict: consistent" in out


def test_lhvt_chsh_repeated_angles_exit_1(capsys):
    assert run_cli("lhvt", "--scenario", "chsh", "--angles", "0", "0", "0", "0") == 1
    captured = capsys.readouterr()
    assert "repeat an angle" in captured.err
    assert captured.out == ""


def test_lhvt_chsh_monte_carlo_seeded(capsys):
    args = ("lhvt", "--scenario", "chsh", "--mc-trials", "400", "--seed", "5")
    assert run_cli(*args) == 0
    first = capsys.readouterr().out
    assert "monte carlo, uniform mixture, 400 trials, seed 5" in first
    assert "combination estimate" in first
    assert run_cli(*args) == 0
    assert capsys.readouterr().out == first


def test_lhvt_chsh_seed_env(monkeypatch, capsys):
    # main() reuses one parser, but reads BELLKIT_SEED on every call
    args = ("lhvt", "--scenario", "chsh", "--mc-trials", "400")
    monkeypatch.setenv("BELLKIT_SEED", "5")
    assert run_cli(*args) == 0
    via_env = capsys.readouterr().out
    monkeypatch.setenv("BELLKIT_SEED", "7")
    assert run_cli(*args) == 0
    via_env7 = capsys.readouterr().out
    monkeypatch.delenv("BELLKIT_SEED")
    assert run_cli(*args, "--seed", "5") == 0
    assert capsys.readouterr().out == via_env
    assert run_cli(*args, "--seed", "7") == 0
    assert capsys.readouterr().out == via_env7 != via_env


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.make_parser()
    per_parser = len(built)  # the top-level parser and one per command
    built.clear()
    cli._parser.cache_clear()
    try:
        assert run_cli("pair") == 0
        assert run_cli("lhvt", "--scenario", "electron") == 0
    finally:
        cli._parser.cache_clear()
    assert per_parser > 1
    assert len(built) == per_parser


def test_bad_bellkit_seed_after_a_good_one_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("BELLKIT_SEED", "5")
    assert run_cli("lhvt", "--scenario", "electron") == 0
    capsys.readouterr()
    monkeypatch.setenv("BELLKIT_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        cli.main(["lhvt", "--scenario", "electron"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "expected a non-negative integer (--seed, else BELLKIT_SEED), got 'abc'" in captured.err
    assert captured.out == ""


def _counting(monkeypatch, module, name) -> list:
    """Replace module.name with a wrapper that records each call."""
    calls, fn = [], getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_ghz_reads_each_case_once(monkeypatch):
    calls = _counting(monkeypatch, experiments, "ghz_parity_distribution")
    cli.build_report()
    assert sorted(calls) == [("A",), ("B",), ("C",), ("D",)]


def test_hardy_builds_its_scenario_once(monkeypatch):
    calls = _counting(monkeypatch, lhvt, "hardy_scenario")
    cli.build_report()
    assert len(calls) == 1


def test_hardy_reads_each_run_once(monkeypatch):
    # pass/pass at (0,0) is read off the run the bound already read
    calls = _counting(monkeypatch, experiments, "hardy_distribution")
    cli.build_report()
    runs = [tuple(math.radians(a) for a in run) for run in lhvt.hardy_scenario().runs]
    assert calls == runs


def test_chsh_reads_its_correlations_once(monkeypatch, capsys):
    calls = _counting(monkeypatch, experiments, "_born_rows")
    assert run_cli("lhvt", "--scenario", "chsh") == 0
    assert len(calls) == 1
    assert f"quantum combination = {2 * math.sqrt(2):.6f}" in capsys.readouterr().out


def test_ghz_case_without_certain_parity_exits_2(monkeypatch, capsys):
    real = experiments.ghz_parity_distribution

    def uncertain(case):
        gp = real(case)
        return experiments.GhzParity(gp.distribution, 0.5, 0.5) if case == "B" else gp

    monkeypatch.setattr(experiments, "ghz_parity_distribution", uncertain)
    assert run_cli("lhvt", "--scenario", "ghz") == 2
    captured = capsys.readouterr()
    assert "case B has no certain parity" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("angles, combination", [
    (("45", "90", "67.5", "22.5"), "2.828427"),
    (("0", "45", "112.5", "67.5"), "-2.828427"),
], ids=["above-max", "below-min"])
def test_chsh_verdict_reads_the_classical_bounds(angles, combination, monkeypatch, capsys):
    # |gamma| = 2 sqrt 2 violates the computed +/-2 bounds, and lies within +/-3
    assert run_cli("lhvt", "--scenario", "chsh", "--angles", *angles) == 0
    assert "verdict: violation" in capsys.readouterr().out
    real = lhvt.chsh_classical

    def widened(*degrees):
        c = real(*degrees)
        return dataclasses.replace(
            c,
            max_bound=dataclasses.replace(c.max_bound, value=Fraction(3)),
            min_bound=dataclasses.replace(c.min_bound, value=Fraction(-3)),
        )

    monkeypatch.setattr(lhvt, "chsh_classical", widened)
    assert run_cli("lhvt", "--scenario", "chsh", "--angles", *angles) == 0
    out = capsys.readouterr().out
    assert f"quantum combination = {combination}" in out
    assert "verdict: consistent" in out


def test_lhvt_chsh_negative_trials(capsys):
    assert run_cli("lhvt", "--scenario", "chsh", "--mc-trials", "-3") == 1
    assert "--mc-trials must be non-negative" in capsys.readouterr().err


def test_lhvt_chsh_trials_over_ceiling(capsys):
    too_many = str(lhvt.MAX_MC_TRIALS + 1)
    assert run_cli("lhvt", "--scenario", "chsh", "--mc-trials", too_many) == 1
    captured = capsys.readouterr()
    assert f"--mc-trials must be at most {lhvt.MAX_MC_TRIALS}" in captured.err
    assert captured.out == ""
    assert run_cli("lhvt", "--scenario", "chsh", "--mc-trials", "100000000000000") == 1


def test_lhvt_chsh_too_few_samples_named_not_nan(capsys):
    assert run_cli("lhvt", "--scenario", "chsh", "--mc-trials", "3", "--seed", "1") == 0
    out = capsys.readouterr().out
    assert "nan" not in out
    assert "too few samples for a mean and error (n=0)" in out
    assert "combination estimate unavailable" in out


def test_report_requires_all_flag(monkeypatch, capsys):
    def refuse():
        raise AssertionError("report without --all computed the report")

    monkeypatch.setattr(cli, "build_report", refuse)
    assert run_cli("report") == 1
    captured = capsys.readouterr()
    assert "pass --all" in captured.err
    assert captured.out == ""


def test_report_table(capsys):
    assert run_cli("report", "--all") == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 7
    assert lines[0].split() == ["scenario", "quantum", "classical", "verdict"]
    names = [line.split()[0] for line in lines[1:]]
    assert names == ["grid30", "grid120", "hardy", "ghz", "electron", "chsh"]
    for line in lines[1:]:
        assert line.split()[-1] == "violation"


def test_report_json_values(capsys):
    assert run_cli("report", "--all", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["tool"] == "bellkit"
    sc = data["scenarios"]
    assert set(sc) == {"grid30", "grid120", "hardy", "ghz", "electron", "chsh"}

    assert sc["grid30"]["quantum"]["agreement_delta30"] == pytest.approx(0.75, abs=1e-12)
    assert sc["grid30"]["classical"]["bound_exact"] == "2/3"
    assert sc["grid120"]["quantum"]["agreement_delta120"] == pytest.approx(0.25, abs=1e-12)
    assert sc["grid120"]["classical"]["bound_exact"] == "1/3"
    assert sc["hardy"]["quantum"]["pass_pass_at_00"] == pytest.approx(1 / 12, abs=1e-12)
    assert sc["hardy"]["classical"]["feasible_count"] == 5
    assert sc["ghz"]["classical"] == {
        "strategy_count": 64, "after_case_a": 32, "feasible_count": 0,
    }
    assert sc["ghz"]["quantum"]["certain_parity"] == {
        "A": "even", "B": "odd", "C": "odd", "D": "odd",
    }
    assert sc["electron"]["quantum"]["antiparallel_delta120"] == pytest.approx(0.25, abs=1e-12)
    assert sc["electron"]["classical"]["bound_exact"] == "1/3"
    assert sc["chsh"]["quantum"]["combination"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)
    assert all(sc[name]["verdict"] == "violation" for name in sc)


@pytest.mark.parametrize("argv", [
    ["pair"],
    ["pair", "--sweep"],
    ["report", "--all"],
    ["lhvt", "--scenario", "ghz"],
    ["rotate", "--spin", "half", "--euler", "0", "0", "0"],
    ["--help"],
    ["pair", "--help"],
], ids=" ".join)
def test_closed_stdout_exits_1_without_traceback(argv):
    # `bellkit ... | head -1` without the race: the pipe's read end is closed.
    # Block-buffered and unbuffered stdout fail at different writes, so run both.
    buffered = {k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"}
    for env in (buffered, {**buffered, "PYTHONUNBUFFERED": "1"}):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "bellkit.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode == 1, (env.get("PYTHONUNBUFFERED"), proc.stderr)
        assert "Traceback" not in proc.stderr
        assert "Exception ignored" not in proc.stderr


def test_report_json_byte_identical_across_processes(tmp_path):
    cmd = [sys.executable, "-m", "bellkit.cli", "report", "--all", "--format", "json"]
    a = subprocess.run(cmd, capture_output=True, check=True, env=CHILD_ENV)
    b = subprocess.run(cmd, capture_output=True, check=True, env=CHILD_ENV)
    assert a.stdout == b.stdout
    assert a.stdout  # non-empty


def test_report_json_matches_bench_golden(capsys):
    assert run_cli("report", "--all", "--format", "json") == 0
    golden = (ROOT / "bench" / "golden" / "report_all.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden


def test_report_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    assert run_cli("report", "--all", "--format", "json", "--out", str(target)) == 0
    assert capsys.readouterr().out == ""
    data = json.loads(target.read_text(encoding="utf-8"))
    assert set(data["scenarios"]) == {"grid30", "grid120", "hardy", "ghz", "electron", "chsh"}


def test_report_out_unwritable(capsys):
    assert run_cli("report", "--all", "--out", "/nonexistent-dir/report.txt") == 1
    assert "cannot write" in capsys.readouterr().err


def test_report_out_empty_path_is_not_stdout(capsys):
    assert run_cli("report", "--all", "--out", "") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write ''" in captured.err


def test_report_out_path_open_refuses_exits_1(capsys):
    # open() raises ValueError, not OSError, for a path with a null byte
    assert run_cli("report", "--all", "--out", "a\0b") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bellkit: error: cannot write 'a\\x00b': ")


def test_value_error_is_not_an_exit_code(monkeypatch):
    # exit 2 means a failed internal check; a ValueError that escapes a command
    # is a bug and propagates
    def broken():
        raise ValueError("unchecked input")

    monkeypatch.setitem(cli.SCENARIOS, "grid30", broken)
    with pytest.raises(ValueError, match="unchecked input"):
        cli.main(["lhvt", "--scenario", "grid30"])


def test_report_numbers_come_from_the_library(monkeypatch, capsys):
    # monkeypatching the pair distribution must change the report, proving the
    # report recomputes rather than echoing stored constants
    flat = experiments.OutcomeDistribution((0.0, 0.0), (0.25,) * 4, experiments.PHOTON_OUTCOMES)
    monkeypatch.setattr(experiments, "entangled_pair_distribution", lambda t1, t2: flat)
    assert run_cli("report", "--all", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["scenarios"]["grid30"]["quantum"]["agreement_delta30"] == 0.5
    assert data["scenarios"]["grid30"]["verdict"] == "consistent"
    assert data["scenarios"]["grid120"]["verdict"] == "consistent"
    # untouched scenarios still violate
    assert data["scenarios"]["hardy"]["verdict"] == "violation"


def test_pair_rows_read_name_and_quoted_run_from_their_scenario(monkeypatch, capsys):
    # the row's name, bound and quoted delta all come from its ScenarioSpec, so
    # a different spec changes every one of them
    angles = (0.0, 45.0, 90.0, 135.0)
    spec = lhvt.ScenarioSpec("grid120", 2, (angles, angles), tuple(zip(angles, angles[1:])),
                             identical=True)
    monkeypatch.setattr(lhvt, "grid120_scenario", lambda: spec)
    assert run_cli("lhvt", "--scenario", "grid120") == 0
    assert "quantum agreement at delta=45deg: 0.500000\n" in capsys.readouterr().out
    assert run_cli("report", "--all", "--format", "json") == 0
    quantum = json.loads(capsys.readouterr().out)["scenarios"]["grid120"]["quantum"]
    assert quantum == {"agreement_delta45": pytest.approx(0.5)}


def test_usage_errors_exit_1():
    with pytest.raises(SystemExit) as exc:
        cli.main(["pair", "--bogus-flag"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["lhvt", "--scenario", "nonsense"])
    assert exc.value.code == 1


def test_help_prints_a_one_line_description(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    # argparse wraps to the terminal width, so compare with whitespace collapsed
    text = " ".join(out.split())
    description = "Exact quantum values against local hidden-variable bounds for Bell-type experiments"
    assert description in text
    for note in ("RunReport", "SCENARIOS", "parser is built"):
        assert note not in text


@pytest.mark.parametrize("argv", [
    ("pair", "--theta1", "nan"),
    ("rotate", "--spin", "half", "--euler", "inf", "0", "0"),
    ("poincare", "--alpha-x", "nan", "--alpha-y", "1"),
    ("lhvt", "--scenario", "chsh", "--angles", "0", "inf", "45", "90"),
    # -nan and -inf are option values, not flags
    ("pair", "--theta2", "-nan"),
    ("lhvt", "--scenario", "chsh", "--angles", "0", "-inf", "45", "90"),
    ("rotate", "--spin", "half", "--euler", "0", "0", "0", "--state", "1", "0", "-nan", "0"),
    ("poincare", "--alpha-x", "1", "--alpha-y", "0", "--phi-y", "-inf"),
], ids=["pair", "rotate", "poincare", "lhvt",
        "pair-negative", "lhvt-negative", "rotate-negative", "poincare-negative"])
def test_non_finite_input_exits_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "expected a finite number" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("env, argv, message", [
    (None, ("lhvt", "--scenario", "chsh", "--mc-trials", "10", "--seed", "-1"),
     "expected a non-negative integer (--seed, else BELLKIT_SEED), got '-1'"),
    ("abc", ("lhvt", "--scenario", "chsh", "--mc-trials", "10"),
     "expected a non-negative integer (--seed, else BELLKIT_SEED), got 'abc'"),
    ("-3", ("lhvt", "--scenario", "chsh", "--mc-trials", "10"),
     "expected a non-negative integer (--seed, else BELLKIT_SEED), got '-3'"),
    (None, ("rotate", "--spin", "half", "--euler", "0", "0", "0",
            "--state", "1e308", "0", "1e308", "0"), "|amps|^2 overflows"),
    (None, ("rotate", "--spin", "one", "--euler", "0", "0", "0",
            "--state", "1e154", "0", "1e154", "0", "0", "0"), "|amps|^2 overflows"),
    # a nonzero but subnormal |amps|^2 cannot be normalized to 1
    (None, ("rotate", "--spin", "half", "--euler", "0", "0", "0",
            "--state", "1e-160", "0", "0", "0"), "|amps|^2 underflows"),
    # nonzero amplitudes whose squares underflow to 0.0 are not a zero state
    (None, ("rotate", "--spin", "half", "--euler", "0", "0", "0",
            "--state", "1e-170", "0", "1e-170", "0"), "|amps|^2 underflows"),
    (None, ("poincare", "--alpha-x", "1e-200", "--alpha-y", "1e-200"),
     "alpha_x^2 + alpha_y^2 = 0.0; expected 1 within 1e-6"),
    (None, ("lhvt", "--scenario", "grid30", "--angles", "0", "1", "2", "3", "--mc-trials", "5"),
     "apply only to --scenario chsh"),
    (None, ("lhvt", "--scenario", "hardy", "--angles", "0", "1", "2", "3"),
     "apply only to --scenario chsh"),
    (None, ("lhvt", "--scenario", "ghz", "--mc-trials", "5"), "apply only to --scenario chsh"),
], ids=["seed-flag", "seed-env-text", "seed-env-negative", "state-overflow",
        "state-sum-overflow", "state-underflow", "state-squares-underflow",
        "poincare-squares-underflow", "grid30-chsh-options", "hardy-angles", "ghz-trials"])
def test_bad_input_exits_1_before_any_output(env, argv, message, monkeypatch, capsys):
    if env is not None:
        monkeypatch.setenv("BELLKIT_SEED", env)
    try:
        rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad flag values itself
        rc = exc.code
    captured = capsys.readouterr()
    assert rc == 1
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("scientific, plain", [
    (("pair", "--theta1", "10", "--theta2", "-3e1"),
     ("pair", "--theta1", "10", "--theta2", "-30")),
    (("lhvt", "--scenario", "chsh", "--angles", "0", "-4.5e1", "45", "90"),
     ("lhvt", "--scenario", "chsh", "--angles", "0", "-45", "45", "90")),
    (("rotate", "--spin", "half", "--euler", "0", "0", "0", "--state", "1", "0", "-1e-3", "0"),
     ("rotate", "--spin", "half", "--euler", "0", "0", "0", "--state", "1", "0", "-0.001", "0")),
], ids=["pair", "lhvt-angles", "rotate-state"])
def test_negative_scientific_numbers_are_values(scientific, plain, capsys):
    assert run_cli(*plain) == 0
    want = capsys.readouterr().out
    assert run_cli(*scientific) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("argv", [
    ("pair", "--theta2", "-inf"),
    ("pair", "--theta2", "-nan"),
    ("lhvt", "--scenario", "chsh", "--angles", "0", "-inf", "45", "90"),
    ("rotate", "--spin", "half", "--euler", "0", "-nan", "0"),
])
def test_negative_non_finite_numbers_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "expected a finite number" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_card_string():
    assert cli.card_string(((1, -1), (-1, 1))) == "+- -+"


# --- fuzzed exit contract -----------------------------------------------------

FINITE = st.sampled_from([
    "0", "-0", "45", "90", "-3e1", "719.9", "720", "1e9", "1", "0.6", "0.8", "1e-16",
    "1e308", "-1e308", "1e-160", "1e-320", "5e-324", str(10**30), str(-(2**64)),
]) | st.floats(allow_nan=False, allow_infinity=False).map(repr)
BAD = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "", "abc"])
NUMBER = st.one_of(FINITE, FINITE, FINITE, BAD)  # mostly finite, so runs reach the commands
# --mc-trials: samples at most 1000 trials; larger values are refused first
TRIALS = st.integers(-3, 1000).map(str) | st.sampled_from(
    ["1000001", str(10**30), "", "1e3", "nan"]
)
SEED_TEXT = st.integers(-3, 10**6).map(str) | st.sampled_from([str(2**64), str(10**30), "", "x"])
ALPHA = st.sampled_from(["0.6", "0.8", "1", "0", "1e-16", "0.6000001", "-0.6"])


def _values(n, of):
    return st.lists(of, min_size=n, max_size=n)


def _sized(number, sizes):
    return st.lists(number, min_size=sizes[0], max_size=sizes[1])


def _options(number, alpha=ALPHA, angles=(4, 4), euler=(3, 3), state=(4, 6), junk=()):
    """Every command's options, each with a strategy for the values after the
    flag; angles, euler and state bound those options' value counts, and junk
    joins every list of choices.  --out only names paths that open() refuses,
    so nothing is written."""
    return {
        "pair": {"--theta1": _values(1, number), "--theta2": _values(1, number),
                 "--sweep": _values(0, number)},
        "lhvt": {
            "--scenario": _values(1, st.sampled_from(["chsh", "chsh", *cli.SCENARIOS, *junk])),
            "--angles": _sized(number, angles),
            "--mc-trials": _values(1, TRIALS),
            "--seed": _values(1, SEED_TEXT),
        },
        "poincare": {
            "--alpha-x": _values(1, alpha), "--alpha-y": _values(1, alpha),
            "--phi-x": _values(1, number), "--phi-y": _values(1, number),
        },
        "rotate": {
            "--spin": _values(1, st.sampled_from(["half", "one", *junk])),
            "--euler": _sized(number, euler),
            "--state": _sized(number, state),
            "--check": _values(0, number),
        },
        "report": {"--all": _values(0, number),
                   "--format": _values(1, st.sampled_from(["table", "json", *junk])),
                   "--out": _values(1, st.sampled_from(["", "a\0b"]))},
    }


# Well-formed runs (finite numbers, the right counts) and anything-goes runs.
OPTIONS = {
    "clean": _options(FINITE),
    "wild": _options(NUMBER, ALPHA | NUMBER, (3, 5), (2, 4), (1, 7), junk=("two",)),
}
REQUIRED = {"--scenario", "--spin", "--euler", "--alpha-x", "--alpha-y"}
ALL_FLAGS = sorted({(c, f) for c, flags in OPTIONS["wild"].items() for f in flags})


@st.composite
def argvs(draw):
    kind = draw(st.sampled_from(["clean", "wild"]))
    command = draw(st.sampled_from(sorted(OPTIONS[kind])))
    argv = [command]
    for flag, values in OPTIONS[kind][command].items():
        if kind == "clean" and flag in REQUIRED or draw(st.sampled_from([True, True, False])):
            argv += [flag, *draw(values)]
    if kind == "wild" and draw(st.sampled_from([False, True])):  # a flag of another command
        other, flag = draw(st.sampled_from(ALL_FLAGS))
        argv += [flag, *draw(OPTIONS[kind][other][flag])]
    return argv


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@example(["poincare", "--alpha-x", "1", "--alpha-y", "1e-16", "--phi-y", "180"])
@example(["rotate", "--spin", "one", "--euler", "90", "1", "1e9", "--check"])
@example(["lhvt", "--scenario", "chsh", "--mc-trials", "1000001"])
@example(["lhvt", "--scenario", "chsh", "--angles", "1e308", "-1e308", "45", "90"])
@given(argvs())
def test_any_argv_exits_0_or_1_with_no_stdout_on_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags and values itself
            code = exc.code
    assert code in (0, 1), (argv, code, err.getvalue())
    if code == 1:
        assert out.getvalue() == "", argv
    else:
        assert not NEGATIVE_ZERO.search(out.getvalue()), argv
