from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from bellkit import cli, experiments, lhvt, spin


ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"


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
        expected = experiments.pair_correlation(math.radians(int(d)), 0.0)
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
    monkeypatch.setenv("BELLKIT_SEED", "5")
    assert run_cli("lhvt", "--scenario", "chsh", "--mc-trials", "400") == 0
    via_env = capsys.readouterr().out
    monkeypatch.delenv("BELLKIT_SEED")
    assert run_cli("lhvt", "--scenario", "chsh", "--mc-trials", "400", "--seed", "5") == 0
    assert capsys.readouterr().out == via_env


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


def test_report_json_byte_identical_across_processes(tmp_path):
    cmd = [sys.executable, "-m", "bellkit.cli", "report", "--all", "--format", "json"]
    a = subprocess.run(cmd, capture_output=True, check=True)
    b = subprocess.run(cmd, capture_output=True, check=True)
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


def test_report_numbers_come_from_the_library(monkeypatch, capsys):
    # monkeypatching the pair distribution must change the report, proving the
    # report recomputes rather than echoing stored constants
    settings = (experiments.AnalyzerSetting(1, 0.0), experiments.AnalyzerSetting(2, 0.0))
    flat = experiments.OutcomeDistribution(
        settings,
        (
            (("pass", "pass"), 0.25),
            (("pass", "stop"), 0.25),
            (("stop", "pass"), 0.25),
            (("stop", "stop"), 0.25),
        ),
    )
    monkeypatch.setattr(experiments, "entangled_pair_distribution", lambda t1, t2: flat)
    assert run_cli("report", "--all", "--format", "json") == 0
    data = json.loads(capsys.readouterr().out)
    assert data["scenarios"]["grid30"]["quantum"]["agreement_delta30"] == 0.5
    assert data["scenarios"]["grid30"]["verdict"] == "consistent"
    assert data["scenarios"]["grid120"]["verdict"] == "consistent"
    # untouched scenarios still violate
    assert data["scenarios"]["hardy"]["verdict"] == "violation"


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


@pytest.mark.parametrize("argv", [
    ("pair", "--theta1", "nan"),
    ("rotate", "--spin", "half", "--euler", "inf", "0", "0"),
    ("poincare", "--alpha-x", "nan", "--alpha-y", "1"),
    ("lhvt", "--scenario", "chsh", "--angles", "0", "inf", "45", "90"),
], ids=["pair", "rotate", "poincare", "lhvt"])
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
    (None, ("lhvt", "--scenario", "grid30", "--angles", "0", "1", "2", "3", "--mc-trials", "5"),
     "apply only to --scenario chsh"),
    (None, ("lhvt", "--scenario", "hardy", "--angles", "0", "1", "2", "3"),
     "apply only to --scenario chsh"),
    (None, ("lhvt", "--scenario", "ghz", "--mc-trials", "5"), "apply only to --scenario chsh"),
], ids=["seed-flag", "seed-env-text", "seed-env-negative", "state-overflow",
        "state-sum-overflow", "grid30-chsh-options", "hardy-angles", "ghz-trials"])
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


def test_card_string():
    assert cli.card_string(lhvt.StrategyTable(((1, -1), (-1, 1)))) == "+- -+"
