"""The three workloads: seeded inputs, one operation, and the oracle that
checks each operation's output.

A workload hands out rounds.  A round is a fixed multiset of operation kinds
in a seeded order with seeded parameters, so every run measures the same mix
whatever its seed; the measuring loop runs whole rounds.  run() is the timed
operation and returns plain data; check() compares that data with an oracle
that does not use the code under test, and raises CheckFailed on a mismatch.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from bellkit import cli, experiments, lhvt, polarization, spin

import oracle

GOLDEN = Path(__file__).resolve().parent / "golden"
TSIRELSON = 2 * math.sqrt(2)
TOL = 1e-12
PRINT_TOL = 1e-6  # values the CLI prints with six decimals


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    items: int = 1
    variant: str = ""  # tells apart operations of one kind that do different work

    @property
    def key(self) -> str:
        """Operations with one key do the same work on different parameters."""
        return f"{self.kind} {self.variant}" if self.variant else self.kind


# --- paper ------------------------------------------------------------------

SCENARIOS = ("grid30", "grid120", "electron", "hardy", "ghz", "chsh")


def run_cli(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return rc, out.getvalue(), err.getvalue()


def _value(text: str, key: str) -> float:
    """The number printed right after `key` (and any `=`, `:` or spaces)."""
    for line in text.splitlines():
        if key in line:
            return float(line.split(key, 1)[1].lstrip("= :").split()[0].rstrip("deg,()"))
    raise CheckFailed(f"no {key!r} in output")


def check_report(stdout: str, golden: str) -> None:
    expect(stdout == golden, "report --all --format json differs from the golden copy")
    verdicts = {name: row["verdict"] for name, row in json.loads(stdout)["scenarios"].items()}
    expect(sorted(verdicts) == sorted(SCENARIOS), f"report scenarios {sorted(verdicts)}")
    expect(set(verdicts.values()) == {"violation"}, f"report verdicts {verdicts}")


def check_verdict(stdout: str) -> None:
    expect(stdout.rstrip().endswith("verdict: violation"), "verdict is not a violation")


def check_sweep(stdout: str) -> None:
    lines = stdout.strip().splitlines()
    expect(lines[0] == "delta_deg,correlation" and len(lines) == 182, "sweep shape")
    for line in lines[1:]:
        d, value = line.split(",")
        expected = pair_closed_form(math.radians(int(d)), 0.0)
        expect(abs(float(value) - expected) <= 1e-9, f"sweep at {d} deg")


def pair_closed_form(t1: float, t2: float) -> float:
    """Photon pair correlation cos 2(t1 - t2)."""
    return math.cos(2 * (t1 - t2))


def singlet_closed_form(t1: float, t2: float) -> float:
    """Electron singlet correlation -cos(t1 - t2)."""
    return -math.cos(t1 - t2)


def chsh_closed_form(e, t1, t1p, t2, t2p) -> float:
    return e(t1, t2) + e(t1, t2p) + e(t1p, t2) - e(t1p, t2p)


class Paper:
    """In-process CLI commands, the traffic that exists today."""

    name = "paper"
    # `pair --sweep`, the slowest command, is 1 of the 13 in a round, so it
    # holds the top 7.7 % of latencies; p96 is the middle of that class, not
    # its edge, and so does not jump with one delayed operation.
    tail_pct = 96.0
    cold_argv = ("report", "--all", "--format", "json")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.golden = (GOLDEN / "report_all.json").read_text(encoding="utf-8")

    @staticmethod
    def check_cold(rc: int, stdout: str) -> None:
        expect(rc == 0, f"exit {rc}")
        check_report(stdout, (GOLDEN / "report_all.json").read_text(encoding="utf-8"))

    def round(self) -> list[Op]:
        r = self.rng
        report = Op("report", self.cold_argv)
        ops = [report, report]
        ops += [Op("lhvt", ("lhvt", "--scenario", s), variant=s) for s in SCENARIOS]
        t1, t1p = (a / 10 for a in r.sample(range(1800), 2))
        t2, t2p = (a / 10 for a in r.sample(range(1800), 2))
        ops.append(Op("chsh_mc", (
            "lhvt", "--scenario", "chsh", "--angles", *map(str, (t1, t1p, t2, t2p)),
            "--mc-trials", "100000", "--seed", str(r.randrange(2**31)),
        )))
        ops.append(Op("sweep", ("pair", "--sweep")))
        ops.append(Op("pair", (
            "pair", "--theta1", str(r.uniform(-180, 180)), "--theta2", str(r.uniform(-180, 180)),
        )))
        u = r.uniform(0.0, math.pi / 2)
        ops.append(Op("poincare", (
            "poincare", "--alpha-x", repr(math.cos(u)), "--alpha-y", repr(math.sin(u)),
            "--phi-x", str(r.uniform(-180, 180)), "--phi-y", str(r.uniform(-180, 180)),
        )))
        ops.append(Op("rotate", (
            "rotate", "--spin", "one", "--euler", *(str(r.uniform(0, 360)) for _ in range(3)),
            "--check",
        )))
        r.shuffle(ops)
        return ops

    def run(self, op: Op):
        return run_cli(op.args)

    def check(self, op: Op, result) -> None:
        rc, out, err = result
        expect(rc == 0, f"{' '.join(op.args)} exited {rc}: {err.strip()}")
        args = op.args
        if op.kind == "report":
            check_report(out, self.golden)
        elif op.kind == "lhvt":
            check_verdict(out)
        elif op.kind == "chsh_mc":
            t1, t1p, t2, t2p = (math.radians(float(a)) for a in args[4:8])
            gamma = _value(out, "quantum combination")
            expected = chsh_closed_form(pair_closed_form, t1, t1p, t2, t2p)
            expect(abs(gamma - expected) <= PRINT_TOL, f"chsh combination {gamma} != {expected}")
            verdict = "violation" if abs(expected) > 2.0 else "consistent"
            expect(f"verdict: {verdict}" in out, "chsh verdict")
            rows = [line for line in out.splitlines() if line.strip().startswith("run ")]
            expect(len(rows) == 4, "monte carlo rows")
            for line in rows:
                mean = _value(line, "mean")
                se = _value(line, "(se")
                exact = _value(line, "exact")
                expect(abs(exact) <= PRINT_TOL, f"uniform mixture exact {exact} != 0")
                expect(abs(mean - exact) <= 5 * se + PRINT_TOL, f"mc mean {mean} vs {exact}")
        elif op.kind == "sweep":
            check_sweep(out)
        elif op.kind == "pair":
            t1, t2 = math.radians(float(args[2])), math.radians(float(args[4]))
            corr = _value(out, "correlation")
            agree = _value(out, "agreement")
            expect(abs(corr - pair_closed_form(t1, t2)) <= PRINT_TOL, f"pair correlation {corr}")
            expect(abs(agree - math.cos(t1 - t2) ** 2) <= PRINT_TOL, f"pair agreement {agree}")
        elif op.kind == "poincare":
            ax, ay = float(args[2]), float(args[4])
            delta = math.radians(float(args[8]) - float(args[6]))
            got = [_value(out, key) for key in ("s0", "s1", "s2", "s3")]
            want = [1.0, ax * ax - ay * ay, 2 * ax * ay * math.cos(delta),
                    2 * ax * ay * math.sin(delta)]
            expect(all(abs(g - w) <= PRINT_TOL for g, w in zip(got, want)), f"stokes {got}")
        elif op.kind == "rotate":
            expect(_value(out, "unitarity deviation") <= TOL, "rotation not unitary")
            expect(_value(out, "pair construction: deviation") <= TOL, "spin-1 pair construction")
        else:  # pragma: no cover
            raise CheckFailed(f"unknown kind {op.kind}")


# --- quantum ----------------------------------------------------------------

GHZ_PARITY = {"A": "even", "B": "odd", "C": "odd", "D": "odd"}


def _outcomes(dists):
    return [d.outcomes for d in dists]


class Quantum:
    """Batches of random analyzer settings through every distribution."""

    name = "quantum"
    # Every batch does the same work, so the spread of their latencies is the
    # machine's; p90 is as far out as stays steady from run to run, and a
    # 20-second run has some 170 samples beyond it.
    tail_pct = 90.0
    cold_argv = ("pair", "--sweep")
    DISTRIBUTIONS_PER_BATCH = 3 * 4 + 1 + 4 * 4

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    @staticmethod
    def check_cold(rc: int, stdout: str) -> None:
        expect(rc == 0, f"exit {rc}")
        check_sweep(stdout)

    def round(self) -> list[Op]:
        r = self.rng
        quad = tuple(r.uniform(0.0, math.pi) for _ in range(4))
        u = r.uniform(0.0, math.pi / 2)
        photon = (math.cos(u), r.uniform(-math.pi, math.pi), math.sin(u),
                  r.uniform(-math.pi, math.pi), r.uniform(0.0, math.pi))
        euler = tuple(r.uniform(0.0, 2 * math.pi) for _ in range(3))
        case = r.choice("ABCD")
        return [Op("batch", (quad, photon, euler, case), self.DISTRIBUTIONS_PER_BATCH)]

    def run(self, op: Op) -> dict:
        quad, photon, euler, case = op.args
        t1, t1p, t2, t2p = quad
        runs = ((t1, t2), (t1, t2p), (t1p, t2), (t1p, t2p))
        ghz = experiments.ghz_parity_distribution(case)
        state = polarization.PhotonState(*photon[:4])
        angles = spin.EulerAngles(*euler)
        return {
            "pair": _outcomes(experiments.entangled_pair_distribution(a, b) for a, b in runs),
            "singlet": _outcomes(experiments.electron_singlet_distribution(a, b) for a, b in runs),
            "hardy": _outcomes(
                experiments.hardy_distribution(a, b, allow_general=True) for a, b in runs
            ),
            "ghz": (ghz.distribution.outcomes, ghz.p_even, ghz.p_odd, ghz.certain_parity),
            "chsh": (experiments.chsh_quantum(*quad, system="photon"),
                     experiments.chsh_quantum(*quad, system="electron")),
            "chsh_quoted": (
                experiments.chsh_quantum(*experiments.CHSH_PHOTON_SETTINGS, system="photon"),
                experiments.chsh_quantum(*experiments.CHSH_ELECTRON_SETTINGS, system="electron"),
            ),
            "transmission": (polarization.analyzer_transmission(state, photon[4]),
                             polarization.analyzer_transmission_stokes(state, photon[4])),
            "spin1": (spin.euler_rotation_spin1(angles).entries,
                      spin.spin1_from_pair(angles).entries),
        }

    def check(self, op: Op, d: dict) -> None:
        quad, photon, euler, case = op.args
        t1, t1p, t2, t2p = quad
        runs = ((t1, t2), (t1, t2p), (t1p, t2), (t1p, t2p))
        for key, closed in (("pair", pair_closed_form), ("singlet", singlet_closed_form),
                            ("hardy", None)):
            marg1, marg2 = [], []
            for (a, b), rows in zip(runs, d[key]):
                _normalized(rows, key)
                corr = sum(p * (1 if x == y else -1) for (x, y), p in rows)
                if closed is not None:
                    expect(abs(corr - closed(a, b)) <= TOL, f"{key} correlation at {a}, {b}")
                plus = rows[0][0][0]
                marg1.append(sum(p for (x, _), p in rows if x == plus))
                marg2.append(sum(p for (_, y), p in rows if y == plus))
            # party 1's marginal may not depend on party 2's setting, and back
            expect(abs(marg1[0] - marg1[1]) <= TOL and abs(marg1[2] - marg1[3]) <= TOL,
                   f"{key} signals from party 2 to party 1")
            expect(abs(marg2[0] - marg2[2]) <= TOL and abs(marg2[1] - marg2[3]) <= TOL,
                   f"{key} signals from party 1 to party 2")
        rows, p_even, p_odd, parity = d["ghz"]
        _normalized(rows, "ghz")
        expect(abs(p_even + p_odd - 1.0) <= TOL, "ghz parities do not sum to 1")
        expect(parity == GHZ_PARITY[case], f"ghz case {case} parity {parity}")
        expect(max(p_even, p_odd) >= 1.0 - TOL, f"ghz case {case} parity not certain")
        photon_gamma, electron_gamma = d["chsh"]
        for gamma, closed in ((photon_gamma, pair_closed_form),
                              (electron_gamma, singlet_closed_form)):
            expect(abs(gamma) <= TSIRELSON + TOL, f"chsh {gamma} beyond Tsirelson")
            expect(abs(gamma - chsh_closed_form(closed, *quad)) <= TOL, f"chsh {gamma}")
        for gamma in d["chsh_quoted"]:
            expect(abs(abs(gamma) - TSIRELSON) <= TOL, f"quoted chsh {gamma} != 2 sqrt 2")
        ax, px, ay, py, theta = photon
        want = (ax * math.cos(theta)) ** 2 + (ay * math.sin(theta)) ** 2 + (
            2 * ax * ay * math.cos(theta) * math.sin(theta) * math.cos(py - px))
        amp, stokes = d["transmission"]
        expect(abs(amp - want) <= TOL and abs(stokes - want) <= TOL,
               f"transmission {amp} / {stokes} != {want}")
        direct, paired = d["spin1"]
        expect(float(np.max(np.abs(direct - paired))) <= TOL, "spin-1 rotation != pair form")
        expect(float(np.max(np.abs(direct @ direct.conj().T - np.eye(3)))) <= TOL,
               "spin-1 rotation not unitary")


def _normalized(rows, what: str) -> None:
    expect(all(p >= 0.0 for _, p in rows), f"{what} negative probability")
    expect(abs(math.fsum(p for _, p in rows) - 1.0) <= TOL, f"{what} not normalized")


# --- enumerate --------------------------------------------------------------

# One round: 16 operations in seven classes of 2^6 to 2^14 strategies.  The
# counts put the median and the 75th percentile of a round's latencies inside
# a class rather than on the edge between two, so they do not jump between
# classes from one seed to the next.  The order is fixed, so seeds differ in
# parameters only, not in which operation follows a large one.
ENUMERATE_ROUND = (
    "flip64", "tri3", "pair5", "pair6", "flip4096", "pair5", "tri3", "flip64",
    "pair6", "tri4", "pair5", "flip64", "tri3", "pair6", "pair7", "pair5",
)
MC_TRIALS_PER_RUN = 200
# Joint runs per scenario: a seeded pick from all joint settings.  The cost of
# an operation grows with strategies x runs; a fixed, small number of runs
# keeps the largest operation near a second, so a 20-second run measures
# seven to nine rounds and no latency rests on one or two samples.
RUNS_PER_SPEC = 8


def _distinct_angles(r: random.Random, k: int) -> tuple[float, ...]:
    return tuple(float(a) for a in sorted(r.sample(range(180), k)))


def make_spec(kind: str, r: random.Random):
    """One seeded ScenarioSpec of the given class, with its score and direction."""
    if kind.startswith("pair") or kind.startswith("tri"):
        parties = 2 if kind.startswith("pair") else 3
        k = int(kind[4:] if parties == 2 else kind[3:])
        settings = tuple(_distinct_angles(r, k) for _ in range(parties))
        grid = [()]
        for angles in settings:
            grid = [run + (a,) for run in grid for a in angles]
        runs = tuple(sorted(r.sample(grid, RUNS_PER_SPEC)))
        spec = lhvt.ScenarioSpec(kind, parties, settings, runs)
        score = r.choice(("agreement", "antiparallel")) if parties == 2 else "agreement"
    else:
        step = {"flip64": 15.0, "flip4096": 7.5}[kind]
        n = round(360 / step)
        angles = tuple(step * i for i in range(n))
        offset = r.choice([m for m in range(1, n) if (m * step) % 90])
        pairs = [(a, angles[(i + offset) % n]) for i, a in enumerate(angles)]
        runs = tuple(sorted(r.sample(pairs, RUNS_PER_SPEC)))
        spec = lhvt.ScenarioSpec(kind, 2, (angles, angles), runs, identical=True, flip_90=True)
        score = "agreement"
    return spec, score, r.choice(("max", "min"))


class Enumerate:
    """Exact classical computations on generated scenarios of 2^6 to 2^14 strategies."""

    name = "enumerate"
    tail_pct = 75.0
    cold_argv = ("lhvt", "--scenario", "ghz")

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.np_rng = np.random.default_rng(seed)

    @staticmethod
    def check_cold(rc: int, stdout: str) -> None:
        expect(rc == 0, f"exit {rc}")
        check_verdict(stdout)

    def make_op(self, kind: str) -> Op:
        spec, score, direction = make_spec(kind, self.rng)
        n = oracle.strategy_count(spec)
        weights = self.np_rng.dirichlet(np.ones(n))
        trials = MC_TRIALS_PER_RUN * len(spec.runs)
        return Op(kind, (spec, score, direction, weights, trials, self.rng.randrange(2**31)), n)

    def round(self) -> list[Op]:
        return [self.make_op(kind) for kind in ENUMERATE_ROUND]

    def run(self, op: Op) -> dict:
        spec, score, direction, weights, trials, mc_seed = op.args
        fraction = lhvt.agreement_fraction if score == "agreement" else lhvt.antiparallel_fraction
        count = len(lhvt.enumerate_strategies(spec))
        bound = lhvt._extremize(spec, lambda t: fraction(spec, t), direction)
        mixture = lhvt.exact_mixture_correlations(spec, weights)
        est = lhvt.monte_carlo_mixture(spec, weights, trials, mc_seed)
        return {
            "count": count,
            "bound": bound.value,
            "optimizers": len(bound.optimizers),
            "mixture": [float(x) for x in mixture],
            "mc": (est.counts, est.means, est.std_errors, est.exact),
        }

    def check(self, op: Op, d: dict) -> None:
        spec, score, direction, weights, trials, _ = op.args
        expect(d["count"] == oracle.strategy_count(spec),
               f"{spec.name}: {d['count']} strategies, expected {oracle.strategy_count(spec)}")
        hits, mixture = oracle.brute_force(spec, weights.tolist())
        best, optimizers = oracle.bound(hits, len(spec.runs), score, direction)
        expect(isinstance(d["bound"], Fraction) and d["bound"] == best,
               f"{spec.name}: {direction} {score} {d['bound']} != {best}")
        expect(d["optimizers"] == optimizers,
               f"{spec.name}: {d['optimizers']} optimizers, expected {optimizers}")
        expect(all(abs(a - b) <= 1e-9 for a, b in zip(d["mixture"], mixture))
               and len(d["mixture"]) == len(mixture), f"{spec.name}: mixture correlations")
        counts, means, errors, exact = d["mc"]
        expect(sum(counts) == trials and min(counts) > 1, f"{spec.name}: sample counts")
        for mean, se, ex, want in zip(means, errors, exact, mixture):
            expect(abs(ex - want) <= 1e-9, f"{spec.name}: sampler exact value {ex}")
            expect(abs(mean - want) <= 5 * se + 1e-9, f"{spec.name}: sample mean {mean} vs {want}")


WORKLOADS = {w.name: w for w in (Paper, Quantum, Enumerate)}
