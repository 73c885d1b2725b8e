"""Command-line front end.

Angles cross this boundary in degrees and are converted to radians before any
library call.  Tables round to six decimals; JSON keeps full float precision
and serializes deterministically (sorted keys), so identical invocations are
byte-identical.  Exit codes: 0 success, 1 usage/input error or a closed
stdout, 2 internal check failure.  BELLKIT_SEED overrides the Monte-Carlo seed
when --seed is absent.
The argument parser is built by the first main() call and reused by later
calls in the same process; BELLKIT_SEED is still read on every call.

Each scenario is one function in the SCENARIOS table, in report order, that
computes its numbers once into one RunReport: the JSON fields, the two table
cells and the `lhvt` lines; grid30, grid120 and electron share one builder,
which reads each row's name, bound and quoted setting from its lhvt scenario.
Each verdict reads the bounds its row prints, and the Hardy and GHZ settings
come from experiments' case tables.  Only chsh takes --angles and --mc-trials.
Input is checked at the edge, before any output: argparse types reject
non-finite numbers and bad seeds (BELLKIT_SEED too), and each command checks
the rest of its input before it prints anything.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass

from . import experiments, lhvt, polarization, spin, tensor

# Margin used when turning a quantum-vs-bound comparison into a verdict.
VERDICT_MARGIN = 1e-9

VIOLATION = "violation"
CONSISTENT = "consistent"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags by default; this package reserves 2 for
    internal check failures, so usage problems exit 1 instead.  argparse also
    reads -3e1, -nan and -inf as flags; here they are values, as -30 is (the
    type then refuses -nan and -inf).  argparse drops an OSError from printing
    help or usage; here it propagates, so help on a closed stdout exits 1 as
    every other command does.  Subparsers are built from this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|nan|inf(inity)?)$", re.IGNORECASE
        )

    def _print_message(self, message, file=None):
        if message:
            file = file or sys.stderr
            file.write(message)
            file.flush()  # a buffered stdout fails here, not in the exit flush

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _fmt(x: float, sign: str = "") -> str:
    """x to six decimals; a value that rounds to zero prints with no minus."""
    text = f"{x:{sign}.6f}"
    return sign + "0.000000" if text == "-0.000000" else text


def _fmt_complex(z: complex) -> str:
    return f"{_fmt(z.real, '+')}{_fmt(z.imag, '+')}i"


def _fmt_matrix(entries) -> str:
    return "\n".join("  ".join(_fmt_complex(z) for z in row) for row in entries)


def card_string(strategy: lhvt.Strategy) -> str:
    """Compact rendering of a strategy: one +/- run per party."""
    return " ".join("".join("+" if v > 0 else "-" for v in row) for row in strategy)


# --- pair -------------------------------------------------------------------


def cmd_pair(args) -> int:
    if args.sweep:
        deltas = range(181)
        corr = experiments.pair_correlations([math.radians(d) for d in deltas], [0.0] * 181)
        print("\n".join(["delta_deg,correlation"] + [f"{d},{e!r}" for d, e in zip(deltas, corr)]))
        return 0
    dist = experiments.entangled_pair_distribution(
        math.radians(args.theta1), math.radians(args.theta2)
    )
    print(f"two-photon pair  theta1={_fmt(args.theta1)}deg  theta2={_fmt(args.theta2)}deg")
    for labels, p in dist.outcomes:
        print(f"  {labels[0]:<5} {labels[1]:<5} {_fmt(p)}")
    print(f"agreement   {_fmt(dist.agreement())}")
    print(f"correlation {_fmt(dist.correlation())}")
    return 0


# --- poincare ---------------------------------------------------------------


def cmd_poincare(args) -> int:
    ax, ay = args.alpha_x, args.alpha_y
    if ax < 0 or ay < 0:
        raise UsageError("amplitude moduli must be non-negative")
    n2 = ax * ax + ay * ay
    if ax == 0 and ay == 0:
        raise UsageError("both amplitudes are zero; nothing to normalize")
    if abs(n2 - 1.0) > 1e-6:
        raise UsageError(f"alpha_x^2 + alpha_y^2 = {n2!r}; expected 1 within 1e-6")
    if abs(n2 - 1.0) > tensor.TOL_NORM:
        print(f"warning: renormalizing input (|amps|^2 = {n2!r})", file=sys.stderr)
        scale = math.sqrt(n2)
        ax, ay = ax / scale, ay / scale
    state = polarization.PhotonState(ax, math.radians(args.phi_x), ay, math.radians(args.phi_y))

    s = polarization.stokes_from_state(state)
    ellipse = polarization.stokes_to_ellipse(s)
    circ = polarization.to_circular(state)
    bloch = polarization.bloch_coords(circ)

    print(f"stokes      s0={_fmt(s.s0)} s1={_fmt(s.s1)} s2={_fmt(s.s2)} s3={_fmt(s.s3)}")
    print(
        f"ellipse     2rho={_fmt(math.degrees(2 * ellipse.rho))}deg"
        f"  2eta={_fmt(math.degrees(2 * ellipse.eta))}deg"
    )
    print(
        f"bloch       theta0={_fmt(math.degrees(bloch.theta0))}deg"
        f"  phi0={_fmt(math.degrees(bloch.phi0))}deg"
    )
    print(f"circular    rcp={_fmt_complex(circ.beta_rcp)}  lcp={_fmt_complex(circ.beta_lcp)}")
    return 0


# --- rotate -----------------------------------------------------------------


def _parse_state(values, dim: int) -> tensor.StateVector:
    if len(values) != 2 * dim:
        raise UsageError(f"--state needs {2 * dim} numbers (re im pairs), got {len(values)}")
    amps = [complex(values[2 * k], values[2 * k + 1]) for k in range(dim)]
    labels = spin.SPIN_HALF_LABELS if dim == 2 else spin.SPIN_ONE_LABELS
    try:
        norm = sum(abs(a) ** 2 for a in amps)
    except OverflowError:
        norm = math.inf
    if not math.isfinite(norm):
        raise UsageError("--state amplitudes are too large: |amps|^2 overflows")
    if not any(amps):
        raise UsageError("state vector is zero")
    if norm < sys.float_info.min:
        raise UsageError("--state amplitudes are too small: |amps|^2 underflows")
    if abs(norm - 1.0) > tensor.TOL_NORM:
        print(f"warning: renormalizing input state (|amps|^2 = {norm!r})", file=sys.stderr)
    return tensor.normalized(amps, labels)


def cmd_rotate(args) -> int:
    # Reduce by the SU(2) period, 720 degrees, so the closed form's phases stay
    # consistent at huge angles; fmod is exact and returns |a| < 720 unchanged.
    euler = spin.EulerAngles(*(math.radians(math.fmod(a, 720.0)) for a in args.euler))
    if args.spin == "half":
        u = spin.euler_rotation_su2(euler)
    else:
        u = spin.euler_rotation_spin1(euler)
    state = None if args.state is None else _parse_state(args.state, u.dim)
    print(f"rotation matrix (spin {args.spin}), euler deg "
          f"theta={_fmt(args.euler[0])} phi={_fmt(args.euler[1])} chi={_fmt(args.euler[2])}")
    print(_fmt_matrix(u.entries))

    if state is not None:
        out = tensor.apply(u, state)
        print("rotated state")
        for label, amp in zip(out.labels, out.amps):
            print(f"  {label}  {_fmt_complex(amp)}")

    if args.check:
        failures = []
        udev = tensor.unitarity_deviation(u)
        print(f"check unitarity deviation: {udev:.3e}")
        if udev > tensor.TOL_UNITARY:
            failures.append("unitarity")
        for axis in "xyz":
            g = spin.generator_from_rotation(axis, args.spin)
            print(f"check generator {axis}: deviation {g.deviation:.3e}")
            if g.deviation > spin.GENERATOR_TOL:
                failures.append(f"generator {axis}")
        if args.spin == "one":
            pair = spin.spin1_from_pair(euler)
            pdev = float(abs(pair.entries - u.entries).max())
            print(f"check pair construction: deviation {pdev:.3e}")
            if pdev > tensor.TOL_UNITARY:
                failures.append("pair construction")
        if failures:
            raise RuntimeError("failed checks: " + ", ".join(failures))
    return 0


# --- scenarios --------------------------------------------------------------


@dataclass(frozen=True)
class RunReport:
    """One scenario's quantum numbers, classical bound data and derived verdict,
    plus the two cells of its `report` row and the lines `lhvt` prints for it.
    The cells and lines are not serialized."""

    scenario: str
    quantum: dict
    classical: dict
    verdict: str
    cells: tuple[str, str]
    lines: tuple[str, ...]

    def as_dict(self) -> dict:
        return {"quantum": self.quantum, "classical": self.classical, "verdict": self.verdict}


def _bound_line(name: str, bound: lhvt.ClassicalBound) -> str:
    return (
        f"classical {name} {bound.direction} = {bound.value} "
        f"({_fmt(float(bound.value))}), {len(bound.optimizers)} optimal cards"
    )


def _verdict(quantum: float, bound: lhvt.ClassicalBound) -> str:
    if bound.direction == "max":
        return VIOLATION if quantum > float(bound.value) + VERDICT_MARGIN else CONSISTENT
    return VIOLATION if quantum < float(bound.value) - VERDICT_MARGIN else CONSISTENT


def _against_bound(name, key, quantum, bound, classical, lines) -> RunReport:
    """A scenario that holds one quantum number, reported under key, against
    one classical bound; lines are the `lhvt` lines before the verdict."""
    verdict = _verdict(quantum, bound)
    classical = {
        "bound": float(bound.value),
        "bound_exact": str(bound.value),
        "direction": bound.direction,
        **classical,
    }
    return RunReport(
        name, {key: quantum}, classical, verdict,
        (_fmt(quantum), _fmt(float(bound.value))), (*lines, f"verdict: {verdict}"),
    )


def _pair(spec, figure, direction, description, distribution, *extra) -> RunReport:
    """A two-party row named spec.name: spec's direction bound on the figure
    ("agreement" or "antiparallel") against that figure of distribution at the
    quoted setting, spec's first run; extra lines go after the bound line."""
    bound = lhvt._pair_bound(spec, figure, direction)
    first, second = spec.runs[0]
    delta = second - first
    quantum = getattr(distribution(math.radians(first), math.radians(second)), figure)()
    classical = {
        "strategy_count": bound.strategy_count,
        "optimizer_count": len(bound.optimizers),
        "optimizers": [card_string(t) for t in bound.optimizers],
    }
    return _against_bound(spec.name, f"{figure}_delta{delta:g}", quantum, bound, classical, (
        f"scenario {spec.name}: {description}",
        f"strategies: {bound.strategy_count}",
        _bound_line(figure, bound),
        *extra,
        f"quantum {figure} at delta={delta:g}deg: {_fmt(quantum)}",
    ))


def _grid30() -> RunReport:
    spec = lhvt.grid30_scenario()
    low = lhvt._pair_bound(spec, "agreement", "min")
    return _pair(
        spec, "agreement", "max", "shared card, 12 settings, second analyzer +30deg",
        experiments.entangled_pair_distribution,
        f"zero-agreement cards: {len(low.optimizers) if low.value == 0 else 0}",
    )


def _grid120() -> RunReport:
    return _pair(
        lhvt.grid120_scenario(), "agreement", "min",
        "shared card on {0,120,240}, analyzers 120deg apart",
        experiments.entangled_pair_distribution,
    )


def _cards_at(cases: dict) -> str:
    """Independent cards at the distinct angles of a quoted case table, in degrees."""
    angles = sorted({a for run in cases.values() for a in run})
    return "independent cards at {" + ",".join(f"{math.degrees(a):g}" for a in angles) + "}deg"


def _hardy() -> RunReport:
    stages = lhvt.hardy_stages()
    count, bound = len(stages.all_strategies), stages.bound
    feasible = [card_string(t) for t in stages.feasible]
    quantum = stages.runs[0].probability_of("pass", "pass")
    classical = {"strategy_count": count, "feasible_count": len(feasible), "feasible": feasible}
    return _against_bound("hardy", "pass_pass_at_00", quantum, bound, classical, (
        f"scenario hardy: {_cards_at(experiments.HARDY_CASES)}",
        f"strategies: {count}, feasible after zero constraints: {len(feasible)}",
        *(f"  feasible card {card}" for card in feasible),
        _bound_line("pass/pass at (0,0)", bound),
        f"quantum pass/pass at (0,0): {_fmt(quantum)}",
    ))


def _ghz() -> RunReport:
    # A case with no certain parity raises in ghz_elimination_stages.
    stages = lhvt.ghz_elimination_stages()
    parities = {c: case.certain_parity for c, case in zip(experiments.GHZ_CASES, stages.cases)}
    verdict = CONSISTENT if stages.feasible else VIOLATION
    classical = {
        "strategy_count": len(stages.all_strategies),
        "after_case_a": len(stages.after_case_a),
        "feasible_count": len(stages.feasible),
    }
    certain = sum(1 for p in parities.values() if p)
    return RunReport(
        "ghz", {"certain_parity": parities}, classical, verdict,
        (f"certain {certain}/4", f"feasible {len(stages.feasible)}"),
        (
            f"scenario ghz: {_cards_at(experiments.GHZ_CASES)}, three photons",
            f"strategies: {len(stages.all_strategies)}; after case A parity filter: "
            f"{len(stages.after_case_a)}; after all four: {len(stages.feasible)}",
            *(f"  case {case}: {parity} detect count certain" for case, parity in parities.items()),
            f"verdict: {verdict}",
        ),
    )


def _electron() -> RunReport:
    return _pair(
        lhvt.electron_scenario(), "antiparallel", "min",
        "opposite cards on {0,120,240}, unequal settings scored",
        experiments.electron_singlet_distribution,
    )


def _chsh(angles=None, mc_trials: int = 0, seed: int = 0) -> RunReport:
    """CHSH at the given analyzer degrees (default: the photon optimum), with
    an optional Monte-Carlo run of the uniform strategy mixture."""
    if angles is None:
        angles = [math.degrees(a) for a in experiments.CHSH_PHOTON_SETTINGS]
    try:
        classical = lhvt.chsh_classical(*angles)
    except ValueError as exc:
        raise UsageError(f"--angles: {exc}") from exc
    rads = [math.radians(a) for a in angles]
    corr = experiments.chsh_correlations(*rads)
    gamma = experiments.chsh_combination(*corr)
    verdicts = {_verdict(gamma, classical.max_bound), _verdict(gamma, classical.min_bound)}
    verdict = VIOLATION if VIOLATION in verdicts else CONSISTENT
    lines = [
        "scenario chsh: two settings per party",
        "settings deg: " + " ".join(_fmt(a) for a in angles),
        f"strategies: {len(classical.gammas)}, combination values all +/-2",
        _bound_line("combination", classical.max_bound),
        _bound_line("combination", classical.min_bound),
        "quantum correlations: " + " ".join(_fmt(e) for e in corr),
        f"quantum combination = {_fmt(gamma)}",
        f"verdict: {verdict}",
    ]
    if mc_trials:
        n = len(classical.gammas)
        est = lhvt.monte_carlo_mixture(classical.scenario, [1.0 / n] * n, mc_trials, seed)
        lines.append(f"monte carlo, uniform mixture, {mc_trials} trials, seed {seed}")
        for run, count, mean, se, exact in zip(
            classical.scenario.runs, est.counts, est.means, est.std_errors, est.exact
        ):
            sampled = (
                f"mean {_fmt(mean)} (se {_fmt(se)}, n={count})"
                if count > 1
                else f"too few samples for a mean and error (n={count})"
            )
            lines.append(f"  run {run[0]:g}/{run[1]:g} deg: {sampled}, exact {_fmt(exact)}")
        if min(est.counts) > 1:
            m = experiments.chsh_combination(*est.means)
            se = math.sqrt(sum(s**2 for s in est.std_errors))
            lines.append(f"  combination estimate {_fmt(m)} +/- {_fmt(se)}")
        else:
            lines.append("  combination estimate unavailable: every run needs at least 2 samples")
    return RunReport(
        "chsh",
        {"settings_deg": list(angles), "correlations": list(corr), "combination": gamma},
        {
            "bound_max": float(classical.max_bound.value),
            "bound_min": float(classical.min_bound.value),
            "strategy_count": len(classical.gammas),
        },
        verdict,
        (_fmt(gamma), _fmt(float(classical.max_bound.value))),
        tuple(lines),
    )


# Every scenario in report order; `lhvt --scenario` offers the same names.
SCENARIOS = {
    "grid30": _grid30,
    "grid120": _grid120,
    "hardy": _hardy,
    "ghz": _ghz,
    "electron": _electron,
    "chsh": _chsh,
}


# --- lhvt -------------------------------------------------------------------


class _FromEnv(str):
    """--seed's default: _seed reads BELLKIT_SEED in its place each time a
    command line is parsed, so a parser built once never holds a stale seed."""


def _seed(text: str) -> int:
    """argparse type: a Monte-Carlo seed, which is a non-negative integer."""
    if isinstance(text, _FromEnv):
        text = os.environ.get("BELLKIT_SEED", "0")
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer (--seed, else BELLKIT_SEED), got {text!r}"
        )
    return value


def cmd_lhvt(args) -> int:
    options = {}
    if args.angles is not None:
        options["angles"] = args.angles
    if args.mc_trials:
        if args.mc_trials < 0:
            raise UsageError("--mc-trials must be non-negative")
        if args.mc_trials > lhvt.MAX_MC_TRIALS:
            raise UsageError(f"--mc-trials must be at most {lhvt.MAX_MC_TRIALS}")
        options.update(mc_trials=args.mc_trials, seed=args.seed)
    if options and args.scenario != "chsh":
        raise UsageError("--angles and --mc-trials apply only to --scenario chsh")
    print("\n".join(SCENARIOS[args.scenario](**options).lines))
    return 0


# --- report -----------------------------------------------------------------


def build_report() -> list[RunReport]:
    """Every scenario at its quoted parameters; all numbers computed on the spot."""
    return [build() for build in SCENARIOS.values()]


def _report_table(rows: list[RunReport]) -> str:
    lines = [f"{'scenario':<10} {'quantum':>12} {'classical':>12} {'verdict':<10}"]
    for r in rows:
        q, c = r.cells
        lines.append(f"{r.scenario:<10} {q:>12} {c:>12} {r.verdict:<10}")
    return "\n".join(lines)


def cmd_report(args) -> int:
    if not args.all:
        raise UsageError("report currently renders all scenarios; pass --all")
    rows = build_report()
    if args.format == "json":
        payload = {"tool": "bellkit", "scenarios": {r.scenario: r.as_dict() for r in rows}}
        text = json.dumps(payload, sort_keys=True, indent=2)
    else:
        text = _report_table(rows)
    if args.out is not None:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except (OSError, ValueError) as exc:  # ValueError: a null byte in the path
            raise UsageError(f"cannot write {args.out!r}: {exc}") from exc
    else:
        print(text)
    return 0


# --- parser -----------------------------------------------------------------


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bellkit", description=(
        "Exact quantum values against local hidden-variable bounds for Bell-type experiments"
    ))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pair", help="two-photon joint outcome table or correlation sweep")
    p.add_argument("--theta1", type=_finite_float, default=0.0, help="analyzer 1 angle, degrees")
    p.add_argument("--theta2", type=_finite_float, default=0.0, help="analyzer 2 angle, degrees")
    p.add_argument("--sweep", action="store_true",
                   help="print delta_deg,correlation CSV for delta = 0..180")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("lhvt", help="enumerate instruction-set strategies for a scenario")
    p.add_argument("--scenario", required=True, choices=list(SCENARIOS))
    p.add_argument("--angles", type=_finite_float, nargs=4, default=None,
                   help="chsh analyzer angles in degrees (theta1 theta1' theta2 theta2')")
    p.add_argument("--mc-trials", type=int, default=0,
                   help="chsh only: sample a uniform strategy mixture this many times "
                        f"(at most {lhvt.MAX_MC_TRIALS})")
    # A string default goes through type too, so BELLKIT_SEED is read and
    # checked here, on every parse.
    p.add_argument("--seed", type=_seed, default=_FromEnv("BELLKIT_SEED"),
                   help="Monte-Carlo seed (default: BELLKIT_SEED or 0)")
    p.set_defaults(func=cmd_lhvt)

    p = sub.add_parser("poincare", help="Stokes/ellipse/Bloch view of one polarization state")
    p.add_argument("--alpha-x", type=_finite_float, required=True)
    p.add_argument("--phi-x", type=_finite_float, default=0.0, help="degrees")
    p.add_argument("--alpha-y", type=_finite_float, required=True)
    p.add_argument("--phi-y", type=_finite_float, default=0.0, help="degrees")
    p.set_defaults(func=cmd_poincare)

    p = sub.add_parser("rotate", help="spin-1/2 or spin-1 rotation matrix and state action")
    p.add_argument("--spin", choices=["half", "one"], required=True)
    p.add_argument("--euler", type=_finite_float, nargs=3, required=True,
                   metavar=("THETA", "PHI", "CHI"), help="degrees")
    p.add_argument("--state", type=_finite_float, nargs="+", default=None,
                   help="state amplitudes as re im pairs")
    p.add_argument("--check", action="store_true",
                   help="verify unitarity, generators, and the spin-1 pair construction")
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("report", help="quantum value vs classical bound for every scenario")
    p.add_argument("--all", action="store_true", help="include every scenario")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.add_argument("--out", default=None, help="write to this file instead of stdout")
    p.set_defaults(func=cmd_report)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main() uses: built on the first call, then reused."""
    return make_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # `bellkit ... | head -1`: the exit flush must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as exc:
        print(f"bellkit: error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"bellkit: internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
