"""Exhaustive enumeration of deterministic instruction-set (local hidden
variable) strategies for the scenarios simulated in experiments.py, with exact
rational bounds and an optional Monte-Carlo mixture sampler.

Setting angles in this module are plain degree labels on instruction cards, so
grid arithmetic (the 90-degree flip rule, 120-degree spacings) stays exact;
they are converted to radians only when a quantum distribution is consulted.
The Hardy and GHZ scenarios are read, in degrees, from the quoted cases in
experiments.HARDY_CASES and GHZ_CASES, whose letters name the runs; the CHSH
runs and combination come from experiments.chsh_runs and chsh_combination.
Outcomes are +1 (pass / spin-up) and -1 (stop / spin-down).

A scenario's strategy space is decoded once into a +/-1 int8 card array: one
row per strategy, one column per (party, setting), party-major and
setting-minor.  Row i reads the integer i as the scenario's free outcomes,
most significant bit first, a 0 bit meaning +1, so rows come in lexicographic
order with +1 before -1.  Columns fixed by the 90-degree flip rule or by
identical/opposite cards are signed copies of free columns.  The +/-1
invariant is checked once per card array, not once per strategy.  Mixtures
and samples gather from its int8 run-product matrix.  The canonical two-party
bounds (grid30, grid120, electron, CHSH) are scored from that matrix in one
integer pass.  The Hardy and GHZ zero filters read a strategy's answer on a
run as that joint outcome's row in the run's distribution, and look it up in
one boolean table of the quantum zeros; Hardy's pass/pass is row 0.  A
strategy is a plain tuple with one tuple of +/-1 answers per party, in that
party's setting order (Strategy).  Strategies are built only for what a
result lists: a bound's optimizers and the Hardy and GHZ stages, row by row
(_tables), and the whole space (enumerate_strategies, which _extremize
scores), one column per party of answer tuples each built once.  At most
MAX_STRATEGIES = 2**16 strategies are enumerated; larger spaces are refused
before any array is allocated.

The Monte-Carlo sampler reads the generator exactly as
Generator.choice(strategies, trials, p=weights) and then
Generator.integers(0, runs, trials) do, so each seed gives the same draws.  A
strategy is read from its uniform as floor(u * strategies) when the weights
are uniform, and by binary search otherwise; each run's draws are grouped by
one stable radix sort.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, chain, compress, repeat
from operator import getitem

import numpy as np

from . import experiments

PASS, STOP = 1, -1

# Hard ceiling on exhaustive enumeration, checked before anything is allocated.
# Two parties with eight settings each (2^16 strategies), scored by agreement
# over all 64 runs, take about 10 ms of CPU time for the array bound the CLI
# uses (_pair_bound), 9-15 ms to build every strategy tuple
# (enumerate_strategies) and 1.9-2.5 s to score them one at a time (_extremize),
# best of several runs (2-CPU Intel Xeon, Python 3.11, numpy 2.4).
MAX_STRATEGIES = 2**16

# Hard ceiling on Monte-Carlo trials: the sampler holds a few arrays of this
# length, so memory stays bounded whatever the caller asks for.
MAX_MC_TRIALS = 1_000_000

# A quantum probability at or below this is treated as an exact zero constraint.
ZERO_TOL = 1e-12

# One deterministic strategy: strategy[p][k] is party p's +/-1 answer at its
# k-th setting.
Strategy = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class ScenarioSpec:
    """A finite-settings scenario: who measures what, and which joint runs count.

    settings[p] lists party p's allowed card angles (degrees); runs holds the
    joint settings that the figure of merit averages over.  identical shares one
    card among all parties, opposite gives party 2 the arrow-flipped card of
    party 1, and flip_90 links each angle to its partner 90 degrees away with
    the opposite outcome.  Angles must be finite, and each party's settings
    distinct.
    run_index holds each run's per-party setting indices.
    """

    name: str
    parties: int
    settings: tuple[tuple[float, ...], ...]
    runs: tuple[tuple[float, ...], ...]
    identical: bool = False
    opposite: bool = False
    flip_90: bool = False
    run_index: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.parties < 1 or len(self.settings) != self.parties:
            raise ValueError("settings must list one angle tuple per party")
        if self.identical and self.opposite:
            raise ValueError("identical and opposite are mutually exclusive")
        if (self.identical or self.opposite) and len(set(self.settings)) != 1:
            raise ValueError("shared-card scenarios need identical setting lists")
        if self.opposite and self.parties != 2:
            raise ValueError("opposite cards are defined for two parties")
        if not all(map(math.isfinite, chain(*self.settings, *self.runs))):
            raise ValueError("setting and run angles must be finite")
        index = tuple({angle: k for k, angle in enumerate(s)} for s in self.settings)
        for p, angles in enumerate(self.settings):
            if len(index[p]) != len(angles):
                raise ValueError(f"party {p + 1} settings {angles} repeat an angle")
        for run in self.runs:
            if len(run) != self.parties:
                raise ValueError(f"run {run} does not name one angle per party")
        if not self.runs:
            raise ValueError("a scenario needs at least one run")
        for run in self.runs:
            for p, angle in enumerate(run):
                if angle not in index[p]:
                    raise ValueError(f"run angle {angle} not among party {p + 1} settings")
        run_index = tuple(tuple(map(getitem, index, run)) for run in self.runs)
        object.__setattr__(self, "run_index", run_index)


@dataclass(frozen=True)
class ClassicalBound:
    """Extremal value of a figure of merit over the deterministic strategies.

    Mixtures cannot beat it: the figure of merit is an average of per-run
    scores, so it is affine in the mixing weights and extremized at a vertex.
    optimizers lists the strategies that reach it, in enumeration order, and
    strategy_count is the number of strategies it was taken over: the whole
    space or the strategies a filter let through.
    """

    value: Fraction
    direction: str
    optimizers: tuple[Strategy, ...]
    strategy_count: int

    def __post_init__(self):
        if self.direction not in ("max", "min"):
            raise ValueError(f"direction must be 'max' or 'min'; got {self.direction!r}")


def _card_columns(spec: ScenarioSpec) -> tuple[list[int], list[int], int]:
    """For every (party, setting) column, the free outcome slot it copies and
    the sign it copies it with; plus the number of free slots.

    An angle's key is angle % 90 under the flip rule, and otherwise the angle
    itself.  Each angle copies the slot of its party's first angle with the same
    key, negated for an odd number of quarter turns between them; a new key
    opens the next free slot.  Parties 2... of an identical or opposite scenario
    copy party 1's columns, negated for opposite.
    """
    shared = spec.identical or spec.opposite
    slots, signs, free = [], [], 0
    for p, angles in enumerate(spec.settings):
        if shared and p > 0:
            slots += slots[: len(angles)]
            signs += [-s if spec.opposite else s for s in signs[: len(angles)]]
            continue
        firsts = {}
        for angle in angles:
            key = angle % 90.0 if spec.flip_90 else angle
            turns = round((angle - firsts[key][0]) / 90.0) if key in firsts else 0
            slots.append(firsts.setdefault(key, (angle, free + len(firsts)))[1])
            signs.append(-1 if turns % 2 else 1)
        free += len(firsts)
    return slots, signs, free


def _cards(spec: ScenarioSpec) -> np.ndarray:
    """Every strategy as a +/-1 int8 row, in enumeration order (see the module
    docstring); shape (strategies, total settings)."""
    slots, signs, free = _card_columns(spec)
    if 2**free > MAX_STRATEGIES:
        raise ValueError(f"2^{free} strategies exceed the enumeration ceiling")
    index = np.arange(2**free, dtype=np.min_scalar_type(2**free - 1))
    shifts = np.arange(free - 1, -1, -1, dtype=np.uint8)
    free_cards = 1 - 2 * ((index[:, None] >> shifts) & 1).astype(np.int8)
    cards = free_cards[:, slots] * np.array(signs, dtype=np.int8)
    if not np.all(np.abs(cards) == 1):
        raise RuntimeError("decoded card array holds an outcome other than +1 or -1")
    return cards


def _column_offsets(spec: ScenarioSpec) -> list[int]:
    """Index of each party's first column in the card array."""
    return list(accumulate((len(s) for s in spec.settings[:-1]), initial=0))


def _run_columns(spec: ScenarioSpec) -> np.ndarray:
    """Card-array column of each party's setting in each run, shape (runs, parties)."""
    return np.array(spec.run_index, dtype=np.intp) + _column_offsets(spec)


def _tables(spec: ScenarioSpec, cards: np.ndarray) -> list[Strategy]:
    bounds = _column_offsets(spec) + [cards.shape[1]]
    return list(zip(*(map(tuple, cards[:, lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:]))))


def enumerate_strategies(spec: ScenarioSpec) -> list[Strategy]:
    """All strategies consistent with the scenario's constraints, in a fixed
    lexicographic order (party-major, setting-minor, +1 before -1).

    The same list as _tables(spec, _cards(spec)), built one party at a time:
    a party's answers read only its free slots, one bit field of the strategy
    number, so its 2^width answer tuples are read once, from the card rows
    that set only that field, and repeated over the rows that share them.
    Parties with the same slots and signs (identical cards) share one column."""
    cards = _cards(spec)
    slots, signs, free = _card_columns(spec)
    bounds = _column_offsets(spec) + [len(slots)]
    columns, parties = {}, []
    for lo, hi in zip(bounds, bounds[1:]):
        plan = tuple(slots[lo:hi]), tuple(signs[lo:hi])
        if plan not in columns:
            first, last = min(plan[0]), max(plan[0])
            shift = free - 1 - last
            rows = np.arange(2 ** (last - first + 1)) << shift
            answers = map(tuple, cards[rows, lo:hi].tolist())
            column = list(chain.from_iterable(repeat(a, 1 << shift) for a in answers))
            columns[plan] = column * (len(cards) // len(column))
        parties.append(columns[plan])
    return list(zip(*parties))


def _agreements(spec: ScenarioSpec, strategy: Strategy) -> int:
    """Number of the scenario's runs on which all parties answer alike."""
    if len(strategy) != spec.parties:
        raise ValueError(f"strategy answers for {len(strategy)} parties, not {spec.parties}")
    return sum(1 for run in spec.run_index if len(set(map(getitem, strategy, run))) == 1)


def agreement_fraction(spec: ScenarioSpec, strategy: Strategy) -> Fraction:
    """Fraction of the scenario's runs on which all parties answer alike."""
    return Fraction(_agreements(spec, strategy), len(spec.runs))


def antiparallel_fraction(spec: ScenarioSpec, strategy: Strategy) -> Fraction:
    """Two-party fraction of runs with opposite answers."""
    if spec.parties != 2:
        raise ValueError("antiparallel_fraction needs a two-party scenario")
    return Fraction(len(spec.runs) - _agreements(spec, strategy), len(spec.runs))


# --- canonical scenarios ----------------------------------------------------


def grid30_scenario() -> ScenarioSpec:
    """Shared cards on the 12-point 30-degree grid, second analyzer always 30
    degrees past the first, with the 90-degree flip rule."""
    angles = tuple(float(30 * k) for k in range(12))
    runs = tuple((angles[k], angles[(k + 1) % 12]) for k in range(12))
    return ScenarioSpec("grid30", 2, (angles, angles), runs, identical=True, flip_90=True)


def grid120_scenario() -> ScenarioSpec:
    """Shared cards on {0, 120, 240}; every run sets the analyzers 120 degrees apart."""
    angles = (0.0, 120.0, 240.0)
    runs = tuple((a, b) for a in angles for b in angles if a != b)
    return ScenarioSpec("grid120", 2, (angles, angles), runs, identical=True)


def electron_scenario() -> ScenarioSpec:
    """Singlet electrons with opposite cards on {0, 120, 240}; runs with
    distinct settings (equal settings give antiparallel spins trivially)."""
    angles = (0.0, 120.0, 240.0)
    runs = tuple((a, b) for a in angles for b in angles if a != b)
    return ScenarioSpec("electron", 2, (angles, angles), runs, opposite=True)


def _quoted_scenario(name: str, cases: dict) -> ScenarioSpec:
    """Independent cards, one run per quoted case in table order, in degrees;
    each party's settings are the angles it meets in those runs, ascending."""
    runs = tuple(tuple(map(math.degrees, angles)) for angles in cases.values())
    settings = tuple(tuple(sorted(set(column))) for column in zip(*runs))
    return ScenarioSpec(name, len(settings), settings, runs)


def hardy_scenario() -> ScenarioSpec:
    """The Hardy pair's runs A-D, read from experiments.HARDY_CASES."""
    return _quoted_scenario("hardy", experiments.HARDY_CASES)


def ghz_scenario() -> ScenarioSpec:
    """The three photons' runs A-D, read from experiments.GHZ_CASES."""
    return _quoted_scenario("ghz", experiments.GHZ_CASES)


def chsh_scenario(
    theta1_deg: float, theta1p_deg: float, theta2_deg: float, theta2p_deg: float
) -> ScenarioSpec:
    """Two settings per party; the four runs feeding the correlation combination."""
    settings = (theta1_deg, theta1p_deg), (theta2_deg, theta2p_deg)
    runs = experiments.chsh_runs(theta1_deg, theta1p_deg, theta2_deg, theta2p_deg)
    return ScenarioSpec("chsh", 2, settings, runs)


# --- exact bounds -----------------------------------------------------------


def _extremize(spec, score, direction) -> ClassicalBound:
    strategies = enumerate_strategies(spec)
    scores = [score(t) for t in strategies]
    best = max(scores) if direction == "max" else min(scores)
    optimizers = tuple(t for t, s in zip(strategies, scores) if s == best)
    return ClassicalBound(best, direction, optimizers, len(strategies))


def _array_bound(
    spec: ScenarioSpec, cards: np.ndarray, numerators: np.ndarray, denominator: int, direction: str
) -> ClassicalBound:
    """The bound over the card rows whose figures of merit are numerators /
    denominator, one integer per row in enumeration order.  The best is taken
    on the integers, and strategies are built for the optimizers only, in
    enumeration order."""
    best = numerators.max() if direction == "max" else numerators.min()
    optimizers = tuple(_tables(spec, cards[numerators == best]))
    return ClassicalBound(Fraction(int(best), denominator), direction, optimizers, len(cards))


def _pair_bound(spec: ScenarioSpec, figure: str, direction: str) -> ClassicalBound:
    """Two-party agreement or antiparallel bound, the same as _extremize with
    agreement_fraction or antiparallel_fraction, scored in one integer pass: a
    strategy whose run products sum to s agrees on (runs + s) / 2 runs and
    answers oppositely on (runs - s) / 2."""
    cards = _cards(spec)
    runs = len(spec.runs)
    sums = _run_products(spec, cards).sum(axis=1, dtype=np.int64)
    hits = (runs + sums if figure == "agreement" else runs - sums) // 2
    return _array_bound(spec, cards, hits, runs, direction)


def max_agreement_30grid() -> ClassicalBound:
    """Largest average agreement any shared 30-degree-grid card can reach."""
    return _pair_bound(grid30_scenario(), "agreement", "max")


def min_agreement_120grid() -> ClassicalBound:
    """Smallest average agreement any shared 120-degree-grid card can reach."""
    return _pair_bound(grid120_scenario(), "agreement", "min")


def min_antiparallel_electron() -> ClassicalBound:
    """Smallest fraction of antiparallel outcomes over the unequal-setting runs."""
    return _pair_bound(electron_scenario(), "antiparallel", "min")


def _outcome_rows(spec: ScenarioSpec, cards: np.ndarray) -> np.ndarray:
    """Each strategy's joint answer on each run as the index of that outcome's
    row in the run's OutcomeDistribution, shape (strategies, runs): -1 is bit
    1, first party most significant, so all-pass is row 0."""
    weights = 1 << np.arange(spec.parties - 1, -1, -1)
    return (cards[:, _run_columns(spec)] == STOP) @ weights


def _forbidden(spec: ScenarioSpec, cases: dict):
    """The card array, its outcome rows on every run (_outcome_rows), and for
    each strategy the set of case letters whose quantum distribution forbids
    (probability at most ZERO_TOL) the outcome it would produce; cases maps
    each run's letter to its distribution, in run order.  Hardy's zeros and
    the GHZ parities both eliminate strategies by these sets."""
    cards = _cards(spec)
    rows = _outcome_rows(spec, cards)
    zeros = np.array([d.probabilities for d in cases.values()]) <= ZERO_TOL
    forbidden = zeros[np.arange(len(cases)), rows]
    return cards, rows, [frozenset(compress(cases, row)) for row in forbidden.tolist()]


@dataclass(frozen=True)
class HardyStages:
    """Every Hardy card pair; for each, the case letters whose forbidden
    outcome it would produce; the pairs that produce none; the pass/pass bound
    at (0,0) over those feasible pairs; and the quantum runs A-D the zeros
    were read from."""

    all_strategies: tuple[Strategy, ...]
    eliminated_by: tuple[frozenset[str], ...]
    feasible: tuple[Strategy, ...]
    bound: ClassicalBound
    runs: tuple[experiments.OutcomeDistribution, ...]


def hardy_stages() -> HardyStages:
    """Eliminate every card pair that would produce an outcome a Hardy run
    forbids, then bound pass/pass (both answers +1) at (0,0) over the rest."""
    spec = hardy_scenario()
    runs = {c: experiments.hardy_distribution(*a) for c, a in experiments.HARDY_CASES.items()}
    cards, rows, hits = _forbidden(spec, runs)
    tables = _tables(spec, cards)
    feasible = [i for i, hit in enumerate(hits) if not hit]
    bound = _array_bound(spec, cards[feasible], (rows[feasible, 0] == 0).astype(int), 1, "max")
    survivors = tuple(tables[i] for i in feasible)
    return HardyStages(tuple(tables), tuple(hits), survivors, bound, tuple(runs.values()))


def hardy_elimination() -> dict[Strategy, frozenset[str]]:
    """For every pair of cards, the set of case letters whose forbidden outcome
    that strategy would produce (empty set = strategy survives)."""
    stages = hardy_stages()
    return dict(zip(stages.all_strategies, stages.eliminated_by))


def hardy_feasible_set() -> list[Strategy]:
    """Card pairs consistent with every zero of the quantum Hardy distribution."""
    return list(hardy_stages().feasible)


def hardy_passpass_bound() -> ClassicalBound:
    """Ceiling on pass/pass at the (0,0) setting over the feasible cards; the
    quantum value there is strictly positive."""
    return hardy_stages().bound


@dataclass(frozen=True)
class GhzStages:
    """Strategy counts as the parity constraints are applied one case at a
    time, and the four quantum cases A-D the constraints were read from."""

    all_strategies: tuple[Strategy, ...]
    after_case_a: tuple[Strategy, ...]
    feasible: tuple[Strategy, ...]
    cases: tuple[experiments.GhzParity, ...]


def ghz_elimination_stages() -> GhzStages:
    """Filter the 64 card triples by the parity each quoted case makes certain:
    the wrong-parity outcomes are exactly the ones the case's distribution
    forbids."""
    cases = {c: experiments.ghz_parity_distribution(c) for c in experiments.GHZ_CASES}
    for letter, case in cases.items():
        if case.certain_parity is None:
            raise RuntimeError(f"case {letter} has no certain parity; nothing to filter on")
    spec = ghz_scenario()
    cards, _, hits = _forbidden(spec, {c: p.distribution for c, p in cases.items()})
    tables = _tables(spec, cards)
    return GhzStages(
        tuple(tables),
        tuple(t for t, hit in zip(tables, hits) if "A" not in hit),
        tuple(t for t, hit in zip(tables, hits) if not hit),
        tuple(cases.values()),
    )


@dataclass(frozen=True)
class ChshClassical:
    """The correlation combination for every deterministic strategy."""

    scenario: ScenarioSpec
    gammas: tuple[int, ...]
    max_bound: ClassicalBound
    min_bound: ClassicalBound


def chsh_classical(
    theta1_deg: float, theta1p_deg: float, theta2_deg: float, theta2p_deg: float
) -> ChshClassical:
    """Score the 16 strategies: experiments.chsh_combination of each one's
    four run products, which is +2 or -2 for every strategy."""
    spec = chsh_scenario(theta1_deg, theta1p_deg, theta2_deg, theta2p_deg)
    cards = _cards(spec)
    gammas = experiments.chsh_combination(*_run_products(spec, cards).T)
    values = tuple(gammas.tolist())
    for g in values:
        if g not in (2, -2):
            raise RuntimeError(f"deterministic combination {g} escaped +/-2")
    return ChshClassical(
        spec,
        values,
        _array_bound(spec, cards, gammas, 1, "max"),
        _array_bound(spec, cards, gammas, 1, "min"),
    )


# --- mixtures ---------------------------------------------------------------


def exact_mixture_correlations(spec: ScenarioSpec, weights) -> np.ndarray:
    """Per-run expected outcome product under a mixture of strategies."""
    products = _run_products(spec, _cards(spec))
    return _checked_weights(weights, len(products)) @ products


def _checked_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise ValueError("mixture weights must be finite")
    if np.any(w < 0):
        raise ValueError("mixture weights must be non-negative")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {total!r}, expected 1")
    return w / total


def _run_products(spec: ScenarioSpec, cards: np.ndarray) -> np.ndarray:
    """Outcome product of every strategy on every run, +/-1 int8, shape (strategies, runs)."""
    return np.prod(cards[:, _run_columns(spec)], axis=2, dtype=np.int8)


@dataclass(frozen=True)
class MixtureEstimate:
    """Sampled per-run outcome products against their exact mixture values,
    one entry per run of the sampled scenario, in its run order."""

    counts: tuple[int, ...]
    means: tuple[float, ...]
    std_errors: tuple[float, ...]
    exact: tuple[float, ...]


def monte_carlo_mixture(
    spec: ScenarioSpec, weights, trials: int, rng_seed: int
) -> MixtureEstimate:
    """Simulate runs of a weighted strategy mixture with uniformly random
    setting choices; exact enumeration stays the source of truth, this is the
    finite-statistics view of it.

    The generator is read once as random(trials), then once as
    integers(0, runs, trials): the stream of Generator.choice(strategies,
    trials, p=w) followed by that integers call.  _draw turns each uniform
    into the strategy choice draws from it, as floor(u * strategies) for a
    uniform mixture and by binary search otherwise, so a seed gives the same
    estimate as those two calls.  Each run's draws are one contiguous slice
    of a stable sort by run, so they stay in draw order, and their mean and
    standard error have the bits a boolean mask per run would give.
    """
    if not 1 <= trials <= MAX_MC_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_MC_TRIALS}; got {trials}")
    products = _run_products(spec, _cards(spec))
    w = _checked_weights(weights, len(products))
    runs = len(spec.runs)

    rng = np.random.default_rng(rng_seed)
    strat = _draw(w, rng.random(trials))
    run_idx = rng.integers(0, runs, size=trials)
    # strat becomes the flat index into products in place: at 10^5 trials a
    # fresh array of that size costs more in page faults than the arithmetic.
    strat *= runs
    strat += run_idx
    values = products.take(strat)

    # A stable sort on the smallest unsigned dtype is numpy's radix sort.
    order = np.argsort(run_idx.astype(np.min_scalar_type(runs - 1)), kind="stable")
    by_run = values[order]
    counts = np.bincount(run_idx, minlength=runs).tolist()
    means, errors = [], []
    for start, n in zip(accumulate(counts, initial=0), counts):
        sel = by_run[start : start + n].astype(float)
        means.append(float(sel.mean()) if n else math.nan)
        errors.append(float(sel.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan)
    exact = w @ products
    return MixtureEstimate(
        tuple(counts), tuple(means), tuple(errors), tuple(float(x) for x in exact)
    )


def _draw(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The strategy index of each uniform u in [0, 1): the number of cdf
    values <= u, where cdf = w.cumsum() / its last entry, which is the index
    Generator.choice(p=w) draws from u.

    Every strategy count n is a power of two, so weights that all equal 1/n
    have the exact cdf k/n and the count is floor(u * n); any other weights
    are binary-searched.
    """
    n = len(w)
    if (w == 1.0 / n).all():
        return (u * n).astype(np.intp)
    cdf = w.cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, "right")
