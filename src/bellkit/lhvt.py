"""Exhaustive enumeration of deterministic instruction-set (local hidden
variable) strategies for the scenarios simulated in experiments.py, with exact
rational bounds and an optional Monte-Carlo mixture sampler.

Setting angles in this module are plain degree labels on instruction cards, so
grid arithmetic (the 90-degree flip rule, 120-degree spacings) stays exact;
they are converted to radians only when a quantum distribution is consulted.
Outcomes are +1 (pass / spin-up) and -1 (stop / spin-down).

A scenario's strategy space is decoded once into a +/-1 int8 card array: one
row per strategy, one column per (party, setting), party-major and
setting-minor.  Row i reads the integer i as the scenario's free outcomes,
most significant bit first, a 0 bit meaning +1, so rows come in lexicographic
order with +1 before -1.  Columns fixed by the 90-degree flip rule or by
identical/opposite cards are signed copies of free columns.  The +/-1
invariant is checked once per card array, not once per strategy.  Mixtures
and samples gather run columns from the array; StrategyTable objects are built
only for callers that score strategies one at a time.  At most
MAX_STRATEGIES = 2**16 strategies are enumerated; larger spaces are refused
before any array is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, product
from operator import getitem

import numpy as np

from . import experiments

PASS, STOP = 1, -1

# Hard ceiling on exhaustive enumeration, checked before anything is allocated.
# Two parties with eight settings each (2^16 strategies), scored by agreement
# over all 64 runs, take about 2.4 s of CPU time to enumerate, extremize, mix
# and sample (2-CPU Intel Xeon, Python 3.11, numpy 2.4); 2^18 takes about 10 s.
MAX_STRATEGIES = 2**16

# Hard ceiling on Monte-Carlo trials: the sampler holds a few arrays of this
# length, so memory stays bounded whatever the caller asks for.
MAX_MC_TRIALS = 1_000_000

# A quantum probability at or below this is treated as an exact zero constraint.
ZERO_TOL = 1e-12


@dataclass(frozen=True)
class ScenarioSpec:
    """A finite-settings scenario: who measures what, and which joint runs count.

    settings[p] lists party p's allowed card angles (degrees); runs holds the
    joint settings that the figure of merit averages over.  identical shares one
    card among all parties, opposite gives party 2 the arrow-flipped card of
    party 1, and flip_90 links each angle to its partner 90 degrees away with
    the opposite outcome.  Each party's settings must be distinct.
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
    _index: tuple[dict[float, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.parties < 1 or len(self.settings) != self.parties:
            raise ValueError("settings must list one angle tuple per party")
        if self.identical and self.opposite:
            raise ValueError("identical and opposite are mutually exclusive")
        if (self.identical or self.opposite) and len(set(self.settings)) != 1:
            raise ValueError("shared-card scenarios need identical setting lists")
        if self.opposite and self.parties != 2:
            raise ValueError("opposite cards are defined for two parties")
        index = tuple({angle: k for k, angle in enumerate(s)} for s in self.settings)
        for p, angles in enumerate(self.settings):
            if len(index[p]) != len(angles):
                raise ValueError(f"party {p + 1} settings {angles} repeat an angle")
        object.__setattr__(self, "_index", index)
        for run in self.runs:
            if len(run) != self.parties:
                raise ValueError(f"run {run} does not name one angle per party")
        run_index = tuple(
            tuple(self.setting_index(p, angle) for p, angle in enumerate(run)) for run in self.runs
        )
        object.__setattr__(self, "run_index", run_index)

    def setting_index(self, party: int, angle: float) -> int:
        try:
            return self._index[party][angle]
        except KeyError:
            raise ValueError(f"run angle {angle} not among party {party + 1} settings") from None


@dataclass(frozen=True)
class StrategyTable:
    """One deterministic instruction card per party: outcomes[p][k] is party
    p's +/-1 answer at its k-th setting."""

    outcomes: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for row in self.outcomes:
            for value in row:
                if value not in (PASS, STOP):
                    raise ValueError(f"outcome {value!r} is not +1 or -1")

    @classmethod
    def _unchecked(cls, outcomes: tuple[tuple[int, ...], ...]) -> StrategyTable:
        """A table from outcomes the caller has already checked."""
        table = object.__new__(cls)
        object.__setattr__(table, "outcomes", outcomes)
        return table

    def outcome(self, party: int, setting_index: int) -> int:
        return self.outcomes[party][setting_index]


@dataclass(frozen=True)
class ClassicalBound:
    """Extremal value of a figure of merit over the deterministic strategies.

    Mixtures cannot beat it: the figure of merit is an average of per-run
    scores, so it is affine in the mixing weights and extremized at a vertex.
    candidates lists the strategies the extremum ranges over, in enumeration
    order: the whole space, or the strategies a filter let through.
    """

    value: Fraction
    direction: str
    optimizers: tuple[StrategyTable, ...]
    candidates: tuple[StrategyTable, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if self.direction not in ("max", "min"):
            raise ValueError(f"direction must be 'max' or 'min'; got {self.direction!r}")


def _flip_plan(angles: tuple[float, ...]):
    """Map each angle to (free slot, sign) under the 90-degree flip rule."""
    plan, reps = [], {}
    for angle in angles:
        rep = angle % 90.0
        if rep in reps:
            base_angle, slot = reps[rep]
            steps = round((angle - base_angle) / 90.0)
            plan.append((slot, -1 if steps % 2 else 1))
        else:
            slot = len(reps)
            reps[rep] = (angle, slot)
            plan.append((slot, 1))
    return plan, len(reps)


def _card_columns(spec: ScenarioSpec) -> tuple[list[int], list[int], int]:
    """For every (party, setting) column, the free outcome slot it copies and
    the sign it copies it with; plus the number of free slots."""
    shared = spec.identical or spec.opposite
    slots, signs, free = [], [], 0
    for p, angles in enumerate(spec.settings):
        if spec.flip_90:
            plan, nfree = _flip_plan(angles)
        else:
            plan, nfree = [(k, 1) for k in range(len(angles))], len(angles)
        base = 0 if shared else free
        flip = -1 if (spec.opposite and p > 0) else 1
        slots += [base + slot for slot, _ in plan]
        signs += [flip * sign for _, sign in plan]
        free = nfree if shared else free + nfree
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


def strategy_count(spec: ScenarioSpec) -> int:
    """Number of strategies enumerate_strategies yields, without decoding them."""
    return 2 ** _card_columns(spec)[2]


def _column_offsets(spec: ScenarioSpec) -> list[int]:
    """Index of each party's first column in the card array."""
    return list(accumulate((len(s) for s in spec.settings[:-1]), initial=0))


def _run_columns(spec: ScenarioSpec) -> np.ndarray:
    """Card-array column of each party's setting in each run, shape (runs, parties)."""
    columns = np.array(spec.run_index, dtype=np.intp).reshape(len(spec.runs), spec.parties)
    columns += _column_offsets(spec)
    return columns


def _tables(spec: ScenarioSpec, cards: np.ndarray) -> list[StrategyTable]:
    bounds = _column_offsets(spec) + [cards.shape[1]]
    rows = zip(*(map(tuple, cards[:, lo:hi].tolist()) for lo, hi in zip(bounds, bounds[1:])))
    return [StrategyTable._unchecked(outcomes) for outcomes in rows]


def enumerate_strategies(spec: ScenarioSpec) -> list[StrategyTable]:
    """All strategies consistent with the scenario's constraints, in a fixed
    lexicographic order (party-major, setting-minor, +1 before -1)."""
    return _tables(spec, _cards(spec))


def run_outcomes(spec: ScenarioSpec, table: StrategyTable, run) -> tuple[int, ...]:
    """Each party's card answer for one joint setting."""
    return tuple(
        table.outcome(p, spec.setting_index(p, angle)) for p, angle in enumerate(run)
    )


def _agreements(spec: ScenarioSpec, table: StrategyTable) -> int:
    """Number of the scenario's runs on which all parties answer alike."""
    rows = table.outcomes
    return sum(1 for run in spec.run_index if len(set(map(getitem, rows, run))) == 1)


def agreement_fraction(spec: ScenarioSpec, table: StrategyTable) -> Fraction:
    """Fraction of the scenario's runs on which all parties answer alike."""
    return Fraction(_agreements(spec, table), len(spec.runs))


def antiparallel_fraction(spec: ScenarioSpec, table: StrategyTable) -> Fraction:
    """Two-party fraction of runs with opposite answers."""
    return Fraction(len(spec.runs) - _agreements(spec, table), len(spec.runs))


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


def hardy_scenario() -> ScenarioSpec:
    """Independent cards at {0, 45} degrees for the Hardy pair, one run per
    quoted case (0,0), (45,0), (0,45), (45,45)."""
    angles = (0.0, 45.0)
    runs = ((0.0, 0.0), (45.0, 0.0), (0.0, 45.0), (45.0, 45.0))
    return ScenarioSpec("hardy", 2, (angles, angles), runs)


def ghz_scenario() -> ScenarioSpec:
    """Independent cards at {0, 45} degrees for three photons, one run per
    quoted case A-D."""
    angles = (0.0, 45.0)
    runs = ((0.0, 0.0, 0.0), (45.0, 45.0, 0.0), (45.0, 0.0, 45.0), (0.0, 45.0, 45.0))
    return ScenarioSpec("ghz", 3, (angles, angles, angles), runs)


def chsh_scenario(
    theta1_deg: float, theta1p_deg: float, theta2_deg: float, theta2p_deg: float
) -> ScenarioSpec:
    """Two settings per party; the four runs feeding the correlation combination."""
    s1, s2 = (theta1_deg, theta1p_deg), (theta2_deg, theta2p_deg)
    runs = (
        (s1[0], s2[0]),
        (s1[0], s2[1]),
        (s1[1], s2[0]),
        (s1[1], s2[1]),
    )
    return ScenarioSpec("chsh", 2, (s1, s2), runs)


# --- exact bounds -----------------------------------------------------------


def _extremize(spec, score, direction) -> ClassicalBound:
    tables = enumerate_strategies(spec)
    scores = [score(t) for t in tables]
    best = max(scores) if direction == "max" else min(scores)
    optimizers = tuple(t for t, s in zip(tables, scores) if s == best)
    return ClassicalBound(best, direction, optimizers, tuple(tables))


def max_agreement_30grid() -> ClassicalBound:
    """Largest average agreement any shared 30-degree-grid card can reach."""
    spec = grid30_scenario()
    return _extremize(spec, lambda t: agreement_fraction(spec, t), "max")


def min_agreement_120grid() -> ClassicalBound:
    """Smallest average agreement any shared 120-degree-grid card can reach."""
    spec = grid120_scenario()
    return _extremize(spec, lambda t: agreement_fraction(spec, t), "min")


def min_antiparallel_electron() -> ClassicalBound:
    """Smallest fraction of antiparallel outcomes over the unequal-setting runs."""
    spec = electron_scenario()
    return _extremize(spec, lambda t: antiparallel_fraction(spec, t), "min")


def _quantum_zeros(distributions) -> list[tuple[int, tuple[int, ...]]]:
    """(r, +/-1 joint outcome) for each outcome with probability at most
    ZERO_TOL in distributions[r], read in itertools.product((+1, -1)) order."""
    return [
        (r, signs)
        for r, dist in enumerate(distributions)
        for signs, (_, p) in zip(product((PASS, STOP), repeat=len(dist.settings)), dist.outcomes)
        if p <= ZERO_TOL
    ]


def _forbidden(spec: ScenarioSpec, distributions) -> tuple[list[StrategyTable], np.ndarray]:
    """Every strategy, and a (strategies, runs) mask: True where the strategy
    would produce an outcome the run's quantum distribution forbids.  Hardy's
    zeros and the GHZ parities both eliminate strategies by this mask."""
    cards = _cards(spec)
    answers = cards[:, _run_columns(spec)]
    forbidden = np.zeros(answers.shape[:2], dtype=bool)
    for r, signs in _quantum_zeros(distributions):
        forbidden[:, r] |= (answers[:, r] == signs).all(axis=1)
    return _tables(spec, cards), forbidden


def _hardy_distributions(spec: ScenarioSpec):
    return [experiments.hardy_distribution(*(math.radians(a) for a in run)) for run in spec.runs]


def hardy_constraints() -> list[tuple[tuple[float, float], tuple[int, ...], str]]:
    """Joint outcomes the quantum Hardy distribution forbids, as (run, outcome
    signs, case letter); read off the computed distributions, not transcribed."""
    spec = hardy_scenario()
    return [
        (spec.runs[r], signs, "ABCD"[r])
        for r, signs in _quantum_zeros(_hardy_distributions(spec))
    ]


def hardy_elimination() -> dict[tuple[tuple[int, ...], tuple[int, ...]], frozenset[str]]:
    """For every pair of cards, the set of case letters whose forbidden outcome
    that strategy would produce (empty set = strategy survives)."""
    spec = hardy_scenario()
    tables, forbidden = _forbidden(spec, _hardy_distributions(spec))
    return {
        t.outcomes: frozenset(letter for letter, hit in zip("ABCD", row) if hit)
        for t, row in zip(tables, forbidden.tolist())
    }


def hardy_feasible_set() -> list[StrategyTable]:
    """Card pairs consistent with every zero of the quantum Hardy distribution."""
    spec = hardy_scenario()
    tables, forbidden = _forbidden(spec, _hardy_distributions(spec))
    return [t for t, hit in zip(tables, forbidden.any(axis=1).tolist()) if not hit]


def hardy_passpass_bound() -> ClassicalBound:
    """Ceiling on pass/pass at the (0,0) setting over the feasible cards (its
    candidates); the quantum value there is strictly positive."""
    spec = hardy_scenario()
    feasible = tuple(hardy_feasible_set())
    run = spec.runs[0]
    scores = [
        Fraction(1 if run_outcomes(spec, t, run) == (PASS, PASS) else 0) for t in feasible
    ]
    best = max(scores)
    optimizers = tuple(t for t, s in zip(feasible, scores) if s == best)
    return ClassicalBound(best, "max", optimizers, feasible)


@dataclass(frozen=True)
class GhzStages:
    """Strategy counts as the parity constraints are applied one case at a time."""

    all_strategies: tuple[StrategyTable, ...]
    after_case_a: tuple[StrategyTable, ...]
    feasible: tuple[StrategyTable, ...]


def ghz_elimination_stages() -> GhzStages:
    """Filter the 64 card triples by the parity each quoted case makes certain:
    the wrong-parity outcomes are exactly the ones the case's distribution
    forbids."""
    spec = ghz_scenario()
    cases = [experiments.ghz_parity_distribution(letter) for letter in "ABCD"]
    for letter, case in zip("ABCD", cases):
        if case.certain_parity is None:
            raise RuntimeError(f"case {letter} has no certain parity; nothing to filter on")
    tables, forbidden = _forbidden(spec, [case.distribution for case in cases])
    after_a = forbidden[:, 0].tolist()
    anywhere = forbidden.any(axis=1).tolist()
    return GhzStages(
        tuple(tables),
        tuple(t for t, hit in zip(tables, after_a) if not hit),
        tuple(t for t, hit in zip(tables, anywhere) if not hit),
    )


@dataclass(frozen=True)
class ChshClassical:
    """The correlation combination for every deterministic strategy."""

    scenario: ScenarioSpec
    gammas: tuple[int, ...]
    max_bound: ClassicalBound
    min_bound: ClassicalBound


def chsh_gamma(spec: ScenarioSpec, table: StrategyTable) -> int:
    """E(1,2) + E(1,2') + E(1',2) - E(1',2') for one deterministic strategy."""
    products = [
        run_outcomes(spec, table, run)[0] * run_outcomes(spec, table, run)[1]
        for run in spec.runs
    ]
    return products[0] + products[1] + products[2] - products[3]


def chsh_classical(
    theta1_deg: float, theta1p_deg: float, theta2_deg: float, theta2p_deg: float
) -> ChshClassical:
    """Enumerate the 16 strategies; every combination value is +2 or -2."""
    spec = chsh_scenario(theta1_deg, theta1p_deg, theta2_deg, theta2p_deg)
    tables = enumerate_strategies(spec)
    gammas = tuple(chsh_gamma(spec, t) for t in tables)
    for g in gammas:
        if g not in (2, -2):
            raise RuntimeError(f"deterministic combination {g} escaped +/-2")
    maxers = tuple(t for t, g in zip(tables, gammas) if g == 2)
    miners = tuple(t for t, g in zip(tables, gammas) if g == -2)
    return ChshClassical(
        spec,
        gammas,
        ClassicalBound(Fraction(2), "max", maxers, tuple(tables)),
        ClassicalBound(Fraction(-2), "min", miners, tuple(tables)),
    )


# --- mixtures ---------------------------------------------------------------


def exact_mixture_correlations(spec: ScenarioSpec, weights) -> np.ndarray:
    """Per-run expected outcome product under a mixture of strategies."""
    products = _product_matrix(spec)
    return _checked_weights(weights, len(products)) @ products


def exact_marginal_mean(spec: ScenarioSpec, weights, party: int, angle: float) -> float:
    """One party's expected outcome at one setting under a mixture."""
    cards = _cards(spec)
    w = _checked_weights(weights, len(cards))
    column = _column_offsets(spec)[party] + spec.setting_index(party, angle)
    return float(w @ cards[:, column])


def _checked_weights(weights, n: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (n,):
        raise ValueError(f"expected {n} weights, got shape {w.shape}")
    if np.any(w < 0):
        raise ValueError("mixture weights must be non-negative")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {total!r}, expected 1")
    return w / total


def _product_matrix(spec: ScenarioSpec) -> np.ndarray:
    """Outcome product of every strategy on every run, shape (strategies, runs)."""
    cards = _cards(spec)
    columns = _run_columns(spec)
    # C order, as a matrix built row by row: the mixture matmul then sums in
    # the same order and gives the same bits.
    return np.prod(cards[:, columns], axis=2, dtype=np.int8).astype(float, order="C")


@dataclass(frozen=True)
class MixtureEstimate:
    """Sampled per-run outcome products against their exact mixture values."""

    runs: tuple[tuple[float, ...], ...]
    counts: tuple[int, ...]
    means: tuple[float, ...]
    std_errors: tuple[float, ...]
    exact: tuple[float, ...]

    def chsh_combination(self) -> tuple[float, float]:
        """(estimate, standard error) of E1 + E2 + E3 - E4 over four runs."""
        if len(self.runs) != 4:
            raise ValueError("the combination needs exactly four runs")
        m = self.means
        se = math.sqrt(sum(s**2 for s in self.std_errors))
        return m[0] + m[1] + m[2] - m[3], se


def monte_carlo_mixture(
    spec: ScenarioSpec, weights, trials: int, rng_seed: int
) -> MixtureEstimate:
    """Simulate runs of a weighted strategy mixture with uniformly random
    setting choices; exact enumeration stays the source of truth, this is the
    finite-statistics view of it."""
    if not 1 <= trials <= MAX_MC_TRIALS:
        raise ValueError(f"trials must be between 1 and {MAX_MC_TRIALS}; got {trials}")
    products = _product_matrix(spec)
    w = _checked_weights(weights, len(products))

    rng = np.random.default_rng(rng_seed)
    strat = rng.choice(len(products), size=trials, p=w)
    run_idx = rng.integers(0, len(spec.runs), size=trials)
    values = products[strat, run_idx]

    counts, means, errors = [], [], []
    for r in range(len(spec.runs)):
        sel = values[run_idx == r]
        n = int(sel.size)
        counts.append(n)
        if n == 0:
            means.append(math.nan)
            errors.append(math.nan)
        else:
            means.append(float(sel.mean()))
            errors.append(float(sel.std(ddof=1) / math.sqrt(n)) if n > 1 else math.nan)
    exact = w @ products
    return MixtureEstimate(
        spec.runs, tuple(counts), tuple(means), tuple(errors), tuple(float(x) for x in exact)
    )
