"""The array strategy engine in bellkit.lhvt against the plain loop enumerator
it replaced, kept here as the reference."""

from __future__ import annotations

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bellkit import experiments, lhvt
from bellkit.lhvt import PASS, STOP

SEED = 20261018


# --- reference: the loop enumerator ------------------------------------------


def reference_plan(angles, flip_90: bool) -> tuple[list[tuple[int, int]], int]:
    """(free slot, sign) for each angle, and the number of free slots.  Under
    the flip rule an angle answers as the earliest listed angle a whole number
    of quarter turns away, negated when that number is odd; any other angle
    takes the next free slot."""
    plan, free = [], 0
    for k, angle in enumerate(angles):
        turns = [(angle - a) / 90.0 for a in angles[:k]]
        partner = next((j for j, t in enumerate(turns) if flip_90 and t == int(t)), None)
        if partner is None:
            plan.append((free, 1))
            free += 1
        else:
            slot, sign = plan[partner]
            plan.append((slot, -sign if int(turns[partner]) % 2 else sign))
    return plan, free


def reference_strategies(spec: lhvt.ScenarioSpec) -> list[lhvt.Strategy]:
    """All strategies by itertools.product over the free outcomes, in the
    documented order (party-major, setting-minor, +1 before -1)."""
    plans, free_counts = [], []
    for angles in spec.settings:
        plan, nfree = reference_plan(angles, spec.flip_90)
        plans.append(plan)
        free_counts.append(nfree)

    shared = spec.identical or spec.opposite
    free_parties = 1 if shared else spec.parties
    total_free = sum(free_counts[:free_parties])

    tables = []
    for bits in itertools.product((PASS, STOP), repeat=total_free):
        free_rows, offset = [], 0
        for p in range(free_parties):
            free_rows.append(bits[offset : offset + free_counts[p]])
            offset += free_counts[p]
        rows = []
        for p in range(spec.parties):
            src = free_rows[0] if shared else free_rows[p]
            flip = -1 if (spec.opposite and p > 0) else 1
            rows.append(tuple(flip * sign * src[slot] for slot, sign in plans[p]))
        tables.append(tuple(rows))
    return tables


def reference_run_outcomes(spec, table, run) -> tuple[int, ...]:
    return tuple(table[p][spec.settings[p].index(a)] for p, a in enumerate(run))


def chsh_gamma(spec, table) -> int:
    """E(1,2) + E(1,2') + E(1',2) - E(1',2') for one strategy, scored one table at a time."""
    return experiments.chsh_combination(
        *(math.prod(reference_run_outcomes(spec, table, run)) for run in spec.runs)
    )


def reference_agreement(spec, table) -> Fraction:
    hits = sum(1 for run in spec.runs if len(set(reference_run_outcomes(spec, table, run))) == 1)
    return Fraction(hits, len(spec.runs))


def reference_products(spec, tables) -> np.ndarray:
    return np.array(
        [[math.prod(reference_run_outcomes(spec, t, run)) for run in spec.runs] for t in tables],
        dtype=float,
    )


def reference_extremize(tables, scores, direction):
    best = max(scores) if direction == "max" else min(scores)
    return best, tuple(t for t, s in zip(tables, scores) if s == best)


def reference_monte_carlo(spec, products, w, trials, rng_seed) -> lhvt.MixtureEstimate:
    """Reference sampler: Generator.choice for the strategies and a boolean mask
    per run; products is the (strategies, runs) matrix and w the normalized
    weights."""
    rng = np.random.default_rng(rng_seed)
    strat = rng.choice(len(products), size=trials, p=w)
    run_idx = rng.integers(0, len(spec.runs), size=trials)
    values = products[strat, run_idx].astype(float)
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
    return lhvt.MixtureEstimate(
        tuple(counts), tuple(means), tuple(errors), tuple(float(x) for x in exact)
    )


# --- seeded random scenarios -----------------------------------------------------


def random_spec(r: random.Random, max_free: int = 12) -> lhvt.ScenarioSpec:
    """1-3 parties with 2-6 distinct settings each, any constraint the parties
    allow, and a few runs drawn from the joint grid."""
    while True:
        parties = r.randint(1, 3)
        shared = r.choice(("none", "identical", "opposite") if parties == 2 else ("none", "identical"))
        flip_90 = r.random() < 0.4
        step = 15 if flip_90 else 1

        def angles():
            return tuple(float(step * a) for a in sorted(r.sample(range(360 // step), r.randint(2, 6))))

        if shared == "none":
            settings = tuple(angles() for _ in range(parties))
        else:
            settings = (angles(),) * parties
        grid = list(itertools.product(*settings))
        runs = tuple(r.sample(grid, r.randint(1, min(8, len(grid)))))
        spec = lhvt.ScenarioSpec(
            "random", parties, settings, runs,
            identical=shared == "identical", opposite=shared == "opposite", flip_90=flip_90,
        )
        if lhvt._card_columns(spec)[2] <= max_free:
            return spec


SPECS = [random_spec(random.Random(SEED + i)) for i in range(60)]


def test_random_specs_cover_every_constraint():
    assert {s.parties for s in SPECS} == {1, 2, 3}
    assert any(s.flip_90 for s in SPECS)
    assert any(s.identical for s in SPECS) and any(s.opposite for s in SPECS)
    # two parties: independent, identical or opposite cards, each with and without flips
    pairs = {(s.identical, s.opposite, s.flip_90) for s in SPECS if s.parties == 2}
    shared = ((False, False), (True, False), (False, True))
    assert pairs == {(i, o, f) for i, o in shared for f in (False, True)}
    assert {len(a) for s in SPECS for a in s.settings} == {2, 3, 4, 5, 6}


@pytest.mark.parametrize("index", range(len(SPECS)))
def test_engine_matches_loop_enumerator(index):
    spec = SPECS[index]
    r = random.Random(SEED + index)
    tables = reference_strategies(spec)
    strategies = lhvt.enumerate_strategies(spec)
    assert strategies == tables
    # the per-party build lists what the row builder decodes, as Python ints
    assert strategies == lhvt._tables(spec, lhvt._cards(spec))
    assert all(type(a) is int for t in strategies for answers in t for a in answers)

    products = reference_products(spec, tables)
    engine_products = lhvt._run_products(spec, lhvt._cards(spec))
    assert engine_products.dtype == np.int8
    assert np.array_equal(engine_products, products)

    scores = [reference_agreement(spec, t) for t in tables]
    for direction in ("max", "min"):
        best, optimizers = reference_extremize(tables, scores, direction)
        bound = lhvt._extremize(spec, lambda t: lhvt.agreement_fraction(spec, t), direction)
        assert isinstance(bound.value, Fraction) and bound.value == best
        assert bound.optimizers == optimizers
    if spec.parties == 2:
        anti = [1 - s for s in scores]
        bound = lhvt._extremize(spec, lambda t: lhvt.antiparallel_fraction(spec, t), "min")
        assert (bound.value, bound.optimizers) == reference_extremize(tables, anti, "min")

    w = np.random.default_rng(SEED + index).dirichlet(np.ones(len(tables)))
    normalized = w / w.sum()
    assert np.array_equal(lhvt.exact_mixture_correlations(spec, w), normalized @ products)
    # these two draws only advance r, so the sampler's trials and seed below
    # keep their pinned values
    party = r.randrange(spec.parties)
    r.choice(spec.settings[party])

    trials, seed = r.choice((3, 50, 400)), r.randrange(2**31)
    expected = reference_monte_carlo(spec, products, normalized, trials, seed)
    assert repr(lhvt.monte_carlo_mixture(spec, w, trials, seed)) == repr(expected)


def test_engine_run_outcomes_match_reference():
    # the run answers _outcome_rows gathers from the card array
    for spec in SPECS[:10]:
        answers = lhvt._cards(spec)[:, lhvt._run_columns(spec)].tolist()
        tables = reference_strategies(spec)
        assert len(answers) == len(tables)
        for t, row in zip(tables, answers):
            assert [list(reference_run_outcomes(spec, t, run)) for run in spec.runs] == row


@pytest.mark.parametrize("index", range(len(SPECS)))
def test_outcome_rows_index_the_distribution_rows(index):
    # the zero filter (_forbidden) looks each joint answer up by its row in an
    # OutcomeDistribution, whose rows run over itertools.product((1, -1))
    spec = SPECS[index]
    order = list(itertools.product((1, -1), repeat=spec.parties))
    rows = lhvt._outcome_rows(spec, lhvt._cards(spec)).tolist()
    tables = reference_strategies(spec)
    assert len(rows) == len(tables)
    for t, row in zip(tables, rows):
        assert row == [order.index(reference_run_outcomes(spec, t, run)) for run in spec.runs]


@pytest.mark.parametrize("index", range(len(SPECS)))
def test_each_party_shares_its_answer_tuples(index):
    # a party with k free slots has 2^k answer tuples, each one object however
    # many strategies hold it; identical cards are the same objects
    spec = SPECS[index]
    strategies = lhvt.enumerate_strategies(spec)
    for p, angles in enumerate(spec.settings):
        free = reference_plan(angles, spec.flip_90)[1]
        assert len({id(t[p]) for t in strategies}) == 2**free
    if spec.identical:
        assert all(t[p] is t[0] for t in strategies for p in range(spec.parties))


# --- the sampler against Generator.choice and per-run masks -------------------

CHSH = lhvt.chsh_scenario(0.0, 45.0, 22.5, 67.5)
_EIGHT = tuple(float(k) for k in range(8))
# 2^16 strategies over 8 runs: at 10^3 trials far fewer draws than cdf values
CEILING = lhvt.ScenarioSpec("ceiling", 2, (_EIGHT, _EIGHT), tuple(zip(_EIGHT, _EIGHT[::-1])))
# three runs: integers(0, 3) rejects some 32-bit draws, so a block edge that
# split its stream would show
THREE_RUNS = lhvt.ScenarioSpec(
    "three-runs", 2, ((0.0, 1.0), (0.0, 1.0)), ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0))
)


def dirichlet(n, seed, zeros=False):
    w = np.random.default_rng(seed).dirichlet(np.ones(n))
    if zeros:  # flat cdf steps, a leading and a trailing run of zero weights among them
        w[:3] = w[-2:] = w[5::3] = 0.0
    return w / w.sum()


def point_mass(n, at):
    w = np.zeros(n)
    w[at] = 1.0
    return w


SAMPLER_CASES = {
    "uniform-on-bucket-edges": (CHSH, np.full(16, 1 / 16), 1000),
    "uniform-1e5": (CHSH, np.full(16, 1 / 16), 100_000),
    "dirichlet": (CHSH, dirichlet(16, 1), 1000),
    "dirichlet-1e5": (CHSH, dirichlet(16, 2), 100_000),
    "zeros": (CHSH, dirichlet(16, 3, zeros=True), 5000),
    "point-first": (CHSH, point_mass(16, 0), 300),
    "point-middle": (CHSH, point_mass(16, 9), 300),
    "point-last": (CHSH, point_mass(16, 15), 300),
    "one-trial": (CHSH, dirichlet(16, 4), 1),
    "two-trials": (CHSH, np.full(16, 1 / 16), 2),
    "ceiling-2^16-1e3": (CEILING, dirichlet(2**16, 5), 1000),
    "ceiling-2^16-zeros": (CEILING, dirichlet(2**16, 6, zeros=True), 1000),
    "three-runs-3-blocks": (THREE_RUNS, dirichlet(16, 7), 3 * lhvt._MC_BLOCK + 1000),
    "uniform-max-trials": (CHSH, np.full(16, 1 / 16), lhvt.MAX_MC_TRIALS),
}


def test_sampler_cases_span_several_blocks():
    blocks = {name: -(-trials // lhvt._MC_BLOCK) for name, (_, _, trials) in SAMPLER_CASES.items()}
    assert blocks["uniform-1e5"] > 1 and blocks["dirichlet-1e5"] > 1
    assert blocks["three-runs-3-blocks"] > 3


@pytest.mark.parametrize("name", SAMPLER_CASES)
def test_sampler_matches_choice_and_masks(name):
    spec, w, trials = SAMPLER_CASES[name]
    products = lhvt._run_products(spec, lhvt._cards(spec))
    for seed in (0, 3, SEED):
        expected = reference_monte_carlo(spec, products, w / w.sum(), trials, seed)
        got = lhvt.monte_carlo_mixture(spec, w, trials, seed)
        assert repr(got) == repr(expected)
    # a run with no draw has no mean, and one with fewer than two no error
    assert [math.isnan(m) for m in got.means] == [n == 0 for n in got.counts]
    assert [math.isnan(e) for e in got.std_errors] == [n < 2 for n in got.counts]


def test_sampler_memory_per_trial():
    w = np.full(16, 1 / 16)
    tracemalloc.start()
    try:
        lhvt.monte_carlo_mixture(CHSH, w, lhvt.MAX_MC_TRIALS, SEED)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * lhvt.MAX_MC_TRIALS


# sums to 1 within _checked_weights' tolerance
NON_DYADIC = np.full(64, 0.015625000000521465)
# (weights, draws); the first ten are named zeros-strategies-draws
DRAW_CASES = {
    f"{zeros}-{n}-{draws}": (
        dirichlet(n, n + draws, zeros) if n > 16 or zeros else np.full(n, 1 / n),
        draws,
    )
    for zeros in (False, True)
    for n, draws in [(16, 16), (16, 1000), (1000, 64), (1000, 4096), (2**16, 1000)]
}
DRAW_CASES |= {
    "uniform-2": (np.full(2, 1 / 2), 1000),
    "uniform-2^16": (np.full(2**16, 1 / 2**16), 300_000),
    # equal weights whose normalized value is 0.015624999999999997, not 1/64,
    # so the cdf is not k/64
    "uniform-non-dyadic-64": (NON_DYADIC / NON_DYADIC.sum(), 1000),
}


@pytest.mark.parametrize("name", DRAW_CASES)
def test_draw_counts_cdf_values_at_or_below_each_uniform(name):
    w, draws = DRAW_CASES[name]
    n = len(w)
    cdf = w.cumsum()
    cdf /= cdf[-1]
    # a grid of k = 2^j uniforms b/k, the cdf values of uniform weights over k
    # strategies; every cdf value below 1 and its neighbours; then random
    # uniforms, cut to `draws` values
    k = 1 << (min(n, draws).bit_length() - 1)
    edges = np.arange(k) / k
    on_cdf = cdf[cdf < 1]
    near = np.concatenate([np.nextafter(on_cdf, 0), np.nextafter(on_cdf, 1)])
    rng = np.random.default_rng(n * draws)
    u = np.concatenate([edges, on_cdf, near[near < 1], rng.random(draws)])[:draws]
    assert len(u) == draws
    expected = cdf.searchsorted(u, side="right")
    strat = lhvt._draw(w, u)
    assert np.array_equal(strat, expected)
    assert np.all(w[strat] > 0)  # a zero-weight strategy is never drawn


# --- the array scorer against per-table scoring --------------------------------

FIGURES = {"agreement": lhvt.agreement_fraction, "antiparallel": lhvt.antiparallel_fraction}


def chsh_fraction(spec, table) -> Fraction:
    return Fraction(chsh_gamma(spec, table))


def assert_same_bound(bound, spec, fraction, direction):
    reference = lhvt._extremize(spec, lambda t: fraction(spec, t), direction)
    assert type(bound.value) is Fraction and bound.value == reference.value
    assert bound.direction == direction
    assert bound.optimizers == reference.optimizers
    assert bound.strategy_count == reference.strategy_count == len(lhvt.enumerate_strategies(spec))


@pytest.mark.parametrize("bound, scenario, figure", [
    (lhvt.max_agreement_30grid, lhvt.grid30_scenario, "agreement"),
    (lhvt.min_agreement_120grid, lhvt.grid120_scenario, "agreement"),
    (lhvt.min_antiparallel_electron, lhvt.electron_scenario, "antiparallel"),
], ids=["grid30", "grid120", "electron"])
def test_canonical_bounds_match_per_table_scoring(bound, scenario, figure):
    result = bound()
    assert_same_bound(result, scenario(), FIGURES[figure], result.direction)


@pytest.mark.parametrize("index", [i for i, s in enumerate(SPECS) if s.parties == 2])
def test_array_scorer_matches_per_table_scoring(index):
    spec = SPECS[index]
    for figure, fraction in FIGURES.items():
        for direction in ("max", "min"):
            bound = lhvt._pair_bound(spec, figure, direction)
            assert_same_bound(bound, spec, fraction, direction)


CHSH_ANGLES = [
    tuple(math.degrees(a) for a in experiments.CHSH_PHOTON_SETTINGS),
    tuple(math.degrees(a) for a in experiments.CHSH_ELECTRON_SETTINGS),
    *(tuple(float(a) for a in random.Random(SEED + k).sample(range(180), 4)) for k in range(20)),
]


@pytest.mark.parametrize("angles", CHSH_ANGLES)
def test_chsh_classical_matches_per_table_scoring(angles):
    classical = lhvt.chsh_classical(*angles)
    spec = classical.scenario
    tables = lhvt.enumerate_strategies(spec)
    assert classical.gammas == tuple(chsh_gamma(spec, t) for t in tables)
    assert all(type(g) is int for g in classical.gammas)
    for bound, direction in ((classical.max_bound, "max"), (classical.min_bound, "min")):
        assert_same_bound(bound, spec, chsh_fraction, direction)
    assert classical.max_bound.value == 2 and classical.min_bound.value == -2


# --- tables only for what a bound lists ------------------------------------------


@pytest.mark.parametrize("compute", [
    lhvt.max_agreement_30grid,
    lhvt.min_agreement_120grid,
    lhvt.min_antiparallel_electron,
    lambda: lhvt.chsh_classical(*CHSH_ANGLES[0]),
    lambda: lhvt.chsh_classical(*CHSH_ANGLES[1]),
], ids=["grid30", "grid120", "electron", "chsh-photon", "chsh-electron"])
def test_bounds_build_tables_for_their_optimizers_only(compute, monkeypatch):
    rows, build = [], lhvt._tables

    def counting(spec, cards):
        rows.append(len(cards))
        return build(spec, cards)

    monkeypatch.setattr(lhvt, "_tables", counting)
    result = compute()
    if isinstance(result, lhvt.ChshClassical):
        bounds = (result.max_bound, result.min_bound)
    else:
        bounds = (result,)
    assert rows == [len(b.optimizers) for b in bounds]


def test_pair_bound_at_the_enumeration_ceiling():
    # 2 parties x 8 settings scored over all 64 runs: 2^16 strategies
    angles = tuple(float(k) for k in range(8))
    spec = lhvt.ScenarioSpec(
        "ceiling", 2, (angles, angles), tuple((a, b) for a in angles for b in angles)
    )
    up, down = (PASS,) * 8, (STOP,) * 8
    for direction, value, optimizers in (
        ("max", 1, ((up, up), (down, down))),
        ("min", 0, ((up, down), (down, up))),
    ):
        bound = lhvt._pair_bound(spec, "agreement", direction)
        assert type(bound.value) is Fraction and bound.value == value
        assert bound.optimizers == optimizers
        assert bound.strategy_count == lhvt.MAX_STRATEGIES == 2**16


_SIXTEEN = tuple(float(k) for k in range(16))


@pytest.mark.parametrize("spec", [
    CEILING,
    lhvt.ScenarioSpec("ceiling-identical", 2, (_SIXTEEN, _SIXTEEN), ((0.0, 1.0),), identical=True),
], ids=["independent", "identical"])
def test_enumerate_strategies_at_the_enumeration_ceiling(spec):
    strategies = lhvt.enumerate_strategies(spec)
    assert len(strategies) == lhvt.MAX_STRATEGIES
    assert strategies == lhvt._tables(spec, lhvt._cards(spec))
