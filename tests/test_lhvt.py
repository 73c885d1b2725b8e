from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bellkit import experiments, lhvt
from bellkit.lhvt import PASS, STOP

SEED = 20260823


def run_outcomes(spec, strategy, run) -> tuple[int, ...]:
    """Each party's card answer for one joint setting, read one strategy at a time."""
    return tuple(strategy[p][spec.setting_index(p, a)] for p, a in enumerate(run))


def test_enumeration_order_and_count():
    spec = lhvt.chsh_scenario(45.0, 90.0, 67.5, 22.5)
    tables = lhvt.enumerate_strategies(spec)
    assert len(tables) == 16
    assert tables[0] == ((PASS, PASS), (PASS, PASS))
    assert tables[1] == ((PASS, PASS), (PASS, STOP))
    assert tables[-1] == ((STOP, STOP), (STOP, STOP))
    assert len(set(tables)) == 16


def test_strategies_are_plain_answer_tuples():
    def is_strategy(t, spec):
        return (
            type(t) is tuple
            and all(type(row) is tuple for row in t)
            and tuple(map(len, t)) == tuple(map(len, spec.settings))
            and all(v in (PASS, STOP) for row in t for v in row)
        )

    chsh = lhvt.chsh_scenario(45.0, 90.0, 67.5, 22.5)
    hardy, ghz = lhvt.hardy_stages(), lhvt.ghz_elimination_stages()
    groups = [
        (chsh, lhvt.enumerate_strategies(chsh)),
        (chsh, lhvt.chsh_classical(45.0, 90.0, 67.5, 22.5).max_bound.optimizers),
        (lhvt.grid30_scenario(), lhvt.max_agreement_30grid().optimizers),
        (lhvt.hardy_scenario(), hardy.all_strategies + hardy.feasible),
        (lhvt.hardy_scenario(), hardy.bound.optimizers + tuple(lhvt.hardy_feasible_set())),
        (lhvt.ghz_scenario(), ghz.all_strategies + ghz.after_case_a + ghz.feasible),
    ]
    for spec, strategies in groups:
        assert strategies and all(is_strategy(t, spec) for t in strategies)


def test_cards_refuse_an_answer_other_than_plus_or_minus_one(monkeypatch):
    card_columns = lhvt._card_columns

    def zero_sign(spec):
        slots, signs, free = card_columns(spec)
        return slots, [0] + signs[1:], free

    monkeypatch.setattr(lhvt, "_card_columns", zero_sign)
    with pytest.raises(RuntimeError, match=r"other than \+1 or -1"):
        lhvt.enumerate_strategies(lhvt.chsh_scenario(45.0, 90.0, 67.5, 22.5))


def test_flip_rule_invariant_on_30_grid():
    # every enumerated card obeys outcome(theta + 90) = -outcome(theta)
    spec = lhvt.grid30_scenario()
    tables = lhvt.enumerate_strategies(spec)
    assert len(tables) == 8
    for t in tables:
        for p in range(spec.parties):
            for angle in spec.settings[p]:
                partner = (angle + 90.0) % 360.0
                k, kp = spec.setting_index(p, angle), spec.setting_index(p, partner)
                assert t[p][kp] == -t[p][k]


def test_identical_and_opposite_cards():
    for t in lhvt.enumerate_strategies(lhvt.grid120_scenario()):
        assert t[0] == t[1]
    for t in lhvt.enumerate_strategies(lhvt.electron_scenario()):
        assert t[1] == tuple(-o for o in t[0])


def test_scenario_validation():
    with pytest.raises(ValueError, match="one angle tuple per party"):
        lhvt.ScenarioSpec("bad", 2, ((0.0,),), ())
    with pytest.raises(ValueError, match="mutually exclusive"):
        lhvt.ScenarioSpec("bad", 2, ((0.0,), (0.0,)), (), identical=True, opposite=True)
    with pytest.raises(ValueError, match="need identical setting lists"):
        lhvt.ScenarioSpec("bad", 2, ((0.0,), (1.0,)), (), identical=True)
    with pytest.raises(ValueError, match="defined for two parties"):
        lhvt.ScenarioSpec("bad", 3, ((0.0,),) * 3, (), opposite=True)
    with pytest.raises(ValueError, match="run angle 5.0 not among party 2 settings"):
        lhvt.ScenarioSpec("bad", 2, ((0.0,), (0.0,)), ((0.0, 5.0),))
    with pytest.raises(ValueError, match="repeat an angle"):
        lhvt.ScenarioSpec("bad", 2, ((0.0, 0.0), (0.0, 45.0)), ())
    # no run means no figure of merit: every fraction would divide by zero
    with pytest.raises(ValueError, match="at least one run"):
        lhvt.ScenarioSpec("bad", 2, ((0.0, 45.0), (0.0, 45.0)), ())


@pytest.mark.parametrize("run", [(0.0,), (0.0, 45.0, 0.0)], ids=["too-few", "too-many"])
def test_run_needs_one_angle_per_party(run):
    with pytest.raises(ValueError, match="does not name one angle per party"):
        lhvt.ScenarioSpec("bad", 2, ((0.0, 45.0), (0.0, 45.0)), (run,))


def test_enumeration_ceiling():
    wide = tuple(float(k) for k in range(25))
    spec = lhvt.ScenarioSpec("wide", 1, (wide,), ((0.0,),))
    with pytest.raises(ValueError):
        lhvt.enumerate_strategies(spec)


def test_ceiling_checked_before_any_array(monkeypatch):
    eight = tuple(float(k) for k in range(8))
    at_ceiling = lhvt.ScenarioSpec("at", 2, (eight, eight), ((0.0, 0.0),))
    assert lhvt._cards(at_ceiling).shape == (lhvt.MAX_STRATEGIES, 16)
    nine = eight + (8.0,)
    one_bit_over = lhvt.ScenarioSpec("over", 2, (eight, nine), ((0.0, 0.0),))
    monkeypatch.setattr(lhvt, "np", None)  # any array allocation now fails otherwise
    for call in (
        lambda: lhvt.enumerate_strategies(one_bit_over),
        lambda: lhvt.exact_mixture_correlations(one_bit_over, [1.0]),
        lambda: lhvt.exact_marginal_mean(one_bit_over, [1.0], 0, 0.0),
        lambda: lhvt.monte_carlo_mixture(one_bit_over, [1.0], 10, 0),
    ):
        with pytest.raises(ValueError, match="2\\^17 strategies exceed"):
            call()


def test_grid30_bound():
    bound = lhvt.max_agreement_30grid()
    assert bound.value == Fraction(2, 3)
    assert bound.direction == "max"
    assert len(bound.optimizers) == 6

    spec = lhvt.grid30_scenario()
    hist = Counter(lhvt.agreement_fraction(spec, t) for t in lhvt.enumerate_strategies(spec))
    assert hist == {Fraction(2, 3): 6, Fraction(0, 1): 2}

    zero_cards = [
        t[0]
        for t in lhvt.enumerate_strategies(spec)
        if lhvt.agreement_fraction(spec, t) == 0
    ]
    alternating = tuple((-1) ** k for k in range(12))
    assert sorted(zero_cards) == sorted([alternating, tuple(-o for o in alternating)])


def test_grid120_bound():
    bound = lhvt.min_agreement_120grid()
    assert bound.value == Fraction(1, 3)
    assert len(bound.optimizers) == 6
    spec = lhvt.grid120_scenario()
    hist = Counter(lhvt.agreement_fraction(spec, t) for t in lhvt.enumerate_strategies(spec))
    assert hist == {Fraction(1, 1): 2, Fraction(1, 3): 6}


def test_electron_bound():
    bound = lhvt.min_antiparallel_electron()
    assert bound.value == Fraction(1, 3)
    spec = lhvt.electron_scenario()
    fracs = [lhvt.antiparallel_fraction(spec, t) for t in lhvt.enumerate_strategies(spec)]
    # uniform cards (sets 1 and 8) are always antiparallel, the rest hit 1/3
    assert fracs[0] == fracs[7] == Fraction(1)
    assert all(f == Fraction(1, 3) for f in fracs[1:7])


def test_electron_equal_settings_always_antiparallel():
    spec = lhvt.electron_scenario()
    for t in lhvt.enumerate_strategies(spec):
        for angle in spec.settings[0]:
            out = run_outcomes(spec, t, (angle, angle))
            assert out[0] == -out[1]


def test_hardy_constraints_derived_from_quantum_zeros():
    # runs B, C and D each forbid one joint outcome
    zeros = [
        (r, signs)
        for r, dist in enumerate(lhvt.hardy_stages().runs)
        for signs, p in zip(dist.signs, dist.probabilities)
        if p <= lhvt.ZERO_TOL
    ]
    assert zeros == [
        (1, (PASS, PASS)),
        (2, (PASS, PASS)),
        (3, (STOP, STOP)),
    ]


def test_quoted_scenarios_read_the_case_tables():
    # the degree runs are the quoted radian cases, in table order, exactly
    hardy, ghz = lhvt.hardy_scenario(), lhvt.ghz_scenario()
    assert hardy == lhvt.ScenarioSpec(
        "hardy", 2, ((0.0, 45.0),) * 2, ((0.0, 0.0), (45.0, 0.0), (0.0, 45.0), (45.0, 45.0))
    )
    assert ghz == lhvt.ScenarioSpec(
        "ghz", 3, ((0.0, 45.0),) * 3,
        ((0.0, 0.0, 0.0), (45.0, 45.0, 0.0), (45.0, 0.0, 45.0), (0.0, 45.0, 45.0)),
    )
    for spec, cases in ((hardy, experiments.HARDY_CASES), (ghz, experiments.GHZ_CASES)):
        assert spec.runs == tuple(tuple(map(math.degrees, a)) for a in cases.values())
    stages = lhvt.hardy_stages()
    for dist, angles in zip(stages.runs, experiments.HARDY_CASES.values()):
        assert dist.settings == angles


def test_chsh_scenario_runs_in_chsh_runs_order():
    spec = lhvt.chsh_scenario(45.0, 90.0, 67.5, 22.5)
    assert spec.runs == experiments.chsh_runs(45.0, 90.0, 67.5, 22.5)
    assert spec.runs == ((45.0, 67.5), (45.0, 22.5), (90.0, 67.5), (90.0, 22.5))


def test_hardy_elimination_table():
    # cards are (outcome at 0, outcome at 45); values list the cases whose
    # forbidden outcome the card pair would produce
    expected = {
        ((1, 1), (1, 1)): {"B", "C"},
        ((1, 1), (1, -1)): {"B"},
        ((1, 1), (-1, 1)): {"C"},
        ((1, 1), (-1, -1)): set(),
        ((1, -1), (1, 1)): {"C"},
        ((1, -1), (1, -1)): {"D"},
        ((1, -1), (-1, 1)): {"C"},
        ((1, -1), (-1, -1)): {"D"},
        ((-1, 1), (1, 1)): {"B"},
        ((-1, 1), (1, -1)): {"B"},
        ((-1, 1), (-1, 1)): set(),
        ((-1, 1), (-1, -1)): set(),
        ((-1, -1), (1, 1)): set(),
        ((-1, -1), (1, -1)): {"D"},
        ((-1, -1), (-1, 1)): set(),
        ((-1, -1), (-1, -1)): {"D"},
    }
    table = lhvt.hardy_elimination()
    assert {k: set(v) for k, v in table.items()} == expected


def test_hardy_survivors_and_passpass_bound():
    survivors = lhvt.hardy_feasible_set()
    assert survivors == [
        ((1, 1), (-1, -1)),
        ((-1, 1), (-1, 1)),
        ((-1, 1), (-1, -1)),
        ((-1, -1), (1, 1)),
        ((-1, -1), (-1, 1)),
    ]
    bound = lhvt.hardy_passpass_bound()
    assert bound.value == 0
    assert len(bound.optimizers) == 5


def test_hardy_passpass_bound_matches_per_table_reference():
    spec = lhvt.hardy_scenario()
    feasible = tuple(lhvt.hardy_feasible_set())
    scores = tuple(
        Fraction(1 if run_outcomes(spec, t, spec.runs[0]) == (PASS, PASS) else 0)
        for t in feasible
    )
    best = max(scores)
    bound = lhvt.hardy_passpass_bound()
    assert (bound.value, bound.direction) == (best, "max")
    assert bound.optimizers == tuple(t for t, s in zip(feasible, scores) if s == best)
    assert bound.strategy_count == len(feasible) == 5


def test_ghz_stage_counts():
    stages = lhvt.ghz_elimination_stages()
    assert len(stages.all_strategies) == 64
    assert len(stages.after_case_a) == 32
    assert len(stages.feasible) == 0


@pytest.mark.parametrize("case", "ABCD")
def test_ghz_forbidden_outcomes_are_the_wrong_parity(case):
    # the GHZ filter eliminates quantum zeros; for the quoted cases those are
    # exactly the outcomes whose detect count has the wrong parity
    gp = experiments.ghz_parity_distribution(case)
    want = 0 if gp.certain_parity == "even" else 1
    for labels, p in gp.distribution.outcomes:
        assert (p <= lhvt.ZERO_TOL) == (labels.count("pass") % 2 != want)


def test_ghz_after_case_a_parity():
    spec = lhvt.ghz_scenario()
    for t in lhvt.ghz_elimination_stages().after_case_a:
        zero_deg = [t[p][spec.setting_index(p, 0.0)] for p in range(3)]
        assert zero_deg.count(PASS) % 2 == 0


def test_chsh_deterministic_split():
    cc = lhvt.chsh_classical(45.0, 90.0, 67.5, 22.5)
    assert sorted(cc.gammas) == [-2] * 8 + [2] * 8
    assert cc.max_bound.value == 2 and cc.min_bound.value == -2
    assert len(cc.max_bound.optimizers) == len(cc.min_bound.optimizers) == 8
    # angle labels are irrelevant to the deterministic combination
    other = lhvt.chsh_classical(0.0, 90.0, 45.0, -45.0)
    assert sorted(other.gammas) == sorted(cc.gammas)


def test_chsh_random_mixtures_respect_classical_ceiling():
    spec = lhvt.chsh_scenario(45.0, 90.0, 67.5, 22.5)
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        w = rng.random(16)
        w /= w.sum()
        e = lhvt.exact_mixture_correlations(spec, w)
        gamma = e[0] + e[1] + e[2] - e[3]
        assert abs(gamma) <= 2 + 1e-12


def test_exact_mixture_against_hand_mix():
    spec = lhvt.chsh_scenario(45.0, 90.0, 67.5, 22.5)
    w = np.zeros(16)
    w[0] = 0.5  # all-pass cards: every product +1
    w[15] = 0.5  # all-stop cards: every product +1
    e = lhvt.exact_mixture_correlations(spec, w)
    assert np.allclose(e, [1, 1, 1, 1], atol=1e-15)


def test_uniform_mixture_has_flat_marginals():
    spec = lhvt.grid30_scenario()
    w = np.full(8, 1 / 8)
    for angle in (0.0, 30.0, 90.0):
        assert abs(lhvt.exact_marginal_mean(spec, w, 0, angle)) < 1e-15


def test_weight_validation():
    spec = lhvt.chsh_scenario(45.0, 90.0, 67.5, 22.5)
    with pytest.raises(ValueError):
        lhvt.exact_mixture_correlations(spec, np.full(15, 1 / 15))
    bad = np.full(16, 1 / 16)
    bad[0], bad[1] = -bad[0], 3 / 16
    with pytest.raises(ValueError):
        lhvt.exact_mixture_correlations(spec, bad)
    with pytest.raises(ValueError):
        lhvt.exact_mixture_correlations(spec, np.full(16, 1 / 8))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", [
    lambda spec, w: lhvt.exact_mixture_correlations(spec, w),
    lambda spec, w: lhvt.exact_marginal_mean(spec, w, 0, 45.0),
    lambda spec, w: lhvt.monte_carlo_mixture(spec, w, trials=100, rng_seed=1),
], ids=["exact_mixture_correlations", "exact_marginal_mean", "monte_carlo_mixture"])
def test_non_finite_weights_are_refused(entry, value):
    # a NaN weight makes the sum NaN, which no tolerance comparison rejects
    spec = lhvt.chsh_scenario(45.0, 90.0, 67.5, 22.5)
    for w in (np.full(16, value), np.append(np.full(15, 1 / 15), value)):
        with pytest.raises(ValueError, match="finite"):
            entry(spec, w)


def test_monte_carlo_is_deterministic_per_seed():
    spec = lhvt.chsh_scenario(45.0, 90.0, 67.5, 22.5)
    w = np.full(16, 1 / 16)
    a = lhvt.monte_carlo_mixture(spec, w, trials=2000, rng_seed=7)
    b = lhvt.monte_carlo_mixture(spec, w, trials=2000, rng_seed=7)
    assert a == b
    c = lhvt.monte_carlo_mixture(spec, w, trials=2000, rng_seed=8)
    assert c != a


def test_monte_carlo_tracks_exact_values():
    spec = lhvt.chsh_scenario(45.0, 90.0, 67.5, 22.5)
    w = np.full(16, 1 / 16)
    est = lhvt.monte_carlo_mixture(spec, w, trials=20_000, rng_seed=SEED)
    assert sum(est.counts) == 20_000
    for mean, se, exact in zip(est.means, est.std_errors, est.exact):
        assert abs(exact) < 1e-15  # uniform mixture has zero correlation
        assert abs(mean - exact) < 5 * se
    gamma, se = est.chsh_combination()
    assert abs(gamma) < 5 * se

    point = np.zeros(16)
    point[0] = 1.0
    est_point = lhvt.monte_carlo_mixture(spec, point, trials=500, rng_seed=SEED)
    assert est_point.means == (1.0, 1.0, 1.0, 1.0)
    assert est_point.std_errors == (0.0, 0.0, 0.0, 0.0)
    assert est_point.chsh_combination()[0] == 2.0


def test_monte_carlo_validation():
    spec = lhvt.chsh_scenario(45.0, 90.0, 67.5, 22.5)
    with pytest.raises(ValueError):
        lhvt.monte_carlo_mixture(spec, np.full(16, 1 / 16), trials=0, rng_seed=1)
    with pytest.raises(ValueError):
        lhvt.monte_carlo_mixture(spec, np.full(16, 1 / 16), lhvt.MAX_MC_TRIALS + 1, rng_seed=1)
    three = lhvt.MixtureEstimate(
        ((0.0, 0.0),), (1,), (1.0,), (0.0,), (1.0,)
    )
    with pytest.raises(ValueError):
        three.chsh_combination()


def test_classical_bound_direction_validation():
    with pytest.raises(ValueError):
        lhvt.ClassicalBound(Fraction(1), "sideways", (), 0)


def test_mixtures_cannot_beat_grid30_bound():
    # the agreement average is affine in the weights, so no mixture crosses 2/3
    spec = lhvt.grid30_scenario()
    tables = lhvt.enumerate_strategies(spec)
    fracs = [lhvt.agreement_fraction(spec, t) for t in tables]
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        w = rng.random(len(tables))
        w /= w.sum()
        mixed = sum(float(f) * wi for f, wi in zip(fracs, w))
        assert mixed <= float(lhvt.max_agreement_30grid().value) + 1e-12


@pytest.mark.parametrize("figure, spec, strategy", [
    (lhvt.agreement_fraction, lhvt.grid120_scenario(), ((1, 1, 1),)),
    (lhvt.agreement_fraction, lhvt.grid120_scenario(), ((1, 1, 1),) * 3),
    (lhvt.antiparallel_fraction, lhvt.electron_scenario(), ((1, 1, 1),)),
    (lhvt.antiparallel_fraction, lhvt.ghz_scenario(), ((1, 1),) * 3),
], ids=["agreement-one-party", "agreement-three-parties", "antiparallel-one-party", "antiparallel-ghz"])
def test_figures_refuse_malformed_input(figure, spec, strategy):
    # map() would stop at the shorter of strategy and run and answer a number
    with pytest.raises(ValueError, match="parties, not 2|needs a two-party scenario"):
        figure(spec, strategy)
