from __future__ import annotations

import math
import re

import numpy as np
import pytest

from bellkit import experiments as ex
from bellkit import spin, tensor

ABS_TOL = 1e-12
DEG = math.pi / 180


def test_pair_state_is_symmetric_and_normalized():
    state = ex.entangled_pair_state()
    assert state.labels == ("x⊗x", "x⊗y", "y⊗x", "y⊗y")
    assert np.allclose(state.amps, [0, math.sqrt(0.5), math.sqrt(0.5), 0], atol=ABS_TOL)


def test_pair_distribution_closed_forms():
    # P(pp) = P(ss) = cos^2(d)/2 and P(ps) = P(sp) = sin^2(d)/2, d = t1 - t2
    for t1 in np.linspace(0.0, 2 * math.pi, 9):
        for t2 in np.linspace(-math.pi, math.pi, 7):
            d = ex.entangled_pair_distribution(t1, t2)
            delta = t1 - t2
            c2, s2 = math.cos(delta) ** 2 / 2, math.sin(delta) ** 2 / 2
            assert abs(d.probability_of("pass", "pass") - c2) < ABS_TOL
            assert abs(d.probability_of("stop", "stop") - c2) < ABS_TOL
            assert abs(d.probability_of("pass", "stop") - s2) < ABS_TOL
            assert abs(d.probability_of("stop", "pass") - s2) < ABS_TOL
            assert abs(d.agreement() - math.cos(delta) ** 2) < ABS_TOL
            assert abs(d.correlation() - math.cos(2 * delta)) < ABS_TOL


def test_pair_agreement_landmarks():
    assert abs(ex.entangled_pair_distribution(0.0, 0.0).agreement() - 1.0) < ABS_TOL
    assert abs(ex.entangled_pair_distribution(30 * DEG, 0.0).agreement() - 0.75) < ABS_TOL
    assert abs(ex.entangled_pair_distribution(0.0, 120 * DEG).agreement() - 0.25) < ABS_TOL
    assert abs(ex.entangled_pair_distribution(0.0, 45 * DEG).correlation()) < ABS_TOL


def test_pair_depends_only_on_difference():
    for shift in (0.3, 1.1, -2.0):
        a = ex.entangled_pair_distribution(0.5, 0.2).agreement()
        b = ex.entangled_pair_distribution(0.5 + shift, 0.2 + shift).agreement()
        assert abs(a - b) < ABS_TOL


def test_hardy_state_amplitudes():
    state = ex.hardy_state()
    r = 1 / math.sqrt(12)
    assert np.allclose(state.amps, [r, -r, -r, -3 * r], atol=ABS_TOL)


def test_hardy_quoted_cases():
    cases = {
        "A": (1 / 12, 1 / 12, 1 / 12, 3 / 4),
        "B": (0.0, 2 / 3, 1 / 6, 1 / 6),
        "C": (0.0, 1 / 6, 2 / 3, 1 / 6),
        "D": (1 / 3, 1 / 3, 1 / 3, 0.0),
    }
    order = (("pass", "pass"), ("pass", "stop"), ("stop", "pass"), ("stop", "stop"))
    for case, expected in cases.items():
        d = ex.hardy_distribution(*ex.HARDY_CASES[case])
        for row, want in zip(order, expected):
            assert abs(d.probability_of(*row) - want) < ABS_TOL, (case, row)


def test_hardy_three_zeros():
    assert ex.hardy_distribution(math.pi / 4, 0.0).probability_of("pass", "pass") < ABS_TOL
    assert ex.hardy_distribution(0.0, math.pi / 4).probability_of("pass", "pass") < ABS_TOL
    assert ex.hardy_distribution(math.pi / 4, math.pi / 4).probability_of("stop", "stop") < ABS_TOL


def test_hardy_angle_restriction():
    with pytest.raises(ValueError):
        ex.hardy_distribution(0.3, 0.0)
    d = ex.hardy_distribution(0.3, 0.0, allow_general=True)
    assert abs(sum(p for _, p in d.outcomes) - 1.0) < ABS_TOL


def test_hardy_angle_message_names_the_quoted_angles():
    with pytest.raises(ValueError) as exc:
        ex.hardy_distribution(0.3, 0.0)
    for angle in {a for case in ex.HARDY_CASES.values() for a in case}:
        assert re.search(rf"\b{math.degrees(angle):g}\b", str(exc.value))


def test_ghz_state_amplitudes():
    state = ex.ghz_state()
    lookup = dict(zip(state.labels, state.amps))
    assert abs(lookup["y⊗y⊗y"] - 0.5) < ABS_TOL
    for label in ("y⊗x⊗x", "x⊗y⊗x", "x⊗x⊗y"):
        assert abs(lookup[label] + 0.5) < ABS_TOL
    for label in ("x⊗x⊗x", "x⊗y⊗y", "y⊗x⊗y", "y⊗y⊗x"):
        assert abs(lookup[label]) < ABS_TOL


def test_ghz_case_a_even():
    gp = ex.ghz_parity_distribution("A")
    assert gp.certain_parity == "even"
    assert abs(gp.p_even - 1.0) < ABS_TOL
    for row in (("pass", "pass", "stop"), ("pass", "stop", "pass"),
                ("stop", "pass", "pass"), ("stop", "stop", "stop")):
        assert abs(gp.distribution.probability_of(*row) - 0.25) < ABS_TOL


@pytest.mark.parametrize("case", ["B", "C", "D"])
def test_ghz_mixed_cases_odd(case):
    gp = ex.ghz_parity_distribution(case)
    assert gp.certain_parity == "odd"
    assert abs(gp.p_odd - 1.0) < ABS_TOL
    for row in (("pass", "pass", "pass"), ("pass", "stop", "stop"),
                ("stop", "pass", "stop"), ("stop", "stop", "pass")):
        assert abs(gp.distribution.probability_of(*row) - 0.25) < ABS_TOL


def test_ghz_case_validation():
    with pytest.raises(ValueError):
        ex.ghz_parity_distribution("E")


def test_electron_singlet_is_spin_singlet():
    # one definition of the singlet and of its spin-1/2 outcome labels
    assert ex.electron_singlet_state() is spin.singlet_triplet_basis()[0]
    assert ex.ELECTRON_OUTCOMES is spin.SPIN_HALF_LABELS


def test_electron_singlet_closed_forms():
    # P(antiparallel) = cos^2(d/2), E = -cos(d)
    for t1 in np.linspace(0.0, 2 * math.pi, 9):
        for t2 in np.linspace(-math.pi, math.pi, 7):
            d = ex.electron_singlet_distribution(t1, t2)
            delta = t1 - t2
            anti = math.cos(delta / 2) ** 2
            assert abs(d.antiparallel() - anti) < ABS_TOL
            assert abs(d.correlation() + math.cos(delta)) < ABS_TOL
            assert abs(d.probability_of("↑", "↓") - anti / 2) < ABS_TOL
            assert abs(d.probability_of("↓", "↑") - anti / 2) < ABS_TOL


def test_electron_landmarks():
    assert abs(ex.electron_singlet_distribution(0.0, 0.0).antiparallel() - 1.0) < ABS_TOL
    assert abs(ex.electron_singlet_distribution(120 * DEG, 0.0).antiparallel() - 0.25) < ABS_TOL
    assert abs(ex.electron_correlation(0.0, 0.0) + 1.0) < ABS_TOL
    for k in range(360):
        delta = k * DEG
        assert abs(ex.electron_correlation(delta, 0.0) + math.cos(delta)) < ABS_TOL


def test_chsh_photon_canonical():
    corr = ex.chsh_correlations(*ex.CHSH_PHOTON_SETTINGS)
    r = math.sqrt(2) / 2
    assert np.allclose(corr, (r, r, r, -r), atol=ABS_TOL)
    assert abs(ex.chsh_quantum(*ex.CHSH_PHOTON_SETTINGS) - 2 * math.sqrt(2)) < ABS_TOL


def test_chsh_electron_canonical():
    gamma = ex.chsh_quantum(*ex.CHSH_ELECTRON_SETTINGS, system="electron")
    assert abs(gamma + 2 * math.sqrt(2)) < ABS_TOL
    # swapping the last analyzer to +135 deg makes the four terms cancel
    degenerate = ex.chsh_quantum(0.0, math.pi / 2, math.pi / 4, 3 * math.pi / 4,
                                 system="electron")
    assert abs(degenerate) < ABS_TOL


def test_chsh_system_validation():
    with pytest.raises(ValueError):
        ex.chsh_correlations(0.0, 0.0, 0.0, 0.0, system="neutrino")


def test_chsh_runs_order_in_any_unit():
    assert ex.chsh_runs(1, 2, 3, 4) == ((1, 3), (1, 4), (2, 3), (2, 4))
    runs = ex.chsh_runs("a", "a'", "b", "b'")
    assert runs == (("a", "b"), ("a", "b'"), ("a'", "b"), ("a'", "b'"))


def test_chsh_combination_on_floats_and_ints():
    rng = np.random.default_rng(7)
    for e11, e12, e21, e22 in rng.uniform(-1.0, 1.0, size=(200, 4)).tolist():
        assert ex.chsh_combination(e11, e12, e21, e22) == e11 + e12 + e21 - e22
    assert ex.chsh_combination(1, 1, 1, -1) == 4
    columns = np.array([[1, -1], [1, -1], [-1, 1], [-1, 1]], dtype=np.int8)
    assert ex.chsh_combination(*columns).tolist() == [2, -2]
    corr = ex.chsh_correlations(*ex.CHSH_PHOTON_SETTINGS)
    assert ex.chsh_quantum(*ex.CHSH_PHOTON_SETTINGS) == ex.chsh_combination(*corr)


def test_chsh_never_exceeds_quantum_bound():
    rng = np.random.default_rng(20260823)
    cap = 2 * math.sqrt(2) + 1e-9
    for _ in range(1000):
        angles = rng.uniform(0.0, 2 * math.pi, size=4)
        assert abs(ex.chsh_quantum(*angles)) <= cap


def test_distribution_guards():
    settings = (0.0, 0.0)
    with pytest.raises(ValueError):
        ex.OutcomeDistribution(settings, (0.5, 0.0, 0.0, 0.0), ex.PHOTON_OUTCOMES)
    with pytest.raises(ValueError):
        ex.OutcomeDistribution(settings, (-0.1, 0.0, 0.0, 1.1), ex.PHOTON_OUTCOMES)
    three = ex.ghz_parity_distribution("A").distribution
    with pytest.raises(ValueError):
        three.antiparallel()
    with pytest.raises(KeyError):
        three.probability_of("pass", "pass")


def test_probability_row_needs_one_entry_per_joint_outcome():
    settings = (0.0, 0.0)
    with pytest.raises(ValueError):
        ex.OutcomeDistribution(settings, (1.0,), ex.PHOTON_OUTCOMES)
    with pytest.raises(ValueError):
        ex.OutcomeDistribution(settings, (0.25,) * 4 + (0.0,), ex.PHOTON_OUTCOMES)


@pytest.mark.parametrize("labels", [("pass",), ("pass", "pass"), ("pass", "stop", "skip")])
def test_labels_name_two_distinct_outcomes(labels):
    settings = (0.0, 0.0)
    with pytest.raises(ValueError):
        ex.OutcomeDistribution(settings, (0.25,) * 4, labels)


def test_settings_are_the_angles_passed_in():
    assert ex.entangled_pair_distribution(0.3, 0.1).settings == (0.3, 0.1)
    assert ex.hardy_distribution(0.0, math.pi / 4).settings == (0.0, math.pi / 4)
    assert ex.electron_singlet_distribution(0.3, -0.1).settings == (0.3, -0.1)
    for case, angles in ex.GHZ_CASES.items():
        assert ex.ghz_parity_distribution(case).distribution.settings == angles
    built = ex.OutcomeDistribution((0.0, 0.5), (0.25,) * 4, ex.PHOTON_OUTCOMES)
    assert built.settings == (0.0, 0.5)


def test_labeled_views_follow_the_signed_row():
    d = ex.entangled_pair_distribution(0.3, 0.1)
    assert d.signs == ((1, 1), (1, -1), (-1, 1), (-1, -1))
    names = {1: "pass", -1: "stop"}
    assert d.outcomes == tuple(
        (tuple(names[s] for s in signs), p) for signs, p in zip(d.signs, d.probabilities)
    )
    for labels, p in d.outcomes:
        assert d.probability_of(*labels) == p


def test_labels_belong_to_their_carrier():
    photon = ex.entangled_pair_distribution(0.3, 0.1)
    electron = ex.electron_singlet_distribution(0.3, 0.1)
    for e1 in ex.ELECTRON_OUTCOMES:
        for e2 in ex.ELECTRON_OUTCOMES:
            with pytest.raises(KeyError):
                photon.probability_of(e1, e2)
    for p1 in ex.PHOTON_OUTCOMES:
        for p2 in ex.PHOTON_OUTCOMES:
            with pytest.raises(KeyError):
                electron.probability_of(p1, p2)
    with pytest.raises(KeyError):
        photon.probability_of("pass", "↑")
