"""Acceptance gate: one test per quoted headline result, at the quoted
tolerance.  Each test ends with a single [acceptance] PASS line (visible with
pytest -s); a failed assert leaves the criterion marked FAILED by pytest."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

from bellkit import experiments, lhvt, polarization, spin, tensor
from bellkit.lhvt import PASS, STOP
from bellkit.spin import EulerAngles

SEED = 424242
# A child interpreter sees only its environment, not pytest's pythonpath.
SRC = Path(__file__).resolve().parents[1] / "src"
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))}


def _ok(n: int, msg: str) -> None:
    print(f"[acceptance] criterion {n}: PASS - {msg}")


def _random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_photon(rng) -> polarization.PhotonState:
    g = rng.uniform(0.0, math.pi / 2)
    return polarization.PhotonState(
        math.cos(g), rng.uniform(0.0, 2 * math.pi), math.sin(g), rng.uniform(0.0, 2 * math.pi)
    )


def test_criterion_01_pair_agreement_and_grid30_bound():
    q = experiments.entangled_pair_distribution(0.0, math.radians(30.0)).agreement()
    assert abs(q - 0.75) < 1e-12

    bound = lhvt.max_agreement_30grid()
    spec = lhvt.grid30_scenario()
    tables = lhvt.enumerate_strategies(spec)
    assert len(tables) == 8
    assert bound.value == Fraction(2, 3)

    hist = Counter(lhvt.agreement_fraction(spec, t) for t in tables)
    assert hist[Fraction(0)] == 2
    assert hist[Fraction(8, 12)] == 6
    _ok(1, "quantum 0.75 at 30deg vs exact classical ceiling 2/3 over 8 cards")


def test_criterion_02_120deg_digression():
    q = experiments.entangled_pair_distribution(0.0, math.radians(120.0)).agreement()
    assert abs(q - 0.25) < 1e-12

    bound = lhvt.min_agreement_120grid()
    assert bound.value == Fraction(1, 3)
    assert bound.direction == "min"

    # mixtures average the per-card fractions, so none dips under the vertex min
    spec = lhvt.grid120_scenario()
    fracs = [lhvt.agreement_fraction(spec, t) for t in lhvt.enumerate_strategies(spec)]
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        w = rng.random(len(fracs))
        w /= w.sum()
        assert sum(float(f) * wi for f, wi in zip(fracs, w)) >= 1 / 3 - 1e-12
    _ok(2, "quantum 0.25 at 120deg vs exact classical floor 1/3")


def test_criterion_03_hardy():
    assert abs(
        experiments.hardy_distribution(0.0, 0.0).probability_of("pass", "pass") - 1 / 12
    ) < 1e-12
    q = math.pi / 4
    assert experiments.hardy_distribution(q, 0.0).probability_of("pass", "pass") <= 1e-12
    assert experiments.hardy_distribution(0.0, q).probability_of("pass", "pass") <= 1e-12
    assert experiments.hardy_distribution(q, q).probability_of("stop", "stop") <= 1e-12

    expected_elimination = {
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
    assert {k: set(v) for k, v in lhvt.hardy_elimination().items()} == expected_elimination
    assert len(lhvt.hardy_feasible_set()) == 5
    assert lhvt.hardy_passpass_bound().value == 0
    _ok(3, "1/12 vs classical 0; three zeros and the 16-card elimination table")


def test_criterion_04_ghz():
    a = experiments.ghz_parity_distribution("A")
    assert abs(a.p_even - 1.0) < 1e-12
    for case in "BCD":
        gp = experiments.ghz_parity_distribution(case)
        assert abs(gp.p_odd - 1.0) < 1e-12

    stages = lhvt.ghz_elimination_stages()
    assert len(stages.all_strategies) == 64
    assert len(stages.after_case_a) == 32
    assert len(stages.feasible) == 0
    _ok(4, "certain parities in all four cases; card filter 64 -> 32 -> 0")


def test_criterion_05_chsh():
    gamma = experiments.chsh_quantum(*experiments.CHSH_PHOTON_SETTINGS)
    assert abs(gamma - 2 * math.sqrt(2)) < 1e-12
    corr = experiments.chsh_correlations(*experiments.CHSH_PHOTON_SETTINGS)
    r = math.sqrt(2) / 2
    for value, sign in zip(corr, (1, 1, 1, -1)):
        assert abs(value - sign * r) < 1e-12

    classical = lhvt.chsh_classical(45.0, 90.0, 67.5, 22.5)
    assert len(classical.gammas) == 16
    assert set(classical.gammas) == {-2, 2}

    spec = classical.scenario
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        w = rng.random(16)
        w /= w.sum()
        e = lhvt.exact_mixture_correlations(spec, w)
        assert abs(e[0] + e[1] + e[2] - e[3]) <= 2 + 1e-12
    _ok(5, "quantum 2*sqrt(2) vs deterministic +/-2 and mixture ceiling 2")


def test_criterion_06_electron_singlet():
    q = experiments.electron_singlet_distribution(0.0, math.radians(120.0)).antiparallel()
    assert abs(q - 0.25) < 1e-12

    for k in range(360):
        delta = 2 * math.pi * k / 360
        assert abs(experiments.electron_correlation(delta, 0.0) + math.cos(delta)) < 1e-12

    spec = lhvt.electron_scenario()
    fracs = [lhvt.antiparallel_fraction(spec, t) for t in lhvt.enumerate_strategies(spec)]
    assert fracs[0] == fracs[7] == Fraction(1)
    assert all(f == Fraction(1, 3) for f in fracs[1:7])
    _ok(6, "antiparallel 0.25 at 120deg vs classical floor 1/3; -cos(delta) sweep")


def test_criterion_07_rotation_algebra():
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        n = _random_axis(rng)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        dev = np.max(
            np.abs(spin.unitary_axis_angle(n, theta).entries - spin.unitary_exp(n, theta).entries)
        )
        assert dev < 1e-10

    for _ in range(100):
        assert spin.conjugate_check(rng.normal(size=3), _random_axis(rng), rng.uniform(-7, 7)) < 1e-12

    full = spin.unitary_axis_angle(_random_axis(rng), 2 * math.pi)
    assert np.max(np.abs(full.entries + np.eye(2))) < 1e-12

    for _ in range(100):
        u = spin.euler_rotation_su2(EulerAngles(*rng.uniform(-2 * math.pi, 2 * math.pi, size=3)))
        eye = np.eye(2)
        assert np.max(np.abs(u.entries @ u.entries.conj().T - eye)) < 1e-12
        assert np.max(np.abs(u.entries.conj().T @ u.entries - eye)) < 1e-12
    _ok(7, "closed form vs series, conjugation identity, -I at 2pi, Euler unitarity")


def test_criterion_08_generators():
    for kind in ("half", "one"):
        for axis in "xyz":
            g = spin.generator_from_rotation(axis, kind)
            assert g.deviation < 1e-6

    jx, jy, jz = (spin.spin_one_operator(a).entries for a in "xyz")
    assert np.max(np.abs(jx @ jx + jy @ jy + jz @ jz - 2 * np.eye(3))) < 1e-12
    assert np.max(np.abs(jx @ jy - jy @ jx - 1j * jz)) < 1e-12
    _ok(8, "Richardson generator extraction within 1e-6; J^2 = 2I and [Jx,Jy] = iJz")


def test_criterion_09_spin1_from_pair():
    rng = np.random.default_rng(SEED)
    singlet = spin.singlet_triplet_basis()[0]
    for _ in range(50):
        e = EulerAngles(*rng.uniform(-2 * math.pi, 2 * math.pi, size=3))
        closed = spin.euler_rotation_spin1(e).entries
        pair = spin.spin1_from_pair(e).entries
        assert np.max(np.abs(closed - pair)) < 1e-12

        u2 = spin.euler_rotation_su2(e)
        rotated = tensor.apply(tensor.kron_op(u2, u2), singlet)
        assert abs(tensor.inner(singlet, rotated)) >= 1 - 1e-10

    s2, sz = spin.two_spin_s2(), spin.two_spin_sz()
    basis = spin.singlet_triplet_basis()
    for state, (e2, ez) in zip(basis, [(0.0, 0.0), (2.0, 1.0), (2.0, 0.0), (2.0, -1.0)]):
        assert np.max(np.abs(s2.entries @ state.amps - e2 * state.amps)) < 1e-12
        assert np.max(np.abs(sz.entries @ state.amps - ez * state.amps)) < 1e-12
    _ok(9, "3x3 rotation == triplet conjugation; singlet invariant; S^2/Sz spectra")


def test_criterion_10_coupling():
    states = spin.coupled_eigenstates()
    assert len(states) == 6
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            want = 1.0 if i == j else 0.0
            assert abs(tensor.inner(a.state, b.state) - want) < 1e-12

    j2, jz = spin.total_j2(), spin.total_jz()
    for s in states:
        expect_j2 = 15 / 4 if s.j == 1.5 else 3 / 4
        assert np.max(np.abs(j2.entries @ s.state.amps - expect_j2 * s.state.amps)) < 1e-12
        assert np.max(np.abs(jz.entries @ s.state.amps - s.jz * s.state.amps)) < 1e-12
    assert sorted(s.jz for s in states if s.j == 1.5) == [-1.5, -0.5, 0.5, 1.5]
    assert sorted(s.jz for s in states if s.j == 0.5) == [-0.5, 0.5]

    up_a = tensor.basis_state(spin.SPIN_ONE_LABELS, 0)
    zero_a = tensor.basis_state(spin.SPIN_ONE_LABELS, 1)
    up_b = tensor.basis_state(spin.SPIN_HALF_LABELS, 0)
    dn_b = tensor.basis_state(spin.SPIN_HALF_LABELS, 1)
    prod = tensor.kron(up_a, dn_b)
    out = j2.entries @ prod.amps
    assert abs(out[prod.index_of("0⊗↑")] - math.sqrt(2)) < 1e-12
    out2 = j2.entries @ tensor.kron(zero_a, up_b).amps
    assert abs(out2[prod.index_of("↑⊗↓")] - math.sqrt(2)) < 1e-12
    _ok(10, "orthonormal sextet, J^2 in {15/4, 3/4}, Jz ladder, sqrt2 cross-term")


def test_criterion_11_stokes_poincare():
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        state = _random_photon(rng)
        theta = rng.uniform(0.0, 2 * math.pi)
        direct = polarization.analyzer_transmission(state, theta)
        via_stokes = polarization.analyzer_transmission_stokes(state, theta)
        assert abs(direct - via_stokes) < 1e-12

    for _ in range(200):
        state = _random_photon(rng)
        linear = polarization.stokes_from_state(state)
        circular = polarization.stokes_from_circular(polarization.to_circular(state))
        for a, b in zip(
            (linear.s0, linear.s1, linear.s2, linear.s3),
            (circular.s0, circular.s1, circular.s2, circular.s3),
        ):
            assert abs(a - b) < 1e-12

    rt2 = math.sqrt(0.5)
    canonical = [
        (polarization.PhotonState(1.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
        (polarization.PhotonState(0.0, 0.0, 1.0, 0.0), (-1.0, 0.0, 0.0)),
        (polarization.PhotonState(rt2, 0.0, rt2, 0.0), (0.0, 1.0, 0.0)),
        (polarization.PhotonState(rt2, 0.0, rt2, math.pi), (0.0, -1.0, 0.0)),
        (polarization.PhotonState(rt2, 0.0, rt2, math.pi / 2), (0.0, 0.0, 1.0)),
        (polarization.PhotonState(rt2, 0.0, rt2, -math.pi / 2), (0.0, 0.0, -1.0)),
    ]
    for state, (s1, s2, s3) in canonical:
        s = polarization.stokes_from_state(state)
        assert abs(s.s0 - 1.0) < 1e-12
        assert abs(s.s1 - s1) < 1e-12
        assert abs(s.s2 - s2) < 1e-12
        assert abs(s.s3 - s3) < 1e-12
    _ok(11, "two transmission forms, circular-basis Stokes, six canonical points")


def test_criterion_12_cli_report():
    cmd = [sys.executable, "-m", "bellkit.cli", "report", "--all", "--format", "json"]
    first = subprocess.run(cmd, capture_output=True, check=True, env=CHILD_ENV)
    second = subprocess.run(cmd, capture_output=True, check=True, env=CHILD_ENV)
    assert first.stdout == second.stdout

    sc = json.loads(first.stdout)["scenarios"]
    assert all(row["verdict"] == "violation" for row in sc.values())
    assert len(sc) == 6

    assert abs(sc["grid30"]["quantum"]["agreement_delta30"] - 0.75) < 1e-12
    assert sc["grid30"]["classical"]["bound_exact"] == "2/3"
    assert abs(sc["grid120"]["quantum"]["agreement_delta120"] - 0.25) < 1e-12
    assert sc["grid120"]["classical"]["bound_exact"] == "1/3"
    assert abs(sc["hardy"]["quantum"]["pass_pass_at_00"] - 1 / 12) < 1e-12
    assert sc["hardy"]["classical"]["bound"] == 0.0
    assert sc["ghz"]["classical"]["strategy_count"] == 64
    assert sc["ghz"]["classical"]["after_case_a"] == 32
    assert sc["ghz"]["classical"]["feasible_count"] == 0
    assert abs(sc["electron"]["quantum"]["antiparallel_delta120"] - 0.25) < 1e-12
    assert sc["electron"]["classical"]["bound_exact"] == "1/3"
    assert abs(sc["chsh"]["quantum"]["combination"] - 2 * math.sqrt(2)) < 1e-12
    assert sc["chsh"]["classical"]["bound_max"] == 2.0
    assert sc["chsh"]["classical"]["bound_min"] == -2.0
    _ok(12, "report JSON byte-identical across runs, every verdict a violation")
