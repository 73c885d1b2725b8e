from __future__ import annotations

import cmath
import math

import numpy as np
import pytest

from bellkit import spin, tensor
from bellkit.polarization import BlochCoords
from bellkit.spin import EulerAngles

ABS_TOL = 1e-12
SEED = 20260823

X, Y, Z = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


def _random_axis(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _random_euler(rng):
    return EulerAngles(*rng.uniform(-2 * math.pi, 2 * math.pi, size=3))


def bloch_ket(b: BlochCoords) -> tensor.StateVector:
    """cos(theta0/2)|up> + sin(theta0/2) e^{i phi0} |down>."""
    return tensor.StateVector(
        [math.cos(b.theta0 / 2), math.sin(b.theta0 / 2) * cmath.exp(1j * b.phi0)],
        spin.SPIN_HALF_LABELS,
    )


def euler_product_form(e: EulerAngles) -> np.ndarray:
    """The Euler rotation as exp[i(theta/2) sigma.(-sin phi, cos phi, 0)] exp[i(chi/2) sigma_z]."""
    tilt = spin.unitary_axis_angle((-math.sin(e.phi), math.cos(e.phi), 0.0), e.theta)
    turn = spin.unitary_axis_angle((0.0, 0.0, 1.0), e.chi)
    return tilt.entries @ turn.entries


def _hermiticity_deviation(op: tensor.MatrixOperator) -> float:
    return float(np.max(np.abs(op.entries - op.entries.conj().T)))


def test_pauli_algebra():
    sx, sy, sz = (spin.pauli(a).entries for a in "xyz")
    eye = np.eye(2)
    for s in (sx, sy, sz):
        assert np.allclose(s @ s, eye, atol=ABS_TOL)
        assert np.allclose(s, s.conj().T, atol=ABS_TOL)
    assert np.allclose(sx @ sy, 1j * sz, atol=ABS_TOL)
    assert np.allclose(sy @ sz, 1j * sx, atol=ABS_TOL)
    assert np.allclose(sz @ sx, 1j * sy, atol=ABS_TOL)


def test_sigma_dot_product_identity_with_complex_vectors():
    # (a.sigma)(b.sigma) = (a.b) 1 + i (a x b).sigma, also for complex a, b
    rng = np.random.default_rng(SEED)
    for _ in range(25):
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=3) + 1j * rng.normal(size=3)
        lhs = spin.sigma_dot(a).entries @ spin.sigma_dot(b).entries
        rhs = np.dot(a, b) * np.eye(2) + 1j * spin.sigma_dot(np.cross(a, b)).entries
        assert np.allclose(lhs, rhs, atol=1e-9)


def test_unitary_axis_angle_landmarks():
    assert np.allclose(
        spin.unitary_axis_angle(Z, math.pi).entries, np.diag([1j, -1j]), atol=ABS_TOL
    )
    half = spin.unitary_axis_angle(X, math.pi / 2).entries
    assert np.allclose(half, (np.eye(2) + 1j * spin.pauli("x").entries) / math.sqrt(2), atol=ABS_TOL)
    full = spin.unitary_axis_angle(_random_axis(np.random.default_rng(SEED)), 2 * math.pi)
    assert np.allclose(full.entries, -np.eye(2), atol=ABS_TOL)


def test_axis_must_be_unit():
    with pytest.raises(ValueError):
        spin.unitary_axis_angle((1.0, 1.0, 0.0), 0.3)
    with pytest.raises(ValueError):
        spin.rotate_vector(X, (0.0, 0.0, 2.0), 0.3)


@pytest.mark.parametrize("build, message", [
    (lambda: spin.pauli("w"), "axis must be one of x, y, z"),
    (lambda: spin.spin_one_operator("w"), "axis must be one of x, y, z"),
    (lambda: spin.unitary_axis_angle((1.0, 0.0), 0.3), "must have 3 components"),
    (lambda: spin.generator_from_rotation("x", "two"), "spin must be 'half' or 'one'"),
], ids=["pauli-axis", "spin-one-axis", "two-component-axis", "generator-spin"])
def test_input_checks_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


@pytest.mark.parametrize("build", [
    lambda: EulerAngles(math.nan, 0.0, 0.0),
    lambda: EulerAngles(0.0, math.inf, 0.0),
    lambda: EulerAngles(0.0, 0.0, -math.inf),
    lambda: spin.rotate_vector((math.nan, 0.0, 0.0), Z, 0.3),
    lambda: spin.rotate_vector((0.0, -math.inf, 0.0), Z, 0.3),
    lambda: spin.rotate_vector(X, Z, math.nan),
    lambda: spin.rotate_vector(X, Z, math.inf),
    lambda: spin.unitary_axis_angle(Z, math.inf),
    lambda: spin.unitary_axis_angle(Z, -math.inf),
    lambda: spin.unitary_axis_angle(Z, math.nan),
], ids=[
    "euler-theta-nan", "euler-phi-inf", "euler-chi-minus-inf",
    "rotate-vector-nan", "rotate-vector-minus-inf", "rotate-angle-nan", "rotate-angle-inf",
    "axis-angle-inf", "axis-angle-minus-inf", "axis-angle-nan",
])
def test_non_finite_rotation_input_is_refused(build):
    # the message names the angle or vector, not a later symptom such as
    # "math domain error" or "amplitudes must be finite"
    with pytest.raises(ValueError, match="non-finite angle|angle .*must be finite"):
        build()


def test_series_matches_closed_form():
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        n = _random_axis(rng)
        theta = rng.uniform(-2 * math.pi, 2 * math.pi)
        d = np.max(
            np.abs(spin.unitary_axis_angle(n, theta).entries - spin.unitary_exp(n, theta).entries)
        )
        worst = max(worst, float(d))
    assert worst < 1e-10


def test_series_truncation_budget():
    # the series runs until a term falls below 1e-17, so it stays within 1e-12
    # of the closed form out to the 2 pi edge
    worst = 0.0
    for theta in np.linspace(-2 * math.pi, 2 * math.pi, 41):
        for n in (X, Z, tuple(np.array([1, 1, 1]) / math.sqrt(3))):
            d = np.max(
                np.abs(spin.unitary_axis_angle(n, theta).entries - spin.unitary_exp(n, theta).entries)
            )
            worst = max(worst, float(d))
    assert worst < 1e-12


def test_series_reduces_large_angles_by_the_period():
    # past |theta| = 2 pi the series is summed at theta mod 4 pi, so it stays
    # on the closed form and unitary however many turns theta holds
    for theta in (40.0, 60.0, 100.0, -300.0):
        for n in (X, Z, tuple(np.array([1, 1, 1]) / math.sqrt(3))):
            u = spin.unitary_exp(n, theta)
            assert np.max(np.abs(spin.unitary_axis_angle(n, theta).entries - u.entries)) < 1e-12
            assert tensor.unitarity_deviation(u) < 1e-12
    for theta in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            spin.unitary_exp(Z, theta)


def test_rotate_vector_left_hand_rule_and_isometry():
    assert np.allclose(spin.rotate_vector(X, Z, math.pi / 2), (0, -1, 0), atol=ABS_TOL)
    assert np.allclose(spin.rotate_vector(Y, Z, math.pi / 2), (1, 0, 0), atol=ABS_TOL)
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        a, n = rng.normal(size=3), _random_axis(rng)
        theta = rng.uniform(-7, 7)
        out = spin.rotate_vector(a, n, theta)
        assert abs(np.linalg.norm(out) - np.linalg.norm(a)) < 1e-9
        assert abs(np.dot(out, n) - np.dot(a, n)) < 1e-9


def test_conjugation_identity():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        dev = spin.conjugate_check(rng.normal(size=3), _random_axis(rng), rng.uniform(-7, 7))
        assert dev < ABS_TOL


def test_euler_closed_form_equals_product_form_and_is_unitary():
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        e = _random_euler(rng)
        closed = spin.euler_rotation_su2(e)
        assert np.allclose(closed.entries, euler_product_form(e), atol=ABS_TOL)
        assert tensor.unitarity_deviation(closed) <= tensor.TOL_UNITARY


def test_euler_special_cases():
    chi = 1.234
    u = spin.euler_rotation_su2(EulerAngles(0.0, 0.0, chi)).entries
    assert np.allclose(u, np.diag([cmath.exp(0.5j * chi), cmath.exp(-0.5j * chi)]), atol=ABS_TOL)
    theta = 0.777
    u = spin.euler_rotation_su2(EulerAngles(theta, 0.0, 0.0)).entries
    expected = [[math.cos(theta / 2), math.sin(theta / 2)],
                [-math.sin(theta / 2), math.cos(theta / 2)]]
    assert np.allclose(u, expected, atol=ABS_TOL)


def test_euler_on_bloch_poles():
    e = EulerAngles(0.9, 2.1, -0.6)
    u = spin.euler_rotation_su2(e)
    north = tensor.apply(u, bloch_ket(BlochCoords(0.0, 0.0)))
    expect_n = tensor.StateVector(
        [math.cos(e.theta / 2), -math.sin(e.theta / 2) * cmath.exp(1j * e.phi)],
        spin.SPIN_HALF_LABELS,
    )
    # equal up to a global phase
    assert abs(tensor.inner(north, expect_n)) >= 1 - 10 * tensor.TOL_NORM
    south = tensor.apply(u, bloch_ket(BlochCoords(math.pi, 0.0)))
    expect_s = bloch_ket(BlochCoords(math.pi - e.theta, e.phi))
    assert abs(tensor.inner(south, expect_s)) >= 1 - 10 * tensor.TOL_NORM


@pytest.mark.parametrize("spin_kind", ["half", "one"])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_generator_extraction(axis, spin_kind):
    g = spin.generator_from_rotation(axis, spin_kind)
    assert g.deviation < spin.GENERATOR_TOL
    closed = spin.spin_half_operator(axis) if spin_kind == "half" else spin.spin_one_operator(axis)
    assert _hermiticity_deviation(closed) <= tensor.TOL_UNITARY


def test_spin_one_identities():
    jx, jy, jz = (spin.spin_one_operator(a).entries for a in "xyz")
    assert np.allclose(jx @ jx + jy @ jy + jz @ jz, 2 * np.eye(3), atol=ABS_TOL)
    assert np.allclose(jx @ jy - jy @ jx, 1j * jz, atol=ABS_TOL)
    assert np.allclose(jy @ jz - jz @ jy, 1j * jx, atol=ABS_TOL)


def test_spin1_rotation_matches_pair_construction():
    rng = np.random.default_rng(SEED)
    for _ in range(50):
        e = _random_euler(rng)
        closed = spin.euler_rotation_spin1(e)
        pair = spin.spin1_from_pair(e)
        assert np.allclose(closed.entries, pair.entries, atol=ABS_TOL)
        assert tensor.unitarity_deviation(closed) <= tensor.TOL_UNITARY


def test_spin1_rotation_special_case():
    chi = -0.321
    u = spin.euler_rotation_spin1(EulerAngles(0.0, 0.0, chi)).entries
    assert np.allclose(u, np.diag([cmath.exp(1j * chi), 1.0, cmath.exp(-1j * chi)]), atol=ABS_TOL)


def test_singlet_invariance_under_joint_rotation():
    rng = np.random.default_rng(SEED)
    singlet = spin.singlet_triplet_basis()[0]
    for _ in range(50):
        u2 = spin.euler_rotation_su2(_random_euler(rng))
        rotated = tensor.apply(tensor.kron_op(u2, u2), singlet)
        assert abs(tensor.inner(singlet, rotated)) >= 1 - 1e-10


def test_singlet_triplet_eigenstructure():
    s2 = spin.two_spin_s2()
    sz = spin.two_spin_sz()
    assert _hermiticity_deviation(s2) <= tensor.TOL_UNITARY
    assert _hermiticity_deviation(sz) <= tensor.TOL_UNITARY
    basis = spin.singlet_triplet_basis()
    expected = [(0.0, 0.0), (2.0, 1.0), (2.0, 0.0), (2.0, -1.0)]
    for state, (e2, ez) in zip(basis, expected):
        assert np.allclose(s2.entries @ state.amps, e2 * state.amps, atol=ABS_TOL)
        assert np.allclose(sz.entries @ state.amps, ez * state.amps, atol=ABS_TOL)
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            assert abs(tensor.inner(a, b) - (1.0 if i == j else 0.0)) < ABS_TOL


def test_coupled_eigenstates():
    j2, jz = spin.total_j2(), spin.total_jz()
    states = spin.coupled_eigenstates()
    assert [s.j for s in states] == [1.5, 1.5, 1.5, 1.5, 0.5, 0.5]
    assert [s.jz for s in states] == [1.5, 0.5, -0.5, -1.5, 0.5, -0.5]
    for s in states:
        assert np.allclose(j2.entries @ s.state.amps, s.j * (s.j + 1) * s.state.amps, atol=ABS_TOL)
        assert np.allclose(jz.entries @ s.state.amps, s.jz * s.state.amps, atol=ABS_TOL)
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            want = 1.0 if i == j else 0.0
            assert abs(tensor.inner(a.state, b.state) - want) < ABS_TOL
    assert abs(states[0].j * (states[0].j + 1) - 3.75) < ABS_TOL
    assert abs(states[-1].j * (states[-1].j + 1) - 0.75) < ABS_TOL


def test_coupled_cross_terms_by_direct_application():
    # (J+S)^2 on the bare product states mixes them with coefficient sqrt2
    j2 = spin.total_j2().entries
    up_a = tensor.basis_state(spin.SPIN_ONE_LABELS, 0)
    zero_a = tensor.basis_state(spin.SPIN_ONE_LABELS, 1)
    up_b = tensor.basis_state(spin.SPIN_HALF_LABELS, 0)
    dn_b = tensor.basis_state(spin.SPIN_HALF_LABELS, 1)

    prod = tensor.kron(up_a, dn_b)
    out = j2 @ prod.amps
    assert abs(out[prod.index_of("↑⊗↓")] - 1.75) < ABS_TOL
    assert abs(out[prod.index_of("0⊗↑")] - math.sqrt(2)) < ABS_TOL

    prod2 = tensor.kron(zero_a, up_b)
    out2 = j2 @ prod2.amps
    assert abs(out2[prod2.index_of("0⊗↑")] - 2.75) < ABS_TOL
    assert abs(out2[prod2.index_of("↑⊗↓")] - math.sqrt(2)) < ABS_TOL
