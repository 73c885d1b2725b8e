from __future__ import annotations

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import polarization as pol
from bellkit import spin, tensor

ABS_TOL = 1e-12
RT2 = 1 / math.sqrt(2)

X = pol.PhotonState(1.0, 0.0, 0.0, 0.0)
Y = pol.PhotonState(0.0, 0.0, 1.0, 0.0)
DIAG = pol.PhotonState(RT2, 0.0, RT2, 0.0)
ANTIDIAG = pol.PhotonState(RT2, 0.0, RT2, math.pi)
RCP = pol.PhotonState(RT2, 0.0, RT2, math.pi / 2)
LCP = pol.PhotonState(RT2, 0.0, RT2, -math.pi / 2)


def ellipse_to_stokes(e: pol.PolarizationEllipse) -> pol.StokesVector:
    """Oracle for stokes_to_ellipse: longitude 2*rho and latitude 2*eta on the
    Poincare sphere."""
    return pol.StokesVector(
        1.0,
        math.cos(2 * e.eta) * math.cos(2 * e.rho),
        math.cos(2 * e.eta) * math.sin(2 * e.rho),
        math.sin(2 * e.eta),
    )


@st.composite
def photon_states(draw):
    split = draw(st.floats(0.0, 1.0, allow_nan=False))
    phix = draw(st.floats(-math.pi, math.pi, allow_nan=False))
    phiy = draw(st.floats(-math.pi, math.pi, allow_nan=False))
    return pol.PhotonState(math.sqrt(split), phix, math.sqrt(1.0 - split), phiy)


def turned(p: pol.PhotonState, chi: float) -> pol.PhotonState:
    """The same light seen from a frame turned through chi about the
    propagation axis: the linear amplitudes turn through chi."""
    cx = p.cx * math.cos(chi) + p.cy * math.sin(chi)
    cy = -p.cx * math.sin(chi) + p.cy * math.cos(chi)
    return pol.PhotonState(abs(cx), cmath.phase(cx), abs(cy), cmath.phase(cy))


def test_canonical_points_on_poincare_sphere():
    expected = {
        X: (1, 0, 0),
        Y: (-1, 0, 0),
        DIAG: (0, 1, 0),
        ANTIDIAG: (0, -1, 0),
        RCP: (0, 0, 1),
        LCP: (0, 0, -1),
    }
    for state, (s1, s2, s3) in expected.items():
        s = pol.stokes_from_state(state)
        assert abs(s.s0 - 1) < ABS_TOL
        assert abs(s.s1 - s1) < ABS_TOL
        assert abs(s.s2 - s2) < ABS_TOL
        assert abs(s.s3 - s3) < ABS_TOL


def test_stokes_quarter_wave_example():
    s = pol.stokes_from_state(pol.PhotonState(RT2, 0.0, RT2, math.pi / 4))
    assert abs(s.s1) < ABS_TOL
    assert abs(s.s2 - RT2) < ABS_TOL
    assert abs(s.s3 - RT2) < ABS_TOL


def test_ellipse_stokes_round_trip():
    e = pol.PolarizationEllipse(math.radians(30), 0.0)
    s = ellipse_to_stokes(e)
    assert abs(s.s1 - math.cos(math.radians(60))) < ABS_TOL
    assert abs(s.s2 - math.sin(math.radians(60))) < ABS_TOL
    back = pol.stokes_to_ellipse(s)
    assert abs(back.rho - e.rho) < 1e-9
    assert abs(back.eta - e.eta) < 1e-9


@settings(deadline=None)
@given(
    st.floats(0.0, math.pi - 1e-9, allow_nan=False),
    # stay clear of the circular poles, where the orientation degenerates
    st.floats(-math.pi / 4 + 1e-4, math.pi / 4 - 1e-4, allow_nan=False),
)
def test_ellipse_round_trip_property(rho, eta):
    back = pol.stokes_to_ellipse(ellipse_to_stokes(pol.PolarizationEllipse(rho, eta)))
    assert abs(back.eta - eta) < 1e-9
    # rho wraps mod pi
    assert min(abs(back.rho - rho), abs(back.rho - rho + math.pi), abs(back.rho - rho - math.pi)) < 1e-7


def test_orientation_at_circular_pole_is_zero():
    e = pol.stokes_to_ellipse(pol.stokes_from_state(RCP))
    assert e.rho == 0.0
    assert abs(e.eta - math.pi / 4) < ABS_TOL


def test_analyzer_transmission_values():
    assert abs(pol.analyzer_transmission(DIAG, math.pi / 4) - 1.0) < ABS_TOL
    assert abs(pol.analyzer_transmission(X, math.pi / 2)) < ABS_TOL
    # Malus at 60 degrees
    assert abs(pol.analyzer_transmission(X, math.pi / 3) - 0.25) < ABS_TOL


@settings(deadline=None)
@given(photon_states(), st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False))
def test_analyzer_two_forms_agree(p, theta):
    direct = pol.analyzer_transmission(p, theta)
    via_stokes = pol.analyzer_transmission_stokes(p, theta)
    assert abs(direct - via_stokes) < ABS_TOL


@pytest.mark.parametrize("theta", [math.pi / 4, 3 * math.pi / 4], ids=["extinction", "full-pass"])
def test_stokes_transmission_uses_s0(theta):
    # |amps|^2 = 1 + 8e-13 passes the 1e-12 norm check; a stokes form with 1
    # in place of s0 misses the amplitude form by 4e-13 (and goes negative at
    # extinction)
    a = math.sqrt(0.5 + 4e-13)
    p = pol.PhotonState(a, 0.0, a, math.pi)
    direct = pol.analyzer_transmission(p, theta)
    assert abs(pol.analyzer_transmission_stokes(p, theta) - direct) < 1e-15


def test_circular_decomposition_of_basis_states():
    cx = pol.to_circular(X)
    assert abs(cx.beta_rcp - RT2) < ABS_TOL and abs(cx.beta_lcp - RT2) < ABS_TOL
    cy = pol.to_circular(Y)
    assert abs(cy.beta_rcp + 1j * RT2) < ABS_TOL and abs(cy.beta_lcp - 1j * RT2) < ABS_TOL
    crcp = pol.to_circular(RCP)
    assert abs(abs(crcp.beta_rcp) - 1.0) < ABS_TOL and abs(crcp.beta_lcp) < ABS_TOL


@settings(deadline=None)
@given(photon_states())
def test_circular_round_trip_and_stokes_equivalence(p):
    c = pol.to_circular(p)
    expected = RT2 * np.array([[1, -1j], [1, 1j]]) @ [p.cx, p.cy]
    assert np.allclose([c.beta_rcp, c.beta_lcp], expected, rtol=0, atol=ABS_TOL)
    s_lin = pol.stokes_from_state(p)
    s_circ = pol.stokes_from_circular(c)
    for name in ("s0", "s1", "s2", "s3"):
        assert abs(getattr(s_lin, name) - getattr(s_circ, name)) < ABS_TOL


def test_stokes_from_circular_example():
    c = pol.CircularDecomposition(math.cos(math.radians(22.5)), math.sin(math.radians(22.5)))
    s = pol.stokes_from_circular(c)
    assert abs(s.s1 - RT2) < ABS_TOL
    assert abs(s.s2) < ABS_TOL
    assert abs(s.s3 - RT2) < ABS_TOL


def test_bloch_coords_of_y_and_poles():
    b = pol.bloch_coords(pol.to_circular(Y))
    assert abs(b.theta0 - math.pi / 2) < ABS_TOL
    assert abs(b.phi0 - math.pi) < ABS_TOL
    north = pol.bloch_coords(pol.to_circular(RCP))
    assert north.theta0 < 1e-7
    assert north.phi0 == 0.0
    south = pol.bloch_coords(pol.to_circular(LCP))
    assert abs(south.theta0 - math.pi) < 1e-7
    assert south.phi0 == 0.0


def test_tiny_negative_orientation_wraps_to_zero():
    # atan2 gives -5e-18 for 2 rho; adding pi rounds to pi, which is outside [0, pi)
    assert pol.stokes_to_ellipse(pol.StokesVector(1.0, 1.0, -1e-17, 0.0)).rho == 0.0
    rho = pol.stokes_to_ellipse(pol.StokesVector(1.0, 0.0, -1.0, 0.0)).rho
    assert rho == -math.pi / 4 + math.pi
    # s2 = -0.0 makes atan2 return -0.0; a zero orientation still reads +0.0
    rho = pol.stokes_to_ellipse(pol.StokesVector(1.0, 1.0, -0.0, 0.0)).rho
    assert rho == 0.0 and math.copysign(1.0, rho) == 1.0


def test_tiny_negative_azimuth_wraps_to_zero():
    # -1e-17 % (2 pi) rounds to 2 pi, which is outside [0, 2 pi)
    assert pol.BlochCoords(math.pi / 2, -1e-17).phi0 == 0.0
    assert pol.BlochCoords(math.pi / 2, -0.5).phi0 == -0.5 % (2 * math.pi)
    state = pol.PhotonState(1.0, 0.0, 1e-16, math.pi)
    assert pol.bloch_coords(pol.to_circular(state)).phi0 == 0.0


def test_frame_rotation_quarter_turn_moves_x_to_y():
    y = turned(X, math.pi / 2)
    assert abs(y.alpha_x) < ABS_TOL
    assert abs(y.alpha_y - 1.0) < ABS_TOL
    # on the circular basis the turn is diagonal: e^{i chi} on RCP, e^{-i chi} on LCP
    c = pol.to_circular(y)
    assert abs(c.beta_rcp - 1j * RT2) < ABS_TOL
    assert abs(c.beta_lcp + 1j * RT2) < ABS_TOL


@settings(deadline=None)
@given(photon_states(), st.floats(-2 * math.pi, 2 * math.pi, allow_nan=False),
       st.floats(-math.pi, math.pi, allow_nan=False))
def test_frame_rotation_preserves_s3_and_latitude(p, chi, theta):
    q = turned(p, chi)
    c, d = pol.to_circular(p), pol.to_circular(q)
    assert abs(d.beta_rcp - c.beta_rcp * cmath.exp(1j * chi)) < 1e-9
    assert abs(d.beta_lcp - c.beta_lcp * cmath.exp(-1j * chi)) < 1e-9
    # an analyzer at theta in the turned frame sits at theta + chi in the original
    through_turned = pol.analyzer_transmission(q, theta)
    assert abs(through_turned - pol.analyzer_transmission(p, theta + chi)) < 1e-9
    # s3 stays; (s1, s2) turn through 2 chi, clockwise as the frame turns anticlockwise
    before, after = pol.stokes_from_state(p), pol.stokes_from_state(q)
    assert abs(before.s3 - after.s3) < 1e-9
    turn = cmath.exp(-2j * chi) * complex(before.s1, before.s2)
    assert abs(complex(after.s1, after.s2) - turn) < 1e-9


def test_photon_state_guards():
    with pytest.raises(ValueError):
        pol.PhotonState(1.0, 0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        pol.PhotonState(-1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        pol.StokesVector(1.0, 1.0, 1.0, 0.0)
    p = pol.PhotonState(0.6, math.pi, 0.8, math.pi / 2)
    assert abs(p.cx + 0.6) < ABS_TOL and abs(p.cy - 0.8j) < ABS_TOL


@pytest.mark.parametrize("build, message", [
    (lambda: pol.StokesVector(2.0, 0.0, 0.0, 0.0), "expected 1 for a normalized pure state"),
    (lambda: pol.PolarizationEllipse(math.pi, 0.0), r"outside \[0, pi\)"),
    (lambda: pol.PolarizationEllipse(0.0, 1.0), r"outside \[-pi/4, pi/4\]"),
    (lambda: pol.CircularDecomposition(1.0, 1.0), "circular decomposition not normalized"),
    (lambda: pol.BlochCoords(4.0, 0.0), r"outside \[0, pi\]"),
], ids=["stokes-s0", "ellipse-rho", "ellipse-eta", "circular-norm", "bloch-theta0"])
def test_input_checks_raise(build, message):
    with pytest.raises(ValueError, match=message):
        build()


NAN, INF = math.nan, math.inf
X_AXIS = (1.0, 0.0, 0.0)


@pytest.mark.parametrize("build", [
    lambda: pol.PhotonState(NAN, 0.0, 0.0, 0.0),
    lambda: pol.PhotonState(1.0, 0.0, NAN, 0.0),
    lambda: pol.PhotonState(1.0, NAN, 0.0, 0.0),
    lambda: pol.PhotonState(1.0, 0.0, 0.0, INF),
    lambda: pol.PhotonState(1.0, -INF, 0.0, 0.0),
    lambda: pol.StokesVector(1.0, NAN, 0.0, 0.0),
    lambda: pol.StokesVector(NAN, 1.0, 0.0, 0.0),
    lambda: pol.CircularDecomposition(NAN, 0.0),
    lambda: pol.BlochCoords(1.0, NAN),
    lambda: pol.BlochCoords(1.0, INF),
    lambda: spin.rotate_vector(X_AXIS, (NAN, 0.0, 0.0), 0.3),
    lambda: pol.analyzer_transmission(X, NAN),
    lambda: tensor.clamp_probability(NAN),
], ids=[
    "photon-alpha-x", "photon-alpha-y", "photon-phi-x", "photon-phi-y-inf", "photon-phi-x-minus-inf",
    "stokes-s1", "stokes-s0", "circular", "bloch-phi0", "bloch-phi0-inf",
    "spin-rotate-axis", "analyzer-theta", "clamp",
])
def test_nan_never_passes_an_invariant(build):
    # a NaN compares false with everything, so every check reads `not (... <= tol)`
    with pytest.raises(ValueError):
        build()
