"""Single-photon polarization: Stokes parameters, the ellipse picture, and the
circular (RCP/LCP) decomposition with its Bloch-sphere coordinates.

Angles are radians everywhere in this module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .tensor import TOL_NORM, clamp_probability

# Bloch/Poincare pole: below this distance from |s3| = 1 the azimuth is forced to 0.
POLE_TOL = 1e-9


@dataclass(frozen=True)
class PhotonState:
    """Pure polarization state  alpha_x e^{i phi_x} |x> + alpha_y e^{i phi_y} |y>
    with real alpha >= 0 and alpha_x^2 + alpha_y^2 = 1."""

    alpha_x: float
    phi_x: float
    alpha_y: float
    phi_y: float

    def __post_init__(self):
        if not (self.alpha_x >= 0 and self.alpha_y >= 0):
            raise ValueError("amplitude moduli must be non-negative")
        if not (math.isfinite(self.phi_x) and math.isfinite(self.phi_y)):
            raise ValueError(f"phases {self.phi_x!r}, {self.phi_y!r} must be finite")
        norm = self.alpha_x**2 + self.alpha_y**2
        if not abs(norm - 1.0) <= TOL_NORM:
            raise ValueError(f"photon state not normalized: alpha_x^2+alpha_y^2 = {norm!r}")

    @property
    def cx(self) -> complex:
        return self.alpha_x * cmath.exp(1j * self.phi_x)

    @property
    def cy(self) -> complex:
        return self.alpha_y * cmath.exp(1j * self.phi_y)


@dataclass(frozen=True)
class StokesVector:
    """(s0, s1, s2, s3) of a pure state: s0 = 1 and the point lies on the sphere."""

    s0: float
    s1: float
    s2: float
    s3: float

    def __post_init__(self):
        if not abs(self.s0 - 1.0) <= TOL_NORM:
            raise ValueError(f"s0 = {self.s0!r}, expected 1 for a normalized pure state")
        r2 = self.s1**2 + self.s2**2 + self.s3**2
        if not abs(r2 - self.s0**2) <= TOL_NORM:
            raise ValueError(f"not on the Poincare sphere: s1^2+s2^2+s3^2 = {r2!r}")


@dataclass(frozen=True)
class PolarizationEllipse:
    """Orientation rho in [0, pi) and ellipticity eta in [-pi/4, pi/4]."""

    rho: float
    eta: float

    def __post_init__(self):
        if not 0.0 <= self.rho < math.pi:
            raise ValueError(f"rho = {self.rho!r} outside [0, pi)")
        if not -math.pi / 4 - TOL_NORM <= self.eta <= math.pi / 4 + TOL_NORM:
            raise ValueError(f"eta = {self.eta!r} outside [-pi/4, pi/4]")


@dataclass(frozen=True)
class CircularDecomposition:
    """Complex amplitudes on the right/left circular basis."""

    beta_rcp: complex
    beta_lcp: complex

    def __post_init__(self):
        norm = abs(self.beta_rcp) ** 2 + abs(self.beta_lcp) ** 2
        if not abs(norm - 1.0) <= TOL_NORM:
            raise ValueError(f"circular decomposition not normalized: {norm!r}")


@dataclass(frozen=True)
class BlochCoords:
    """Polar/azimuthal angles on the RCP/LCP Bloch sphere; azimuth is 0 at a pole."""

    theta0: float
    phi0: float

    def __post_init__(self):
        if not -TOL_NORM <= self.theta0 <= math.pi + TOL_NORM:
            raise ValueError(f"theta0 = {self.theta0!r} outside [0, pi]")
        if not math.isfinite(self.phi0):
            raise ValueError(f"phi0 = {self.phi0!r} is not finite")
        phi = self.phi0 % (2 * math.pi)
        # A tiny negative azimuth wraps to a sum that rounds to 2 pi, which is 0.
        if phi == 2 * math.pi or self.theta0 <= POLE_TOL or self.theta0 >= math.pi - POLE_TOL:
            phi = 0.0
        object.__setattr__(self, "phi0", phi)


def stokes_from_state(p: PhotonState) -> StokesVector:
    """Stokes parameters from the linear amplitudes and their phase difference."""
    delta = p.phi_y - p.phi_x
    return StokesVector(
        p.alpha_x**2 + p.alpha_y**2,
        p.alpha_x**2 - p.alpha_y**2,
        2 * p.alpha_x * p.alpha_y * math.cos(delta),
        2 * p.alpha_x * p.alpha_y * math.sin(delta),
    )


def ellipse_to_stokes(e: PolarizationEllipse) -> StokesVector:
    """Longitude 2*rho and latitude 2*eta on the Poincare sphere."""
    return StokesVector(
        1.0,
        math.cos(2 * e.eta) * math.cos(2 * e.rho),
        math.cos(2 * e.eta) * math.sin(2 * e.rho),
        math.sin(2 * e.eta),
    )


def stokes_to_ellipse(s: StokesVector) -> PolarizationEllipse:
    """Inverse of ellipse_to_stokes; orientation is set to 0 at the circular poles."""
    if abs(s.s3) >= 1.0 - POLE_TOL:
        return PolarizationEllipse(0.0, math.copysign(math.pi / 4, s.s3))
    rho = 0.5 * math.atan2(s.s2, s.s1)
    if rho <= 0.0:  # -0.0 too, so that a zero orientation comes out as +0.0
        rho += math.pi
    if rho == math.pi:  # a zero or tiny negative orientation rounds up to pi, which is 0
        rho = 0.0
    eta = 0.5 * math.asin(max(-1.0, min(1.0, s.s3)))
    return PolarizationEllipse(rho, eta)


def analyzer_transmission(p: PhotonState, theta: float) -> float:
    """Probability through a linear analyzer whose pass axis sits at theta from x."""
    amp = p.cx * math.cos(theta) + p.cy * math.sin(theta)
    return clamp_probability(abs(amp) ** 2)


def analyzer_transmission_stokes(p: PhotonState, theta: float) -> float:
    """Same transmission from the Stokes vector, (s0 + s1 cos2theta + s2 sin2theta)/2;
    cross-check for the amplitude form."""
    s = stokes_from_state(p)
    return clamp_probability(0.5 * (s.s0 + s.s1 * math.cos(2 * theta) + s.s2 * math.sin(2 * theta)))


def to_circular(p: PhotonState) -> CircularDecomposition:
    """Re-express on the circular basis: beta_rcp = (cx - i cy)/sqrt2, beta_lcp = (cx + i cy)/sqrt2."""
    rt2 = math.sqrt(2.0)
    return CircularDecomposition((p.cx - 1j * p.cy) / rt2, (p.cx + 1j * p.cy) / rt2)


def stokes_from_circular(c: CircularDecomposition) -> StokesVector:
    """s1 + i s2 = 2 beta_lcp conj(beta_rcp); s3 = |beta_rcp|^2 - |beta_lcp|^2."""
    cross = 2.0 * c.beta_lcp * c.beta_rcp.conjugate()
    return StokesVector(
        abs(c.beta_rcp) ** 2 + abs(c.beta_lcp) ** 2,
        cross.real,
        cross.imag,
        abs(c.beta_rcp) ** 2 - abs(c.beta_lcp) ** 2,
    )


def bloch_coords(c: CircularDecomposition) -> BlochCoords:
    """Sphere coordinates with RCP at the north pole: cos(theta0/2) = |beta_rcp|."""
    theta0 = 2.0 * math.atan2(abs(c.beta_lcp), abs(c.beta_rcp))
    phi0 = cmath.phase(c.beta_lcp) - cmath.phase(c.beta_rcp)
    return BlochCoords(theta0, phi0)
