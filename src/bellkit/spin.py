"""Spin-1/2 and spin-1 rotation algebra: Pauli matrices, axis-angle and Euler
unitaries, numerically extracted generators, and two-spin composition
(singlet/triplet and the spin-1 with spin-1/2 ladder).

hbar = 1 throughout: angular-momentum operators are in units of hbar and their
squared eigenvalues in units of hbar^2.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import TOL_NORM, MatrixOperator, StateVector, kron_op

SPIN_HALF_LABELS = ("↑", "↓")
SPIN_ONE_LABELS = ("↑", "0", "↓")

_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# Fixed step pair for the generator finite-difference (Richardson) extraction,
# and how close the extracted matrix must land to the closed form.
GENERATOR_EPS = (1e-3, 5e-4)
GENERATOR_TOL = 1e-6


@dataclass(frozen=True)
class EulerAngles:
    """Euler triple: a spin of chi about z, then a tilt of theta about the
    in-plane axis (-sin phi, cos phi, 0).  All radians."""

    theta: float
    phi: float
    chi: float

    def __post_init__(self):
        if not (math.isfinite(self.theta) and math.isfinite(self.phi) and math.isfinite(self.chi)):
            raise ValueError(f"{self!r} has a non-finite angle")


def pauli(axis: str) -> MatrixOperator:
    if axis not in _SIGMA:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    return MatrixOperator(_SIGMA[axis])


def sigma_dot(a) -> MatrixOperator:
    """a . sigma for a 3-component a (complex components allowed)."""
    ax, ay, az = (complex(c) for c in a)
    return MatrixOperator(ax * _SIGMA["x"] + ay * _SIGMA["y"] + az * _SIGMA["z"])


def _unit_axis(n) -> np.ndarray:
    v = np.asarray(n, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"rotation axis must have 3 components, got shape {v.shape}")
    if not abs(float(v @ v) - 1.0) <= TOL_NORM:
        raise ValueError(f"rotation axis must be unit length, |n|^2 = {float(v @ v)!r}")
    return v


def unitary_axis_angle(n, theta: float) -> MatrixOperator:
    """cos(theta/2) I + i sin(theta/2) (n . sigma) for a unit axis n.  A
    non-finite theta raises ValueError."""
    v = _unit_axis(n)
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    return MatrixOperator(
        math.cos(theta / 2) * np.eye(2) + 1j * math.sin(theta / 2) * sigma_dot(v).entries
    )


def unitary_exp(n, theta: float) -> MatrixOperator:
    """exp[i (theta/2) n . sigma] summed as a power series, until a term's
    largest entry falls below 1e-17 (at most 60 terms), at theta reduced by
    the period 4 pi into [-2 pi, 2 pi].  math.remainder is exact and keeps
    |theta| <= 2 pi as given; the float 4 pi is not, so the result drifts by
    up to about |theta| * 2^-52 (2e-11 at theta = 1e6).  A non-finite theta
    raises ValueError."""
    v = _unit_axis(n)
    if not math.isfinite(theta):
        raise ValueError(f"rotation angle must be finite, got {theta!r}")
    a = 0.5j * math.remainder(theta, 4 * math.pi) * sigma_dot(v).entries
    acc = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, 60):
        term = term @ a / k
        acc = acc + term
        if float(np.max(np.abs(term))) < 1e-17:
            break
    return MatrixOperator(acc)


def rotate_vector(a, n, theta: float) -> np.ndarray:
    """Rotate coordinates of a through theta about unit n (left-hand rule):
    a' = (a.n) n + sin(theta) (a x n) + cos(theta) [a - (a.n) n]."""
    v = _unit_axis(n)
    a = np.asarray(a, dtype=float)
    if not (math.isfinite(theta) and np.isfinite(a).all()):
        raise ValueError(f"vector {a} and angle {theta!r} must be finite")
    along = (a @ v) * v
    return along + math.sin(theta) * np.cross(a, v) + math.cos(theta) * (a - along)


def conjugate_check(a, n, theta: float) -> float:
    """Max-entry deviation of u (a.sigma) u+ from (a'.sigma), a' = rotate_vector."""
    u = unitary_axis_angle(n, theta).entries
    lhs = u @ sigma_dot(a).entries @ u.conj().T
    rhs = sigma_dot(rotate_vector(a, n, theta)).entries
    return float(np.max(np.abs(lhs - rhs)))


def euler_rotation_su2(e: EulerAngles) -> MatrixOperator:
    """Closed-form 2x2 rotation for Euler angles (theta, phi, chi)."""
    ct, st = math.cos(e.theta / 2), math.sin(e.theta / 2)
    return MatrixOperator([
        [ct * cmath.exp(0.5j * e.chi), st * cmath.exp(-1j * (e.phi + 0.5 * e.chi))],
        [-st * cmath.exp(1j * (e.phi + 0.5 * e.chi)), ct * cmath.exp(-0.5j * e.chi)],
    ])


def spin_half_operator(axis: str) -> MatrixOperator:
    """S = sigma/2 in units of hbar."""
    return MatrixOperator(0.5 * pauli(axis).entries)


def spin_one_operator(axis: str) -> MatrixOperator:
    """J on the (m = +1, 0, -1) basis, in units of hbar."""
    rt2 = 1.0 / math.sqrt(2.0)
    mats = {
        "x": rt2 * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex),
        "y": rt2 * np.array([[0, -1j, 0], [1j, 0, -1j], [0, 1j, 0]], dtype=complex),
        "z": np.array([[1, 0, 0], [0, 0, 0], [0, 0, -1]], dtype=complex),
    }
    if axis not in mats:
        raise ValueError(f"axis must be one of x, y, z; got {axis!r}")
    return MatrixOperator(mats[axis])


def _euler_family(axis: str, eps: float) -> EulerAngles:
    # Small rotations about each lab axis, written as Euler triples.
    if axis == "x":
        return EulerAngles(eps, -math.pi / 2, 0.0)
    if axis == "y":
        return EulerAngles(eps, 0.0, 0.0)
    if axis == "z":
        return EulerAngles(0.0, 0.0, eps)
    raise ValueError(f"axis must be one of x, y, z; got {axis!r}")


@dataclass(frozen=True)
class GeneratorResult:
    """Largest entry deviation of the extracted generator from the closed form."""

    deviation: float


def generator_from_rotation(axis: str, spin: str) -> GeneratorResult:
    """Extract the generator from small rotations: G = lim (R(eps) - 1) / (i eps).

    Uses the two fixed steps in GENERATOR_EPS with one Richardson step
    (2 G(eps/2) - G(eps)), which cancels the O(eps) bias of the one-sided
    difference and lands within 1e-6 of the closed form.
    """
    if spin == "half":
        rot, closed = euler_rotation_su2, spin_half_operator(axis)
    elif spin == "one":
        rot, closed = euler_rotation_spin1, spin_one_operator(axis)
    else:
        raise ValueError(f"spin must be 'half' or 'one'; got {spin!r}")
    eps1, eps2 = GENERATOR_EPS
    eye = np.eye(closed.dim)

    def g(eps):
        return (rot(_euler_family(axis, eps)).entries - eye) / (1j * eps)

    numeric = 2.0 * g(eps2) - g(eps1)
    deviation = float(np.max(np.abs(numeric - closed.entries)))
    return GeneratorResult(deviation)


def euler_rotation_spin1(e: EulerAngles) -> MatrixOperator:
    """Closed-form 3x3 rotation on the (m = +1, 0, -1) basis."""
    ct, st = math.cos(e.theta), math.sin(e.theta)
    rt2 = 1.0 / math.sqrt(2.0)
    ei = cmath.exp
    return MatrixOperator([
        [
            0.5 * (1 + ct) * ei(1j * e.chi),
            rt2 * st * ei(-1j * e.phi),
            0.5 * (1 - ct) * ei(-1j * (2 * e.phi + e.chi)),
        ],
        [
            -rt2 * st * ei(1j * (e.phi + e.chi)),
            ct,
            rt2 * st * ei(-1j * (e.phi + e.chi)),
        ],
        [
            0.5 * (1 - ct) * ei(1j * (2 * e.phi + e.chi)),
            -rt2 * st * ei(1j * e.phi),
            0.5 * (1 + ct) * ei(-1j * e.chi),
        ],
    ])


def _pair_labels() -> tuple[str, ...]:
    return tuple(f"{a}⊗{b}" for a in SPIN_HALF_LABELS for b in SPIN_HALF_LABELS)


@functools.cache
def singlet_triplet_basis() -> tuple[StateVector, StateVector, StateVector, StateVector]:
    """(singlet, triplet m=+1, triplet m=0, triplet m=-1) on the two-spin space.

    Built and validated once; every caller shares the same frozen states."""
    labels = _pair_labels()
    rt2 = 1.0 / math.sqrt(2.0)
    return (
        StateVector([0, rt2, -rt2, 0], labels),
        StateVector([1, 0, 0, 0], labels),
        StateVector([0, rt2, rt2, 0], labels),
        StateVector([0, 0, 0, 1], labels),
    )


def two_spin_s2() -> MatrixOperator:
    """Total S^2 for two spin-1/2, in units of hbar^2:
    (1/2)(3 + sigma1.sigma2) summed over components."""
    acc = 3.0 * np.eye(4, dtype=complex)
    for axis in "xyz":
        s = _SIGMA[axis]
        acc = acc + np.kron(s, s)
    return MatrixOperator(0.5 * acc)


def two_spin_sz() -> MatrixOperator:
    """Total S_z for two spin-1/2, in units of hbar."""
    return MatrixOperator(
        0.5 * (np.kron(_SIGMA["z"], np.eye(2)) + np.kron(np.eye(2), _SIGMA["z"]))
    )


def spin1_from_pair(e: EulerAngles) -> MatrixOperator:
    """Rotation on the spin-1 space built the long way round: rotate both halves
    of a two-spin-1/2 pair and restrict to the triplet subspace."""
    u2 = euler_rotation_su2(e)
    u4 = kron_op(u2, u2).entries
    _, t_up, t_zero, t_down = singlet_triplet_basis()
    t = np.column_stack([t_up.amps, t_zero.amps, t_down.amps])
    return MatrixOperator(t.conj().T @ u4 @ t)


# --- spin-1 coupled with spin-1/2 ------------------------------------------

COUPLED_LABELS = tuple(f"{a}⊗{b}" for a in SPIN_ONE_LABELS for b in SPIN_HALF_LABELS)


def _embed(op_a: MatrixOperator, op_b: MatrixOperator) -> np.ndarray:
    return np.kron(op_a.entries, np.eye(2)) + np.kron(np.eye(3), op_b.entries)


def total_jz() -> MatrixOperator:
    """z component of the summed angular momentum on the 6-dim product space."""
    return MatrixOperator(_embed(spin_one_operator("z"), spin_half_operator("z")))


def total_j2() -> MatrixOperator:
    """(J + S)^2 on the 6-dim product space, in units of hbar^2."""
    acc = np.zeros((6, 6), dtype=complex)
    for axis in "xyz":
        comp = _embed(spin_one_operator(axis), spin_half_operator(axis))
        acc = acc + comp @ comp
    return MatrixOperator(acc)


@dataclass(frozen=True)
class CoupledEigenstate:
    """Simultaneous eigenstate of total J^2 and J_z on the 6-dim space."""

    state: StateVector
    j: float
    jz: float


def coupled_eigenstates() -> tuple[CoupledEigenstate, ...]:
    """The j=3/2 quadruplet then the j=1/2 doublet, each by descending jz."""
    rt3 = 1.0 / math.sqrt(3.0)
    rt23 = math.sqrt(2.0 / 3.0)

    def sv(amps):
        return StateVector(amps, COUPLED_LABELS)

    # basis order: up.up, up.dn, 0.up, 0.dn, dn.up, dn.dn  (spin-1 slot first)
    return (
        CoupledEigenstate(sv([1, 0, 0, 0, 0, 0]), 1.5, 1.5),
        CoupledEigenstate(sv([0, rt3, rt23, 0, 0, 0]), 1.5, 0.5),
        CoupledEigenstate(sv([0, 0, 0, rt23, rt3, 0]), 1.5, -0.5),
        CoupledEigenstate(sv([0, 0, 0, 0, 0, 1]), 1.5, -1.5),
        CoupledEigenstate(sv([0, rt23, -rt3, 0, 0, 0]), 0.5, 0.5),
        CoupledEigenstate(sv([0, 0, 0, -rt3, rt23, 0]), 0.5, -0.5),
    )
