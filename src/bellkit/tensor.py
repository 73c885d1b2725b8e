"""Dense complex state vectors and operators on the small Hilbert spaces used here.

Every space in this package is one of dim 2 (photon polarization, spin-1/2),
3 (spin-1), 4 (two photons / two spins), 6 (spin-1 with spin-1/2) or 8 (three
photons).  Arrays are plain numpy, frozen after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

TOL_NORM = 1e-12
TOL_UNITARY = 1e-12

ALLOWED_DIMS = (2, 3, 4, 6, 8)


def _frozen_array(values, shape_kind: str) -> np.ndarray:
    arr = np.array(values, dtype=complex)
    if shape_kind == "vector" and arr.ndim != 1:
        raise ValueError(f"expected a 1-d amplitude array, got shape {arr.shape}")
    if shape_kind == "matrix" and (arr.ndim != 2 or arr.shape[0] != arr.shape[1]):
        raise ValueError(f"expected a square matrix, got shape {arr.shape}")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValueError("amplitudes must be finite")
    arr.setflags(write=False)
    return arr


def _check_dim(dim: int) -> None:
    if dim not in ALLOWED_DIMS:
        raise ValueError(f"dim {dim} not supported; expected one of {ALLOWED_DIMS}")


@dataclass(frozen=True)
class StateVector:
    """Normalized ket with one text label per basis vector."""

    amps: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "amps", _frozen_array(self.amps, "vector"))
        object.__setattr__(self, "labels", tuple(self.labels))
        _check_dim(self.dim)
        if len(self.labels) != self.dim:
            raise ValueError(f"{len(self.labels)} labels for dim {self.dim}")
        if len(set(self.labels)) != self.dim:
            raise ValueError("basis labels must be distinct")
        norm = float(np.sum(np.abs(self.amps) ** 2))
        if abs(norm - 1.0) > TOL_NORM:
            raise ValueError(f"state not normalized: |amps|^2 = {norm!r}")

    @property
    def dim(self) -> int:
        return self.amps.shape[0]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no basis label {label!r} in {self.labels}") from None


@dataclass(frozen=True)
class MatrixOperator:
    """Square complex matrix acting on a StateVector of matching dim."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _frozen_array(self.entries, "matrix"))
        _check_dim(self.dim)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def basis_state(labels, index: int) -> StateVector:
    """Computational basis ket |labels[index]>."""
    labels = tuple(labels)
    amps = np.zeros(len(labels), dtype=complex)
    amps[index] = 1.0
    return StateVector(amps, labels)


def normalized(amps, labels) -> StateVector:
    """StateVector from unnormalized amplitudes (error on the zero vector)."""
    arr = np.asarray(amps, dtype=complex)
    norm = np.linalg.norm(arr)
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return StateVector(arr / norm, labels)


def kron(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product a (x) b, a-major index order, labels joined with a tensor sign."""
    labels = tuple(f"{la}⊗{lb}" for la in a.labels for lb in b.labels)
    return StateVector(np.kron(a.amps, b.amps), labels)


def kron_op(a: MatrixOperator, b: MatrixOperator) -> MatrixOperator:
    """Tensor product of operators, index order matching kron()."""
    return MatrixOperator(np.kron(a.entries, b.entries))


def apply(op: MatrixOperator, state: StateVector) -> StateVector:
    """op |state>, keeping the basis labels."""
    if op.dim != state.dim:
        raise ValueError(f"operator dim {op.dim} != state dim {state.dim}")
    return StateVector(op.entries @ state.amps, state.labels)


def clamp_probability(p: float) -> float:
    """Round tiny negative float noise (>= -1e-15) up to 0; lower values and NaN raise."""
    if -1e-15 <= p < 0.0:
        return 0.0
    if not p >= 0.0:
        raise ValueError(f"probability {p!r} below the clamp window or undefined")
    return p


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b> with the conjugate on a."""
    if a.dim != b.dim:
        raise ValueError(f"dim mismatch {a.dim} != {b.dim}")
    return complex(np.vdot(a.amps, b.amps))


def unitarity_deviation(op: MatrixOperator) -> float:
    """Largest max-abs entry of U U+ - 1 and U+ U - 1 (NaN if either is NaN)."""
    u = op.entries
    eye = np.eye(op.dim)
    return float(
        np.maximum(np.max(np.abs(u @ u.conj().T - eye)), np.max(np.abs(u.conj().T @ u - eye)))
    )
