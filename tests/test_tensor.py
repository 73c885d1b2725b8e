from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import tensor
from bellkit.tensor import (
    MatrixOperator,
    StateVector,
    apply,
    basis_state,
    inner,
    kron,
    kron_op,
    normalized,
    unitarity_deviation,
)

ABS_TOL = 1e-12

UP_DOWN = ("u", "d")


def _state(amps, labels=UP_DOWN):
    return StateVector(np.asarray(amps, dtype=complex), labels)


def test_kron_amplitudes_and_labels():
    a = _state([3 / 5, 4j / 5])
    b = _state([4 / 5, 3 / 5])
    prod = kron(a, b)
    expected = [12 / 25, 9 / 25, 16j / 25, 12j / 25]
    assert np.allclose(prod.amps, expected, atol=ABS_TOL)
    assert prod.labels == ("u⊗u", "u⊗d", "d⊗u", "d⊗d")


def test_kron_op_sigma_x_pair_is_antidiagonal():
    sx = MatrixOperator([[0, 1], [1, 0]])
    prod = kron_op(sx, sx).entries
    assert np.allclose(prod, np.fliplr(np.eye(4)), atol=ABS_TOL)


def test_apply_half_turn_sends_up_to_minus_down():
    # the zx-plane rotation at theta = pi maps (1,0) to (0,-1)
    u = MatrixOperator([[math.cos(math.pi / 2), math.sin(math.pi / 2)],
                        [-math.sin(math.pi / 2), math.cos(math.pi / 2)]])
    out = apply(u, basis_state(UP_DOWN, 0))
    assert np.allclose(out.amps, [0, -1], atol=ABS_TOL)


def test_apply_dim_mismatch():
    u = MatrixOperator(np.eye(3))
    with pytest.raises(ValueError):
        apply(u, basis_state(UP_DOWN, 0))


def test_probability_and_clamp():
    assert tensor.clamp_probability(-1e-16) == 0.0
    with pytest.raises(ValueError):
        tensor.clamp_probability(-1e-9)


def test_inner_orthogonality_and_conjugation_side():
    singlet = normalized([0, 1, -1, 0], ("a", "b", "c", "d"))
    triplet = normalized([0, 1, 1, 0], ("a", "b", "c", "d"))
    assert abs(inner(singlet, triplet)) < ABS_TOL
    a = _state([1 / math.sqrt(2), 1j / math.sqrt(2)])
    b = basis_state(UP_DOWN, 1)
    assert abs(inner(a, b) - (-1j / math.sqrt(2))) < ABS_TOL


def test_is_unitary_and_hermitian():
    h = MatrixOperator([[1, 1j], [-1j, -1]]).entries
    assert np.max(np.abs(h - h.conj().T)) <= tensor.TOL_UNITARY
    assert unitarity_deviation(MatrixOperator([[1, 0], [0, 2]])) > tensor.TOL_UNITARY
    theta = 0.7
    u = MatrixOperator([[math.cos(theta), math.sin(theta)],
                        [-math.sin(theta), math.cos(theta)]])
    assert unitarity_deviation(u) <= tensor.TOL_UNITARY


def test_unitarity_deviation_is_the_worst_entry():
    assert unitarity_deviation(MatrixOperator([[1, 0], [0, 2]])) == 3.0
    theta = 0.7
    u = MatrixOperator([[math.cos(theta), math.sin(theta)],
                        [-math.sin(theta), math.cos(theta)]])
    assert unitarity_deviation(u) <= tensor.TOL_UNITARY
    # U+ U - 1 and U U+ - 1 differ for a non-normal U; the larger one counts
    shear = MatrixOperator([[1, 1], [0, 1]])
    assert unitarity_deviation(shear) == 1.0


def test_constructor_guards():
    with pytest.raises(ValueError):
        StateVector([1, 0, 0, 0, 0], ("a", "b", "c", "d", "e"))  # dim 5 unsupported
    with pytest.raises(ValueError):
        StateVector([1, 1], UP_DOWN)  # not normalized
    with pytest.raises(ValueError):
        StateVector([1, 0], ("u",))  # label count
    with pytest.raises(ValueError):
        StateVector([1, 0], ("u", "u"))  # duplicate labels
    with pytest.raises(ValueError):
        normalized([0, 0], UP_DOWN)
    with pytest.raises(ValueError):
        StateVector([np.nan, 0], UP_DOWN)


@pytest.mark.parametrize("build, error, message", [
    (lambda: StateVector([[1, 0], [0, 0]], UP_DOWN), ValueError, "1-d amplitude array"),
    (lambda: MatrixOperator([[1, 0, 0], [0, 1, 0]]), ValueError, "square matrix"),
    (lambda: basis_state(UP_DOWN, 0).index_of("x"), KeyError, "no basis label"),
    (lambda: inner(basis_state(UP_DOWN, 0), basis_state(("a", "b", "c"), 0)), ValueError,
     "dim mismatch"),
], ids=["2d-amplitudes", "non-square", "missing-label", "inner-dims"])
def test_input_checks_raise(build, error, message):
    with pytest.raises(error, match=message):
        build()


def test_states_are_frozen():
    s = basis_state(UP_DOWN, 0)
    with pytest.raises(ValueError):
        s.amps[0] = 0.0


def test_same_up_to_phase():
    # states equal up to a global phase have |<a|b>| = 1
    s = _state([1 / math.sqrt(2), 1 / math.sqrt(2)])
    rotated = _state([c * np.exp(0.3j) for c in s.amps])
    assert abs(inner(s, rotated)) >= 1 - 10 * tensor.TOL_NORM
    assert abs(inner(s, basis_state(UP_DOWN, 0))) < 1 - 10 * tensor.TOL_NORM


@st.composite
def states(draw, dim=2):
    parts = draw(
        st.lists(
            st.floats(-1, 1, allow_nan=False, allow_infinity=False),
            min_size=2 * dim,
            max_size=2 * dim,
        )
    )
    vec = np.array([complex(parts[2 * k], parts[2 * k + 1]) for k in range(dim)])
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        norm = 1.0
    labels = tuple(f"b{k}" for k in range(dim))
    return StateVector(vec / norm, labels)


@settings(deadline=None)
@given(states(), states())
def test_kron_preserves_norm_and_inner_factorizes(a, b):
    prod = kron(a, b)
    assert abs(np.linalg.norm(prod.amps) - 1.0) < 1e-9
    lhs = inner(kron(a, b), kron(a, b))
    assert abs(lhs - inner(a, a) * inner(b, b)) < 1e-9


@settings(deadline=None)
@given(states(), states(), st.integers(0, 3), st.integers(0, 3))
def test_kron_op_mixed_product(a, b, i, j):
    # (A (x) B)(a (x) b) = (A a) (x) (B b) for a basis of operators
    ops = [np.eye(2), [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]]
    big = kron_op(MatrixOperator(ops[i]), MatrixOperator(ops[j]))
    left = big.entries @ kron(a, b).amps
    right = np.kron(np.asarray(ops[i]) @ a.amps, np.asarray(ops[j]) @ b.amps)
    assert np.allclose(left, right, atol=1e-9)
