"""The batched quantum readout in bellkit.experiments against the per-call
object path it replaced, kept here as the reference, plus physical invariants
and Tsirelson's bound.  The exact sympy oracles live in test_quantum_oracles."""

from __future__ import annotations

import itertools
import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellkit import experiments as ex
from bellkit import spin, tensor
from bellkit.tensor import MatrixOperator, StateVector, apply, kron, kron_op, normalized

SEED = 20261019
TOL = 1e-12
TSIRELSON = 2 * math.sqrt(2)


# --- reference: one validated object per step ---------------------------------


def ref_rotation(theta: float) -> MatrixOperator:
    c, s = math.cos(theta), math.sin(theta)
    return MatrixOperator([[c, s], [-s, c]])


class RefDistribution(NamedTuple):
    """One run as labeled (outcomes, probability) rows.  Its label-based
    correlation is the oracle for the library's +/-1 arithmetic."""

    settings: tuple
    outcomes: tuple
    labels: tuple

    def correlation(self) -> float:
        total = 0.0
        for row, p in self.outcomes:
            sign = 1
            for label in row:
                sign *= 1 if label in ("pass", "↑") else -1
            total += sign * p
        return total

    def distribution(self) -> ex.OutcomeDistribution:
        """The same probabilities through the library's constructor."""
        return ex.OutcomeDistribution(
            self.settings, tuple(p for _, p in self.outcomes), self.labels
        )


def ref_distribution(state, settings, plus_indices, outcome_labels) -> RefDistribution:
    rows = []
    for choice in itertools.product((0, 1), repeat=len(plus_indices)):
        index = 0
        for p, c in enumerate(choice):
            local = plus_indices[p] if c == 0 else 1 - plus_indices[p]
            index = 2 * index + local
        labels = tuple(outcome_labels[c] for c in choice)
        rows.append((labels, tensor.probability(state, index)))
    return RefDistribution(tuple(settings), tuple(rows), outcome_labels)


def ref_basis():
    return tensor.basis_state(("x", "y"), 0), tensor.basis_state(("x", "y"), 1)


def ref_pair_state() -> StateVector:
    bx, by = ref_basis()
    return normalized(kron(bx, by).amps + kron(by, bx).amps, kron(bx, by).labels)


def ref_hardy_state() -> StateVector:
    bx, by = ref_basis()
    amps = kron(bx, bx).amps - kron(bx, by).amps - kron(by, bx).amps - 3 * kron(by, by).amps
    return normalized(amps, kron(bx, bx).labels)


def ref_ghz_state() -> StateVector:
    bx, by = ref_basis()

    def triple(a, b, c):
        return kron(kron(a, b), c)

    amps = (triple(by, by, by).amps - triple(by, bx, bx).amps
            - triple(bx, by, bx).amps - triple(bx, bx, by).amps)
    return normalized(amps, triple(bx, bx, bx).labels)


def ref_singlet_state() -> StateVector:
    up = tensor.basis_state(spin.SPIN_HALF_LABELS, 0)
    dn = tensor.basis_state(spin.SPIN_HALF_LABELS, 1)
    return normalized(kron(up, dn).amps - kron(dn, up).amps, kron(up, dn).labels)


def ref_pair(t1, t2):
    rot = kron_op(ref_rotation(t1), ref_rotation(-t2))
    return ref_distribution(apply(rot, ref_pair_state()), (t1, t2), (0, 1),
                            ex.PHOTON_OUTCOMES)


def ref_hardy(t1, t2):
    rot = kron_op(ref_rotation(t1), ref_rotation(t2))
    return ref_distribution(apply(rot, ref_hardy_state()), (t1, t2), (0, 0),
                            ex.PHOTON_OUTCOMES)


def ref_singlet(t1, t2):
    u1 = spin.euler_rotation_su2(spin.EulerAngles(t1, 0.0, 0.0))
    u2 = spin.euler_rotation_su2(spin.EulerAngles(t2, 0.0, 0.0))
    return ref_distribution(apply(kron_op(u1, u2), ref_singlet_state()), (t1, t2), (0, 0),
                            ex.ELECTRON_OUTCOMES)


def ref_ghz_distribution(case):
    a = ex.GHZ_CASES[case]
    rot = kron_op(kron_op(ref_rotation(a[0]), ref_rotation(a[1])), ref_rotation(a[2]))
    return ref_distribution(apply(rot, ref_ghz_state()), a, (0, 0, 0), ex.PHOTON_OUTCOMES)


def ref_ghz(case):
    dist = ref_ghz_distribution(case)
    p_even = sum(p for row, p in dist.outcomes if row.count("pass") % 2 == 0)
    p_odd = sum(p for row, p in dist.outcomes if row.count("pass") % 2 == 1)
    return ex.GhzParity(dist.distribution(), p_even, p_odd)


def ref_chsh(t1, t1p, t2, t2p, system):
    dist = {"photon": ref_pair, "electron": ref_singlet}[system]
    e = [dist(a, b).correlation() for a, b in ((t1, t2), (t1, t2p), (t1p, t2), (t1p, t2p))]
    return e[0] + e[1] + e[2] - e[3]


# --- inputs ------------------------------------------------------------------

LANDMARKS = (0.0, math.pi / 4, math.pi / 2, math.pi / 6, 2 * math.pi / 3, -math.pi / 4,
             3 * math.pi / 8, math.pi)


def random_angles(rng: random.Random, n: int) -> list[float]:
    out = []
    for _ in range(n):
        kind = rng.random()
        if kind < 0.15:
            out.append(rng.choice(LANDMARKS))
        elif kind < 0.3:
            out.append(rng.uniform(-1e3, 1e3))
        else:
            out.append(rng.uniform(-2 * math.pi, 2 * math.pi))
    return out


PAIRS = list(zip(random_angles(random.Random(SEED), 600), random_angles(random.Random(SEED + 1), 600)))


# --- differential: same bits as the per-call object path ----------------------


@pytest.mark.parametrize("new, ref", [
    (ex.entangled_pair_distribution, ref_pair),
    (ex.electron_singlet_distribution, ref_singlet),
    (lambda a, b: ex.hardy_distribution(a, b, allow_general=True), ref_hardy),
], ids=["pair", "singlet", "hardy"])
def test_two_party_distributions_bit_equal(new, ref):
    for a, b in PAIRS:
        got, want = new(a, b), ref(a, b)
        assert got.outcomes == want.outcomes, (a, b)
        assert got.settings == want.settings
        assert got == want.distribution()


def test_quoted_hardy_cases_bit_equal():
    for a, b in ex.HARDY_CASES.values():
        assert ex.hardy_distribution(a, b).outcomes == ref_hardy(a, b).outcomes


@pytest.mark.parametrize("case", sorted(ex.GHZ_CASES))
def test_ghz_cases_bit_equal(case):
    got, want = ex.ghz_parity_distribution(case), ref_ghz(case)
    assert got.distribution == want.distribution
    assert got.distribution.outcomes == ref_ghz_distribution(case).outcomes
    assert (got.p_even, got.p_odd) == (want.p_even, want.p_odd)


@pytest.mark.parametrize("system", ["photon", "electron"])
def test_chsh_bit_equal(system):
    rng = random.Random(SEED + 2)
    quads = [tuple(random_angles(rng, 4)) for _ in range(200)]
    quads += [ex.CHSH_PHOTON_SETTINGS, ex.CHSH_ELECTRON_SETTINGS]
    for quad in quads:
        assert ex.chsh_quantum(*quad, system=system) == ref_chsh(*quad, system), quad


def test_pair_correlations_bit_equal_to_scalar_path():
    theta1s = [a for a, _ in PAIRS]
    theta2s = [b for _, b in PAIRS]
    batch = ex.pair_correlations(theta1s, theta2s)
    assert batch == [ref_pair(a, b).correlation() for a, b in PAIRS]
    assert batch == [ex.entangled_pair_distribution(a, b).correlation() for a, b in PAIRS]
    assert ex.pair_correlations([], []) == []


def test_singlet_rotation_is_su2_tilt():
    # the electron path rotates through theta/2 with a real 2x2; the same
    # matrix as the SU(2) Euler rotation with phi = chi = 0
    for theta in random_angles(random.Random(SEED + 3), 50):
        su2 = spin.euler_rotation_su2(spin.EulerAngles(theta, 0.0, 0.0)).entries
        assert np.array_equal(ex._rotations([theta / 2])[0], su2)


# --- invariants: normalization and no-signalling -------------------------------


def _marginal(dist, party, plus):
    return math.fsum(p for row, p in dist.outcomes if row[party] == plus)


@pytest.mark.parametrize("make, plus", [
    (ex.entangled_pair_distribution, "pass"),
    (ex.electron_singlet_distribution, "↑"),
    (lambda a, b: ex.hardy_distribution(a, b, allow_general=True), "pass"),
], ids=["pair", "singlet", "hardy"])
def test_two_party_normalized_and_no_signalling(make, plus):
    rng = random.Random(SEED + 4)
    for _ in range(200):
        a, ap, b, bp = random_angles(rng, 4)
        runs = {(x, y): make(x, y) for x in (a, ap) for y in (b, bp)}
        for dist in runs.values():
            assert abs(math.fsum(p for _, p in dist.outcomes) - 1.0) <= TOL
            assert all(p >= 0.0 for _, p in dist.outcomes)
        for x in (a, ap):
            assert abs(_marginal(runs[x, b], 0, plus) - _marginal(runs[x, bp], 0, plus)) <= TOL
        for y in (b, bp):
            assert abs(_marginal(runs[a, y], 1, plus) - _marginal(runs[ap, y], 1, plus)) <= TOL


def test_ghz_normalized_and_no_signalling():
    dists = {case: ex.ghz_parity_distribution(case).distribution for case in ex.GHZ_CASES}
    for dist in dists.values():
        assert abs(math.fsum(p for _, p in dist.outcomes) - 1.0) <= TOL
    for party in range(3):
        for x, y in itertools.combinations(sorted(dists), 2):
            if ex.GHZ_CASES[x][party] == ex.GHZ_CASES[y][party]:
                diff = _marginal(dists[x], party, "pass") - _marginal(dists[y], party, "pass")
                assert abs(diff) <= TOL, (party, x, y)
    # the same through the batch core at random three-party settings
    rng = random.Random(SEED + 5)
    first, others = random_angles(rng, 1)[0], [random_angles(rng, 2) for _ in range(40)]
    rows = ex._born_rows(ex.ghz_state(), ([first] * 40, [o[0] for o in others],
                                          [o[1] for o in others]), (0, 0, 0))
    party1 = [math.fsum(row[:4]) for row in rows]
    assert max(party1) - min(party1) <= TOL
    assert all(abs(math.fsum(row) - 1.0) <= TOL for row in rows)


angle = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi, allow_nan=False)


@settings(max_examples=300, deadline=None)
@given(angle, angle, angle, angle, st.sampled_from(["photon", "electron"]))
def test_tsirelson_bound(t1, t1p, t2, t2p, system):
    assert abs(ex.chsh_quantum(t1, t1p, t2, t2p, system=system)) <= TSIRELSON + 1e-12


# --- edges: constants built once, angles checked once, batches norm-checked ---


def test_states_built_once_and_shared():
    for make in (ex.entangled_pair_state, ex.hardy_state, ex.ghz_state,
                 ex.electron_singlet_state, spin.singlet_triplet_basis):
        assert make() is make()
    assert not ex.entangled_pair_state().amps.flags.writeable


def test_readout_builds_no_tensor_objects(monkeypatch):
    ex.chsh_quantum(*ex.CHSH_PHOTON_SETTINGS)  # warm the shared states
    ex.chsh_quantum(*ex.CHSH_ELECTRON_SETTINGS, system="electron")
    ex.hardy_distribution(0.0, 0.0)
    ex.ghz_parity_distribution("A")

    def refuse(*args, **kwargs):
        raise AssertionError("a StateVector or MatrixOperator was built")

    monkeypatch.setattr(tensor, "_frozen_array", refuse)
    ex.entangled_pair_distribution(0.1, 0.2)
    ex.electron_singlet_distribution(0.1, 0.2)
    ex.hardy_distribution(0.1, 0.2, allow_general=True)
    ex.ghz_parity_distribution("B")
    ex.chsh_quantum(0.1, 0.2, 0.3, 0.4, system="electron")
    ex.pair_correlations([0.1, 0.2], [0.3, 0.4])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_angles_rejected(bad):
    calls = [
        lambda: ex.entangled_pair_distribution(bad, 0.0),
        lambda: ex.entangled_pair_distribution(0.0, bad),
        lambda: ex.pair_correlations([0.0, bad], [0.0, 0.0]),
        lambda: ex.electron_singlet_distribution(0.0, bad),
        lambda: ex.electron_correlation(bad, 0.0),
        lambda: ex.hardy_distribution(bad, 0.0),
        lambda: ex.hardy_distribution(0.0, bad, allow_general=True),
        lambda: ex.chsh_correlations(0.0, 0.0, bad, 0.0),
        lambda: ex.chsh_quantum(0.0, 0.0, 0.0, bad, system="electron"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


def test_outcome_distribution_rejects_nan():
    settings = (0.0, 0.0)
    with pytest.raises(ValueError):
        ex.OutcomeDistribution(settings, (math.nan,) * 4, ex.PHOTON_OUTCOMES)


def test_pair_correlations_length_mismatch():
    with pytest.raises(ValueError):
        ex.pair_correlations([0.0, 1.0], [0.0])


def test_batch_norm_check_raises_runtime_error():
    class Unnormalized:
        amps = np.array([0, 1, 1, 0], dtype=complex)

    with pytest.raises(RuntimeError, match="not normalized"):
        ex._born_rows(Unnormalized(), ([0.1, 0.2], [0.3, 0.4]), (0, 1))
