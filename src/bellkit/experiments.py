"""Joint-outcome distributions for the entangled-pair, Hardy, GHZ and
two-electron singlet experiments, each computed by rotating the shared state
into the analyzer bases (never by substituting a closed-form answer).

Angles are radians.  Outcomes are +1 (pass / spin-up) and -1 (stop / spin-down).
An OutcomeDistribution holds one probability row in itertools.product((+1, -1))
order over the parties, and every figure is a sum over those signs; the
carrier's labels exist only in the views outcomes and probability_of.

The shared states are constants written as their amplitude vectors: each is
built and validated once, on first use, and the same frozen ``StateVector``
is returned to every caller after that.

Every distribution goes through one batched readout core, ``_born_rows``.
It takes a state and one sequence of basis-rotation angles per party, builds
the stacked 2x2 rotations, forms their Kronecker products by broadcasting,
applies them to the state in one stacked matmul and reads the Born
probabilities off in outcome order.  A photon analyzer at theta re-expresses
the amplitudes in a linear basis rotated through theta; a Stern-Gerlach axis
tilted through theta in the zx-plane is the same 2x2 rotation through theta/2
(the SU(2) Euler rotation with phi = chi = 0).  The scalar ``*_distribution``
functions are thin wrappers around it, ``chsh_correlations`` makes one call for
its four runs and ``pair_correlations`` one call for a whole sweep.

``HARDY_CASES`` and ``GHZ_CASES`` are the one home of the quoted settings
(``lhvt`` builds its scenarios from them, the CLI and the Hardy angle check
print them), as ``chsh_runs`` and ``chsh_combination`` are of the CHSH run
order and E11 + E12 + E21 - E22.

Validation happens at the edges: every angle is checked for finiteness once,
where it enters a public function (``ValueError``), and each rotated batch
gets one vectorized norm check, which raises ``RuntimeError`` because with
finite angles a failure is an internal fault.  No intermediate operator or
state object is built or re-validated.  ``OutcomeDistribution`` still
validates what outside callers construct.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import spin, tensor
from .tensor import StateVector, normalized

PHOTON_OUTCOMES = ("pass", "stop")
ELECTRON_OUTCOMES = spin.SPIN_HALF_LABELS

# Joint analyzer settings at which each named scenario is quoted (radians).
HARDY_CASES = {
    "A": (0.0, 0.0),
    "B": (math.pi / 4, 0.0),
    "C": (0.0, math.pi / 4),
    "D": (math.pi / 4, math.pi / 4),
}
GHZ_CASES = {
    "A": (0.0, 0.0, 0.0),
    "B": (math.pi / 4, math.pi / 4, 0.0),
    "C": (math.pi / 4, 0.0, math.pi / 4),
    "D": (0.0, math.pi / 4, math.pi / 4),
}
_HARDY_ANGLES = frozenset(itertools.chain(*HARDY_CASES.values()))

# Analyzer quadruples (theta1, theta1', theta2, theta2') that extremize the
# four-correlation combination for each carrier.
CHSH_PHOTON_SETTINGS = (math.pi / 4, math.pi / 2, 3 * math.pi / 8, math.pi / 8)
CHSH_ELECTRON_SETTINGS = (0.0, math.pi / 2, math.pi / 4, -math.pi / 4)


@functools.cache
def _joint(values: tuple, parties: int) -> tuple[tuple, ...]:
    """Every joint outcome over the per-party values, in row order."""
    return tuple(itertools.product(values, repeat=parties))


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities of every joint +/-1 outcome of one run: probabilities[i]
    belongs to signs[i].  settings[p] is party p's analyzer angle (radians,
    measured in its own frame).  labels names the carrier's +1 and -1
    outcomes for the labeled views, outcomes and probability_of."""

    settings: tuple[float, ...]
    probabilities: tuple[float, ...]
    labels: tuple[str, str]

    def __post_init__(self):
        if len(self.probabilities) != 2 ** len(self.settings):
            raise ValueError(f"expected {2 ** len(self.settings)} probabilities")
        if len(self.labels) != 2 or self.labels[0] == self.labels[1]:
            raise ValueError(f"labels must name two distinct outcomes; got {self.labels!r}")
        total = 0.0
        for p in self.probabilities:
            if not p >= 0.0:
                raise ValueError(f"negative or undefined probability {p!r}")
            total += p
        if not abs(total - 1.0) <= tensor.TOL_NORM:
            raise ValueError(f"probabilities sum to {total!r}")

    @property
    def signs(self) -> tuple[tuple[int, ...], ...]:
        return _joint((1, -1), len(self.settings))

    @property
    def outcomes(self) -> tuple[tuple[tuple[str, ...], float], ...]:
        return tuple(zip(_joint(self.labels, len(self.settings)), self.probabilities))

    def probability_of(self, *labels: str) -> float:
        for row, p in self.outcomes:
            if row == labels:
                return p
        raise KeyError(f"no outcome {labels!r}")

    def agreement(self) -> float:
        """Probability that every party reports the same outcome."""
        return sum(p for signs, p in zip(self.signs, self.probabilities) if len(set(signs)) == 1)

    def antiparallel(self) -> float:
        """Two-party probability that the outcomes differ."""
        if len(self.settings) != 2:
            raise ValueError("antiparallel() needs a two-party distribution")
        return sum(p for (a, b), p in zip(self.signs, self.probabilities) if a != b)

    def correlation(self) -> float:
        """Expected product of the +/-1 outcome values."""
        return sum(math.prod(signs) * p for signs, p in zip(self.signs, self.probabilities))


# --- edge checks and the batched readout core ---------------------------------


def _check_finite(*angles: float) -> None:
    for angle in angles:
        if not math.isfinite(angle):
            raise ValueError(f"analyzer angles must be finite; got {angle!r}")


def _rotations(thetas) -> np.ndarray:
    """Stacked [[cos, sin], [-sin, cos]]: amplitudes re-expressed in a basis
    rotated through each theta.  Shape (len(thetas), 2, 2)."""
    entries = [(c, s, -s, c) for c, s in ((math.cos(t), math.sin(t)) for t in thetas)]
    return np.array(entries, dtype=complex).reshape(-1, 2, 2)


def _born_rows(state: StateVector, angles, plus: tuple[int, ...]) -> list[list[float]]:
    """Joint probabilities for a batch of runs, one row per run.

    angles[p][k] is party p's basis-rotation angle in run k.  Row k lists the
    probabilities of the joint outcomes in itertools.product order over
    (+1, -1) per party; plus[p] is the local basis index (0 or 1) that party p
    reports as +1.
    """
    op = _rotations(angles[0])
    for thetas in angles[1:]:
        r = _rotations(thetas)
        n, d = op.shape[0], op.shape[1]
        op = (op[:, :, None, :, None] * r[:, None, :, None, :]).reshape(n, 2 * d, 2 * d)
    amps = op @ state.amps
    v = amps.view(float)
    norms = (v * v).sum(axis=1)
    if not abs(norms - 1.0).max(initial=0.0) <= tensor.TOL_NORM:
        raise RuntimeError(f"rotated states not normalized: |amps|^2 = {norms.tolist()!r}")
    # Outcome i (bits: each party's +1/-1 choice) sits at basis index i ^ mask.
    mask = 0
    for bit in plus:
        mask = 2 * mask + bit
    order = [i ^ mask for i in range(2 ** len(plus))]
    # Python's abs and ** (not numpy's array forms) give the same bits as a
    # per-run scalar readout.
    return [[abs(row[i]) ** 2 for i in order] for row in amps.tolist()]


def _distribution(row: list[float], angles, outcome_labels) -> OutcomeDistribution:
    return OutcomeDistribution(tuple(angles), tuple(row), outcome_labels)


def _correlations(rows, runs, labels) -> list[float]:
    """The correlation of each row's distribution; runs[k] holds row k's angles."""
    return [_distribution(row, run, labels).correlation() for row, run in zip(rows, runs)]


# --- shared states --------------------------------------------------------------


def _photon_state(amps) -> StateVector:
    """The normalized state with these amplitudes on the product basis
    x⊗x…, first photon slowest and x before y: the index order _born_rows reads."""
    kets = itertools.product("xy", repeat=len(amps).bit_length() - 1)
    return normalized(amps, tuple("⊗".join(ket) for ket in kets))


@functools.cache
def entangled_pair_state() -> StateVector:
    """(|x>|y> + |y>|x>)/sqrt2, the rotation-invariant two-photon state."""
    return _photon_state([0, 1, 1, 0])


@functools.cache
def hardy_state() -> StateVector:
    """(|xx> - |xy> - |yx> - 3|yy>)/sqrt12."""
    return _photon_state([1, -1, -1, -3])


@functools.cache
def ghz_state() -> StateVector:
    """(|yyy> - |yxx> - |xyx> - |xxy>)/2."""
    return _photon_state([0, -1, -1, 0, -1, 0, 0, 1])


def electron_singlet_state() -> StateVector:
    """(|ud> - |du>)/sqrt2 for two spin-1/2 particles: spin's singlet."""
    return spin.singlet_triplet_basis()[0]


# --- photon pair ----------------------------------------------------------------


def _pair_rows(theta1s, theta2s) -> list[list[float]]:
    # Party 2's analyzer faces party 1, so its angle runs in the opposite
    # sense in the shared coordinates, and its pass axis is the rotated y axis.
    return _born_rows(entangled_pair_state(), (theta1s, [-t for t in theta2s]), (0, 1))


def entangled_pair_distribution(theta1: float, theta2: float) -> OutcomeDistribution:
    """Joint pass/stop probabilities for the two-photon pair.

    The two analyzers sit in frames facing each other: party 2's angle runs in
    the opposite sense in the shared coordinates and its pass axis is the
    rotated y axis (a y-polarized photon reaches detector 2 at theta2 = 0).
    """
    _check_finite(theta1, theta2)
    (row,) = _pair_rows([theta1], [theta2])
    return _distribution(row, (theta1, theta2), PHOTON_OUTCOMES)


def pair_correlations(theta1s, theta2s) -> list[float]:
    """Expected product of the two +/-1 photon outcomes for each
    (theta1s[k], theta2s[k]), in one batch."""
    theta1s, theta2s = list(theta1s), list(theta2s)
    if len(theta1s) != len(theta2s):
        raise ValueError(f"{len(theta1s)} party-1 angles for {len(theta2s)} party-2 angles")
    _check_finite(*theta1s, *theta2s)
    return _correlations(_pair_rows(theta1s, theta2s), zip(theta1s, theta2s), PHOTON_OUTCOMES)


# --- Hardy pair -----------------------------------------------------------------


def _check_hardy_angle(theta: float) -> None:
    if min(abs(theta - a) for a in _HARDY_ANGLES) > tensor.TOL_NORM:
        quoted = " or ".join(f"{math.degrees(a):g}" for a in sorted(_HARDY_ANGLES))
        raise ValueError(
            f"hardy analyzers are quoted at {quoted} deg; pass allow_general=True for other angles"
        )


def hardy_distribution(
    theta1: float, theta2: float, allow_general: bool = False
) -> OutcomeDistribution:
    """Joint pass/stop probabilities for the Hardy pair; both analyzers pass
    along their rotated x axes (same rotation sense for both parties)."""
    _check_finite(theta1, theta2)
    if not allow_general:
        _check_hardy_angle(theta1)
        _check_hardy_angle(theta2)
    (row,) = _born_rows(hardy_state(), ([theta1], [theta2]), (0, 0))
    return _distribution(row, (theta1, theta2), PHOTON_OUTCOMES)


# --- GHZ triple -----------------------------------------------------------------


@dataclass(frozen=True)
class GhzParity:
    """Three-photon distribution plus the even/odd split of the detect count."""

    distribution: OutcomeDistribution
    p_even: float
    p_odd: float

    @property
    def certain_parity(self) -> str | None:
        if self.p_even >= 1.0 - tensor.TOL_NORM:
            return "even"
        if self.p_odd >= 1.0 - tensor.TOL_NORM:
            return "odd"
        return None


def ghz_parity_distribution(case: str) -> GhzParity:
    """Distribution for one of the quoted three-analyzer settings A-D, with the
    probability that an even/odd number of detectors fire."""
    if case not in GHZ_CASES:
        raise ValueError(f"case must be one of {sorted(GHZ_CASES)}; got {case!r}")
    angles = GHZ_CASES[case]
    (row,) = _born_rows(ghz_state(), tuple([a] for a in angles), (0, 0, 0))
    dist = _distribution(row, angles, PHOTON_OUTCOMES)
    p_even = sum(p for signs, p in zip(dist.signs, row) if signs.count(1) % 2 == 0)
    p_odd = sum(p for signs, p in zip(dist.signs, row) if signs.count(1) % 2 == 1)
    return GhzParity(dist, p_even, p_odd)


# --- electron singlet -----------------------------------------------------------


def _singlet_rows(theta1s, theta2s) -> list[list[float]]:
    # A spin-1/2 rotation through theta is a basis rotation through theta/2.
    halves = ([t / 2 for t in theta1s], [t / 2 for t in theta2s])
    return _born_rows(electron_singlet_state(), halves, (0, 0))


def electron_singlet_distribution(theta1: float, theta2: float) -> OutcomeDistribution:
    """Joint up/down probabilities with each Stern-Gerlach axis tilted in the
    zx-plane through its own angle (both parties in the same sense)."""
    _check_finite(theta1, theta2)
    (row,) = _singlet_rows([theta1], [theta2])
    return _distribution(row, (theta1, theta2), ELECTRON_OUTCOMES)


def electron_correlation(theta1: float, theta2: float) -> float:
    return electron_singlet_distribution(theta1, theta2).correlation()


# --- CHSH -----------------------------------------------------------------------

_CHSH_CARRIERS = {
    "photon": (_pair_rows, PHOTON_OUTCOMES),
    "electron": (_singlet_rows, ELECTRON_OUTCOMES),
}


def chsh_runs(t1, t1p, t2, t2p) -> tuple[tuple, tuple, tuple, tuple]:
    """The four CHSH runs (1,2), (1,2'), (1',2), (1',2'), in any angle unit."""
    return (t1, t2), (t1, t2p), (t1p, t2), (t1p, t2p)


def chsh_combination(e11, e12, e21, e22):
    """E(1,2) + E(1,2') + E(1',2) - E(1',2'), over the runs in chsh_runs order."""
    return e11 + e12 + e21 - e22


def chsh_correlations(
    theta1: float, theta1p: float, theta2: float, theta2p: float, system: str = "photon"
) -> tuple[float, float, float, float]:
    """The four expected products (E11, E11', E1'1, E1'1') for either carrier."""
    if system not in _CHSH_CARRIERS:
        raise ValueError(f"system must be 'photon' or 'electron'; got {system!r}")
    _check_finite(theta1, theta1p, theta2, theta2p)
    rows_of, labels = _CHSH_CARRIERS[system]
    runs = chsh_runs(theta1, theta1p, theta2, theta2p)
    e11, e12, e21, e22 = _correlations(rows_of(*zip(*runs)), runs, labels)
    return e11, e12, e21, e22


def chsh_quantum(
    theta1: float, theta1p: float, theta2: float, theta2p: float, system: str = "photon"
) -> float:
    """chsh_combination of the four quantum correlations."""
    return chsh_combination(*chsh_correlations(theta1, theta1p, theta2, theta2p, system))
