"""Exact sympy oracles for the quantum numbers the paper quotes: 3/4 for the
30-degree grid's agreement, 1/4 for the 120-degree grid's, 1/12 for Hardy's
pass/pass and 2*sqrt(2) for CHSH, each matched by the float path within 1e-15."""

from __future__ import annotations

import math

import pytest

from bellkit import experiments as ex

sympy = pytest.importorskip("sympy")


def _sym_probability(state, angles, signs, index):
    rot = None
    for theta, sense in zip(angles, signs):
        c, s = sympy.cos(sense * theta), sympy.sin(sense * theta)
        r = sympy.Matrix([[c, s], [-s, c]])
        rot = r if rot is None else sympy.kronecker_product(rot, r)
    amp = (rot * sympy.Matrix(state))[index]
    return sympy.nsimplify(sympy.simplify(amp**2))


def _within(value: float, exact, tol=1e-15) -> bool:
    return abs(sympy.Float(value, 40) - sympy.N(exact, 40)) <= tol


PAIR_STATE = [0, 1 / sympy.sqrt(2), 1 / sympy.sqrt(2), 0]


def test_oracle_grid30_agreement_three_quarters():
    pi = sympy.pi
    # agreement = P(pass, pass) + P(stop, stop): basis indices 1 and 2
    exact = sum(_sym_probability(PAIR_STATE, (0, pi / 6), (1, -1), i) for i in (1, 2))
    assert sympy.simplify(exact - sympy.Rational(3, 4)) == 0
    value = ex.entangled_pair_distribution(0.0, math.radians(30.0)).agreement()
    assert _within(value, exact)


def test_oracle_grid120_agreement_one_quarter():
    pi = sympy.pi
    exact = sum(_sym_probability(PAIR_STATE, (0, 2 * pi / 3), (1, -1), i) for i in (1, 2))
    assert sympy.simplify(exact - sympy.Rational(1, 4)) == 0
    value = ex.entangled_pair_distribution(0.0, math.radians(120.0)).agreement()
    assert _within(value, exact)


def test_oracle_hardy_pass_pass_one_twelfth():
    r = 1 / sympy.sqrt(12)
    exact = _sym_probability([r, -r, -r, -3 * r], (0, 0), (1, 1), 0)
    assert exact == sympy.Rational(1, 12)
    value = ex.hardy_distribution(0.0, 0.0).probability_of("pass", "pass")
    assert _within(value, exact)


def test_oracle_chsh_two_root_two():
    pi = sympy.pi
    t1, t1p, t2, t2p = pi / 4, pi / 2, 3 * pi / 8, pi / 8

    def e(a, b):
        p = [_sym_probability(PAIR_STATE, (a, b), (1, -1), i) for i in range(4)]
        # pass/pass at index 1, stop/stop at 2, the mixed outcomes at 0 and 3
        return p[1] + p[2] - p[0] - p[3]

    exact = sympy.simplify(e(t1, t2) + e(t1, t2p) + e(t1p, t2) - e(t1p, t2p))
    assert sympy.simplify(exact - 2 * sympy.sqrt(2)) == 0
    assert _within(ex.chsh_quantum(*ex.CHSH_PHOTON_SETTINGS), exact)
