"""Tests of the benchmark's oracles.

    python3 -m pytest bench/test_oracles.py -q
"""

import math

import numpy as np
import pytest
from scipy import integrate

import oracles


@pytest.mark.parametrize("amplitude, t, R", [(1.0, 1000.0, 1.0), (-0.7, 3.0, 0.5), (2.0, 37.5, 1.3)])
def test_norm_of_single_cosine_matches_closed_form(amplitude, t, R):
    closed = oracles.abs_cosine_integral(amplitude, t, R)
    assert oracles.norm([(amplitude, np.array([t]))], R) == pytest.approx(closed, rel=1e-12)


def test_closed_form_against_brute_force_quadrature():
    b = np.linspace(-1.0, 1.0, 2_000_001)
    brute = integrate.trapezoid(np.abs(2.0 * 9.0 * np.cos(3.0 * b)), b)
    assert oracles.abs_cosine_integral(2.0, 3.0, 1.0) == pytest.approx(brute, rel=1e-9)


def test_cos1000x_norm_is_the_documented_value():
    assert oracles.norm([(1.0, np.array([1000.0]))], 1.0) == pytest.approx(1273653.759, rel=1e-9)


def test_norm_groups_directions_up_to_sign():
    xi = np.array([0.6, -0.8]) * 5.0
    single = oracles.norm([(2.0, xi)], 1.0)
    split = oracles.norm([(1.0, xi), (1.0, -xi)], 1.0)
    assert split == pytest.approx(single, rel=1e-13)
    # two directions add their norms
    other = oracles.norm([(1.0, np.array([0.0, 4.0]))], 1.0)
    assert oracles.norm([(2.0, xi), (1.0, np.array([0.0, 4.0]))], 1.0) == pytest.approx(single + other, rel=1e-13)


def test_near_cancelling_pair_against_dense_trapezoid():
    b = np.linspace(-1.0, 1.0, 4_000_001)
    brute = integrate.trapezoid(np.abs(-np.cos(b) + 1.01**2 * np.cos(1.01 * b)), b)
    terms = [(1.0, np.array([1.0])), (-1.0, np.array([1.01]))]
    assert oracles.norm(terms, 1.0) == pytest.approx(brute, rel=1e-8)


def test_fourier_bound_holds_for_random_spectra():
    rng = np.random.default_rng(7)
    for _ in range(20):
        terms = [(rng.normal(), rng.normal(size=2) * 5) for _ in range(3)]
        assert oracles.norm(terms, 1.0) <= 2.0 * oracles.fourier_constant(terms) * (1 + 1e-12)


def test_null_pairing_vanishes_below_threshold_and_not_at_it():
    X = oracles.ball_points(np.random.default_rng(0), 2, 1.0, 8)
    assert np.max(np.abs(oracles.null_pairing_2d(60, 1, 40, 1.0, 1.0, X))) < 1e-12
    assert np.max(np.abs(oracles.null_pairing_2d(6, 2, 2, 1.0, 1.0, X))) < 1e-12
    # k' = k - 2 is the non-null witness
    assert np.max(np.abs(oracles.null_pairing_2d(6, 1, 4, 1.0, 1.0, X))) > 1e-4


def test_relu_network_value():
    net = {"kappa": 2.0, "neurons": [{"a": 1.0, "omega": [1.0, 0.0], "b": 0.25}, {"a": -1.0, "omega": [0.0, 1.0], "b": -0.5}],
           "v": [1.0, 2.0], "c": 0.5}
    x = np.array([[0.5, 0.0]])
    # 2/2 * ((0.5 - 0.25) - (0 + 0.5)) + 0.5 + 0.5
    assert oracles.relu_network(net, x)[0] == pytest.approx(0.75)


def test_relu_network_in_chunks_matches_one_dense_evaluation():
    rng = np.random.default_rng(3)
    net = {"kappa": 1.5, "v": [0.2, -0.1], "c": 0.3,
           "neurons": [{"a": float(a), "omega": list(w), "b": float(b)}
                       for a, w, b in zip(rng.normal(size=50), rng.normal(size=(50, 2)), rng.normal(size=50))]}
    X = rng.normal(size=(10, 2))
    dense = oracles.relu_network(net, X, chunk=len(X))
    assert np.allclose(oracles.relu_network(net, X, chunk=3), dense, rtol=1e-13, atol=1e-13)


def test_chord_integral_through_the_centre_of_a_bump():
    center = np.array([0.1, -0.2])
    direct, _ = integrate.quad(lambda t: math.exp(-1.0 / (1.0 - (t / 0.5) ** 2)), -0.5, 0.5)
    value = oracles.chord_integral(center, 0.5, 1.0, np.array([1.0, 0.0]), 0.1)
    assert value == pytest.approx(direct, rel=1e-12)
    assert oracles.chord_integral(center, 0.5, 1.0, np.array([1.0, 0.0]), 0.7) == 0.0


def test_loglog_slope_of_inverse_square_root():
    ns = np.array([16, 64, 256, 1024])
    assert oracles.loglog_slope(ns, 3.0 / np.sqrt(ns)) == pytest.approx(-0.5)

