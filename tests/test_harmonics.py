"""Harmonic dimensions, orthonormality and Funk-Hecke, after checks of the oracle's Legendre polynomials."""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
from scipy.special import lpmv

import radonlab as rl
from radonlab.errors import DomainError, InvalidInputError, UnsupportedDimensionError

from conftest import funk_hecke_sides, legendre_oracle, weighted_legendre_integral


def legendre_recurrence(k, t):
    """Oracle: classical three-term recurrence (n+1)P_{n+1} = (2n+1)tP_n - nP_{n-1}."""
    p_prev, p = 1.0, t
    if k == 0:
        return 1.0
    for n in range(1, k):
        p_prev, p = p, ((2 * n + 1) * t * p - n * p_prev) / (n + 1)
    return p


def chebyshev_recurrence(k, t):
    """Oracle: T_{n+1} = 2t T_n - T_{n-1}."""
    p_prev, p = 1.0, t
    if k == 0:
        return 1.0
    for _ in range(1, k):
        p_prev, p = p, 2 * t * p - p_prev
    return p


def orthonormal_harmonic(k, j, d):
    return lambda w: rl.harmonic_eval(k, j, d, w)


def test_harmonic_dim_values():
    assert rl.harmonic_dim(2, 3) == 5
    assert rl.harmonic_dim(3, 2) == 2
    assert rl.harmonic_dim(0, 3) == 1
    assert rl.harmonic_dim(0, 2) == 1
    assert rl.harmonic_dim(5, 2) == 2
    assert rl.harmonic_dim(4, 3) == 9


def test_harmonic_dim_at_huge_degree_is_immediate():
    # factorials of k took 2 s at k = 3e5 and grew faster than linearly
    start = time.perf_counter()
    assert rl.harmonic_dim(10**8, 2) == 2
    assert rl.harmonic_dim(10**8, 3) == 2 * 10**8 + 1
    assert time.perf_counter() - start < 0.1
    assert [rl.harmonic_dim(k, 5) for k in range(5)] == [1, 5, 14, 30, 55]


def test_harmonic_dim_rejects_low_dimension():
    with pytest.raises(UnsupportedDimensionError):
        rl.harmonic_dim(2, 1)


def test_legendre_normalization_at_one():
    for d in (2, 3):
        for k in range(8):
            assert legendre_oracle(k, d, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_legendre_d3_matches_recurrence_oracle():
    assert legendre_oracle(2, 3, 0.0) == pytest.approx(-0.5, abs=1e-14)
    for k in (1, 2, 3, 5, 8):
        for t in (-0.9, -0.25, 0.4, 0.77):
            assert legendre_oracle(k, 3, t) == pytest.approx(legendre_recurrence(k, t), abs=1e-12)


def test_legendre_d2_is_chebyshev():
    assert legendre_oracle(3, 2, math.cos(0.4)) == pytest.approx(math.cos(1.2), abs=1e-14)
    for k in (1, 2, 3, 5, 8):
        for t in (-0.9, -0.25, 0.4, 0.77):
            assert legendre_oracle(k, 2, t) == pytest.approx(chebyshev_recurrence(k, t), abs=1e-12)


def test_legendre_weighted_orthogonality():
    # orthogonal under (1-t^2)^((d-3)/2), diagonal strictly positive
    for d in (2, 3):
        for k, k2 in itertools.combinations(range(6), 2):
            v = weighted_legendre_integral(lambda t, k=k: legendre_oracle(k, d, t), k2, d)
            assert abs(v) < 1e-10
        for k in range(6):
            v = weighted_legendre_integral(lambda t, k=k: legendre_oracle(k, d, t), k, d)
            assert v > 1e-3


def test_harmonic_constant_d2():
    w = np.array([math.cos(0.3), math.sin(0.3)])
    assert rl.harmonic_eval(0, 1, 2, w) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-14)


def test_harmonic_d2_cos4theta():
    theta = 1.234
    w = np.array([math.cos(theta), math.sin(theta)])
    assert rl.harmonic_eval(4, 1, 2, w) == pytest.approx(math.cos(4 * theta) / math.sqrt(math.pi), abs=1e-12)
    assert rl.harmonic_eval(4, 2, 2, w) == pytest.approx(math.sin(4 * theta) / math.sqrt(math.pi), abs=1e-12)


def test_harmonic_d3_degree_one_is_scaled_coordinates():
    # normalization oracle: quadrature of Y^2 equals 1, and the three degree-1
    # harmonics span {c w_1, c w_2, c w_3} with c = sqrt(3/(4 pi))
    rule = rl.sphere_rule(3, 12)
    c = math.sqrt(3.0 / (4.0 * math.pi))
    got = {j: rl.harmonic_eval(1, j, 3, rule.nodes) for j in (1, 2, 3)}
    coords = {i: rule.nodes[:, i] for i in range(3)}
    matched = set()
    for j, vals in got.items():
        assert rule.weights @ (vals * vals) == pytest.approx(1.0, abs=1e-10)
        for i, coord in coords.items():
            if np.allclose(np.abs(vals), np.abs(c * coord), atol=1e-12):
                matched.add(i)
    assert matched == {0, 1, 2}


def test_harmonic_parity():
    rng = np.random.default_rng(5)
    for d in (2, 3):
        for _ in range(20):
            w = rng.normal(size=d)
            w /= np.linalg.norm(w)
            k = int(rng.integers(0, 7))
            j = int(rng.integers(1, rl.harmonic_dim(k, d) + 1))
            a = rl.harmonic_eval(k, j, d, -w)
            b = (-1.0) ** k * rl.harmonic_eval(k, j, d, w)
            tol = 1e-12 if d == 2 else 1e-12 * max(1.0, abs(b))
            assert a == pytest.approx(b, abs=tol)


def test_harmonic_invalid_index():
    with pytest.raises(InvalidInputError):
        rl.harmonic_eval(2, 6, 3, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(InvalidInputError):
        rl.harmonic_eval(3, 0, 2, np.array([1.0, 0.0]))


@pytest.mark.parametrize("omega", [[0.0, 0.0], [3.0, 0.0], [0.6, 0.8 + 1e-11]])
def test_harmonic_eval_refuses_a_vector_off_the_sphere(omega):
    # the first two read as the angle 0 and returned cos(2 * 0) / sqrt(pi) = 0.5642
    norm = float(np.linalg.norm(omega))
    with pytest.raises(InvalidInputError, match=rf"^directions must be unit vectors, not of norm {norm!r} at row 0$"):
        rl.harmonic_eval(2, 1, 2, omega)


def test_harmonic_eval_refuses_a_batch_with_one_row_off_the_sphere():
    w = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.5], [0.0, float("nan"), 1.0]])
    with pytest.raises(InvalidInputError, match=r"not of norm 1\.5 at row 2$"):
        rl.harmonic_eval(3, 1, 3, w)
    with pytest.raises(InvalidInputError, match=r"not of norm nan at row 0$"):
        rl.harmonic_eval(3, 1, 3, w[3:])


@pytest.mark.parametrize("d, resolutions", [(2, (1, 3, 1000, 2**16)), (3, (1, 2, 5, 40, 181))])
def test_sphere_rule_nodes_are_unit_vectors_to_harmonic_eval(d, resolutions):
    # the nodes of the rules up to the null terms' 2^16-node bound pass the unit check
    for m in resolutions:
        nodes = rl.sphere_rule(d, m).nodes
        assert np.max(np.abs(np.linalg.norm(nodes, axis=1) - 1.0)) <= 1e-15
        assert np.all(np.isfinite(rl.harmonic_eval(1, 1, d, nodes)))


@pytest.mark.parametrize("d", [2, 3])
def test_harmonic_degree_above_two_to_the_sixteen_is_refused(d):
    # the d=3 recurrence makes one Python step per degree, so an unbounded degree is an unbounded wait
    w = np.eye(d)[:1]
    with pytest.raises(DomainError, match="harmonic degree k=65537 is above the limit of 65536"):
        rl.harmonic_eval(2**16 + 1, 1, d, w)


def test_harmonic_degree_two_to_the_sixteen_is_accepted():
    assert rl.harmonic_eval(2**16, 1, 2, np.array([1.0, 0.0])) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-15)


def test_funk_hecke_closed_form_case():
    # oracle: integral of cos^2(theta) cos(2 theta) over the circle is pi/2,
    # against the unnormalized degree-2 harmonic cos(2 theta)
    rule = rl.sphere_rule(2, 64)
    Y = lambda w: np.atleast_2d(w)[:, 0] ** 2 - np.atleast_2d(w)[:, 1] ** 2
    lhs, rhs = funk_hecke_sides(lambda t: t**2, 2, 2, np.array([1.0, 0.0]), rule, Y)
    assert lhs == pytest.approx(math.pi / 2, abs=1e-10)
    assert rhs == pytest.approx(math.pi / 2, abs=1e-10)


def test_funk_hecke_mean_zero_and_self_pairing():
    for d, rule in ((2, rl.sphere_rule(2, 64)), (3, rl.sphere_rule(3, 16))):
        w = np.zeros(d)
        w[0] = 1.0
        for k in (1, 2, 3):
            lhs, rhs = funk_hecke_sides(lambda t: np.ones_like(t), k, d, w, rule, orthonormal_harmonic(k, 1, d))
            assert abs(lhs) < 1e-10 and abs(rhs) < 1e-12
        # self-pairing: evaluate where the harmonic does not vanish
        # (d=2: j=1 at angle 0; d=3: the zonal harmonic j=k+1 at the pole)
        j = 1 if d == 2 else 4
        pole = w if d == 2 else np.array([0.0, 0.0, 1.0])
        lhs, rhs = funk_hecke_sides(lambda t: legendre_oracle(3, d, t), 3, d, pole, rule, orthonormal_harmonic(3, j, d))
        assert abs(rhs) > 1e-4
        assert lhs == pytest.approx(rhs, rel=1e-8)


def test_funk_hecke_random_polynomial_profiles():
    rng = np.random.default_rng(17)
    rules = {2: rl.sphere_rule(2, 64), 3: rl.sphere_rule(3, 24)}
    for case in range(20):
        d = 2 if case % 2 == 0 else 3
        k = int(rng.integers(0, 6))
        j = int(rng.integers(1, rl.harmonic_dim(k, d) + 1))
        coeffs = rng.uniform(-1, 1, size=6)
        eta = lambda t, c=coeffs: np.polynomial.polynomial.polyval(np.asarray(t), c)
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        lhs, rhs = funk_hecke_sides(eta, k, d, w, rules[d], orthonormal_harmonic(k, j, d))
        assert abs(lhs - rhs) <= 1e-8


def test_d3_harmonics_match_lpmv_to_degree_12():
    # oracle: scipy's associated Legendre function (Condon-Shortley phase
    # included) times the factorial normalization, where both are exact
    rng = np.random.default_rng(23)
    w = rng.normal(size=(400, 3))
    w /= np.linalg.norm(w, axis=1)[:, None]
    w = np.vstack([w, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0]]])
    phi = np.arctan2(w[:, 1], w[:, 0])
    worst = 0.0
    for k in range(13):
        for j in range(1, 2 * k + 2):
            m = j - 1 - k
            am = abs(m)
            norm = math.sqrt((2 * k + 1) / (4 * math.pi) * math.factorial(k - am) / math.factorial(k + am))
            azimuth = 1.0 if m == 0 else math.sqrt(2.0) * (np.cos(am * phi) if m > 0 else np.sin(am * phi))
            expected = norm * lpmv(am, k, w[:, 2]) * azimuth
            worst = max(worst, float(np.max(np.abs(rl.harmonic_eval(k, j, 3, w) - expected))))
    assert worst <= 1e-13


def test_harmonic_orthonormality_up_to_k40_on_exact_rules():
    # the Gram matrix integrates degree <= 80: 81 circle nodes, and the
    # 41-node product rule on S^2, exact to degree 2 * 41 - 1
    for d, rule in ((2, rl.sphere_rule(2, 81)), (3, rl.sphere_rule(3, 41))):
        pairs = [(k, j) for k in range(41) for j in range(1, rl.harmonic_dim(k, d) + 1)]
        vals = np.stack([rl.harmonic_eval(k, j, d, rule.nodes) for k, j in pairs])
        gram = (vals * rule.weights) @ vals.T
        assert np.max(np.abs(gram - np.eye(len(pairs)))) < 1e-12, d


@pytest.mark.parametrize("k", [30, 37, 60, 120])
def test_funk_hecke_at_high_degree_d3(k):
    # the Legendre polynomial of degree k as profile: the self-pairing is
    # |S^1| Y(omega) / (k + 1/2) for every harmonic of degree k (the
    # oracle's 128-node Legendre integral is exact to degree 255 >= 2k)
    rng = np.random.default_rng(k)
    rule = rl.sphere_rule(3, k + 2)
    eta = lambda t: legendre_oracle(k, 3, t)
    for j in (1, k + 1, k + 2, 2 * k + 1):
        omega = rng.normal(size=3)
        omega /= np.linalg.norm(omega)
        lhs, rhs = funk_hecke_sides(eta, k, 3, omega, rule, orthonormal_harmonic(k, j, 3))
        y = rl.harmonic_eval(k, j, 3, omega)
        assert rhs == pytest.approx(2 * math.pi * y / (k + 0.5), rel=1e-10, abs=1e-14)
        assert abs(lhs - rhs) <= 1e-12
