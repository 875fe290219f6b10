"""Null harmonic densities: closed-form moments, zero verification, witnesses,
discretized networks, and flat-direction perturbations."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest

import radonlab as rl
from radonlab.errors import DomainError, InvalidInputError, PreconditionError
from radonlab.nullspace import _int_power
from radonlab.radon_measure import ramp_integral_grid

from conftest import threshold_pairing, witness_closed_form


def ramp_moment_quadrature(c, kprime, R, n=64):
    """Oracle: split the ramp integral at its kink and Gauss-integrate each side."""
    rule = rl.gauss_legendre(n, -R, c)
    return float(rule.weights @ ((c - rule.nodes) * rule.nodes**kprime))


EX2_TERM = rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=2, R=1.0)


def test_ramp_moment_value():
    assert rl.ramp_moment_closed_form(0.5, 0, 1.0) == pytest.approx(1.125, abs=1e-14)
    # analytic check of the same number: int_{-1}^{0.5} (0.5 - b) db
    assert ramp_moment_quadrature(0.5, 0, 1.0) == pytest.approx(1.125, abs=1e-12)


def test_ramp_moment_vanishing_support():
    assert rl.ramp_moment_closed_form(-1.0 + 1e-9, 0, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_ramp_moment_matches_quadrature_on_random_inputs():
    rng = np.random.default_rng(2)
    for _ in range(100):
        R = float(rng.choice([0.5, 1.0, 2.0]))
        kprime = int(rng.integers(0, 9))
        c = float(rng.uniform(-R * 0.999, R * 0.999))
        closed = rl.ramp_moment_closed_form(c, kprime, R)
        quad = ramp_moment_quadrature(c, kprime, R)
        assert closed == pytest.approx(quad, abs=1e-10 * max(1.0, R ** (kprime + 2)))


def test_ramp_moment_domain_error():
    with pytest.raises(DomainError):
        rl.ramp_moment_closed_form(1.0, 0, 1.0)
    with pytest.raises(DomainError):
        rl.ramp_moment_closed_form(np.array([[0.2, -0.4], [0.9, -1.0]]), 2, 1.0)


def test_ramp_moment_vectorized_matches_scalar():
    c = np.random.default_rng(4).uniform(-0.99, 0.99, (5, 7))
    got = rl.ramp_moment_closed_form(c, 3, 1.0)
    assert got.shape == c.shape
    assert np.allclose(got, [[rl.ramp_moment_closed_form(float(x), 3, 1.0) for x in row] for row in c], rtol=1e-15, atol=0)


def test_verify_null_matches_pointwise_loop():
    # an 8-node circle rule is not exact for k=10, so the pairings are far from 0
    term = rl.HarmonicNullTerm(k=10, j=2, kprime=4, coeff=1.3, d=2, R=1.0)
    xs = rl.ball_grid(2, 1.0, 40, seed=3, mode="uniform")
    rule = rl.sphere_rule(2, 8)
    y = rl.harmonic_eval(term.k, term.j, 2, rule.nodes)
    loop = max(
        abs(term.coeff * float(rule.weights @ (y * np.array([rl.ramp_moment_closed_form(float(u), 4, 1.0) for u in rule.nodes @ x]))))
        for x in xs.points
    )
    report = rl.verify_null(term, xs, rule)
    assert loop > 1e-3
    assert report.max_ramp_integral == pytest.approx(loop, rel=1e-13)


def test_int_power_matches_exact_powers():
    x = np.random.default_rng(5).uniform(-1.0, 1.0, 400)
    for n in range(2, 65):
        got = _int_power(x, n)
        for xi, gi in zip(x.tolist(), got.tolist()):
            exact = Fraction(xi) ** n
            # relative error is meaningful only above the subnormal range
            if abs(exact) >= 2.0**-1022:
                assert abs(Fraction(gi) - exact) <= n * 2.0**-53 * abs(exact), (n, xi)


@pytest.mark.parametrize(
    "term, rule",
    [
        # no rule is exact to degree k + k' + 2, so the pairings are far from 0
        (rl.HarmonicNullTerm(k=12, j=5, kprime=6, coeff=0.7, d=3, R=2.0), rl.sphere_rule(3, 6)),
        (rl.HarmonicNullTerm(k=60, j=1, kprime=40, coeff=1.0, d=2, R=1.0), rl.sphere_rule(2, 64)),
        # 8 circle nodes alias cos(9 t) cos(t) and cos(8 t): the linear and the
        # constant monomial of the bias integral pair to nonzero values
        (rl.HarmonicNullTerm(k=9, j=1, kprime=1, coeff=1.0, d=2, R=1.0), rl.sphere_rule(2, 8)),
        (rl.HarmonicNullTerm(k=8, j=1, kprime=2, coeff=1.0, d=2, R=1.0), rl.sphere_rule(2, 8)),
    ],
)
def test_verify_null_matches_pointwise_loop_on_inexact_rules(term, rule):
    xs = rl.ball_grid(term.d, term.R, 30, seed=4, mode="uniform")
    y = rl.harmonic_eval(term.k, term.j, term.d, rule.nodes)
    loop = max(
        abs(term.coeff * float(rule.weights @ (y * np.array([rl.ramp_moment_closed_form(float(u), term.kprime, term.R) for u in rule.nodes @ x]))))
        for x in xs.points
    )
    report = rl.verify_null(term, xs, rule)
    assert loop > 1e-6
    assert report.max_ramp_integral == pytest.approx(loop, rel=1e-12)


def test_verify_null_refuses_a_kink_on_the_sphere():
    xs = rl.BallGrid(2, 1.0, np.array([[1.0, 0.0]]), "uniform")
    with pytest.raises(DomainError, match=re.escape("kink position |c| = 1.0 must lie inside (-R, R)")):
        rl.verify_null(EX2_TERM, xs, rl.sphere_rule(2, 64))


def test_verify_null_example_density():
    xs = rl.ball_grid(2, 1.0, 100, seed=42, mode="uniform")
    report = rl.verify_null(EX2_TERM, xs, rl.sphere_rule(2, 64))
    assert report.verdict
    assert report.max_ramp_integral <= 1e-8
    assert report.points == 100


def test_verify_null_odd_term_d2():
    term = rl.HarmonicNullTerm(k=5, j=2, kprime=1, coeff=1.0, d=2, R=1.0)
    xs = rl.ball_grid(2, 1.0, 50, seed=1, mode="uniform")
    report = rl.verify_null(term, xs, rl.sphere_rule(2, 64))
    assert report.max_ramp_integral <= 1e-8


def test_verify_null_d3():
    term = rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=3, R=1.0)
    xs = rl.ball_grid(3, 1.0, 50, seed=2, mode="uniform")
    report = rl.verify_null(term, xs, rl.sphere_rule(3, 16))
    assert report.max_ramp_integral <= 1e-8


def test_verify_null_all_set_a_terms_k_le_8():
    for d, rule in ((2, rl.sphere_rule(2, 64)), (3, rl.sphere_rule(3, 16))):
        xs = rl.ball_grid(d, 1.0, 20, seed=7, mode="uniform")
        for k in range(3, 9):
            for kprime in range(k % 2, k - 2, 2):
                for j in range(1, rl.harmonic_dim(k, d) + 1):
                    term = rl.HarmonicNullTerm(k=k, j=j, kprime=kprime, coeff=1.0, d=d, R=1.0)
                    report = rl.verify_null(term, xs, rule)
                    assert report.max_ramp_integral <= 1e-8, (d, k, j, kprime)


def test_verify_null_rejects_threshold_term():
    term = rl.HarmonicNullTerm(k=4, j=1, kprime=2, coeff=1.0, d=2, R=1.0)
    xs = rl.ball_grid(2, 1.0, 10, seed=0, mode="uniform")
    with pytest.raises(PreconditionError):
        rl.verify_null(term, xs, rl.sphere_rule(2, 64))


def test_term_parity_and_index_validation():
    with pytest.raises(InvalidInputError):
        rl.HarmonicNullTerm(k=4, j=1, kprime=1, coeff=1.0, d=2, R=1.0)
    with pytest.raises(InvalidInputError):
        rl.HarmonicNullTerm(k=4, j=3, kprime=0, coeff=1.0, d=2, R=1.0)


def test_witness_nonzero_at_example_point():
    x = np.array([0.5, 0.0])
    value = threshold_pairing(4, 1, 2, x)
    assert abs(value) > 1e-3
    # cross-check against direct sphere quadrature of the threshold pairing
    rule = rl.sphere_rule(2, 128)
    u = rule.nodes @ x
    q = np.array([rl.ramp_moment_closed_form(float(ui), 2, 1.0) for ui in u])
    y = rl.harmonic_eval(4, 1, 2, rule.nodes)
    direct = float(rule.weights @ (y * q))
    assert value == pytest.approx(direct, rel=1e-10)
    # and against the Funk-Hecke closed form, in both dimensions and at two degrees
    rng = np.random.default_rng(3)
    for d, k in ((2, 4), (2, 6), (3, 4), (3, 5)):
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        closed = witness_closed_form(k, d, 0.7, rl.harmonic_eval(k, 1, d, w))
        assert threshold_pairing(k, 1, d, 0.7 * w) == pytest.approx(closed, rel=1e-10)


def test_witness_zero_on_nodal_line():
    theta = math.pi / 8  # cos(4 theta) = 0
    x = 0.5 * np.array([math.cos(theta), math.sin(theta)])
    assert abs(threshold_pairing(4, 1, 2, x)) < 1e-12


def test_witness_sign_flips_across_nodal_line():
    # reflection theta -> pi/4 - theta maps cos(4 theta) to -cos(4 theta)
    theta = 0.1
    x1 = 0.6 * np.array([math.cos(theta), math.sin(theta)])
    theta2 = math.pi / 4 - theta
    x2 = 0.6 * np.array([math.cos(theta2), math.sin(theta2)])
    v1 = threshold_pairing(4, 1, 2, x1)
    v2 = threshold_pairing(4, 1, 2, x2)
    assert v1 == pytest.approx(-v2, rel=1e-10)
    assert abs(v1) > 1e-4


def test_witness_generic_points_exceed_threshold():
    # generic: radius in [0.6, 0.95], direction bounded away from the nodal set
    rng = np.random.default_rng(12)
    for d in (2, 3):
        found = 0
        while found < 10:
            w = rng.normal(size=d)
            w /= np.linalg.norm(w)
            if abs(rl.harmonic_eval(4, 1, d, w)) < 0.2:
                continue
            x = w * rng.uniform(0.6, 0.95)
            assert abs(threshold_pairing(4, 1, d, x)) > 1e-3
            found += 1


def test_discretize_null_linearity():
    net1 = rl.discretize_null(EX2_TERM, 500)
    term2 = rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=2.0, d=2, R=1.0)
    net2 = rl.discretize_null(term2, 500)
    assert np.allclose(net2.a, 2.0 * net1.a, rtol=0, atol=0)
    x = np.array([[0.2, -0.4]])
    assert net2.evaluate(x)[0] == pytest.approx(2.0 * net1.evaluate(x)[0], rel=1e-12)


def test_discretize_null_convergence_and_mass():
    grid = rl.ball_grid(2, 1.0, 500, mode="low-discrepancy")
    sups = {}
    for n in (500, 2000, 8000):
        net = rl.discretize_null(EX2_TERM, n)
        sups[n] = float(np.max(np.abs(net.evaluate(grid.points))))
        assert np.abs(net.a).sum() >= 0.5
    assert sups[2000] <= 1e-3
    assert sups[2000] <= sups[500]
    assert sups[8000] <= sups[2000]


def test_discretize_null_d3():
    term = rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=3, R=1.0)
    grid = rl.ball_grid(3, 1.0, 300, mode="low-discrepancy")
    net = rl.discretize_null(term, 4000)
    assert float(np.max(np.abs(net.evaluate(grid.points)))) < 5e-3
    assert np.abs(net.a).sum() > 0.5


def test_discretize_null_d3_sphere_factor_follows_degree():
    # the budget alone gives a 5 x 10 product rule, exact to degree 9 < k + k' + 2 = 16;
    # m = 9 would do for the degree, and m >= k + 1 = 10 keeps every azimuthal order off the zeros
    term = rl.HarmonicNullTerm(k=9, j=2, kprime=5, coeff=1.0, d=3, R=1.0)
    grid = rl.ball_grid(3, 1.0, 500, mode="low-discrepancy")
    net = rl.discretize_null(term, 3000)
    assert net.n == 2 * 10**2 * 15
    assert float(np.max(np.abs(net.evaluate(grid.points)))) <= 1e-3
    assert np.abs(net.a).sum() >= 0.5


@pytest.mark.parametrize("j", range(1, 20))
def test_discretize_null_d3_never_samples_harmonic_zeros(j):
    # with 2m equispaced azimuths and m <= k, an order-m azimuthal factor
    # vanishes at every node (j = 1 and j = 10 at m = 9 gave mass ~1e-15)
    term = rl.HarmonicNullTerm(k=9, j=j, kprime=5, coeff=1.0, d=3, R=1.0)
    net = rl.discretize_null(term, 3000)
    assert np.abs(net.a).sum() >= 0.5


def test_mode_connect_zero_scale(near_cancel_measure):
    density = rl.density_from_spectrum(near_cancel_measure, 1.0)
    norm = rl.tv_norm(density)
    base = rl.sample_network(density, norm, rl.AffinePart.zero(1), 32, seed=0)
    # dimensions must match the term
    mu2 = rl.from_cosine_sum(2, [(1.0, [1.0, 0.3])])
    d2 = rl.density_from_spectrum(mu2, 1.0)
    base2 = rl.sample_network(d2, rl.tv_norm(d2), rl.AffinePart.zero(2), 32, seed=0)
    grid = rl.ball_grid(2, 1.0, 200, mode="low-discrepancy")
    report = rl.mode_connect_perturb(base2, EX2_TERM, 2000, 0.0, grid)
    assert report.functional_change == 0.0
    assert report.displacement == 0.0


def test_mode_connect_flat_direction():
    mu = rl.from_cosine_sum(2, [(1.0, [1.0, 0.3])])
    density = rl.density_from_spectrum(mu, 1.0)
    base = rl.sample_network(density, rl.tv_norm(density), rl.AffinePart.zero(2), 64, seed=4)
    grid = rl.ball_grid(2, 1.0, 500, mode="low-discrepancy")
    report = rl.mode_connect_perturb(base, EX2_TERM, 2000, 1.0, grid)
    assert report.functional_change <= 1e-3
    assert report.displacement >= 0.5
    assert report.coefficient_mass >= 0.5
    assert report.added_neurons >= 1000


def test_mode_connect_linear_in_scale():
    mu = rl.from_cosine_sum(2, [(1.0, [1.0, 0.3])])
    density = rl.density_from_spectrum(mu, 1.0)
    base = rl.sample_network(density, rl.tv_norm(density), rl.AffinePart.zero(2), 16, seed=4)
    grid = rl.ball_grid(2, 1.0, 100, mode="low-discrepancy")
    r1 = rl.mode_connect_perturb(base, EX2_TERM, 500, 1.0, grid)
    r3 = rl.mode_connect_perturb(base, EX2_TERM, 500, 3.0, grid)
    assert r3.functional_change == pytest.approx(3.0 * r1.functional_change, rel=1e-12)
    assert r3.displacement == pytest.approx(3.0 * r1.displacement, rel=1e-12)


def test_null_term_density_is_null_at_high_degree():
    # k + k' + 2 = 102: a 64-node circle, exact to degree 63, left 1.7e-4
    term = rl.HarmonicNullTerm(k=60, j=1, kprime=40, coeff=1.0, d=2, R=1.0)
    X = rl.ball_grid(2, 1.0, 50, seed=0, mode="uniform").points
    assert np.max(np.abs(ramp_integral_grid(rl.null_term_density(term), X))) <= 1e-12
    # an explicit rule size is kept
    assert len(rl.null_term_density(term, m=64)) == 64


def test_null_term_json_roundtrip(tmp_path):
    path = tmp_path / "term.json"
    rl.save_null_term(path, EX2_TERM)
    term = rl.load_null_term(path)
    assert term == EX2_TERM
