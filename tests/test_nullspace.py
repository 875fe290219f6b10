"""Null harmonic densities: closed-form moments, zero verification, witnesses,
discretized networks, and flat-direction perturbations."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import radonlab as rl
from radonlab.errors import DomainError, InvalidInputError, PreconditionError
from radonlab.nullspace import _factor_neurons, _int_power, _nodes_below, _rule_resolution
from radonlab.radon_measure import ramp_integral_grid

from conftest import threshold_pairing, verify_at, witness_closed_form, write_input


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
    xs = rl.ball_grid(2, 1.0, 40, seed=3)
    rule = rl.sphere_rule(2, 8)
    y = rl.harmonic_eval(term.k, term.j, 2, rule.nodes)
    loop = max(
        abs(term.coeff * float(rule.weights @ (y * np.array([rl.ramp_moment_closed_form(float(u), 4, 1.0) for u in rule.nodes @ x]))))
        for x in xs.points
    )
    report = verify_at(term, xs, 8)
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
    "term, m",
    [
        # no rule is exact to degree k + k' + 2, so the pairings are far from 0
        (rl.HarmonicNullTerm(k=12, j=5, kprime=6, coeff=0.7, d=3, R=2.0), 6),
        (rl.HarmonicNullTerm(k=60, j=1, kprime=40, coeff=1.0, d=2, R=1.0), 64),
        # 8 circle nodes alias cos(9 t) cos(t) and cos(8 t): the linear and the
        # constant monomial of the bias integral pair to nonzero values
        (rl.HarmonicNullTerm(k=9, j=1, kprime=1, coeff=1.0, d=2, R=1.0), 8),
        (rl.HarmonicNullTerm(k=8, j=1, kprime=2, coeff=1.0, d=2, R=1.0), 8),
    ],
)
def test_verify_null_matches_pointwise_loop_on_inexact_rules(term, m):
    xs = rl.ball_grid(term.d, term.R, 30, seed=4)
    rule = rl.sphere_rule(term.d, m)
    y = rl.harmonic_eval(term.k, term.j, term.d, rule.nodes)
    loop = max(
        abs(term.coeff * float(rule.weights @ (y * np.array([rl.ramp_moment_closed_form(float(u), term.kprime, term.R) for u in rule.nodes @ x]))))
        for x in xs.points
    )
    report = verify_at(term, xs, m)
    assert loop > 1e-6
    assert report.max_ramp_integral == pytest.approx(loop, rel=1e-12)


def test_verify_null_refuses_a_kink_on_the_sphere():
    xs = rl.BallGrid(2, 1.0, np.array([[1.0, 0.0]]))
    with pytest.raises(DomainError, match=re.escape("kink position |c| = 1.0 must lie inside (-R, R)")):
        verify_at(EX2_TERM, xs, 64)


def test_verify_null_example_density():
    xs = rl.ball_grid(2, 1.0, 100, seed=42)
    report = verify_at(EX2_TERM, xs, 64)
    assert report.verdict
    assert report.max_ramp_integral <= 1e-8
    assert report.points == 100


def test_verify_null_odd_term_d2():
    term = rl.HarmonicNullTerm(k=5, j=2, kprime=1, coeff=1.0, d=2, R=1.0)
    xs = rl.ball_grid(2, 1.0, 50, seed=1)
    report = verify_at(term, xs, 64)
    assert report.max_ramp_integral <= 1e-8


def test_verify_null_d3():
    term = rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=3, R=1.0)
    xs = rl.ball_grid(3, 1.0, 50, seed=2)
    report = verify_at(term, xs, 16)
    assert report.max_ramp_integral <= 1e-8


def test_verify_null_all_set_a_terms_k_le_8():
    for d, m in ((2, 64), (3, 16)):
        xs = rl.ball_grid(d, 1.0, 20, seed=7)
        for k in range(3, 9):
            for kprime in range(k % 2, k - 2, 2):
                for j in range(1, rl.harmonic_dim(k, d) + 1):
                    term = rl.HarmonicNullTerm(k=k, j=j, kprime=kprime, coeff=1.0, d=d, R=1.0)
                    report = verify_at(term, xs, m)
                    assert report.max_ramp_integral <= 1e-8, (d, k, j, kprime)


def test_verify_null_d3_above_the_old_degree_cap():
    # d=3 harmonics stopped at degree 12; the default rule is exact to degree k + k' + 2
    xs = rl.ball_grid(3, 1.0, 100)
    for k, kprime, j in ((40, 20, 1), (40, 20, 41), (40, 20, 60), (120, 60, 7), (179, 101, 200)):
        term = rl.HarmonicNullTerm(k=k, j=j, kprime=kprime, coeff=1.0, d=3, R=1.0)
        assert rl.verify_null(term, xs).max_ramp_integral <= 1e-12, (k, kprime, j)


@pytest.mark.parametrize("k, kprime, j", [(5, 1, 1), (8, 2, 2), (10, 4, 1), (12, 0, 2), (9, 5, 1), (20, 8, 1)])
def test_verify_null_d2_default_rule_is_the_smallest_exact_one(k, kprime, j):
    # k + k' + 3 circle nodes are exact to degree k + k' + 2; one node fewer
    # aliases the top frequency of Y_k times c^{k'+2} onto the constant
    term = rl.HarmonicNullTerm(k=k, j=j, kprime=kprime, coeff=1.0, d=2, R=1.0)
    xs = rl.ball_grid(2, 1.0, 200)
    m = _rule_resolution(2, k, kprime)
    assert m == k + kprime + 3
    default = rl.verify_null(term, xs)
    assert default == verify_at(term, xs, m)
    assert default.verdict and default.max_ramp_integral <= 1e-14
    assert verify_at(term, xs, m - 1).max_ramp_integral > 1e-5


@pytest.mark.parametrize("R", [1.0, 100.0])
def test_verify_null_tolerance_scaled_to_the_term_still_fails_an_inexact_rule(R):
    # the tolerance grows like R^(k'+2) with the term, and so does an aliased pairing
    term = rl.HarmonicNullTerm(k=6, j=1, kprime=2, coeff=1.0, d=2, R=R)
    xs = rl.ball_grid(2, R, 100)
    assert rl.verify_null(term, xs).verdict
    short = verify_at(term, xs, _rule_resolution(2, 6, 2) - 1)
    assert short.tolerance == 1e-8 * max(1.0, R**4) and not short.verdict


@pytest.mark.parametrize("k, kprime, j", [(5, 1, 1), (6, 0, 7), (8, 4, 3), (10, 2, 21)])
def test_verify_null_d3_default_resolution_is_k_plus_1(k, kprime, j):
    # for k' <= k - 4 the degree needs only (k + k' + 4) // 2 <= k, so the
    # azimuth guard m >= k + 1 binds, and not a floor of 16
    term = rl.HarmonicNullTerm(k=k, j=j, kprime=kprime, coeff=1.0, d=3, R=1.0)
    xs = rl.ball_grid(3, 1.0, 100)
    assert _rule_resolution(3, k, kprime) == k + 1
    default = rl.verify_null(term, xs)
    assert default == verify_at(term, xs, k + 1)
    assert default.max_ramp_integral <= 1e-14


@pytest.mark.parametrize("k", [5, 6, 9])
def test_d3_rule_at_resolution_k_misses_the_top_sectoral_harmonic(k):
    # sin(k phi) vanishes at the 2k equispaced azimuths of resolution k, so a
    # check there would pass with nothing paired: the guard m >= k + 1 stays
    assert np.max(np.abs(rl.harmonic_eval(k, 1, 3, rl.sphere_rule(3, k).nodes))) <= 1e-12
    assert np.max(np.abs(rl.harmonic_eval(k, 1, 3, rl.sphere_rule(3, k + 1).nodes))) >= 0.1


def test_terms_at_the_rule_size_bound_are_accepted():
    # 65535 circle nodes; 2 * 181^2 = 65522 product-rule nodes (one step more is
    # refused, tests/test_cli.py::test_term_past_the_rule_size_bound_is_a_domain_error)
    rl.HarmonicNullTerm(k=65000, j=1, kprime=532, coeff=1.0, d=2, R=1.0)
    rl.HarmonicNullTerm(k=180, j=1, kprime=178, coeff=1.0, d=3, R=1.0)


def test_verify_null_rejects_threshold_term():
    term = rl.HarmonicNullTerm(k=4, j=1, kprime=2, coeff=1.0, d=2, R=1.0)
    xs = rl.ball_grid(2, 1.0, 10, seed=0)
    with pytest.raises(PreconditionError):
        rl.verify_null(term, xs)


def test_term_parity_and_index_validation():
    with pytest.raises(InvalidInputError):
        rl.HarmonicNullTerm(k=4, j=1, kprime=1, coeff=1.0, d=2, R=1.0)
    with pytest.raises(InvalidInputError):
        rl.HarmonicNullTerm(k=4, j=3, kprime=0, coeff=1.0, d=2, R=1.0)


@pytest.mark.parametrize(
    "field, value",
    [("k", 6.0), ("k", True), ("j", 1.0), ("j", True), ("kprime", 2.0), ("kprime", False), ("d", 3.0), ("d", True)],
)
def test_term_refuses_integer_fields_that_are_not_integers(field, value):
    fields = dict(k=6, j=1, kprime=2, coeff=1.0, d=3, R=1.0)
    fields[field] = value
    with pytest.raises(InvalidInputError, match=f"null term field {field} must be an integer, not {value!r}"):
        rl.HarmonicNullTerm(**fields)


def test_term_accepts_numpy_integers_and_a_zero_monomial_degree():
    term = rl.HarmonicNullTerm(k=np.int64(6), j=np.int32(1), kprime=0, coeff=1.0, d=np.int64(3), R=1.0)
    assert term.in_set_a


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


def test_witness_nonzero_d3_above_the_old_degree_cap():
    # the zonal harmonic at the pole and the top sectoral one on the equator
    for k in (16, 20):
        for j, w in ((k + 1, np.array([0.0, 0.0, 1.0])), (2 * k + 1, np.array([1.0, 0.0, 0.0]))):
            closed = witness_closed_form(k, 3, 0.95, rl.harmonic_eval(k, j, 3, w))
            assert abs(closed) > 1e-10
            assert threshold_pairing(k, j, 3, 0.95 * w) == pytest.approx(closed, rel=1e-6)


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


@pytest.mark.parametrize("n", [400.0, 400.5, "400"], ids=["whole-float", "fraction", "string"])
def test_discretize_null_refuses_a_neuron_count_that_is_not_an_integer(n):
    with pytest.raises(InvalidInputError, match="neuron count must be an integer"):
        rl.discretize_null(EX2_TERM, n)


def test_discretize_null_convergence_and_mass():
    grid = rl.ball_grid(2, 1.0, 500)
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
    grid = rl.ball_grid(3, 1.0, 300)
    net = rl.discretize_null(term, 4000)
    assert float(np.max(np.abs(net.evaluate(grid.points)))) < 5e-3
    assert np.abs(net.a).sum() > 0.5


def test_discretize_null_d3_sphere_factor_follows_degree():
    # the budget alone gives a 5 x 10 product rule, exact to degree 9 < k + k' + 2 = 16;
    # m = 9 would do for the degree, and m >= k + 1 = 10 keeps every azimuthal order off the zeros
    term = rl.HarmonicNullTerm(k=9, j=2, kprime=5, coeff=1.0, d=3, R=1.0)
    grid = rl.ball_grid(3, 1.0, 500)
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


def test_mode_connect_zero_scale():
    grid = rl.ball_grid(2, 1.0, 200)
    report = rl.mode_connect_perturb(EX2_TERM, 2000, 0.0, grid)
    assert report.functional_change == 0.0
    assert report.displacement == 0.0


def test_mode_connect_flat_direction():
    grid = rl.ball_grid(2, 1.0, 500)
    report = rl.mode_connect_perturb(EX2_TERM, 2000, 1.0, grid)
    assert report.functional_change <= 1e-3
    assert report.displacement >= 0.5
    assert report.coefficient_mass >= 0.5
    assert report.added_neurons >= 1000


def test_mode_connect_linear_in_scale():
    grid = rl.ball_grid(2, 1.0, 100)
    r1 = rl.mode_connect_perturb(EX2_TERM, 500, 1.0, grid)
    r3 = rl.mode_connect_perturb(EX2_TERM, 500, 3.0, grid)
    assert r3.functional_change == pytest.approx(3.0 * r1.functional_change, rel=1e-12)
    assert r3.displacement == pytest.approx(3.0 * r1.displacement, rel=1e-12)


RAISED_TERMS = [
    rl.HarmonicNullTerm(k=60, j=1, kprime=40, coeff=1.0, d=2, R=1.0),
    rl.HarmonicNullTerm(k=9, j=2, kprime=5, coeff=1.0, d=3, R=1.0),
]


BUDGETS = [(d, n) for d in (2, 3) for n in (16, 500, 2000, 4000)]


@pytest.mark.parametrize(
    "term, n",
    [(rl.HarmonicNullTerm(k=6, j=2, kprime=2, coeff=1.7, d=d, R=1.0), n) for d, n in BUDGETS]
    + [(term, 3000) for term in RAISED_TERMS],
    ids=[f"d{d}-n{n}" for d, n in BUDGETS] + ["raised-d2", "raised-d3"],
)
def test_mode_connect_matches_the_built_net(term, n):
    # the product-rule evaluation is the discretized net's value up to rounding,
    # and the neuron count and masses are the net's to the bit
    if term in RAISED_TERMS:
        assert _factor_neurons(n, term.d, term.k, term.kprime)[0] == _rule_resolution(term.d, term.k, term.kprime)
    grid = rl.ball_grid(term.d, 0.9, 300, seed=5)
    net = rl.discretize_null(term, n)
    s = -1.3
    report = rl.mode_connect_perturb(term, n, s, grid)
    mass = float(np.abs(net.a).sum())
    assert report.added_neurons == net.n
    assert report.coefficient_mass == mass
    assert report.displacement == float(np.abs(s * net.a).sum())
    want = abs(s) * float(np.max(np.abs(net.evaluate(grid.points))))
    assert abs(report.functional_change - want) <= 1e-15 * mass
    assert rl.mode_connect_perturb(term, n, 0.0, grid).functional_change == 0.0


def test_mode_connect_refuses_a_grid_of_another_dimension():
    # the evaluation never builds the net, so its point-shape check is not there to refuse it
    with pytest.raises(InvalidInputError, match="grid dimension d = 3 differs from the term's d = 2"):
        rl.mode_connect_perturb(EX2_TERM, 500, 1.0, rl.ball_grid(3, 1.0, 20))


def assert_counts_like_searchsorted(nodes, x):
    want = np.searchsorted(nodes, x)
    got = _nodes_below(nodes, x)
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("R", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("m", [4, 5, 16, 45, 63, 111, 112, 127, 256, 511, 1000, 2047, 4096])
def test_nodes_below_counts_gauss_legendre_nodes_like_searchsorted(m, R):
    # 45 and 63 are the bias rules of the benchmark's budgets; a cell holds two
    # nodes from m = 112 on and ten at m = 4096
    nodes = rl.gauss_legendre(m, -R, R).nodes
    rng = np.random.default_rng(m)
    edges = np.array([-R, R, -2 * R, 2 * R, -1e300, 1e300, np.nextafter(nodes[0], -np.inf), nodes[-1] * 1.5])
    for x in (nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf), edges):
        assert_counts_like_searchsorted(nodes, x)
    assert_counts_like_searchsorted(nodes, rng.uniform(-1.2 * R, 1.2 * R, size=(37, m)))


def test_nodes_below_of_one_node_or_equal_nodes():
    for nodes in (np.array([0.5]), np.full(7, -2.0), np.array([0.0, 5e-324])):
        keys = np.array([-1e308, -2.0, -5e-324, 0.0, 5e-324, 0.5, 1e308])
        assert_counts_like_searchsorted(nodes, np.concatenate([keys, nodes]))


@settings(max_examples=200, deadline=None, derandomize=True, database=None, phases=[Phase.generate])
@given(
    values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40),
    repeats=st.lists(st.integers(1, 4), min_size=40, max_size=40),
    keys=st.lists(st.floats(-2e6, 2e6), max_size=40),
)
def test_nodes_below_counts_sorted_nodes_with_repeats_like_searchsorted(values, repeats, keys):
    nodes = np.sort(np.repeat(values, repeats[: len(values)]))
    near = np.concatenate([nodes, np.nextafter(nodes, -np.inf), np.nextafter(nodes, np.inf)])
    assert_counts_like_searchsorted(nodes, np.concatenate([keys, near]))


def test_null_term_density_is_null_at_high_degree():
    # k + k' + 2 = 102: a 64-node circle, exact to degree 63, left 1.7e-4
    term = rl.HarmonicNullTerm(k=60, j=1, kprime=40, coeff=1.0, d=2, R=1.0)
    X = rl.ball_grid(2, 1.0, 50, seed=0).points
    assert np.max(np.abs(ramp_integral_grid(rl.null_term_density(term), X))) <= 1e-12
    # the default is the exact rule of k + k' + 3 = 103 nodes, an odd count;
    # an explicit rule size is kept
    assert len(rl.null_term_density(term)) == 103
    assert len(rl.null_term_density(term, m=64)) == 64
    # and a zero or boolean one is refused, not read as "default"
    for m, message in ((0, "must be positive, not 0"), (False, "must be an integer, not False")):
        with pytest.raises(InvalidInputError, match=message):
            rl.null_term_density(term, m=m)


def test_null_term_json_roundtrip(tmp_path):
    path = tmp_path / "term.json"
    write_input(path, EX2_TERM)
    term = rl.load_null_term(path)
    assert term == EX2_TERM
