"""Interval/sphere rules and ball grids: exactness, totals, determinism."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radonlab as rl
from radonlab import quadrature
from radonlab.errors import DomainError, InvalidInputError, UnsupportedDimensionError
from radonlab.quadrature import _cube_to_ball, _halton, _primes


def monomial_integral(p, a, b):
    """Analytic oracle: integral of t^p over (a, b)."""
    return (b ** (p + 1) - a ** (p + 1)) / (p + 1)


def jacobi_nodes(n):
    """Oracle: Gauss-Legendre nodes as eigenvalues of the Jacobi matrix."""
    k = np.arange(1, n)
    beta = k / np.sqrt(4.0 * k**2 - 1.0)
    J = np.diag(beta, 1) + np.diag(beta, -1)
    return np.sort(np.linalg.eigvalsh(J))


def test_gauss_legendre_midpoint():
    rule = rl.gauss_legendre(1, -1.0, 1.0)
    assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert rule.weights[0] == pytest.approx(2.0, abs=1e-15)


def test_gauss_legendre_two_point_nodes_match_jacobi_eigenvalues():
    rule = rl.gauss_legendre(2, -1.0, 1.0)
    expected = jacobi_nodes(2)
    assert np.allclose(np.sort(rule.nodes), expected, atol=1e-14)
    assert expected[1] == pytest.approx(0.5773502691896258, abs=1e-15)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-14)


def test_gauss_legendre_five_point_monomials():
    rule = rl.gauss_legendre(5, -1.0, 1.0)
    assert rule.weights @ rule.nodes**9 == pytest.approx(0.0, abs=1e-14)
    assert rule.weights @ rule.nodes**8 == pytest.approx(monomial_integral(8, -1, 1), rel=1e-13)


@pytest.mark.parametrize("n", range(1, 13))
def test_gauss_legendre_exactness_through_2n_minus_1(n):
    rule = rl.gauss_legendre(n, -1.0, 1.0)
    assert rule.exactness_degree == 2 * n - 1
    for p in range(2 * n):
        exact = monomial_integral(p, -1, 1)
        got = rule.weights @ rule.nodes**p
        assert got == pytest.approx(exact, rel=1e-10, abs=1e-12)
    # the very next even degree is misintegrated by a detectable gap
    gap = abs(rule.weights @ rule.nodes ** (2 * n) - monomial_integral(2 * n, -1, 1))
    assert gap > 1e-8


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=10),
    a=st.floats(min_value=-5, max_value=1.0),
    width=st.floats(min_value=0.1, max_value=6.0),
    p=st.integers(min_value=0, max_value=8),
)
def test_gauss_legendre_exactness_on_shifted_intervals(n, a, width, p):
    b = a + width
    rule = rl.gauss_legendre(n, a, b)
    if p <= 2 * n - 1:
        exact = monomial_integral(p, a, b)
        assert rule.weights @ rule.nodes**p == pytest.approx(exact, rel=1e-9, abs=1e-9)


def test_gauss_legendre_weight_total_and_positivity():
    rule = rl.gauss_legendre(20, -0.3, 2.2)
    assert rule.weights.sum() == pytest.approx(2.5, abs=1e-12)
    assert np.all(rule.weights > 0)
    assert np.all((rule.nodes > -0.3) & (rule.nodes < 2.2))


def test_gauss_legendre_invalid_inputs():
    with pytest.raises(InvalidInputError):
        rl.gauss_legendre(0, -1, 1)
    with pytest.raises(InvalidInputError):
        rl.gauss_legendre(3, 1.0, -1.0)
    with pytest.raises(InvalidInputError):
        rl.gauss_legendre(3, -np.inf, 1.0)


NOT_INTEGERS = [True, 2.5, 3.0, "8", None]
NOT_INTEGER_IDS = ["bool", "fraction", "whole-float", "string", "none"]


@pytest.mark.parametrize("n", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_gauss_legendre_refuses_a_node_count_that_is_not_an_integer(n):
    with pytest.raises(InvalidInputError, match="node count must be an integer"):
        rl.gauss_legendre(n, -1.0, 1.0)


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_sphere_rule_refuses_a_resolution_that_is_not_an_integer(m, d):
    with pytest.raises(InvalidInputError, match="resolution must be an integer"):
        rl.sphere_rule(d, m)


@pytest.mark.parametrize("n", [5, np.int64(5), np.int32(5), np.uint8(5)], ids=["int", "int64", "int32", "uint8"])
def test_rules_take_python_and_numpy_integers(n):
    assert rl.gauss_legendre(n, -1.0, 1.0).nodes.tobytes() == rl.gauss_legendre(5, -1.0, 1.0).nodes.tobytes()
    assert rl.sphere_rule(2, n).nodes.tobytes() == rl.sphere_rule(2, 5).nodes.tobytes()
    assert rl.sphere_rule(3, n).nodes.tobytes() == rl.sphere_rule(3, 5).nodes.tobytes()
    for seed in (None, 1):
        assert rl.ball_grid(2, 1.0, n, seed=seed).points.tobytes() == rl.ball_grid(2, 1.0, 5, seed=seed).points.tobytes()
    assert rl.ball_grid(2, 1.0, 5, seed=n).points.tobytes() == rl.ball_grid(2, 1.0, 5, seed=5).points.tobytes()


@pytest.mark.parametrize("m", [1, 2, 7, 16, 41])
def test_sphere_rule_d3_is_unchanged_by_the_cached_gauss_nodes(m):
    # the product rule as built from a fresh leggauss call, bit for bit
    t, wt = np.polynomial.legendre.leggauss(m)
    phi = 2.0 * np.pi * np.arange(2 * m) / (2 * m)
    t2, phi2 = np.repeat(t, 2 * m), np.tile(phi, m)
    s = np.sqrt(np.maximum(0.0, 1.0 - t2**2))
    nodes = np.column_stack([s * np.cos(phi2), s * np.sin(phi2), t2])
    weights = np.repeat(wt, 2 * m) * (2.0 * np.pi / (2 * m))
    for _ in range(2):  # the second call reads the cached nodes
        rule = rl.sphere_rule(3, m)
        assert rule.nodes.tobytes() == nodes.tobytes()
        assert rule.weights.tobytes() == weights.tobytes()


def test_sphere_rule_totals():
    assert rl.sphere_rule(2, 64).weights.sum() == pytest.approx(2 * np.pi, abs=1e-12)
    assert rl.sphere_rule(3, 16).weights.sum() == pytest.approx(4 * np.pi, abs=1e-12)


def test_sphere_rule_d2_constant_and_harmonic_cancellation():
    rule = rl.sphere_rule(2, 64)
    assert rule.weights @ np.ones(len(rule)) == pytest.approx(2 * np.pi, abs=1e-12)
    theta = np.arctan2(rule.nodes[:, 1], rule.nodes[:, 0])
    for k in range(1, 64):
        assert abs(rule.weights @ np.cos(k * theta)) < 1e-10


def test_sphere_rule_d3_coordinate_second_moment():
    # symmetry oracle: each coordinate squared integrates to |S^2| / 3
    rule = rl.sphere_rule(3, 16)
    assert rule.weights @ rule.nodes[:, 1] ** 2 == pytest.approx(4 * np.pi / 3, rel=1e-12)


def test_sphere_rule_refuses_unsupported_dimensions():
    for d in (1, 4):
        with pytest.raises(UnsupportedDimensionError, match=f"defined for d = 2 and d = 3, not d = {d}"):
            rl.sphere_rule(d, 8)


def test_rules_are_permutation_invariant():
    rule = rl.gauss_legendre(13, -1.0, 2.0)
    rng = np.random.default_rng(0)
    perm = rng.permutation(len(rule))
    f = lambda t: np.exp(np.asarray(t)) * np.sin(3 * np.asarray(t))
    direct = float(rule.weights @ f(rule.nodes))
    shuffled = float(rule.weights[perm] @ f(rule.nodes[perm]))
    assert shuffled == pytest.approx(direct, rel=1e-12)


def test_rules_are_immutable():
    rule = rl.gauss_legendre(4, -1, 1)
    with pytest.raises(ValueError):
        rule.nodes[0] = 0.0


@pytest.mark.parametrize(
    "nodes, weights, message",
    [
        ([0.0, 1.0], [1.0, math.nan], "quadrature weights must be positive and finite"),
        ([0.0, 1.0], [math.inf, 1.0], "quadrature weights must be positive and finite"),
        ([0.0, 1.0], [1.0, 0.0], "quadrature weights must be positive and finite"),
        ([0.0, math.nan], [1.0, 1.0], "quadrature nodes must be finite, not nan"),
        ([[1.0, 0.0], [0.0, -math.inf]], [1.0, 1.0], "quadrature nodes must be finite, not -inf"),
    ],
)
def test_rule_refuses_non_finite_nodes_and_weights(nodes, weights, message):
    # a NaN weight passed np.any(weights <= 0), and no node was checked
    with pytest.raises(InvalidInputError, match=f"^{message}$"):
        rl.QuadratureRule(np.array(nodes), np.array(weights), exactness_degree=1)


@pytest.mark.parametrize("seed", [None, 7], ids=["low-discrepancy", "uniform"])
def test_ball_grid_containment(seed):
    grid = rl.ball_grid(2, 1.0, 100, seed=seed)
    assert np.all(np.linalg.norm(grid.points, axis=1) < 1.0)
    assert len(grid) == 100


def test_ball_grid_determinism():
    g1 = rl.ball_grid(3, 2.0, 64, seed=11)
    g2 = rl.ball_grid(3, 2.0, 64, seed=11)
    assert np.array_equal(g1.points, g2.points)
    h1 = rl.ball_grid(2, 1.0, 64)
    h2 = rl.ball_grid(2, 1.0, 64)
    assert np.array_equal(h1.points, h2.points)


def test_ball_grid_is_chosen_by_the_seed():
    # a seed was ignored unless mode="uniform" was also passed
    halton = rl.ball_grid(2, 1.0, 3)
    seeded = rl.ball_grid(2, 1.0, 3, seed=5)
    assert halton.points.tobytes() == _cube_to_ball(_halton(3, 2), 2, 1.0).tobytes()
    assert seeded.points.tobytes() == _cube_to_ball(np.random.default_rng(5).random((3, 2)), 2, 1.0).tobytes()
    assert set(vars(seeded)) == {"d", "R", "points"}


@pytest.mark.parametrize("seed", [-1, 1.5, True, "1"], ids=["negative", "fraction", "bool", "str"])
def test_ball_grid_names_a_refused_seed(seed):
    with pytest.raises(InvalidInputError, match="^seed must be"):
        rl.ball_grid(2, 1.0, 10, seed=seed)


@pytest.mark.parametrize("d, m", [(10**11, 200), (1, 2**22 + 1), (4, 2**22 // 5 + 1)])
def test_ball_grid_refuses_an_oversized_grid_before_building_it(d, m):
    # d = 1e11 asked numpy for 2.6 TiB of Halton bases, and d = 2e5 took 13 s to sieve them
    with pytest.raises(DomainError, match=f"m = {m} points in d = {d} takes more than 4194304 uniforms"):
        rl.ball_grid(d, 1.0, m)


def test_ball_grid_bound_counts_d_plus_one_uniforms_above_d3(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_GRID_UNIFORMS", 50)
    assert len(rl.ball_grid(3, 1.0, 16)) == 16  # 48 uniforms
    assert len(rl.ball_grid(4, 1.0, 10)) == 10  # 50 uniforms, at the bound
    for d, m in [(3, 17), (4, 11)]:
        with pytest.raises(DomainError):
            rl.ball_grid(d, 1.0, m)


def test_ball_grid_rejects_bad_inputs():
    with pytest.raises(InvalidInputError):
        rl.ball_grid(2, 1.0, 0)


@pytest.mark.parametrize("m", NOT_INTEGERS, ids=NOT_INTEGER_IDS)
def test_ball_grid_refuses_a_point_count_that_is_not_an_integer(m):
    with pytest.raises(InvalidInputError, match="grid point count must be an integer"):
        rl.ball_grid(2, 1.0, m)


@pytest.mark.parametrize(
    "d, message",
    [(0, "positive, not 0"), (-2, "positive, not -2"), (2.0, "an integer, not 2.0"), (True, "an integer, not True")],
)
def test_ball_grid_refuses_a_dimension_that_is_not_a_positive_integer(d, message):
    # d = 0 raised numpy's "need at least one array to concatenate", d = 2.0
    # "slice indices must be integers", and d = True made a d = 1 grid
    with pytest.raises(InvalidInputError, match=f"^dimension must be {message}"):
        rl.ball_grid(d, 1.0, 5)


@pytest.mark.parametrize("R", [math.inf, math.nan])
def test_ball_grid_refuses_a_non_finite_radius(R):
    with pytest.raises(InvalidInputError, match="finite"):
        rl.ball_grid(2, R, 5)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_ball_grid_record_refuses_points_outside_the_closed_ball(d):
    # a grid of R = 0.5 with a point at (5, 0) gave mode_connect_perturb a
    # functional change of 0.418, measured off the ball where the term is not null
    far = np.zeros((1, d))
    far[0, 0] = 5.0
    with pytest.raises(InvalidInputError, match=r"^grid point at \|x\| = 5 outside the ball of radius 0\.5$"):
        rl.BallGrid(d, 0.5, np.vstack([np.zeros((1, d)), far]))
    # the sphere itself is in: r = R u^(1/d) rounds to R at the largest uniform
    # below 1, and in d = 3, 4 some of these points' |x| round one ulp past R
    top = np.full((256, d if d <= 3 else d + 1), 1.0 - 2.0**-53)
    top[:, 1:] = np.random.default_rng(d).random((256, top.shape[1] - 1))
    on_sphere = _cube_to_ball(top, d, 0.5)
    assert len(rl.BallGrid(d, 0.5, on_sphere)) == 256
    assert len(rl.BallGrid(d, 0.5, np.eye(d) * 0.5)) == d


@pytest.mark.parametrize(
    "R, message", [(0.0, "positive, not 0.0"), (-1.0, "positive, not -1.0"), (math.nan, "finite, not nan")]
)
def test_ball_grid_record_refuses_an_unusable_radius(R, message):
    with pytest.raises(InvalidInputError, match=f"^ball radius R must be {message}$"):
        rl.BallGrid(2, R, np.zeros((1, 2)))


def test_ball_grid_higher_dimensions():
    # d > 3 has no deterministic sphere rule, but evaluation grids must still
    # exist for the sampling path
    for d in (4, 5, 8, 9, 32):
        uniform = rl.ball_grid(d, 1.0, 150, seed=3)
        assert uniform.points.shape == (150, d)
        assert np.all(np.linalg.norm(uniform.points, axis=1) < 1.0)
        halton = rl.ball_grid(d, 1.0, 150)
        assert halton.points.shape == (150, d)
        assert np.all(np.linalg.norm(halton.points, axis=1) < 1.0)


def test_halton_bases_are_the_first_primes():
    # d <= 8 keeps the nine bases it always had (d > 3 takes d + 1 columns)
    assert _primes(9).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23]
    primes = [p for p in range(2, 8000) if all(p % q for q in range(2, math.isqrt(p) + 1))]
    for n in (1, 5, 6, 10, 33, 65, 1000):
        assert _primes(n).tolist() == primes[:n]
    assert np.array_equal(_halton(50, 33)[:, :9], _halton(50, 9))
