"""Radon densities: profiles, TV norms, Fourier bound, reconstruction, moments."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import radonlab as rl
from radonlab import radon_measure
from radonlab.errors import InvalidInputError
from radonlab.radon_measure import (
    _NEWTON_STEPS,
    RadonDensity,
    _bracketed_newton,
    _folded_terms,
    direction_masses,
    profile_moment,
    ramp_integral_grid,
    sign_change_roots,
)

from conftest import (
    EPS,
    abs_cos_integral,
    lattice_grid,
    near_cancel_fpp,
    norm_and_fourier_bound,
    padded_density,
    random_cosine_terms,
    second_derivative_norm_1d,
)


def harmonic_moment(density, k, j, kprime):
    """Pairing of a density with Y_{k,j} (x) b^{k'}: the sum over its directions w
    of Y_{k,j}(w) times the moment of b^{k'} against g_w over (-R, R)."""
    R = density.R
    return sum(
        rl.harmonic_eval(k, j, density.d, w) * profile_moment(density, i, kprime, -R, R)
        for i, w in enumerate(density.directions)
    )


def sup_gap(mu, density, affine, X) -> float:
    """max |f - ramp pairing - affine part| over the points X inside the ball."""
    return float(np.max(np.abs(mu.evaluate(X) - ramp_integral_grid(density, X) - affine(X))))


@pytest.fixture
def cos_density(cos_measure):
    return rl.density_from_spectrum(cos_measure, math.pi / 2)


def test_cos_profile_is_half_negative_cosine(cos_density):
    # symbolic oracle: -1/4 (e^{-ib} + e^{ib}) = -cos(b)/2 on each direction
    b = np.linspace(-1.5, 1.5, 31)
    for r in range(len(cos_density)):
        assert np.allclose(cos_density.antiderivative(b, 0, r), -0.5 * np.cos(b), atol=1e-14)


def test_near_cancel_profile_is_half_second_derivative(near_cancel_measure):
    density = rl.density_from_spectrum(near_cancel_measure, 1.0)
    b = np.linspace(-1, 1, 41)
    for r in range(len(density)):
        assert np.allclose(density.antiderivative(b, 0, r), 0.5 * near_cancel_fpp(b), atol=1e-13)


def test_empty_spectrum_gives_zero_norm():
    mu = rl.SpectralMeasure(d=1)
    density = rl.density_from_spectrum(mu, 1.0)
    assert rl.tv_norm(density) == 0.0


def test_tv_norm_cosine_closed_form(cos_density):
    # analytic oracle: sum over S^0 of int |cos b| / 2 over (-pi/2, pi/2) = 2
    assert rl.tv_norm(cos_density) == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("d", [1, 2, 3, 9, 12, 32, 64])
def test_tv_norm_of_one_cosine_is_its_closed_form_in_any_d(d):
    # |a| t^2 int_{-R}^{R} |cos(t b)| db = |a| t int_{-tR}^{tR} |cos u| du
    rng = np.random.default_rng(d)
    xi = rng.normal(size=d)
    xi *= rng.uniform(2.0, 20.0) / np.linalg.norm(xi)
    a, R, t = -1.7, 1.3, float(np.linalg.norm(xi))
    density = rl.density_from_spectrum(rl.from_cosine_sum(d, [(a, xi)]), R)
    assert rl.tv_norm(density) == pytest.approx(abs(a) * t * abs_cos_integral(t * R), rel=1e-12)


def test_tv_norm_matches_second_derivative_oracle(near_cancel_measure):
    density = rl.density_from_spectrum(near_cancel_measure, 1.0)
    norm = rl.tv_norm(density)
    oracle = second_derivative_norm_1d(near_cancel_fpp, 1.0)
    assert norm == pytest.approx(oracle, abs=1e-8)
    # f'' is positive on (-1, 1), so the oracle integral is f'(1) - f'(-1)
    fp = lambda x: -math.sin(x) + (1 + EPS) * math.sin((1 + EPS) * x)
    assert oracle == pytest.approx(fp(1.0) - fp(-1.0), abs=1e-12)


def test_second_derivative_oracle_trivia():
    assert second_derivative_norm_1d(lambda b: -np.cos(b), math.pi / 2) == pytest.approx(2.0, abs=1e-12)
    assert second_derivative_norm_1d(lambda b: np.zeros_like(b), 1.0) == 0.0


def test_d1_norm_identity_on_random_cosine_sums():
    rng = np.random.default_rng(7)
    for _ in range(10):
        terms = random_cosine_terms(rng, 1, n_terms=int(rng.integers(1, 5)))
        mu = rl.from_cosine_sum(1, terms)
        R = float(rng.uniform(0.5, 2.0))
        norm = rl.tv_norm(rl.density_from_spectrum(mu, R))

        def fpp(b, terms=terms):
            b = np.asarray(b, dtype=float)
            return sum(-a * xi[0] ** 2 * np.cos(xi[0] * b) for a, xi in terms)

        assert norm == pytest.approx(second_derivative_norm_1d(fpp, R), abs=1e-8)


def test_tv_norm_monotone_in_radius(near_cancel_measure):
    radii = [0.5, 1.0, 1.5, 2.0, 3.0]
    norms = [rl.tv_norm(rl.density_from_spectrum(near_cancel_measure, R)) for R in radii]
    assert all(a <= b + 1e-12 for a, b in zip(norms, norms[1:]))


def test_fourier_bound_example_values(near_cancel_measure, cos_measure):
    norm, bound = norm_and_fourier_bound(near_cancel_measure, 1.0)
    assert norm <= bound
    assert bound == pytest.approx(4.0402, abs=1e-12)
    assert norm == pytest.approx(0.0276583565, abs=1e-8)
    norm, bound = norm_and_fourier_bound(cos_measure, math.pi / 2)
    assert norm <= bound + 1e-10
    assert norm == pytest.approx(2.0, abs=1e-10)
    assert bound == pytest.approx(math.pi, abs=1e-12)
    norm, bound = norm_and_fourier_bound(rl.SpectralMeasure(d=1), 1.0)
    assert norm == 0.0 and bound == 0.0


def test_fourier_bound_on_random_spectra():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        for R in (0.5, 1.0, 2.0):
            terms = random_cosine_terms(rng, d, n_terms=3)
            mu = rl.from_cosine_sum(d, terms)
            norm, bound = norm_and_fourier_bound(mu, R)
            assert norm <= bound + 1e-10, (d, R, norm, bound)
            assert bound == pytest.approx(2 * R * rl.fourier_constant_l2(terms), rel=1e-12)


def test_reconstruct_affine_only():
    density = RadonDensity(d=2, R=1.0, directions=np.zeros((0, 2)))
    affine = rl.AffinePart(v=[2.0, -1.0], c=0.5)
    X = [[0.3, 0.4]]
    assert (ramp_integral_grid(density, X) + affine(X))[0] == pytest.approx(2 * 0.3 - 0.4 + 0.5, abs=1e-15)


def test_reconstruct_cosine(cos_measure, cos_density):
    grid = lattice_grid(1, math.pi / 2, 64)
    affine = rl.fit_affine(cos_density)
    assert sup_gap(cos_measure, cos_density, affine, grid.points) < 1e-8
    assert (ramp_integral_grid(cos_density, [[0.3]]) + affine([[0.3]]))[0] == pytest.approx(math.cos(0.3), abs=1e-8)


def test_reconstruct_near_cancel_on_grid(near_cancel_measure):
    density = rl.density_from_spectrum(near_cancel_measure, 1.0)
    grid = lattice_grid(1, 1.0, 50)
    affine = rl.fit_affine(density)
    values = ramp_integral_grid(density, grid.points) + affine(grid.points)
    assert np.max(np.abs(values - near_cancel_measure.evaluate(grid.points))) <= 1e-7


def test_fit_affine_zero_spectrum():
    mu = rl.SpectralMeasure(d=1)
    density = rl.density_from_spectrum(mu, 1.0)
    grid = lattice_grid(1, 1.0, 20)
    affine = rl.fit_affine(density)
    assert np.allclose(affine.v, 0.0, atol=1e-14)
    assert affine.c == pytest.approx(0.0, abs=1e-14)
    assert sup_gap(mu, density, affine, grid.points) <= 1e-14


def test_fit_affine_negative_control_detects_non_null_corruption(cos_measure, cos_density):
    # adding a density that does NOT represent zero must break the representation
    m = len(cos_density)
    corrupt = cos_density.merged_with(
        RadonDensity(1, cos_density.R, cos_density.directions, freqs=np.full((1, m), 0.9), weights=np.full((1, m), 0.8 + 0j))
    )
    grid = lattice_grid(1, math.pi / 2, 64)
    affine = rl.fit_affine(corrupt)
    assert sup_gap(cos_measure, corrupt, affine, grid.points) > 1e-3


def _seeded_affine_cases(count=30):
    """(mu, density, ball grid points) of seeded spectra, d from 1 to 3 and R in [0.5, 3]."""
    rng = np.random.default_rng(41)
    for _ in range(count):
        d, R = int(rng.integers(1, 4)), float(rng.uniform(0.5, 3.0))
        mu = rl.from_cosine_sum(d, random_cosine_terms(rng, d, n_terms=int(rng.integers(1, 6))))
        yield mu, rl.density_from_spectrum(mu, R), rl.ball_grid(d, R, 200).points


def test_fit_affine_matches_a_least_squares_oracle():
    # the oracle: the affine function nearest to f - ramp on the grid, by least squares
    for mu, density, X in _seeded_affine_cases():
        target = mu.evaluate(X) - ramp_integral_grid(density, X)
        theta = np.linalg.lstsq(np.column_stack([X, np.ones(len(X))]), target, rcond=None)[0]
        affine = rl.fit_affine(density)
        scale = max(1.0, np.abs(affine.v).max(), abs(affine.c))
        assert np.abs(affine.v - theta[:-1]).max() <= 1e-12 * scale
        assert abs(affine.c - theta[-1]) <= 1e-12 * scale


def test_fit_affine_closes_the_ramp_identity():
    for mu, density, X in _seeded_affine_cases():
        scale = max(1.0, np.abs(mu.evaluate(X)).max())
        assert sup_gap(mu, density, rl.fit_affine(density), X) <= 1e-12 * scale


def test_ramp_identity_detects_a_shifted_constant():
    mu, density, X = next(_seeded_affine_cases())
    affine = rl.fit_affine(density)
    assert sup_gap(mu, density, rl.AffinePart(v=affine.v, c=affine.c + 1e-9), X) >= 5e-10


def test_thm1_residual_on_random_spectra_d1_d2():
    rng = np.random.default_rng(23)
    for d in (1, 2):
        for _ in range(5):
            terms = random_cosine_terms(rng, d, n_terms=3)
            mu = rl.from_cosine_sum(d, terms)
            R = 1.0
            density = rl.density_from_spectrum(mu, R)
            grid = rl.ball_grid(d, R, 200)
            affine = rl.fit_affine(density)
            assert sup_gap(mu, density, affine, grid.points) <= 1e-6


def test_harmonic_moment_parity_zero():
    # profile even in b against an odd monomial integrates to zero
    mu = rl.from_cosine_sum(2, [(1.0, [2.0, 0.0])])
    density = rl.density_from_spectrum(mu, 1.0)
    assert harmonic_moment(density, 3, 1, 1) == pytest.approx(0.0, abs=1e-12)


def test_harmonic_moment_self_pairing_positive():
    term = rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=2, R=1.0)
    density = rl.null_term_density(term, m=64)
    # self-pairing oracle: coeff * int Y^2 over the circle (= 1, orthonormal)
    # times int b^0 db over (-R, R) = 2 R
    got = harmonic_moment(density, 4, 1, 0)
    assert got == pytest.approx(2.0, rel=1e-10)
    assert got > 0.5


def test_merged_with_refuses_another_hyperplane_space_even_when_one_side_is_empty():
    # an empty side was returned before the check: an empty d=2, R=1 density
    # merged with a d=3, R=2 null density gave that null density, in either order
    null3 = rl.null_term_density(rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=3, R=2.0))
    empty = lambda d, R: rl.density_from_spectrum(rl.SpectralMeasure(d=d), R)
    null2 = rl.null_term_density(rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=2, R=1.0))
    for other in (empty(2, 1.0), empty(3, 1.0), null2):
        for a, b in ((other, null3), (null3, other)):
            with pytest.raises(InvalidInputError, match="different hyperplane spaces"):
                a.merged_with(b)


def test_density_arrays_refuse_a_weight_in_an_empty_slot_and_misaligned_columns():
    with pytest.raises(InvalidInputError, match="zero trig frequency"):
        RadonDensity(d=1, R=1.0, directions=[[1.0], [-1.0]], freqs=[[1.0, 0.0]], weights=[[1.0, 0.5]])
    with pytest.raises(InvalidInputError, match="must align"):
        RadonDensity(d=1, R=1.0, directions=[[1.0], [-1.0]], freqs=[[1.0, 1.0]], weights=[[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidInputError, match="one column per direction"):
        RadonDensity(d=1, R=1.0, directions=[[1.0], [-1.0]], poly=[[1.0, 2.0, 3.0]])
    # an empty slot with weight 0 is no term
    density = RadonDensity(d=1, R=1.0, directions=[[1.0]], freqs=[[0.0], [2.0]], weights=[[0.0], [1.0]])
    assert density.antiderivative(0.5, 0, 0) == math.cos(1.0)


@pytest.mark.parametrize(
    "omegas, freqs, coefs",
    [
        # (1, -1) is missing: the conjugate partner of (1, 1) in its direction
        ([[1.0], [-1.0], [-1.0]], [1.0, -1.0, 1.0], [1.0 + 1.0j, 1.0 + 1.0j, 1.0 - 1.0j]),
        # the direction (1, 0) has no antipode
        ([[1.0, 0.0], [1.0, 0.0]], [2.0, -2.0], [1.0 + 0.5j, 1.0 - 0.5j]),
        # the antipode carries twice the coefficient: g_w(b) = g_{-w}(-b) breaks
        ([[1.0], [1.0], [-1.0], [-1.0]], [1.0, -1.0, -1.0, 1.0], [0.25, 0.25, 0.5, 0.5]),
    ],
    ids=["conjugate", "antipode", "antipode-coefficient"],
)
def test_density_refuses_an_open_measure(omegas, freqs, coefs):
    mu = rl.SpectralMeasure(len(omegas[0]), omegas, freqs, coefs)
    with pytest.raises(rl.InvariantViolationError, match="missing symmetry partner"):
        rl.density_from_spectrum(mu, 1.0)


def test_a_measure_closed_at_nine_decimals_has_the_closed_form_norm():
    # cos(<xi, x>) with |xi| = t, whose two conjugate atoms sit on directions
    # 3e-11 rad apart: one key to 9 decimals, two directions to 12, and four
    # one-atom columns, real term by term and even with their antipodes
    t, R, theta = 3.0, 1.0, math.atan2(0.8, 0.6)
    w = np.array([0.6, 0.8])
    v = np.array([math.cos(theta + 3e-11), math.sin(theta + 3e-11)])
    assert np.round(w, 9).tolist() == np.round(v, 9).tolist()
    assert np.round(w, 12).tolist() != np.round(v, 12).tolist()
    mu = rl.SpectralMeasure(2, [w, v, -w, -v], [t, -t, -t, t], [0.25] * 4)
    density = rl.density_from_spectrum(mu, R)
    assert len(density) == 4
    assert rl.tv_norm(density) == pytest.approx(t * abs_cos_integral(t * R), rel=1e-12)


def test_profile_moment_matches_analytic():
    # int b * (-cos b)/2 over (0, R): odd x even integrand, do it analytically
    mu = rl.from_cosine_sum(1, [(1.0, [1.0])])
    density = rl.density_from_spectrum(mu, 1.0)
    # direction +1 profile is -cos(b)/2; int_0^1 b(-cos b)/2 db
    # = -(cos 1 + 1*sin 1 - 1)/2
    i_plus = [i for i, w in enumerate(density.directions) if w[0] > 0][0]
    expected = -0.5 * (math.cos(1.0) + math.sin(1.0) - 1.0)
    assert profile_moment(density, i_plus, 1, 0.0, 1.0) == pytest.approx(expected, abs=1e-12)


def test_null_density_added_to_density_leaves_reconstruct_unchanged(near_cancel_measure):
    # d=2 spectrum plus a null-term overlay
    rng = np.random.default_rng(3)
    terms = random_cosine_terms(rng, 2, n_terms=2)
    mu = rl.from_cosine_sum(2, terms)
    density = rl.density_from_spectrum(mu, 1.0)
    grid = rl.ball_grid(2, 1.0, 100)
    affine = rl.fit_affine(density)
    base_vals = ramp_integral_grid(density, grid.points) + affine(grid.points)
    term = rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=2, R=1.0)
    merged = density.merged_with(rl.null_term_density(term, m=64))
    merged_vals = ramp_integral_grid(merged, grid.points) + affine(grid.points)
    assert np.max(np.abs(merged_vals - base_vals)) <= 1e-6


def test_ramp_integral_closed_form_for_cosine(cos_density):
    # analytic oracle: ramp pairing of the cosine density over both S^0
    # directions equals cos(x) - (R sin R + cos R)
    R = math.pi / 2
    xs = np.linspace(-1.2, 1.2, 9)
    got = ramp_integral_grid(cos_density, xs[:, None])
    expected = np.cos(xs) - (R * math.sin(R) + math.cos(R))
    assert np.allclose(got, expected, atol=1e-12)


def test_ramp_integral_is_the_per_direction_sum_bit_for_bit(monkeypatch):
    # one kernel call over all (direction, point) pairs, or one per chunk of
    # directions, adds the same values in the same order as a loop over
    # directions
    rng = np.random.default_rng(9)
    mu = rl.from_cosine_sum(2, random_cosine_terms(rng, 2, n_terms=4))
    term = rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=2, R=1.0)
    density = rl.density_from_spectrum(mu, 1.0).merged_with(rl.null_term_density(term, m=16))
    X = rl.ball_grid(2, 1.0, 150).points
    loop = np.zeros(len(X))
    for r, w in enumerate(density.directions):
        u = X @ w
        G = density.antiderivative
        loop += G(u, 2, r) - G(-1.0, 2, r) - (u + 1.0) * G(-1.0, 1, r)
    assert np.array_equal(ramp_integral_grid(density, X), loop)
    monkeypatch.setattr("radonlab.radon_measure._EVAL_BLOCK", 400)  # chunks of two directions
    assert np.array_equal(ramp_integral_grid(density, X), loop)


def test_ramp_integral_matches_quad_at_high_frequency():
    # |xi| R = 100: the pairing must stay exact far past any fixed panel rule
    mu = rl.from_cosine_sum(1, [(1.0, [100.0]), (-0.5, [37.0])])
    density = rl.density_from_spectrum(mu, 1.0)
    xs = np.linspace(-0.95, 0.95, 7)
    got = ramp_integral_grid(density, xs[:, None])
    G = density.antiderivative
    expected = [
        sum(
            quad(lambda b, u=x * w[0], r=r: (u - b) * G(b, 0, r), -1.0, x * w[0], epsabs=1e-11, epsrel=1e-11, limit=500)[0]
            for r, w in enumerate(density.directions)
        )
        for x in xs
    ]
    assert np.allclose(got, expected, rtol=0.0, atol=1e-10)


def test_moments_exact_on_high_degree_polynomial_profiles():
    coefs = np.zeros(23)
    coefs[20], coefs[22] = 1.0, 0.5
    density = RadonDensity(d=1, R=1.0, directions=np.array([[1.0]]), poly=coefs[:, None])
    # int b^21 (b^20 + b^22 / 2) over (lo, hi) = [b^42 / 42 + b^44 / 88]
    for lo, hi in ((-1.0, 1.0), (0.3, 0.9)):
        exact = (hi**42 - lo**42) / 42 + (hi**44 - lo**44) / 88
        assert profile_moment(density, 0, 21, lo, hi) == pytest.approx(exact, rel=1e-13, abs=1e-16)
    assert profile_moment(density, 0, 20, -1.0, 1.0) == pytest.approx(2 / 41 + 1 / 43, rel=1e-13)
    # self-pairing of Y_{22,j} b^20: coeff * (int Y^2 = 1) * (int b^40 = 2/41),
    # on rules exact to degree 44
    for d, j, m in ((2, 1, 64), (2, 2, 64), (3, 3, 23)):
        term = rl.HarmonicNullTerm(k=22, j=j, kprime=20, coeff=1.5, d=d, R=1.0)
        got = harmonic_moment(rl.null_term_density(term, m=m), 22, j, 20)
        assert got == pytest.approx(1.5 * 2 / 41, rel=1e-10)


@pytest.mark.parametrize("t, power", [(1.0, 20), (0.3, 9), (2.5, 20), (100.0, 3), (100.0, 25)])
def test_profile_moment_trig_part_matches_quad(t, power):
    # both branches of the closed form: the series at |t| R < 0.3 power,
    # integration by parts above it
    density = RadonDensity(d=1, R=1.0, directions=np.array([[1.0]]), freqs=[[t]], weights=[[0.7 - 0.4j]])
    for lo, hi in ((-1.0, 1.0), (0.0, 1.0), (-0.6, 0.8)):
        g = lambda b: density.antiderivative(b, 0, 0)
        expected = quad(lambda b: b**power * g(b), lo, hi, epsabs=1e-14, epsrel=1e-13, limit=500)[0]
        got = profile_moment(density, 0, power, lo, hi)
        assert got == pytest.approx(expected, rel=1e-11, abs=1e-13)


def scalar_bisection_roots(fn, lo, hi, scan, tol=1e-12):
    """Reference: bracket sign changes on the scan, then bisect one bracket at a time."""
    xs = np.linspace(lo, hi, scan)
    vals = fn(xs)
    signs = np.sign(vals)
    signs[signs == 0] = 1.0
    roots = []
    for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
        a, b, fa = float(xs[i]), float(xs[i + 1]), float(vals[i])
        while b - a > tol:
            m = 0.5 * (a + b)
            fm = float(fn(np.array([m]))[0])
            if fa * fm <= 0:
                b = m
            else:
                a, fa = m, fm
        roots.append(0.5 * (a + b))
    return roots


def alone(profile, R=1.0):
    """A density of one direction whose column is ``profile`` = (freqs, weights, poly)."""
    return padded_density([[1.0]], [profile], R)


def test_vectorized_roots_match_scalar_bisection():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(1, 9))
        R = float(rng.uniform(0.5, 2.0))
        density = alone(
            (
                rng.uniform(1.0, 40.0 / R, n) * rng.choice([-1.0, 1.0], n),
                rng.normal(size=n) + 1j * rng.normal(size=n),
                rng.normal(size=int(rng.integers(0, 3))),
            ),
            R,
        )
        for scan in (512, 2049):
            got = sign_change_roots(density, -R, R, [scan])["x"]
            expected = scalar_bisection_roots(lambda x: density.antiderivative(x, 0, 0), -R, R, scan)
            assert len(got) > 0 and len(got) == len(expected)
            assert np.max(np.abs(got - expected)) <= 2e-12 * max(1.0, R)


def random_profile(rng, n_terms, poly_degree):
    return (
        rng.uniform(0.5, 40.0, n_terms) * rng.choice([-1.0, 1.0], n_terms),
        rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms),
        rng.normal(size=poly_degree + 1) if poly_degree >= 0 else np.zeros(0),
    )


@pytest.mark.parametrize("poly_degree", [-1, 3])
@pytest.mark.parametrize("n_terms", [1, 2, 3, 8, 64])
def test_profile_value_does_not_depend_on_its_batch(n_terms, poly_degree):
    # a BLAS product over the terms gives bits that depend on which other
    # points share the call; the ordered elementwise sum does not
    rng = np.random.default_rng(n_terms)
    density = alone(random_profile(rng, n_terms, poly_degree))
    b = rng.uniform(-2.0, 2.0, 1000)
    for k in (0, 1, 2):
        batch = density.antiderivative(b, k, 0)
        one = np.array([density.antiderivative(b[i : i + 1], k, 0)[0] for i in range(len(b))])
        assert np.array_equal(batch, one)


def test_conjugate_pairs_fold_into_one_term():
    w = 0.7 - 0.4j
    # a term repeated with its partner repeated, an unpaired term and a pair split by others
    freqs = np.array([3.0, -3.0, 3.0, 5.0, -3.0, 11.0, -5.0])
    weights = np.array([w, np.conj(w), w, 1.5j, np.conj(w), 0.2, -1.5j])
    folded = _folded_terms(list(zip(freqs.tolist(), weights.tolist())))
    assert folded == [(3.0, 2 * w), (-3.0, 2 * np.conj(w)), (5.0, 3.0j), (11.0, 0.2)]
    density = alone((freqs, weights, np.zeros(0)))
    b = np.linspace(-2.0, 2.0, 101)
    for k in (0, 1, 2):
        naive = sum(wj * np.exp(-1j * tj * b) / (-1j * tj) ** k for tj, wj in zip(freqs, weights))
        assert np.allclose(density.antiderivative(b, k, 0), naive.real, rtol=0, atol=1e-13)


def test_stacked_profiles_match_their_rows_bit_for_bit():
    # padding to the largest term count and degree adds exact zeros
    rng = np.random.default_rng(8)
    profiles = [random_profile(rng, n, deg) for n, deg in ((1, -1), (5, 2), (2, 0), (0, 4), (3, -1))]
    density = padded_density(np.ones((len(profiles), 1)), profiles, R=2.0)
    b = rng.uniform(-2.0, 2.0, 300)
    rows = rng.integers(0, len(profiles), len(b))
    stacked = density._values(b, (0, 1, 2), rows)
    for k, values in zip((0, 1, 2), stacked):
        for r, profile in enumerate(profiles):
            assert np.array_equal(values[rows == r], alone(profile, 2.0).antiderivative(b[rows == r], k, 0))


def test_an_int_row_reads_the_same_bits_as_an_array_of_it():
    # an int reads its column as a slice, an array gathers it point by point
    rng = np.random.default_rng(10)
    profiles = [random_profile(rng, n, deg) for n, deg in ((4, -1), (0, 3), (2, 1), (7, 0))]
    term = rl.HarmonicNullTerm(k=4, j=1, kprime=2, coeff=1.0, d=2, R=2.0)
    spectral = rl.density_from_spectrum(rl.from_cosine_sum(2, random_cosine_terms(rng, 2, 5)), 2.0)
    b = rng.uniform(-2.0, 2.0, 400)
    merged = spectral.merged_with(rl.null_term_density(term, m=8))
    for density in (padded_density(np.ones((len(profiles), 1)), profiles, R=2.0), merged):
        for r in range(len(density)):
            for k in (-1, 0, 1, 2):
                assert np.array_equal(density.antiderivative(b, k, r), density.antiderivative(b, k, np.full(len(b), r)))


def test_one_root_pass_matches_each_profile_alone():
    rng = np.random.default_rng(12)
    scans = [512, 700, 2049, 513, 512, 900, 4000]
    profiles = [random_profile(rng, int(rng.integers(1, 6)), int(rng.integers(-1, 3))) for _ in scans]
    density = padded_density(np.ones((len(scans), 1)), profiles, R=1.5)
    roots = sign_change_roots(density, -1.5, 1.5, scans)
    assert np.all(np.diff(roots["row"]) >= 0)
    for r, (profile, scan) in enumerate(zip(profiles, scans)):
        one = alone(profile, 1.5)
        own = sign_change_roots(one, -1.5, 1.5, [scan])["x"]
        assert np.array_equal(roots["x"][roots["row"] == r], own)
        expected = scalar_bisection_roots(lambda x: one.antiderivative(x, 0, 0), -1.5, 1.5, scan)
        assert len(own) == len(expected) and np.max(np.abs(own - expected), initial=0.0) <= 2e-12 * 1.5


def newton_iterates(F, dF, x, lo, hi, tol):
    """The solutions of ``_bracketed_newton`` on F(live, x), and the points it evaluated, step by step."""
    seen = []

    def fn(live, x):
        seen.append(x.copy())
        return F(live, x), dF(live, x)

    x, lo, hi = (np.asarray(v, dtype=float) for v in (x, lo, hi))
    return _bracketed_newton(fn, x, lo, hi, tol), seen


def test_bracketed_newton_ends_within_its_cap_at_zero_tolerance():
    # a zero tolerance stops a bracket only on a step of exactly zero; the cap ends the rest
    rng = np.random.default_rng(3)
    lo = rng.uniform(-3.0, 0.0, 200)
    hi = lo + rng.uniform(1e-3, 2.0, 200)
    roots = rng.uniform(lo, hi)
    F = lambda live, x: np.sinh(x - roots[live])
    dF = lambda live, x: np.cosh(x - roots[live])
    out, seen = newton_iterates(F, dF, 0.5 * (lo + hi), lo, hi, 0.0)
    assert len(seen) <= _NEWTON_STEPS
    assert np.all((lo <= out) & (out <= hi))
    assert np.max(np.abs(out - roots)) <= 4 * np.spacing(3.0)


def test_bracketed_newton_takes_the_midpoint_where_the_slope_vanishes():
    # F = x^3 - 1 has F' = 0 at the bracket's midpoint 0: the step is 1/0,
    # which falls back to the midpoint of [0, 1] without a warning; for
    # F = x^3, F = 0 there as well, and 0/0 ends the bracket at 0
    dF = lambda live, x: 3.0 * x**2
    out, seen = newton_iterates(lambda live, x: x**3 - 1.0, dF, [0.0], [-1.0], [1.0], 1e-12)
    assert seen[1][0] == 0.5 and out[0] == pytest.approx(1.0, abs=1e-15)
    out, seen = newton_iterates(lambda live, x: x**3, dF, [0.0], [-1.0], [1.0], 1e-12)
    assert out[0] == 0.0 and len(seen) == 1


def test_bracketed_newton_accepts_a_step_onto_a_bracket_end():
    # F = x - 1 on [0, 1]: from 0.5 the Newton step lands exactly on the end 1,
    # which a test against the open bracket would replace by the midpoint 0.75
    out, seen = newton_iterates(lambda live, x: x - 1.0, lambda live, x: np.ones_like(x), [0.5], [0.0], [1.0], 1e-12)
    assert seen[1][0] == 1.0 and out[0] == 1.0 and len(seen) == 2


def test_root_pass_makes_few_kernel_calls(monkeypatch):
    # the scan, a few Newton steps and G_1 at the panel edges: a root
    # bisection to 1e-12 made 34-36 calls on these spectra
    calls = []
    values = RadonDensity._values
    monkeypatch.setattr(RadonDensity, "_values", lambda self, *args: calls.append(1) or values(self, *args))
    rng = np.random.default_rng(2024)
    for _ in range(40):
        d, R = int(rng.integers(1, 4)), float(rng.uniform(0.5, 3.0))
        terms = random_cosine_terms(rng, d, int(rng.integers(1, 6)), freq_range=(0.5, 40.0 / R))
        density = rl.density_from_spectrum(rl.from_cosine_sum(d, terms), R)
        calls.clear()
        density.panels(-R, R)
        assert len(calls) <= 8


def test_root_scan_blocks_split_nothing(monkeypatch):
    # a scan longer than one block, with block edges inside and between profiles
    rng = np.random.default_rng(4)
    profiles = [random_profile(rng, 3, -1) for _ in range(3)]
    whole = padded_density(np.ones((3, 1)), profiles).panels(-1.0, 1.0)
    monkeypatch.setattr("radonlab.radon_measure._SCAN_BLOCK", 97)
    monkeypatch.setattr("radonlab.radon_measure._EVAL_BLOCK", 50)
    blocked = padded_density(np.ones((3, 1)), profiles).panels(-1.0, 1.0)
    for x, y in zip(whole, blocked):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("t, R", [(1000.0, 1.0), (3000.0, 1.0), (200.0, 30.0)])
def test_tv_norm_high_frequency_matches_oracle(t, R):
    # 637 to 3820 roots: more than the 512-point minimum scan has cells
    density = rl.density_from_spectrum(rl.from_cosine_sum(1, [(1.0, [t])]), R)
    points = math.ceil(32.0 * t * 2.0 * R / math.pi) + 1  # 32 points per half-period
    oracle = second_derivative_norm_1d(lambda b: -(t**2) * np.cos(t * b), R, points=points)
    assert rl.tv_norm(density) == pytest.approx(oracle, rel=1e-10)


def test_tv_norm_memory_bounded_at_high_frequency():
    # 64 terms up to |t| R = 2e4: the scan has ~2e5 points, so one
    # points x terms float64 matrix would take ~100 MB
    rng = np.random.default_rng(5)
    density = alone((rng.uniform(1e4, 2e4, 64), rng.normal(size=64) + 1j * rng.normal(size=64), np.zeros(0)))
    tracemalloc.start()
    try:
        norm = rl.tv_norm(density)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert np.isfinite(norm) and norm > 0


def test_empty_slots_and_a_poly_only_column_scan_at_a_huge_radius():
    # empty slots count as no frequency: a column of 2 cos(t b) beside an empty
    # slot, and a constant column without terms, keep small scans at R = 1e7
    R, t = 1e7, 0.005
    density = RadonDensity(
        d=1, R=R, directions=np.array([[1.0], [-1.0]]),
        freqs=np.array([[t, 0.0], [0.0, 0.0], [-t, 0.0]]), weights=np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]]),
        poly=np.array([[0.0, 1.0]]),
    )
    # the integral of |cos u| over (0, X) is 2 k + (sin r or 2 - sin r), X = k pi + r
    k, rest = divmod(t * R, math.pi)
    lobes = 2 * k + (math.sin(rest) if rest <= math.pi / 2 else 2 - math.sin(rest))
    masses = direction_masses(density)
    assert masses[0] == pytest.approx(2 * 2 * lobes / t, rel=1e-9)
    assert masses[1] == 2 * R
    assert rl.tv_norm(density) == masses[0] + masses[1]


# --- the norm's exact invariances ------------------------------------------------
# Each holds exactly in the mathematics and to rounding in the code: the norm of
# a transformed spectrum is computed from scratch, so these check the root pass
# and its lines against an oracle that shares nothing with them.

INVARIANCE = settings(max_examples=25, deadline=None, derandomize=True, database=None, phases=[Phase.generate])


def ball_norm(d: int, terms, R: float) -> float:
    return rl.tv_norm(rl.density_from_spectrum(rl.from_cosine_sum(d, terms), R))


def seeded_terms(seed: int, d: int, n: int):
    """n cosines with |a| in [0.2, 2] and |xi| in [0.5, 10]."""
    rng = np.random.default_rng(seed)
    amps = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
    return random_cosine_terms(rng, d, n, freq_range=(0.5, 10.0)), amps


@INVARIANCE
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3), n=st.integers(1, 4), R=st.floats(0.5, 2.0))
def test_norm_is_invariant_under_rotations(seed, d, n, R):
    terms, _ = seeded_terms(seed, d, n)
    Q = np.linalg.qr(np.random.default_rng(seed + 1).normal(size=(d, d)))[0]
    rotated = [(a, Q @ xi) for a, xi in terms]
    assert ball_norm(d, rotated, R) == pytest.approx(ball_norm(d, terms, R), rel=1e-12)


@INVARIANCE
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), n=st.integers(1, 4), lam=st.floats(-10.0, 10.0))
def test_norm_is_absolutely_homogeneous(seed, d, n, lam):
    terms, _ = seeded_terms(seed, d, n)
    lam = math.copysign(max(abs(lam), 0.1), lam)
    scaled = [(lam * a, xi) for a, xi in terms]
    assert ball_norm(d, scaled, 1.0) == pytest.approx(abs(lam) * ball_norm(d, terms, 1.0), rel=1e-12)


@INVARIANCE
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 3), n=st.integers(1, 4), s=st.floats(0.25, 4.0))
def test_a_dilation_scales_the_norm_on_the_shrunk_ball(seed, d, n, s):
    # f(s x) on the ball of radius R / s has s times the norm of f on the ball of radius R
    terms, _ = seeded_terms(seed, d, n)
    dilated = [(a, s * xi) for a, xi in terms]
    assert ball_norm(d, dilated, 1.5 / s) == pytest.approx(s * ball_norm(d, terms, 1.5), rel=1e-12)


@INVARIANCE
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3), n=st.integers(1, 4))
def test_a_spectrum_on_one_line_has_the_norm_of_its_projection(seed, d, n):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=d)
    u /= np.linalg.norm(u)
    k = rng.uniform(0.5, 10.0, n) * rng.choice([-1.0, 1.0], n)
    amps = rng.uniform(0.2, 2.0, n) * rng.choice([-1.0, 1.0], n)
    on_line = [(a, kk * u) for a, kk in zip(amps, k)]
    projected = [(a, [kk]) for a, kk in zip(amps, k)]
    assert ball_norm(d, on_line, 1.0) == pytest.approx(ball_norm(1, projected, 1.0), rel=1e-12)


# --- lines: the two directions of a hyperplane family solved once -------------------


def alone_panels(density, r, lo, hi):
    """The panels of column r in a density that holds that direction alone."""
    one = RadonDensity(density.d, density.R, density.directions[r : r + 1], density.freqs[:, r : r + 1],
                       density.weights[:, r : r + 1], density.poly[:, r : r + 1])
    return one.panels(lo, hi)


def same_bits_but_signed_zeros(x, y) -> bool:
    return np.array_equal(x, y) and np.array_equal(np.signbit(x[x != 0]), np.signbit(y[y != 0]))


@pytest.mark.parametrize("seed", range(6))
def test_each_direction_has_the_panels_it_has_alone(seed):
    # parallel and antiparallel terms fold into shared slots and lines
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 4))
    base = random_cosine_terms(rng, d, 3, freq_range=(0.5, 15.0))
    terms = base + [(float(rng.uniform(-1, 1)), float(rng.choice([-2.0, 3.0, -0.5])) * xi) for _, xi in base[:2]]
    density = rl.density_from_spectrum(rl.from_cosine_sum(d, terms), 1.3)
    assert len(np.unique(density._lines)) == len(density) // 2  # w and -w of every direction share a line
    for lo, hi in ((-1.3, 1.3), (0.0, 1.3)):
        starts, edges, g1, cum = density.panels(lo, hi)
        for r in range(len(density)):
            s0, e0, g0, c0 = alone_panels(density, r, lo, hi)
            own = slice(starts[r], starts[r + 1])
            assert np.array_equal(edges[own], e0) and np.array_equal(cum[own], c0)
            # G_1 of the line's first column can carry the other sign of zero at b = 0
            assert same_bits_but_signed_zeros(g1[own], g0)


def test_partners_whose_profiles_differ_keep_a_pass_each(monkeypatch):
    # complex weights, an odd polynomial part and a weight a rounding apart:
    # each column its own line, each solved on its own
    density = padded_density(
        [[1.0], [-1.0], [1.0], [-1.0], [1.0], [-1.0]],
        [
            ([3.0], [1.0 + 0.5j], []), ([-3.0], [1.0 - 0.5j], []),
            ([2.0], [1.0], [0.0, 1.0]), ([-2.0], [1.0], [0.0, -1.0]),
            ([5.0], [1.0], []), ([-5.0], [np.nextafter(1.0, 2.0)], []),
        ],
    )
    assert list(density._lines) == list(range(6))
    solved = []
    newton = radon_measure._bracketed_newton
    monkeypatch.setattr(radon_measure, "_bracketed_newton", lambda fn, x, *a: solved.append(len(x)) or newton(fn, x, *a))
    roots = sign_change_roots(density, -1.0, 1.0, [512] * 6)
    assert solved == [len(roots)]
    # one line of two columns: their roots are solved once and copied
    paired = padded_density([[1.0], [-1.0]], [([4.0], [1.0], [0.5]), ([-4.0], [1.0], [0.5])])
    assert list(paired._lines) == [0, 0]
    solved.clear()
    roots = sign_change_roots(paired, -1.0, 1.0, [512, 512])
    assert 2 * solved[0] == len(roots) and np.array_equal(roots["x"][roots["row"] == 0], roots["x"][roots["row"] == 1])
