"""Planar Radon transforms: line integrals, dual transform, adjointness,
and the density/test-function pairing identity."""

from __future__ import annotations

import math

import numpy as np
import pytest

import radonlab as rl
from radonlab.errors import DomainError, InvalidInputError
from radonlab.radon2d import _disk_rule


@pytest.fixture
def bump():
    return rl.BumpFunction(center=[0.15, -0.1], r=0.6, amplitude=1.3)


def psi_even(W, B):
    W = np.atleast_2d(W)
    return (W[:, 0] ** 2 - W[:, 1] ** 2) * np.asarray(B) ** 2  # cos(2 theta) b^2


def psi_odd(W, B):
    W = np.atleast_2d(W)
    return W[:, 0] * np.ones_like(np.asarray(B, dtype=float))


def test_bump_support_and_smooth_boundary(bump):
    assert bump(np.array([0.15, -0.1])) == pytest.approx(1.3 * math.exp(-1.0))
    assert bump(np.array([0.15 + 0.6, -0.1])) == 0.0
    assert bump(np.array([2.0, 2.0])) == 0.0
    near = np.array([0.15 + 0.6 - 1e-9, -0.1])
    assert bump(near) < 1e-200 or bump(near) == 0.0


def test_bump_laplacian_matches_finite_differences(bump):
    # oracle: 5-point finite-difference Laplacian
    h = 1e-5
    for x0 in (np.array([0.3, 0.1]), np.array([-0.1, -0.3]), np.array([0.15, -0.1])):
        fd = (
            bump(x0 + [h, 0]) + bump(x0 - [h, 0]) + bump(x0 + [0, h]) + bump(x0 - [0, h]) - 4 * bump(x0)
        ) / h**2
        assert bump.laplacian(x0) == pytest.approx(fd, rel=5e-5, abs=5e-5)


def test_bump_laplacian_integrates_to_zero(bump):
    # divergence theorem: the Laplacian of a compactly supported function has
    # zero total integral
    pts, wts = _disk_rule(bump.center, bump.r, 96)
    assert float(wts @ bump.laplacian(pts)) == pytest.approx(0.0, abs=1e-10)


def test_radon_missing_line_is_zero(bump):
    assert rl.radon_transform_2d(bump, np.array([1.0, 0.0]), 2.5) == 0.0


def test_radon_rotation_invariance_centered():
    bump0 = rl.BumpFunction(center=[0.0, 0.0], r=0.5)
    vals = [
        rl.radon_transform_2d(bump0, np.array([math.cos(t), math.sin(t)]), 0.0)
        for t in (0.0, 0.4, 1.1, 2.2)
    ]
    assert np.allclose(vals, vals[0], atol=1e-13)


def test_radon_evenness(bump):
    w = np.array([0.6, 0.8])
    a = rl.radon_transform_2d(bump, w, 0.2)
    b = rl.radon_transform_2d(bump, -w, -0.2)
    assert a == pytest.approx(b, abs=1e-15)
    assert a > 0


def test_radon_total_mass_fubini(bump):
    # integrating the transform over its b-support recovers the bump integral
    w = np.array([1.0, 0.0])
    p = float(w @ bump.center)
    rule_b = rl.gauss_legendre(96, p - bump.r, p + bump.r)
    total_from_lines = float(
        rule_b.weights @ np.array([rl.radon_transform_2d(bump, w, float(b)) for b in rule_b.nodes])
    )
    pts, wts = _disk_rule(bump.center, bump.r, 96)
    assert total_from_lines == pytest.approx(float(wts @ bump(pts)), rel=1e-9)


@pytest.mark.parametrize(
    "omega, b",
    [
        ([2.0, 0.0], 0.2),  # the line x = 0.1, which (1, 0) with b = 0.1 names
        ([0.0, 0.0], 0.1),
        ([math.nan, 0.0], 0.1),
        ([1.0, 0.0, 0.0], 0.1),
        ([0.6, 0.8], math.nan),
        ([0.6, 0.8], math.inf),
        ([0.6, 0.8], np.array([0.1, 0.2])),
    ],
    ids=["not-unit", "zero", "nan-omega", "three-vector", "nan-bias", "inf-bias", "two-biases"],
)
def test_radon_refuses_what_names_no_line(bump, omega, b):
    with pytest.raises(InvalidInputError):
        rl.radon_transform_2d(bump, np.array(omega), b)


@pytest.mark.parametrize(
    "center, r, amplitude",
    [
        ([math.nan, 0.0], 0.5, 1.0),
        ([0.0, math.inf], 0.5, 1.0),
        ([0.0, 0.0], math.nan, 1.0),
        ([0.0, 0.0], math.inf, 1.0),
        ([0.0, 0.0], 0.0, 1.0),
        ([0.0, 0.0], 0.5, math.nan),
        ([0.0, 0.0], 0.5, -math.inf),
    ],
    ids=["nan-center", "inf-center", "nan-r", "inf-r", "zero-r", "nan-amplitude", "inf-amplitude"],
)
def test_bump_refuses_non_finite_or_empty(center, r, amplitude):
    with pytest.raises(InvalidInputError):
        rl.BumpFunction(center, r, amplitude)


@pytest.mark.parametrize("x, shape", [([0.1, 0.2, 0.3], r"\(3,\)"), (0.1, r"\(\)"), ([[0.1, 0.2]], r"\(1, 2\)")])
def test_dual_transform_refuses_a_point_off_the_plane(x, shape):
    with pytest.raises(InvalidInputError, match=shape):
        rl.dual_radon_transform(psi_even, x)


def test_dual_transform_refuses_a_non_finite_point():
    with pytest.raises(InvalidInputError):
        rl.dual_radon_transform(psi_even, [math.nan, 0.2])


def test_dual_transform_refuses_a_psi_of_the_wrong_count():
    with pytest.raises(InvalidInputError, match="one value per line, 64"):
        rl.dual_radon_transform(lambda W, B: np.ones(3), [0.1, 0.2])


def test_adjointness_refuses_a_psi_of_the_wrong_count(bump):
    with pytest.raises(InvalidInputError, match="one value per line, 1024"):
        rl.adjointness_check(bump, lambda W, B: np.ones(3), 32)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_transforms_refuse_a_psi_that_is_not_finite(bump, bad):
    def psi(W, B):
        vals = psi_even(W, B)
        vals[len(vals) // 2] = bad  # one pair of the dual's circle and of the adjointness rhs's lattice
        return vals

    with pytest.raises(InvalidInputError, match="finite"):
        rl.dual_radon_transform(psi, [0.1, 0.2])
    with pytest.raises(InvalidInputError, match="finite"):
        rl.adjointness_check(bump, psi, 32)


@pytest.mark.parametrize("resolution", [True, 2.5, 3.0, "8", None], ids=["bool", "fraction", "whole-float", "string", "none"])
def test_planar_checks_refuse_a_resolution_that_is_not_an_integer(bump, resolution):
    mu = rl.from_cosine_sum(2, [(1.0, [0.7, 0.2])])
    with pytest.raises(InvalidInputError, match="must be an integer"):
        rl.adjointness_check(bump, psi_even, resolution)
    with pytest.raises(InvalidInputError, match="must be an integer"):
        rl.radon_pairing_check(mu, rl.density_from_spectrum(mu, 1.0), bump, resolution)


def test_dual_transform_constant_and_quadratic():
    assert rl.dual_radon_transform(lambda W, B: np.ones(len(np.atleast_2d(W))), [0.3, 0.2]) == pytest.approx(
        2 * math.pi, abs=1e-12
    )
    # oracle: int <w, x>^2 dw = pi |x|^2 on the unit circle
    x = np.array([0.4, -0.3])
    got = rl.dual_radon_transform(lambda W, B: np.asarray(B) ** 2, x)
    assert got == pytest.approx(math.pi * float(x @ x), abs=1e-12)


def test_dual_transform_rejects_odd_integrand():
    with pytest.raises(InvalidInputError):
        rl.dual_radon_transform(psi_odd, [0.1, 0.2])


def test_adjointness_constant_psi(bump):
    # Fubini oracle: both sides equal 2 pi times the bump integral
    lhs, rhs = rl.adjointness_check(bump, lambda W, B: np.ones(len(np.atleast_2d(W))), resolution=48)
    pts, wts = _disk_rule(bump.center, bump.r, 96)
    total = float(wts @ bump(pts))
    assert lhs == pytest.approx(2 * math.pi * total, rel=1e-9)
    assert rhs == pytest.approx(2 * math.pi * total, rel=1e-9)


def test_adjointness_relative_error_and_resolution_decay():
    # ten random (bump, low-degree psi) pairs; psi = even harmonic times an
    # even power of b
    rng = np.random.default_rng(8)
    errs_coarse, errs_fine = [], []
    for _ in range(10):
        center = rng.uniform(-0.25, 0.25, size=2)
        bump = rl.BumpFunction(center=center, r=float(rng.uniform(0.35, 0.6)), amplitude=float(rng.uniform(0.5, 2)))
        k = int(rng.choice([0, 2, 4]))
        p = int(rng.choice([0, 2]))
        c0 = float(rng.uniform(-1, 1))

        def psi(W, B, k=k, p=p, c0=c0):
            W = np.atleast_2d(W)
            theta = np.arctan2(W[:, 1], W[:, 0])
            return (c0 + np.cos(k * theta)) * np.asarray(B, dtype=float) ** p

        lhs, rhs = rl.adjointness_check(bump, psi, resolution=24)
        errs_coarse.append(abs(lhs - rhs) / max(abs(lhs), 1e-30))
        lhs2, rhs2 = rl.adjointness_check(bump, psi, resolution=48)
        errs_fine.append(abs(lhs2 - rhs2) / max(abs(lhs2), 1e-30))
    assert max(errs_fine) <= 1e-4
    assert np.median(errs_fine) <= np.median(errs_coarse)


def test_adjointness_disjoint_supports():
    small = rl.BumpFunction(center=[0.0, 0.0], r=0.1)
    psi_far = lambda W, B: np.exp(-((np.asarray(B) - 5.0) ** 2)) + np.exp(-((np.asarray(B) + 5.0) ** 2))
    lhs, rhs = rl.adjointness_check(small, psi_far, resolution=32)
    assert abs(lhs) < 1e-8 and abs(rhs) < 1e-8


def test_pairing_identity_zero_measure(bump):
    mu = rl.SpectralMeasure(d=2)
    density = rl.density_from_spectrum(mu, 1.0)
    lhs, rhs = rl.radon_pairing_check(mu, density, bump)
    assert lhs == 0.0
    assert abs(rhs) < 1e-10


def test_pairing_identity_single_cosine():
    xi0 = 1.3 * np.array([math.cos(0.7), math.sin(0.7)])
    mu = rl.from_cosine_sum(2, [(1.0, xi0)])
    density = rl.density_from_spectrum(mu, 1.0)
    bump = rl.BumpFunction(center=[0.1, 0.05], r=0.6)
    lhs, rhs = rl.radon_pairing_check(mu, density, bump, resolution=64)
    assert abs(lhs - rhs) <= 1e-4 * max(abs(lhs), 1.0)
    # independent analytic cross-check: pairing with the Laplacian of the bump
    # equals -|xi0|^2 <f, bump>
    pts, wts = _disk_rule(bump.center, bump.r, 96)
    inner = float(wts @ (mu.evaluate(pts) * bump(pts)))
    assert rhs == pytest.approx(-float(xi0 @ xi0) * inner, rel=1e-8)


def test_pairing_identity_random_spectra_and_resolution_decay():
    rng = np.random.default_rng(19)
    for trial in range(5):
        terms = [
            (float(rng.uniform(-1.5, 1.5)), rng.normal(size=2) * rng.uniform(0.4, 1.2))
            for _ in range(2)
        ]
        mu = rl.from_cosine_sum(2, terms)
        density = rl.density_from_spectrum(mu, 1.0)
        bump = rl.BumpFunction(center=rng.uniform(-0.2, 0.2, 2), r=0.55)
        l1, r1 = rl.radon_pairing_check(mu, density, bump, resolution=32)
        e1 = abs(l1 - r1) / max(abs(l1), 1.0)
        l2, r2 = rl.radon_pairing_check(mu, density, bump, resolution=64)
        e2 = abs(l2 - r2) / max(abs(l2), 1.0)
        assert e2 <= 1e-4
        assert e2 <= e1 + 1e-12


def test_pairing_unchanged_by_null_overlay():
    xi0 = 1.3 * np.array([1.0, 0.0])
    mu = rl.from_cosine_sum(2, [(1.0, xi0)])
    density = rl.density_from_spectrum(mu, 1.0)
    bump = rl.BumpFunction(center=[0.1, 0.05], r=0.6)
    lhs, _ = rl.radon_pairing_check(mu, density, bump, resolution=48)
    term = rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=2, R=1.0)
    merged = density.merged_with(rl.null_term_density(term, m=64))
    lhs2, _ = rl.radon_pairing_check(mu, merged, bump, resolution=48)
    assert abs(lhs2 - lhs) <= 1e-6


def test_pairing_requires_interior_support():
    mu = rl.from_cosine_sum(2, [(1.0, [1.0, 0.0])])
    density = rl.density_from_spectrum(mu, 1.0)
    wide = rl.BumpFunction(center=[0.5, 0.0], r=0.6)
    with pytest.raises(DomainError):
        rl.radon_pairing_check(mu, density, wide)


@pytest.mark.parametrize("center", [[0.1], [0.1, 0.0, 0.0]], ids=["d1", "d3"])
def test_pairing_refuses_a_bump_off_the_plane(center):
    mu = rl.from_cosine_sum(2, [(1.0, [1.0, 0.0])])
    with pytest.raises(InvalidInputError):
        rl.radon_pairing_check(mu, rl.density_from_spectrum(mu, 1.0), rl.BumpFunction(center, 0.3))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_bump_u_is_the_row_sum_bit_for_bit(d):
    rng = np.random.default_rng(40 + d)
    bump = rl.BumpFunction(center=rng.uniform(-0.3, 0.3, d), r=0.7, amplitude=1.1)
    X = rng.uniform(-1.0, 1.0, (4096, d))
    diff = (X - bump.center) / bump.r
    assert np.array_equal(bump._u(X), np.sum(diff * diff, axis=1))
    assert np.array_equal(bump._u(X[0]), np.sum(diff[:1] * diff[:1], axis=1))
    with pytest.raises(InvalidInputError):
        bump._u(np.zeros((3, d + 1)))
