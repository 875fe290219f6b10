"""The array kernels behind the planar transforms, against per-line and
per-point loops written here with numpy alone."""

from __future__ import annotations

import math
import tracemalloc
from functools import cache

import numpy as np
import pytest
from scipy.integrate import quad

import radonlab as rl
from radonlab.radon2d import _BLOCK, _disk_rule, _line_integrals


def bump_values(center, r, amplitude, X):
    u = np.sum(((np.atleast_2d(X) - center) / r) ** 2, axis=1)
    out = np.zeros(len(u))
    inside = u < 1.0
    out[inside] = amplitude * np.exp(-1.0 / (1.0 - u[inside]))
    return out


def bump_laplacian(center, r, amplitude, X):
    u = np.sum(((np.atleast_2d(X) - center) / r) ** 2, axis=1)
    out = np.zeros(len(u))
    inside = u < 1.0
    one = 1.0 - u[inside]
    g, gp, gpp = -1.0 / one, -1.0 / one**2, -2.0 / one**3
    out[inside] = amplitude * np.exp(g) * ((gpp + gp**2) * 4.0 * u[inside] / r**2 + gp * 4.0 / r**2)
    return out


leggauss = cache(np.polynomial.legendre.leggauss)


def gauss_on(n, lo, hi):
    """n-point Gauss-Legendre nodes and weights on (lo, hi)."""
    x, w = leggauss(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def chord_loop(center, r, amplitude, omega, b, n):
    """One line integral: n-point Gauss-Legendre along the chord."""
    x, w = leggauss(n)
    perp = np.array([-omega[1], omega[0]])
    h2 = r**2 - (b - float(omega @ center)) ** 2
    if h2 <= 0:
        return 0.0
    half = math.sqrt(h2)
    ts = float(perp @ center) + half * x
    pts = b * omega[None, :] + ts[:, None] * perp[None, :]
    return float((half * w) @ bump_values(center, r, amplitude, pts))


def chord_quad(center, r, amplitude, omega, b):
    perp = np.array([-omega[1], omega[0]])
    h2 = r**2 - (b - float(omega @ center)) ** 2
    if h2 <= 0:
        return 0.0
    t0, half = float(perp @ center), math.sqrt(h2)
    line = lambda t: bump_values(center, r, amplitude, b * omega + t * perp)[0]
    return quad(line, t0 - half, t0 + half, epsabs=0.0, epsrel=1e-13, limit=200)[0]


def unit(theta):
    return np.column_stack([np.cos(theta), np.sin(theta)])


def seeded_lines(rng, center, r, count):
    """Lines through the support at offsets up to 0.95 r, plus misses and tangents."""
    omegas = unit(rng.uniform(0.0, 2.0 * np.pi, count))
    offsets = rng.uniform(-0.95, 0.95, count) * r
    offsets[:4] = [1.5 * r, -2.0 * r, r * (1 + 1e-12), -r * (1 + 1e-12)]
    return omegas, omegas @ center + offsets


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_line_integrals_match_a_per_line_chord_loop(seed):
    rng = np.random.default_rng(seed)
    center, r, amp = rng.uniform(-0.3, 0.3, 2), float(rng.uniform(0.3, 0.7)), float(rng.uniform(-2.0, 2.0))
    omegas, b = seeded_lines(rng, center, r, 600)
    phi = rl.BumpFunction(center, r, amp)
    for n in (16, 64, 200):  # one, three and eight blocks of lines
        got = _line_integrals(phi, omegas, b, rl.gauss_legendre(n, -1.0, 1.0))
        want = np.array([chord_loop(center, r, amp, w, bb, n) for w, bb in zip(omegas, b)])
        assert np.all(got[:4] == 0.0)
        assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))


def test_line_integrals_tangent_lines_are_exactly_zero():
    # centred bump on axis directions: b - p is exactly +-r, so h^2 is exactly 0
    phi = rl.BumpFunction([0.0, 0.0], 0.5, 1.0)
    omegas = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [1.0, 0.0]])
    got = _line_integrals(phi, omegas, np.array([0.5, -0.5, 0.5, 0.0]), rl.gauss_legendre(64, -1.0, 1.0))
    assert got.tolist()[:3] == [0.0, 0.0, 0.0] and got[3] > 0.0


@pytest.mark.parametrize("seed", [4, 5])
def test_line_integrals_match_quad_along_the_chord(seed):
    rng = np.random.default_rng(seed)
    center, r, amp = rng.uniform(-0.3, 0.3, 2), float(rng.uniform(0.3, 0.7)), float(rng.uniform(0.5, 2.0))
    omegas, b = seeded_lines(rng, center, r, 40)
    phi = rl.BumpFunction(center, r, amp)
    got = _line_integrals(phi, omegas, b, rl.gauss_legendre(128, -1.0, 1.0))
    want = np.array([chord_quad(center, r, amp, w, bb) for w, bb in zip(omegas, b)])
    assert np.all(got[:4] == 0.0) and np.all(want[:4] == 0.0)
    assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want))


@pytest.mark.parametrize("seed", [6, 7, 8])
def test_line_integrals_depend_on_the_offset_from_the_centre_alone(seed):
    """The bump is radial: lines at the same offset r x_j from <omega, c> have one integral.

    The bound is relative to the profile's largest value, not to each
    line's: near the support's edge the bump's relative change per unit of
    u = |(x - c)/r|^2 is 1/(1 - u)^2, so the last-bit differences of the
    chord points that the direction brings move the outermost lines by up
    to about 1e-10 of their own, tiny, values.
    """
    rng = np.random.default_rng(seed)
    center, r, amp = rng.uniform(-0.3, 0.3, 2), float(rng.uniform(0.3, 0.7)), float(rng.uniform(-2.0, 2.0))
    phi = rl.BumpFunction(center, r, amp)
    omegas = unit(rng.uniform(0.0, 2.0 * np.pi, 64))
    for n in (32, 64, 96):
        rule = rl.gauss_legendre(n, -1.0, 1.0)
        x = np.concatenate([[-1.0], rule.nodes, [1.0]])  # the tangent lines and the rule's offsets
        b = (omegas @ center)[:, None] + r * x
        got = _line_integrals(phi, np.repeat(omegas, len(x), axis=0), b.ravel(), rule).reshape(b.shape)
        assert np.all(got[:, [0, -1]] == 0.0)
        assert np.all(np.abs(got - got[0]) <= 1e-14 * np.abs(got[0]).max())


def psi_mixed(W, B):
    W, B = np.atleast_2d(W), np.asarray(B, dtype=float)
    return np.exp(-(B**2)) * (1.0 + 0.4 * W[:, 0] ** 2 - 0.3 * W[:, 0] * W[:, 1]) + 0.2 * B**2 * W[:, 1] ** 2


@pytest.mark.parametrize("seed", [7, 96, 3000])
def test_dual_transform_matches_a_per_point_loop(seed):
    rng = np.random.default_rng(seed)
    theta = 2.0 * np.pi * np.arange(64) / 64
    nodes, weights = unit(theta), np.full(64, 2.0 * np.pi / 64)
    for x in rng.uniform(-1.0, 1.0, (20, 2)):
        want = weights @ psi_mixed(nodes, nodes @ x)
        assert abs(rl.dual_radon_transform(psi_mixed, x) - want) <= 1e-15 * abs(want)


def disk_loop(center, radius, resolution):
    rad_nodes, rad_weights = gauss_on(resolution, 0.0, radius)
    m = 2 * resolution
    theta = 2.0 * np.pi * np.arange(m) / m
    ct, st = np.cos(theta), np.sin(theta)
    pts, wts = np.empty((resolution * m, 2)), np.empty(resolution * m)
    for i, (r, wr) in enumerate(zip(rad_nodes, rad_weights)):
        pts[i * m : (i + 1) * m, 0] = center[0] + r * ct
        pts[i * m : (i + 1) * m, 1] = center[1] + r * st
        wts[i * m : (i + 1) * m] = wr * r * (2.0 * np.pi / m)
    return pts, wts


@pytest.mark.parametrize("resolution", [1, 5, 32, 96])
def test_disk_rule_is_bit_identical_to_the_loop(resolution):
    center, radius = np.array([0.13, -0.27]), 0.55
    pts, wts = _disk_rule(center, radius, resolution)
    want_pts, want_wts = disk_loop(center, radius, resolution)
    assert pts.tobytes() == want_pts.tobytes() and wts.tobytes() == want_wts.tobytes()


def seeded_bump(rng):
    return rng.uniform(-0.25, 0.25, 2), float(rng.uniform(0.4, 0.6)), float(rng.uniform(0.5, 2.0))


def adjointness_loop(center, r, amp, psi, res):
    """Both sides of the adjointness identity, direction by direction and point by point."""
    theta = 2.0 * np.pi * np.arange(res) / res
    circle, circle_w = unit(theta), np.full(res, 2.0 * np.pi / res)
    lhs = 0.0
    for omega, wo in zip(circle, circle_w):
        p = float(omega @ center)
        bs, bw = gauss_on(res, p - r, p + r)
        vals = np.array([chord_loop(center, r, amp, omega, float(b), res) for b in bs])
        lhs += wo * float(bw @ (vals * psi(np.tile(omega, (res, 1)), bs)))
    pts, wts = disk_loop(center, r, res)
    dual = np.array([circle_w @ psi(circle, circle @ pt) for pt in pts])
    return lhs, float(wts @ (bump_values(center, r, amp, pts) * dual))


@pytest.mark.parametrize("res", [32, 64, 96])
def test_adjointness_check_matches_the_loop(res):
    rng = np.random.default_rng(res)
    center, r, amp = seeded_bump(rng)
    e = rng.standard_normal(2)
    e /= np.linalg.norm(e)
    sigma, alpha = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.2, 1.0))

    def psi(W, B):
        return np.exp(-((np.asarray(B) / sigma) ** 2)) * (1.0 + alpha * (np.atleast_2d(W) @ e) ** 2)

    lhs, rhs = rl.adjointness_check(rl.BumpFunction(center, r, amp), psi, res)
    want_lhs, want_rhs = adjointness_loop(center, r, amp, psi, res)
    assert lhs == pytest.approx(want_lhs, rel=1e-14, abs=0)
    assert rhs == pytest.approx(want_rhs, rel=1e-14, abs=0)


@pytest.mark.parametrize("res", [32, 64, 96])
def test_radon_pairing_check_matches_the_loop(res):
    rng = np.random.default_rng(100 + res)
    terms = [(float(rng.uniform(-1.5, 1.5)), rng.normal(size=2) * rng.uniform(0.4, 1.2)) for _ in range(3)]
    center, r, amp = seeded_bump(rng)
    mu = rl.from_cosine_sum(2, terms)
    density = rl.density_from_spectrum(mu, 1.0)
    lhs, rhs = rl.radon_pairing_check(mu, density, rl.BumpFunction(center, r, amp), res)

    want_lhs = 0.0
    for row, omega in enumerate(density.directions):
        p = float(omega @ center)
        bs, bw = gauss_on(res, p - r, p + r)
        vals = np.array([chord_loop(center, r, amp, omega, float(b), res) for b in bs])
        want_lhs += float(bw @ (density.antiderivative(bs, 0, row) * vals))
    pts, wts = disk_loop(center, r, res)
    f = sum(a * np.cos(pts @ xi) for a, xi in terms)
    want_rhs = float(wts @ (f * bump_laplacian(center, r, amp, pts)))
    assert lhs == pytest.approx(want_lhs, rel=1e-14, abs=0)
    assert rhs == pytest.approx(want_rhs, rel=1e-14, abs=1e-15)


def psi_uneven(W, B):
    """A psi with psi(-w, -b) != psi(w, b): the rhs's lattice regrouping assumes no symmetry."""
    W, B = np.atleast_2d(W), np.asarray(B, dtype=float)
    return np.exp(-((B - 0.3) ** 2)) * (1.0 + 0.5 * W[:, 0] + 0.2 * W[:, 1] ** 3) + 0.1 * B


@pytest.mark.parametrize("res", [1, 2, 5, 33, 97])
def test_adjointness_check_matches_the_loop_for_an_uneven_psi(res):
    center, r, amp = seeded_bump(np.random.default_rng(200 + res))
    lhs, rhs = rl.adjointness_check(rl.BumpFunction(center, r, amp), psi_uneven, res)
    want_lhs, want_rhs = adjointness_loop(center, r, amp, psi_uneven, res)
    assert lhs == pytest.approx(want_lhs, rel=1e-14, abs=0)
    assert rhs == pytest.approx(want_rhs, rel=1e-14, abs=0)


@pytest.mark.parametrize("res", [32, 64])
def test_adjointness_check_evaluates_the_bump_at_n2_plus_n_points(res, monkeypatch):
    # n^2 chord points for the lhs, one direction's lines; the n disk radii for the rhs
    evaluated = []
    from_u = rl.BumpFunction._from_u

    def counting(self, u):
        evaluated.append(u.size)
        return from_u(self, u)

    monkeypatch.setattr(rl.BumpFunction, "_from_u", counting)
    rl.adjointness_check(rl.BumpFunction([0.1, -0.05], 0.5, 1.2), lambda W, B: np.exp(-np.asarray(B) ** 2), res)
    assert sum(evaluated) == res**2 + res


@pytest.mark.parametrize("res", [1, 5, 32, 64, 128, 131])
def test_adjointness_check_evaluates_psi_on_the_lattice_in_blocks(res):
    # n^2 lines for the lhs; n (n + 1) offsets per direction for the rhs, whole directions per block
    calls = []

    def psi(W, B):
        assert len(W) == len(B)
        calls.append(len(B))
        return psi_uneven(W, B)

    rl.adjointness_check(rl.BumpFunction([0.1, -0.05], 0.5, 1.2), psi, res)
    assert sum(calls) == res**2 * (res + 1) + res**2
    assert max(calls) <= max(_BLOCK, res * (res + 1))


def test_radon_transform_2d_is_the_one_line_kernel_with_a_fresh_rule():
    rng = np.random.default_rng(9)
    center, r, amp = seeded_bump(rng)
    phi = rl.BumpFunction(center, r, amp)
    omegas, b = seeded_lines(rng, center, r, 200)
    got = np.array([rl.radon_transform_2d(phi, w, float(bb)) for w, bb in zip(omegas, b)])
    want = _line_integrals(phi, omegas, b, rl.gauss_legendre(64, -1.0, 1.0))
    assert got.tobytes() == want.tobytes()


def test_adjointness_check_memory_stays_blocked():
    phi = rl.BumpFunction([0.1, -0.05], 0.5, 1.2)

    def psi(W, B):
        return np.exp(-np.asarray(B) ** 2) * (1.0 + 0.5 * np.atleast_2d(W)[:, 0] ** 2)

    tracemalloc.start()
    try:
        rl.adjointness_check(phi, psi, 128)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
