"""Shared fixtures and oracles: bundled example spectra, random cosine sums,
the Funk-Hecke and threshold-witness identities built from numpy alone, and
the writer of the CLI's input files."""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import radonlab as rl
from radonlab import nullspace
from radonlab.radon_measure import ramp_integral_grid, spectral_second_moment

EPS = 0.01
# |S^0| and |S^1|: the surface of the sphere that Funk-Hecke reduces S^{d-1} to
SPHERE_SURFACE = {1: 2.0, 2: 2.0 * math.pi}


def write_input(path, what, terms=None) -> None:
    """Write a CLI input file as JSON: a null term's fields ``{"k", "j", "kprime", "coeff", "d", "R"}``,
    or with ``terms`` the spectrum ``{"d": what, "terms": [{"amplitude", "xi"}]}`` of those (amplitude, xi) pairs."""
    if terms is None:
        payload = dataclasses.asdict(what)
    else:
        terms = [{"amplitude": float(a), "xi": np.atleast_1d(xi).astype(float).tolist()} for a, xi in terms]
        payload = {"d": what, "terms": terms}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def verify_at(term, xs, m: int):
    """``verify_null`` on the sphere rule of resolution m in place of the smallest exact one."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nullspace, "_rule_resolution", lambda d, k, kprime: m)
        return rl.verify_null(term, xs)


@pytest.fixture
def cos_measure():
    """f(x) = cos(x) in d=1."""
    return rl.from_cosine_sum(1, [(1.0, [1.0])])


@pytest.fixture
def near_cancel_terms():
    """The bundled nearly-cancelling pair cos(x) - cos(1.01 x)."""
    return [(1.0, np.array([1.0])), (-1.0, np.array([1.0 + EPS]))]


@pytest.fixture
def near_cancel_measure(near_cancel_terms):
    return rl.from_cosine_sum(1, near_cancel_terms)


def near_cancel_fpp(b):
    """Second derivative of cos(x) - cos(1.01 x)."""
    b = np.asarray(b, dtype=float)
    return -np.cos(b) + (1.0 + EPS) ** 2 * np.cos((1.0 + EPS) * b)


def second_derivative_norm_1d(f_second_derivative, R: float, points: int = 8193) -> float:
    """Independent d=1 oracle: the integral of |f''| over (-R, R).

    Sign changes are bracketed on a dense grid and refined by Brent's method;
    each piece between roots is integrated by adaptive quadrature.  Shares
    no code with radonlab.
    """
    fn = lambda b: float(f_second_derivative(np.asarray(b, dtype=float)))
    xs = np.linspace(-R, R, points)
    signs = np.sign(np.asarray(f_second_derivative(xs), dtype=float))
    signs[signs == 0] = 1.0
    edges = [-R]
    for i in np.nonzero(signs[:-1] * signs[1:] < 0)[0]:
        edges.append(brentq(fn, xs[i], xs[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps))
    edges.append(R)
    return sum(abs(quad(fn, a, b, epsabs=1e-15, epsrel=1e-13, limit=200)[0]) for a, b in zip(edges[:-1], edges[1:]))


def abs_cos_integral(X: float) -> float:
    """The integral of |cos u| over (-X, X), X >= 0, by half-periods: each
    whole one holds 2, and the rest y holds sin y up to pi / 2 and 2 - sin y
    after it."""
    whole, y = divmod(X, math.pi)
    return 2.0 * (2.0 * whole + (math.sin(y) if y <= math.pi / 2 else 2.0 - math.sin(y)))


def norm_and_fourier_bound(mu, R: float) -> tuple[float, float]:
    """The ball norm of mu's density and the bound 2 R C_f it may not pass, with
    C_f the spectrum's second moment: the comparison the ``norm`` command makes."""
    return rl.tv_norm(rl.density_from_spectrum(mu, R)), 2.0 * R * spectral_second_moment(mu)


def legendre_oracle(k: int, d: int, t):
    """Degree-k Legendre polynomial of dimension d with P(1) = 1, orthogonal under
    (1 - t^2)^((d-3)/2): Chebyshev cos(k arccos t) for d=2, classical Legendre for d=3."""
    t = np.asarray(t, dtype=float)
    if d == 2:
        return np.cos(k * np.arccos(t))
    return np.polynomial.legendre.legval(t, np.eye(k + 1)[k])


def weighted_legendre_integral(eta, k: int, d: int, m: int = 128) -> float:
    """Integral of eta(t) P_{k,d}(t) (1 - t^2)^((d-3)/2) over (-1, 1): m-node
    Gauss-Chebyshev for d=2, whose weight is the endpoint-singular one, and
    m-node Gauss-Legendre for d=3."""
    t, w = np.polynomial.chebyshev.chebgauss(m) if d == 2 else np.polynomial.legendre.leggauss(m)
    return float(w @ (np.asarray(eta(t), dtype=float) * legendre_oracle(k, d, t)))


def funk_hecke_sides(eta, k: int, d: int, omega, rule, Y) -> tuple[float, float]:
    """Both sides of the Funk-Hecke identity for a profile eta and a degree-k
    harmonic Y on S^{d-1}, d in {2, 3}: the sphere-rule value of
    x -> eta(<omega, x>) Y(x), and |S^{d-2}| Y(omega) times the weighted
    Legendre integral of eta."""
    omega = np.asarray(omega, dtype=float)
    values = np.asarray(eta(rule.nodes @ omega), dtype=float) * np.asarray(Y(rule.nodes), dtype=float)
    lhs = float(rule.weights @ values)
    rhs = SPHERE_SURFACE[d - 1] * float(np.asarray(Y(omega)).reshape(-1)[0]) * weighted_legendre_integral(eta, k, d)
    return lhs, rhs


def witness_closed_form(k: int, d: int, r: float, y: float) -> float:
    """The ramp pairing of Y (x) b^{k-2}, Y a degree-k harmonic, at a point x
    with |x| = r and Y(x / |x|) = y: |S^{d-2}| / (k (k-1)) r^k y m_k, with
    m_k the weighted moment of t^k against P_{k,d}."""
    return SPHERE_SURFACE[d - 1] / (k * (k - 1)) * r**k * y * weighted_legendre_integral(lambda t: t**k, k, d)


def threshold_pairing(k: int, j: int, d: int, x) -> float:
    """The library's ramp pairing of the threshold term Y_{k,j} (x) b^{k-2} on the unit ball, at x."""
    term = rl.HarmonicNullTerm(k=k, j=j, kprime=k - 2, coeff=1.0, d=d, R=1.0)
    return float(ramp_integral_grid(rl.null_term_density(term), np.atleast_2d(x))[0])


def padded_density(directions, profiles, R: float = 1.0) -> rl.RadonDensity:
    """A density whose column r holds ``profiles[r]`` = (freqs, weights, poly),
    padded with empty slots and zero coefficients."""
    directions = np.atleast_2d(np.asarray(directions, dtype=float))
    slots = max((len(f) for f, _, _ in profiles), default=0)
    degree = max((len(p) for _, _, p in profiles), default=0)
    freqs = np.zeros((slots, len(profiles)))
    weights = np.zeros(freqs.shape, dtype=complex)
    poly = np.zeros((degree, len(profiles)))
    for r, (f, w, p) in enumerate(profiles):
        freqs[: len(f), r], weights[: len(w), r], poly[: len(p), r] = f, w, p
    return rl.RadonDensity(directions.shape[1], R, directions, freqs, weights, poly)


def random_cosine_terms(rng, d, n_terms=3, freq_range=(0.5, 5.0), amp_range=(-2.0, 2.0)):
    """Random cosine sum with frequencies bounded away from zero."""
    terms = []
    for _ in range(n_terms):
        direction = rng.normal(size=d)
        direction /= np.linalg.norm(direction)
        xi = direction * rng.uniform(*freq_range)
        terms.append((float(rng.uniform(*amp_range)), xi))
    return terms


def decay_slope(reports) -> float:
    """Log-log regression slope of mean sup error against width."""
    x = np.log([r.n for r in reports])
    y = np.log([r.mean_error for r in reports])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)


def lattice_grid(d: int, R: float, m: int) -> rl.BallGrid:
    """An equispaced product grid inside the ball of radius R: m cell midpoints of
    (-R, R) for d=1, and for d >= 2 the midpoints of ceil(m^(1/d)) cells per axis
    that lie strictly inside the ball."""
    n_side = m if d == 1 else math.ceil(m ** (1.0 / d))
    axis = R * (2.0 * np.arange(n_side) + 1.0 - n_side) / n_side
    if d == 1:
        return rl.BallGrid(d, R, axis[:, None])
    pts = np.column_stack([g.ravel() for g in np.meshgrid(*([axis] * d), indexing="ij")])
    return rl.BallGrid(d, R, pts[np.linalg.norm(pts, axis=1) < R])
