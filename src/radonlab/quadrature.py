"""Deterministic integration rules on intervals, spheres (d = 2, 3), and ball grids.

Interval rules are Gauss-Legendre.  Sphere rules are equispaced angles on
S^1 (trapezoidal, spectrally exact for band-limited integrands) and a
Gauss-Legendre x equispaced-azimuth product rule on S^2.  Ball grids
provide evaluation sets for sup-norm estimates: Halton points mapped into
the ball, or seeded uniform points when a seed is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DomainError,
    InvalidInputError,
    UnsupportedDimensionError,
    as_points,
    check_count,
    check_finite,
    check_radius,
    freeze,
)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and positive weights with a declared polynomial exactness degree.

    ``nodes`` has shape ``(n,)`` for interval rules and ``(n, d)`` for sphere
    rules.  Rules are immutable after construction and safe to share.
    """

    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if len(weights) != len(nodes):
            raise InvalidInputError("nodes and weights must have equal length")
        check_finite(nodes, "quadrature nodes")
        if not np.all((weights > 0) & (weights < np.inf)):  # a NaN weight fails too
            raise InvalidInputError("quadrature weights must be positive and finite")
        freeze(self, nodes=nodes, weights=weights)

    def __len__(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class BallGrid:
    """(N, d) evaluation points in the closed ball of radius ``R``, where ``ball_grid``'s r = R u^(1/d) may be R."""

    d: int
    R: float
    points: np.ndarray

    def __post_init__(self):
        check_radius(self.R)
        pts = as_points(self.points, self.d)[0]
        with np.errstate(over="ignore"):  # a point far outside may overflow; it is refused either way
            scaled = pts / self.R
            top = np.einsum("ij,ij->i", scaled, scaled).max(initial=0.0)  # the largest |x|^2 / R^2
        if not top <= 1.0 + 2e-15:  # a point on the sphere may round a few ulps past it
            raise InvalidInputError(f"grid point at |x| = {self.R * top**0.5:.6g} outside the ball of radius {self.R}")
        freeze(self, points=pts)

    def __len__(self) -> int:
        return len(self.points)


@lru_cache(maxsize=128)
def _leggauss(n: int) -> QuadratureRule:
    return QuadratureRule(*np.polynomial.legendre.leggauss(n), exactness_degree=2 * n - 1)


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """Return the n-point Gauss-Legendre rule on (a, b); exact to degree 2n-1."""
    check_count(n, "node count")
    check_finite([a, b], "interval bounds")
    if not a < b:
        raise InvalidInputError(f"empty interval: a={a} >= b={b}")
    ref = _leggauss(n)
    nodes = 0.5 * (b - a) * ref.nodes + 0.5 * (b + a)
    weights = 0.5 * (b - a) * ref.weights
    return QuadratureRule(nodes, weights, exactness_degree=2 * n - 1)


def sphere_rule(d: int, m: int) -> QuadratureRule:
    """Quadrature on the unit sphere S^{d-1} for d in {2, 3}.

    d=2: m equispaced angles with equal weights 2*pi/m.
    d=3: Gauss-Legendre in cos(theta) (m nodes) times 2m equispaced azimuths.
    """
    if d not in (2, 3):
        raise UnsupportedDimensionError(f"sphere rules are defined for d = 2 and d = 3, not d = {d}")
    check_count(m, "resolution")
    if d == 2:
        theta = 2.0 * np.pi * np.arange(m) / m
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(m, 2.0 * np.pi / m)
        return QuadratureRule(nodes, weights, exactness_degree=m - 1)
    # d == 3: product rule
    ref = _leggauss(m)  # nodes in cos(theta)
    phi = 2.0 * np.pi * np.arange(2 * m) / (2 * m)
    t2 = np.repeat(ref.nodes, 2 * m)
    wt2 = np.repeat(ref.weights, 2 * m)
    phi2 = np.tile(phi, m)
    s = np.sqrt(np.maximum(0.0, 1.0 - t2**2))
    nodes = np.column_stack([s * np.cos(phi2), s * np.sin(phi2), t2])
    weights = wt2 * (2.0 * np.pi / (2 * m))
    return QuadratureRule(nodes, weights, exactness_degree=2 * m - 1)


def _vdc(idx: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse of the given integer indices."""
    out = np.zeros(len(idx), dtype=float)
    denom = 1.0
    while idx.any():
        denom *= base
        idx, rem = np.divmod(idx, base)
        out += rem / denom
    return out


def _primes(n: int) -> np.ndarray:
    """The first n primes, from a sieve of Eratosthenes up to Rosser's bound
    n (ln n + ln ln n) on the n-th prime (n >= 6)."""
    top = int(n * (math.log(n) + math.log(math.log(n)))) + 1 if n >= 6 else 12
    sieve = np.ones(top, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(top) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve)[:n]


def _halton(m: int, dims: int) -> np.ndarray:
    """First m Halton points in the bases of the first ``dims`` primes
    (index starting at 1, so no point at the origin)."""
    idx = np.arange(1, m + 1)
    return np.column_stack([_vdc(idx, b) for b in _primes(dims).tolist()])


def _cube_to_ball(u: np.ndarray, d: int, R: float) -> np.ndarray:
    """Map uniforms to the open ball: polar/spherical for d <= 3, and the
    Gaussian-direction construction above that (needs d+1 uniform columns)."""
    if d == 1:
        return (2.0 * u[:, 0:1] - 1.0) * R * (1.0 - 1e-15)
    r = R * u[:, 0] ** (1.0 / d)
    if d == 2:
        theta = 2.0 * np.pi * u[:, 1]
        return np.column_stack([r * np.cos(theta), r * np.sin(theta)])
    if d == 3:
        z = 2.0 * u[:, 1] - 1.0
        phi = 2.0 * np.pi * u[:, 2]
        s = np.sqrt(np.maximum(0.0, 1.0 - z**2))
        return np.column_stack([r * s * np.cos(phi), r * s * np.sin(phi), r * z])
    import statistics  # the standard library's inverse normal is Wichura's AS 241

    inv_cdf = statistics.NormalDist().inv_cdf
    p = np.clip(u[:, 1:], 1e-15, 1.0 - 1e-15)
    normals = np.array([inv_cdf(x) for x in p.ravel().tolist()]).reshape(p.shape)
    norms = np.linalg.norm(normals, axis=1)
    norms[norms == 0] = 1.0
    return normals / norms[:, None] * r[:, None]


_MAX_GRID_UNIFORMS = 1 << 22  # m (d or d + 1) uniforms: the d > 3 map takes about 2 s at the bound


def ball_grid(d: int, R: float, m: int, seed: int | None = None) -> BallGrid:
    """Build m points in the ball, reproducible point for point: the first m Halton
    points mapped into the ball, or with a seed m uniform draws of ``default_rng(seed)`` mapped alike.
    A grid of more than ``_MAX_GRID_UNIFORMS`` uniforms is refused before any is made."""
    check_count(d, "dimension")
    check_count(m, "grid point count")
    check_radius(R)
    if seed is not None:
        check_count(seed, "seed", zero=True)
    dims = d if d <= 3 else d + 1
    if int(m) * dims > _MAX_GRID_UNIFORMS:
        raise DomainError(f"a ball grid of m = {m} points in d = {d} takes more than {_MAX_GRID_UNIFORMS} uniforms")
    u = _halton(m, dims) if seed is None else np.random.default_rng(seed).random((m, dims))
    return BallGrid(d=d, R=float(R), points=_cube_to_ball(u, d, R))
