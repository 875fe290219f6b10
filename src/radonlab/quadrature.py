"""Deterministic integration rules on intervals, spheres (d <= 3), and ball grids.

Interval rules are Gauss-Legendre.  Sphere rules are the two-point counting
measure on S^0, equispaced angles on S^1 (trapezoidal, spectrally exact for
band-limited integrands), and a Gauss-Legendre x equispaced-azimuth product
rule on S^2.  Ball grids provide evaluation sets for sup-norm estimates and
come in lattice, low-discrepancy (Halton), and seeded-uniform flavors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import ndtri

from .errors import InvalidInputError, UnsupportedDimensionError

#: exactness declared for rules that integrate every polynomial exactly
#: (the S^0 counting measure); large sentinel rather than infinity so the
#: field stays an int.
EXACT_ALL = 10**6


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
        if np.any(weights <= 0):
            raise InvalidInputError("quadrature weights must be positive")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return len(self.weights)

    def integrate(self, fn) -> float:
        """Apply the rule to a vectorized integrand ``fn(nodes) -> values``."""
        return float(self.weights @ np.asarray(fn(self.nodes), dtype=float))


@dataclass(frozen=True)
class BallGrid:
    """Finite evaluation set strictly inside the open ball of radius ``R``."""

    d: int
    R: float
    points: np.ndarray
    mode: str

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def max_spacing(self) -> float:
        """Largest nearest-neighbor distance, a coverage diagnostic computed
        on first read (meaningless for a single point, where it is 0)."""
        if len(self.points) < 2:
            return 0.0
        from scipy.spatial import cKDTree

        dist, _ = cKDTree(self.points).query(self.points, k=2)
        return float(dist[:, 1].max())


@lru_cache(maxsize=128)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_legendre(n: int, a: float, b: float) -> QuadratureRule:
    """Return the n-point Gauss-Legendre rule on (a, b); exact to degree 2n-1."""
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InvalidInputError("interval bounds must be finite")
    if n < 1:
        raise InvalidInputError("need at least one node")
    if not a < b:
        raise InvalidInputError(f"empty interval: a={a} >= b={b}")
    x, w = _leggauss(n)
    nodes = 0.5 * (b - a) * x + 0.5 * (b + a)
    weights = 0.5 * (b - a) * w
    return QuadratureRule(nodes, weights, exactness_degree=2 * n - 1)


def sphere_rule(d: int, m: int) -> QuadratureRule:
    """Quadrature on the unit sphere S^{d-1} for d in {1, 2, 3}.

    d=1: the two-point counting measure on {-1, +1} (total 2).
    d=2: m equispaced angles with equal weights 2*pi/m.
    d=3: Gauss-Legendre in cos(theta) (m nodes) times 2m equispaced azimuths.
    """
    if d not in (1, 2, 3):
        raise UnsupportedDimensionError(
            f"no deterministic sphere rule for d={d}; use the Monte Carlo "
            "sampling path in radonlab.sparsifier for d > 3"
        )
    if m < 1:
        raise InvalidInputError("resolution must be positive")
    if d == 1:
        nodes = np.array([[-1.0], [1.0]])
        weights = np.array([1.0, 1.0])
        return QuadratureRule(nodes, weights, exactness_degree=EXACT_ALL)
    if d == 2:
        theta = 2.0 * np.pi * np.arange(m) / m
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(m, 2.0 * np.pi / m)
        return QuadratureRule(nodes, weights, exactness_degree=m - 1)
    # d == 3: product rule
    t, wt = np.polynomial.legendre.leggauss(m)  # t = cos(theta)
    phi = 2.0 * np.pi * np.arange(2 * m) / (2 * m)
    t2 = np.repeat(t, 2 * m)
    wt2 = np.repeat(wt, 2 * m)
    phi2 = np.tile(phi, m)
    s = np.sqrt(np.maximum(0.0, 1.0 - t2**2))
    nodes = np.column_stack([s * np.cos(phi2), s * np.sin(phi2), t2])
    weights = wt2 * (2.0 * np.pi / (2 * m))
    return QuadratureRule(nodes, weights, exactness_degree=2 * m - 1)


def _vdc(indices: np.ndarray, base: int) -> np.ndarray:
    """Van der Corput radical inverse of the given integer indices."""
    out = np.zeros(len(indices), dtype=float)
    denom = 1.0
    idx = indices.copy()
    while idx.any():
        denom *= base
        idx, rem = np.divmod(idx, base)
        out += rem / denom
    return out


_HALTON_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23)


def _halton(m: int, dims: int) -> np.ndarray:
    """First m Halton points (index starting at 1, so no point at the origin)."""
    if dims > len(_HALTON_BASES):
        raise InvalidInputError(f"low-discrepancy grids support at most {len(_HALTON_BASES)} dimensions")
    idx = np.arange(1, m + 1)
    return np.column_stack([_vdc(idx, b) for b in _HALTON_BASES[:dims]])


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
    normals = ndtri(np.clip(u[:, 1:], 1e-15, 1.0 - 1e-15))
    norms = np.linalg.norm(normals, axis=1)
    norms[norms == 0] = 1.0
    return normals / norms[:, None] * r[:, None]


def ball_grid(d: int, R: float, m: int, seed: int | None = None, mode: str = "low-discrepancy") -> BallGrid:
    """Build a deterministic evaluation grid strictly inside the open ball.

    Modes: ``lattice`` (equispaced product grid, interior points only),
    ``low-discrepancy`` (Halton mapped into the ball; the default), and
    ``uniform`` (seeded uniform sampling).  For a fixed (mode, seed) the grid
    is reproducible point for point.
    """
    if m < 1:
        raise InvalidInputError("need at least one grid point")
    if R <= 0:
        raise InvalidInputError("ball radius must be positive")
    if mode == "lattice":
        n_side = m if d == 1 else math.ceil(m ** (1.0 / d))
        axis = R * (2.0 * np.arange(n_side) + 1.0 - n_side) / n_side
        if d == 1:
            pts = axis[:, None]
        else:
            mesh = np.meshgrid(*([axis] * d), indexing="ij")
            pts = np.column_stack([g.ravel() for g in mesh])
            pts = pts[np.linalg.norm(pts, axis=1) < R]
    elif mode == "low-discrepancy":
        pts = _cube_to_ball(_halton(m, d if d <= 3 else d + 1), d, R)
    elif mode == "uniform":
        rng = np.random.default_rng(seed)
        pts = _cube_to_ball(rng.random((m, d if d <= 3 else d + 1)), d, R)
    else:
        raise InvalidInputError(f"unknown ball grid mode: {mode!r}")
    return BallGrid(d=d, R=float(R), points=pts, mode=mode)
