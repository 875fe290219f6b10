"""Numerical Radon and dual Radon transforms in the plane.

Test functions are compactly supported bumps with analytic Laplacians, so
every identity checked here -- the adjointness of the transform pair and
the pairing of a Radon density with transformed test functions -- is free
of differentiation error and limited only by quadrature resolution.

Convention: hyperplane space is treated as the full cylinder S^1 x R with
even integrands (no half-cylinder factor); the dual transform integrates
over the whole circle.  Both sides of the adjointness identity use the same
convention, which fixes the normalization globally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .quadrature import QuadratureRule, gauss_legendre, sphere_rule
from .radon_measure import RadonDensity
from .spectrum import SpectralMeasure

_EVEN_TOL = 1e-9


@dataclass(frozen=True)
class BumpFunction:
    """Smooth bump A * exp(-1 / (1 - |(x - center)/r|^2)) supported on a disk.

    Vanishes to all orders at the boundary; the Laplacian is closed form.
    """

    center: np.ndarray
    r: float
    amplitude: float = 1.0

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if self.r <= 0:
            raise InvalidInputError("bump radius must be positive")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)

    @property
    def d(self) -> int:
        return len(self.center)

    def _u(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        diff = (X - self.center) / self.r
        return np.sum(diff * diff, axis=1)

    def __call__(self, X):
        single = np.asarray(X).ndim <= 1
        u = self._u(X)
        out = np.zeros(len(u))
        inside = u < 1.0
        out[inside] = self.amplitude * np.exp(-1.0 / (1.0 - u[inside]))
        return float(out[0]) if single else out

    def laplacian(self, X):
        """Closed-form Laplacian; zero outside the support disk.

        With u = |(x-c)/r|^2 and g(u) = -1/(1-u):
        lap = A e^g [ (g'' + g'^2) * 4u/r^2 + g' * 2d/r^2 ].
        """
        single = np.asarray(X).ndim <= 1
        u = self._u(X)
        out = np.zeros(len(u))
        inside = u < 1.0
        ui = u[inside]
        one = 1.0 - ui
        g = -1.0 / one
        gp = -1.0 / one**2
        gpp = -2.0 / one**3
        out[inside] = self.amplitude * np.exp(g) * (
            (gpp + gp**2) * 4.0 * ui / self.r**2 + gp * 2.0 * self.d / self.r**2
        )
        return float(out[0]) if single else out

    def check_support_inside(self, R: float) -> None:
        if float(np.linalg.norm(self.center)) + self.r >= R:
            raise DomainError("bump support must lie strictly inside the ball")


def radon_transform_2d(phi: BumpFunction, omega, b: float, rule: QuadratureRule | None = None) -> float:
    """Line integral of the bump over the hyperplane {x : <omega, x> = b}.

    Integrates along the chord the line cuts through the support disk by
    Gauss-Legendre; returns 0 when the line misses the support.  ``rule`` is
    a reference rule on (-1, 1), mapped onto the chord.
    """
    if phi.d != 2:
        raise InvalidInputError("line-integral transform is implemented for d=2")
    rule = rule or gauss_legendre(64, -1.0, 1.0)
    omega = np.asarray(omega, dtype=float)
    perp = np.array([-omega[1], omega[0]])
    p = float(omega @ phi.center)
    h2 = phi.r**2 - (b - p) ** 2
    if h2 <= 0:
        return 0.0
    half = math.sqrt(h2)
    t0 = float(perp @ phi.center)
    ts = t0 + half * rule.nodes
    pts = b * omega[None, :] + ts[:, None] * perp[None, :]
    return float((half * rule.weights) @ phi(pts))


def dual_radon_transform(psi, x, rule: QuadratureRule | None = None, check_even: bool = True) -> float:
    """Circle integral of psi(omega, <omega, x>) over all directions.

    ``psi(omega_batch, b_batch)`` must be vectorized.  Odd integrands are
    rejected: hyperplane-space functions are even by convention.
    """
    rule = rule or sphere_rule(2, 64)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    nodes = rule.nodes
    if check_even:
        sample_b = np.linspace(-0.9, 0.9, 7)
        for bb in sample_b:
            vals = np.asarray(psi(nodes, np.full(len(nodes), bb)), dtype=float)
            flipped = np.asarray(psi(-nodes, np.full(len(nodes), -bb)), dtype=float)
            scale = max(1.0, float(np.abs(vals).max()))
            if np.max(np.abs(vals - flipped)) > _EVEN_TOL * scale:
                raise InvalidInputError("dual transform requires an even integrand on S^1 x R")
    b = nodes @ x
    return float(rule.weights @ np.asarray(psi(nodes, b), dtype=float))


def _disk_rule(center, radius: float, resolution: int):
    """Polar product rule over a disk: (points, weights)."""
    rad = gauss_legendre(resolution, 0.0, radius)
    m = 2 * resolution
    theta = 2.0 * np.pi * np.arange(m) / m
    ct, st = np.cos(theta), np.sin(theta)
    pts = np.empty((resolution * m, 2))
    wts = np.empty(resolution * m)
    for i, (r, wr) in enumerate(zip(rad.nodes, rad.weights)):
        pts[i * m : (i + 1) * m, 0] = center[0] + r * ct
        pts[i * m : (i + 1) * m, 1] = center[1] + r * st
        wts[i * m : (i + 1) * m] = wr * r * (2.0 * np.pi / m)
    return pts, wts


def adjointness_check(phi: BumpFunction, psi, resolution: int = 64) -> tuple[float, float]:
    """Both sides of the transform-pair adjointness on the full cylinder.

    lhs: integral over S^1 x R of (R phi) * psi, the bias integral truncated
    to the support interval of R phi along each direction.
    rhs: integral over the support disk of phi * (dual transform of psi).
    """
    if phi.d != 2:
        raise InvalidInputError("adjointness check is implemented for d=2")
    circle = sphere_rule(2, resolution)
    chord_rule = gauss_legendre(resolution, -1.0, 1.0)
    lhs = 0.0
    for omega, w in zip(circle.nodes, circle.weights):
        p = float(omega @ phi.center)
        bs = gauss_legendre(resolution, p - phi.r, p + phi.r)
        vals = np.array([radon_transform_2d(phi, omega, float(b), chord_rule) for b in bs.nodes])
        psis = np.asarray(psi(np.tile(omega, (len(bs.nodes), 1)), bs.nodes), dtype=float)
        lhs += w * float(bs.weights @ (vals * psis))
    pts, wts = _disk_rule(phi.center, phi.r, resolution)
    dual = np.array([dual_radon_transform(psi, x, circle, check_even=False) for x in pts])
    rhs = float(wts @ (phi(pts) * dual))
    return lhs, rhs


def radon_pairing_check(
    mu: SpectralMeasure,
    density: RadonDensity,
    phi: BumpFunction,
    resolution: int = 64,
) -> tuple[float, float]:
    """Both sides of the density/test-function pairing identity.

    lhs: sum over direction atoms of the bias integral g_w(b) (R phi)(w, b).
    rhs: integral of f * (Laplacian of phi) over the support disk.
    Independent quadrature paths; agreement validates that the density is
    the distributional Laplacian of f in hyperplane coordinates.
    """
    if density.d != 2 or mu.d != 2:
        raise InvalidInputError("pairing check is implemented for d=2")
    phi.check_support_inside(density.R)
    chord_rule = gauss_legendre(resolution, -1.0, 1.0)
    lhs = 0.0
    for omega, profile in zip(density.directions, density.profiles):
        p = float(omega @ phi.center)
        bs = gauss_legendre(resolution, p - phi.r, p + phi.r)
        rphi = np.array([radon_transform_2d(phi, omega, float(b), chord_rule) for b in bs.nodes])
        lhs += float(bs.weights @ (profile(bs.nodes) * rphi))
    pts, wts = _disk_rule(phi.center, phi.r, resolution)
    rhs = float(wts @ (mu.evaluate(pts) * phi.laplacian(pts)))
    return lhs, rhs
