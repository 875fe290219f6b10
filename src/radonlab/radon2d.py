"""Numerical Radon and dual Radon transforms in the plane.

Test functions are compactly supported bumps with analytic Laplacians, so
every identity checked here -- the adjointness of the transform pair and
the pairing of a Radon density with transformed test functions -- is free
of differentiation error and limited only by quadrature resolution.

Convention: hyperplane space is treated as the full cylinder S^1 x R with
even integrands (no half-cylinder factor); the dual transform integrates
over the whole circle.  Both sides of the adjointness identity use the same
convention, which fixes the normalization globally.

Cost: at resolution n the adjointness check evaluates the bump at n^2
chord points for its lhs (the n lines of one direction x n chord nodes;
the other directions reuse them) and at 2 n^2 disk points for its rhs,
and psi at 2 n^3 + n^2 points (2 n^2 disk points x n circle nodes, and
the n^2 lines), all as array expressions in blocks of at most 2^14
evaluations, with no Python call per line or per point.
``radon_transform_2d`` and ``dual_radon_transform`` are the 1 x 1 cases of
the same two kernels, whose per-line and per-point sums use the BLAS dots
of a scalar loop, so the checks keep the values of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import DomainError, InvalidInputError
from .quadrature import QuadratureRule, gauss_legendre, sphere_rule
from .radon_measure import RadonDensity
from .spectrum import SpectralMeasure

_EVEN_TOL = 1e-9
_UNIT_TOL = 1e-12  # how far |omega| may be from 1
_BLOCK = 2**14  # evaluations per block of a transform kernel


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
        if not np.all(np.isfinite(c)):
            raise InvalidInputError(f"bump center must be finite, got {c}")
        if not (np.isfinite(self.r) and self.r > 0):
            raise InvalidInputError(f"bump radius must be positive and finite, got {self.r}")
        if not np.isfinite(self.amplitude):
            raise InvalidInputError(f"bump amplitude must be finite, got {self.amplitude}")
        c.setflags(write=False)
        object.__setattr__(self, "center", c)

    @property
    def d(self) -> int:
        return len(self.center)

    def _u(self, X):
        """u = |(x - c)/r|^2 at each row x of X, summed coordinate by coordinate.

        A row sum over the short coordinate axis costs several times as
        much, and for fewer than 8 coordinates adds in this same order.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.d:
            raise InvalidInputError(f"points of shape {X.shape} do not match d={self.d}")
        u = ((X[:, 0] - self.center[0]) / self.r) ** 2
        for j in range(1, self.d):
            u += ((X[:, j] - self.center[j]) / self.r) ** 2
        return u

    def _from_u(self, u):
        """Bump values from u = |(x - c)/r|^2, zero where u >= 1."""
        out = np.zeros(u.shape)
        inside = u < 1.0
        out[inside] = self.amplitude * np.exp(-1.0 / (1.0 - u[inside]))
        return out

    def __call__(self, X):
        single = np.asarray(X).ndim <= 1
        out = self._from_u(self._u(X))
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


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise dot products a_i @ b_i, each by the BLAS dot that a 1-D a_i @ b_i uses."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _line_integrals(phi: BumpFunction, omegas: np.ndarray, b: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """R phi on the lines {x : <omegas[i], x> = b[i]}, one value per line.

    The chord of each line through the support disk has midpoint
    p = <omega, c>, offset t0 = <omega_perp, c> and half-length
    sqrt(h^2) with h^2 = r^2 - (b - p)^2; a line with h^2 <= 0 gets zero
    weight and so exactly 0.  ``rule`` is a reference rule on (-1, 1)
    mapped onto each chord.  The bump is evaluated over (lines x chord
    nodes) in blocks of whole lines, at most ``_BLOCK`` points each.
    """
    perps = np.column_stack([-omegas[:, 1], omegas[:, 0]])
    center = np.broadcast_to(phi.center, omegas.shape)
    p = _rowdot(omegas, center)
    t0 = _rowdot(perps, center)
    nodes, weights = rule.nodes, rule.weights
    out = np.empty(len(b))
    step = max(1, _BLOCK // len(nodes))
    for lo in range(0, len(b), step):
        sl = slice(lo, lo + step)
        half = np.sqrt(np.maximum(phi.r**2 - (b[sl] - p[sl]) ** 2, 0.0))
        ts = t0[sl, None] + half[:, None] * nodes
        # the points b omega + t omega_perp, one coordinate plane at a time
        dx = (b[sl, None] * omegas[sl, 0:1] + ts * perps[sl, 0:1] - phi.center[0]) / phi.r
        dy = (b[sl, None] * omegas[sl, 1:2] + ts * perps[sl, 1:2] - phi.center[1]) / phi.r
        out[sl] = _rowdot(half[:, None] * weights, phi._from_u(dx * dx + dy * dy))
    return out


def _dual_transform(psi, xs: np.ndarray, rule: QuadratureRule) -> np.ndarray:
    """Circle integral of psi(omega, <omega, x>) at each row x of ``xs``.

    psi is evaluated over (points x circle nodes) in blocks of whole points,
    at most ``_BLOCK`` pairs each, and contracted with the rule's weights.
    """
    nodes = rule.nodes
    out = np.empty(len(xs))
    step = max(1, _BLOCK // len(nodes))
    tiled = np.tile(nodes, (min(step, len(xs)), 1))
    weights = np.broadcast_to(rule.weights, (min(step, len(xs)), len(nodes)))
    for lo in range(0, len(xs), step):
        x = xs[lo : lo + step]
        b = np.matmul(nodes, x[:, :, None])[:, :, 0]  # row i is nodes @ x_i
        vals = np.asarray(psi(tiled[: b.size], b.ravel()), dtype=float).reshape(b.shape)
        out[lo : lo + step] = _rowdot(weights[: len(x)], vals)
    return out


@cache
def _chord_rule_64() -> QuadratureRule:
    """The reference chord rule of ``radon_transform_2d``, built once."""
    return gauss_legendre(64, -1.0, 1.0)


@cache
def _circle_rule_64() -> QuadratureRule:
    """The circle rule of ``dual_radon_transform``, built once."""
    return sphere_rule(2, 64)


def radon_transform_2d(phi: BumpFunction, omega, b: float) -> float:
    """Line integral of the bump over the hyperplane {x : <omega, x> = b}.

    Integrates along the chord the line cuts through the support disk by
    64-node Gauss-Legendre; returns 0 when the line misses the support.
    ``omega`` must be a unit 2-vector and ``b`` finite: any other omega
    names a different line or none.
    """
    if phi.d != 2:
        raise InvalidInputError("line-integral transform is implemented for d=2")
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (2,) or not np.all(np.isfinite(omega)) or abs(np.hypot(*omega) - 1.0) > _UNIT_TOL:
        raise InvalidInputError(f"omega must be a unit 2-vector, got {omega}")
    if np.ndim(b) != 0 or not np.isfinite(b):
        raise InvalidInputError(f"bias must be a finite number, got {b}")
    return float(_line_integrals(phi, omega[None, :], np.array([b], dtype=float), _chord_rule_64())[0])


def dual_radon_transform(psi, x) -> float:
    """Circle integral of psi(omega, <omega, x>) over all directions, by a 64-node rule.

    ``psi(omega_batch, b_batch)`` must be vectorized.  Odd integrands are
    rejected: hyperplane-space functions are even by convention.
    """
    rule = _circle_rule_64()
    x = np.asarray(x, dtype=float)
    if x.shape != (2,):
        raise InvalidInputError(f"dual transform takes a point in the plane, got an array of shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"dual transform point must be finite, got {x}")
    nodes = rule.nodes
    for bb in np.linspace(-0.9, 0.9, 7):
        vals = np.asarray(psi(nodes, np.full(len(nodes), bb)), dtype=float)
        flipped = np.asarray(psi(-nodes, np.full(len(nodes), -bb)), dtype=float)
        scale = max(1.0, float(np.abs(vals).max()))
        if np.max(np.abs(vals - flipped)) > _EVEN_TOL * scale:
            raise InvalidInputError("dual transform requires an even integrand on S^1 x R")
    return float(_dual_transform(psi, x[None, :], rule)[0])


def _disk_rule(center, radius: float, resolution: int):
    """Polar product rule over a disk: (points, weights)."""
    rad = gauss_legendre(resolution, 0.0, radius)
    m = 2 * resolution
    theta = 2.0 * np.pi * np.arange(m) / m
    r = np.repeat(rad.nodes, m)
    ct, st = np.tile(np.cos(theta), resolution), np.tile(np.sin(theta), resolution)
    pts = np.column_stack([center[0] + r * ct, center[1] + r * st])
    wts = np.repeat(rad.weights * rad.nodes * (2.0 * np.pi / m), m)
    return pts, wts


def _bias_lines(phi: BumpFunction, directions: np.ndarray, rule: QuadratureRule):
    """Lines through the bump's support, ``len(rule)`` per direction.

    Along each direction omega the bias nodes are ``rule`` (a reference rule
    on (-1, 1)) mapped onto (p - r, p + r), p = <omega, c>.  Returns the
    line directions and biases, one row per line, and the bias weights, one
    row per direction.
    """
    p = _rowdot(directions, np.broadcast_to(phi.center, directions.shape))
    lo, hi = p - phi.r, p + phi.r
    b = 0.5 * (hi - lo)[:, None] * rule.nodes + 0.5 * (hi + lo)[:, None]
    weights = 0.5 * (hi - lo)[:, None] * rule.weights
    return np.repeat(directions, len(rule), axis=0), b.ravel(), weights


def adjointness_check(phi: BumpFunction, psi, resolution: int = 64) -> tuple[float, float]:
    """Both sides of the transform-pair adjointness on the full cylinder.

    lhs: integral over S^1 x R of (R phi) * psi, the bias integral truncated
    to the support interval of R phi along each direction.
    rhs: integral over the support disk of phi * (dual transform of psi).

    ``BumpFunction`` is radial, so R phi(omega, b) depends on b - <omega, c>
    alone, and ``_bias_lines`` puts every direction's bias nodes at the same
    offsets from <omega, c>: the n line integrals of the first direction
    serve all n directions.  The offsets agree up to the rounding of
    <omega, c> +- r, which moves the lhs by less than 1e-15 relative.
    """
    if phi.d != 2:
        raise InvalidInputError("adjointness check is implemented for d=2")
    circle = sphere_rule(2, resolution)
    chord_rule = gauss_legendre(resolution, -1.0, 1.0)
    omegas, b, bias_weights = _bias_lines(phi, circle.nodes, chord_rule)
    n = len(chord_rule)
    rphi = _line_integrals(phi, omegas[:n], b[:n], chord_rule)  # the same n values along every direction
    integrand = np.asarray(psi(omegas, b), dtype=float).reshape(bias_weights.shape) * rphi
    per_direction = circle.weights * _rowdot(bias_weights, integrand)
    lhs = float(sum(per_direction.tolist()))  # a running total, direction by direction
    pts, wts = _disk_rule(phi.center, phi.r, resolution)
    rhs = float(wts @ (phi(pts) * _dual_transform(psi, pts, circle)))
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

    Each direction keeps its own line integrals, unlike the adjointness
    check: its lines are few (density directions x n, well under a
    millisecond at n = 96), and the lhs can be a near-cancelling sum (about
    -2e-4 from terms of order 1), in which reusing one direction's line
    integrals moves it by about 1e-13 relative.
    """
    if density.d != 2 or mu.d != 2 or phi.d != 2:
        raise InvalidInputError("pairing check is implemented for d=2")
    phi.check_support_inside(density.R)
    chord_rule = gauss_legendre(resolution, -1.0, 1.0)
    omegas, b, bias_weights = _bias_lines(phi, density.directions, chord_rule)
    rphi = _line_integrals(phi, omegas, b, chord_rule).reshape(bias_weights.shape)
    b = b.reshape(bias_weights.shape)
    g = density.antiderivative(b, 0, np.arange(len(b)).repeat(b.shape[1]))
    lhs = 0.0
    for weights, values in zip(bias_weights, g * rphi):
        lhs += float(weights @ values)
    pts, wts = _disk_rule(phi.center, phi.r, resolution)
    rhs = float(wts @ (mu.evaluate(pts) * phi.laplacian(pts)))
    return lhs, rhs
