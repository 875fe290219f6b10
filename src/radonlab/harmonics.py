"""Real spherical harmonics on S^{d-1} (d = 2, 3) and Legendre machinery.

Conventions: harmonics are L^2(S^{d-1})-orthonormal and real.  For d=2 the
basis is 1/sqrt(2*pi) at degree 0 and {cos(k.), sin(k.)}/sqrt(pi) above.
For d=3 we use associated-Legendre harmonics with the sqrt(2) convention
for nonzero azimuthal order.  The degree-k Legendre polynomial in dimension
d is normalized by P(1) = 1 and is orthogonal under the weight
(1 - t^2)^((d-3)/2): Chebyshev for d=2, classical Legendre for d=3.  That
weighted convention is the one the Funk-Hecke reduction actually uses, and
the Funk-Hecke identity is what the test suite pins down.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InvalidInputError, UnsupportedDimensionError
from .quadrature import QuadratureRule, gauss_legendre

MAX_DEGREE = 12  # d=3 normalization constants are tabulated up to here


def harmonic_dim(k: int, d: int) -> int:
    """Dimension N_{k,d} of degree-k harmonic homogeneous polynomials in R^d."""
    if d < 2:
        raise UnsupportedDimensionError(
            "harmonics need d >= 2; d=1 reduces to parity and is handled by "
            "the two-point sphere rule in radonlab.radon_measure"
        )
    if k < 0:
        raise InvalidInputError("degree must be nonnegative")
    if k == 0:
        return 1
    return (2 * k + d - 2) * math.factorial(k + d - 3) // (math.factorial(k) * math.factorial(d - 2))


def legendre_eval(k: int, d: int, t):
    """Degree-k Legendre polynomial in dimension d at t in [-1, 1].

    d=2 gives the Chebyshev value cos(k*arccos(t)); d=3 the classical
    Legendre value.  Both satisfy P(1) = 1.
    """
    t = np.asarray(t, dtype=float)
    if np.any(np.abs(t) > 1 + 1e-12):
        raise DomainError("Legendre argument outside [-1, 1]")
    t = np.clip(t, -1.0, 1.0)
    if d == 2:
        out = np.cos(k * np.arccos(t))
    elif d == 3:
        coef = np.zeros(k + 1)
        coef[k] = 1.0
        out = np.polynomial.legendre.legval(t, coef)
    else:
        raise UnsupportedDimensionError(f"legendre_eval supports d in {{2, 3}}, got {d}")
    return out if out.ndim else float(out)


def _check_index(k: int, j: int, d: int) -> None:
    if k < 0:
        raise InvalidInputError("degree must be nonnegative")
    n = harmonic_dim(k, d)
    if not 1 <= j <= n:
        raise InvalidInputError(f"harmonic index j={j} outside 1..{n} for (k={k}, d={d})")


def harmonic_eval(k: int, j: int, d: int, omega):
    """Value of the j-th orthonormal real harmonic of degree k at unit vectors.

    ``omega`` may be a single unit vector of shape (d,) or a batch (n, d).
    """
    _check_index(k, j, d)
    w = np.atleast_2d(np.asarray(omega, dtype=float))
    if w.shape[1] != d:
        raise InvalidInputError(f"expected points in R^{d}, got shape {w.shape}")
    if d == 2:
        theta = np.arctan2(w[:, 1], w[:, 0])
        if k == 0:
            out = np.full(len(w), 1.0 / math.sqrt(2.0 * math.pi))
        elif j == 1:
            out = np.cos(k * theta) / math.sqrt(math.pi)
        else:
            out = np.sin(k * theta) / math.sqrt(math.pi)
    elif d == 3:
        if k > MAX_DEGREE:
            raise InvalidInputError(f"d=3 harmonics capped at degree {MAX_DEGREE}")
        from scipy.special import lpmv  # loaded on first use: it is most of the import time

        m = j - 1 - k  # j = 1..2k+1  <->  m = -k..k
        ct = np.clip(w[:, 2], -1.0, 1.0)
        phi = np.arctan2(w[:, 1], w[:, 0])
        am = abs(m)
        norm = math.sqrt((2 * k + 1) / (4.0 * math.pi) * math.factorial(k - am) / math.factorial(k + am))
        if m > 0:
            out = math.sqrt(2.0) * norm * lpmv(am, k, ct) * np.cos(am * phi)
        elif m < 0:
            out = math.sqrt(2.0) * norm * lpmv(am, k, ct) * np.sin(am * phi)
        else:
            out = norm * lpmv(0, k, ct)
    else:
        raise UnsupportedDimensionError(f"harmonic_eval supports d in {{2, 3}}, got {d}")
    return out if np.asarray(omega).ndim > 1 else float(out[0])


def weighted_profile_integral(eta, k: int, d: int, m: int = 128) -> float:
    """Integral of eta(t) * P_{k,d}(t) * (1-t^2)^((d-3)/2) over (-1, 1).

    Uses Gauss-Chebyshev nodes for d=2 (absorbing the endpoint-singular
    weight exactly) and Gauss-Legendre for d=3.
    """
    if d == 2:
        i = np.arange(1, m + 1)
        t = np.cos((2 * i - 1) * np.pi / (2 * m))
        w = np.full(m, np.pi / m)
        return float(w @ (np.asarray(eta(t), dtype=float) * legendre_eval(k, 2, t)))
    if d == 3:
        rule = gauss_legendre(m, -1.0, 1.0)
        t = rule.nodes
        return float(rule.weights @ (np.asarray(eta(t), dtype=float) * legendre_eval(k, 3, t)))
    raise UnsupportedDimensionError(f"weighted profile integral supports d in {{2, 3}}, got {d}")


def sphere_surface(d: int) -> float:
    """Surface measure of S^{d-1} under our conventions (|S^0| = 2)."""
    if d == 1:
        return 2.0
    if d == 2:
        return 2.0 * math.pi
    if d == 3:
        return 4.0 * math.pi
    raise UnsupportedDimensionError(f"no surface constant for d={d}")


def funk_hecke_check(
    eta,
    k: int,
    d: int,
    omega,
    rule: QuadratureRule,
    j: int = 1,
    harmonic=None,
) -> tuple[float, float]:
    """Both sides of the Funk-Hecke reduction for a profile ``eta``.

    Left side: the sphere-quadrature value of x -> eta(<omega, x>) Y(x).
    Right side: |S^{d-2}| * Y(omega) * integral of eta * P_{k,d} against the
    weight (1-t^2)^((d-3)/2).  The caller asserts their agreement; any
    harmonic of degree k may be supplied via ``harmonic`` (defaults to the
    orthonormal Y_{k,j}).
    """
    if d not in (2, 3):
        raise UnsupportedDimensionError(f"funk_hecke_check supports d in {{2, 3}}, got {d}")
    Y = harmonic if harmonic is not None else lambda w: harmonic_eval(k, j, d, w)
    omega = np.asarray(omega, dtype=float)
    inner = rule.nodes @ omega
    lhs = float(rule.weights @ (np.asarray(eta(inner), dtype=float) * np.asarray(Y(rule.nodes), dtype=float)))
    y_at_omega = float(np.asarray(Y(omega)).reshape(-1)[0])
    rhs = sphere_surface(d - 1) * y_at_omega * weighted_profile_integral(eta, k, d)
    return lhs, rhs
