"""Real spherical harmonics on S^{d-1} (d = 2, 3).

Conventions: harmonics are L^2(S^{d-1})-orthonormal and real.  For d=2 the
basis is 1/sqrt(2*pi) at degree 0 and {cos(k.), sin(k.)}/sqrt(pi) above.
For d=3 we use associated-Legendre harmonics with the sqrt(2) convention
for nonzero azimuthal order.  The test suite pins these down against the
Funk-Hecke identity, with the weighted Legendre polynomials of its
reduction (Chebyshev for d=2, classical Legendre for d=3) built beside
the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InvalidInputError, UnsupportedDimensionError

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
            raise DomainError(f"d=3 harmonics capped at degree {MAX_DEGREE}")
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
