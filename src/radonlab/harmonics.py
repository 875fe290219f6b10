"""Real spherical harmonics on S^{d-1} (d = 2, 3).

Conventions: harmonics are L^2(S^{d-1})-orthonormal and real.  For d=2 the
basis is 1/sqrt(2*pi) at degree 0 and {cos(k.), sin(k.)}/sqrt(pi) above.
For d=3 we use associated-Legendre harmonics with the sqrt(2) convention
for nonzero azimuthal order and the Condon-Shortley phase.  Their
Legendre factor is the fully normalized associated Legendre function,
computed by the recurrence in degree from the sectoral value P_m^m
(Holmes & Featherstone, J. Geodesy 76, 2002), so every degree is in range:
no factorial of the degree is ever formed.  The test suite pins these down
against the Funk-Hecke identity, with the weighted Legendre polynomials of
its reduction (Chebyshev for d=2, classical Legendre for d=3) built beside
the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InvalidInputError, UnsupportedDimensionError, as_directions

# highest degree harmonic_eval takes: the d=3 recurrence makes one Python step per degree
_MAX_DEGREE = 2**16


def harmonic_dim(k: int, d: int) -> int:
    """Dimension N_{k,d} of degree-k harmonic homogeneous polynomials in R^d."""
    if d < 2:
        raise UnsupportedDimensionError(f"harmonics need d >= 2, not d = {d}")
    if k < 0:
        raise InvalidInputError("degree must be nonnegative")
    if k == 0:
        return 1
    # (2k + d - 2) (k + d - 3)! / (k! (d - 2)!), without the factorials of k
    return (2 * k + d - 2) * math.comb(k + d - 3, d - 2) // k


def _check_index(k: int, j: int, d: int) -> None:
    if k < 0:
        raise InvalidInputError("degree must be nonnegative")
    if k > _MAX_DEGREE:
        raise DomainError(f"harmonic degree k={k} is above the limit of {_MAX_DEGREE}")
    n = harmonic_dim(k, d)
    if not 1 <= j <= n:
        raise InvalidInputError(f"harmonic index j={j} outside 1..{n} for (k={k}, d={d})")


def _normalized_legendre(k: int, m: int, t: np.ndarray) -> np.ndarray:
    """sqrt((2k+1)/(4 pi) (k-m)!/(k+m)!) P_k^m(t) for 0 <= m <= k, Condon-Shortley phase included.

    The sectoral value comes from P_0^0 = 1/sqrt(4 pi) by
    P_i^i = -sqrt((2i+1)/(2i)) sqrt(1-t^2) P_{i-1}^{i-1}, then the degree
    rises by P_{m+1}^m = sqrt(2m+3) t P_m^m and
    P_n^m = a_n (t P_{n-1}^m - P_{n-2}^m / a_{n-1}), a_n = sqrt((4n^2-1)/(n^2-m^2)).
    """
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    p = np.full_like(t, 1.0 / math.sqrt(4.0 * math.pi))
    for i in range(1, m + 1):
        p = -math.sqrt((2 * i + 1) / (2 * i)) * s * p
    if k == m:
        return p
    a = math.sqrt(2 * m + 3)
    p_prev, p = p, a * t * p
    for n in range(m + 2, k + 1):
        a_prev, a = a, math.sqrt((4 * n * n - 1) / (n * n - m * m))
        p_prev, p = p, a * (t * p - p_prev / a_prev)
    return p


def harmonic_eval(k: int, j: int, d: int, omega):
    """Value of the j-th orthonormal real harmonic of degree k at unit vectors.

    ``omega`` may be a single unit vector of shape (d,), whose value is a
    float, or a batch (n, d).  A vector whose norm is off 1 by more than
    1e-12 is refused with ``InvalidInputError``, and a degree above 2^16
    with ``DomainError``, in either dimension; no null term needs one.
    """
    _check_index(k, j, d)
    w, single = as_directions(omega, d)
    if d == 2:
        theta = np.arctan2(w[:, 1], w[:, 0])
        if k == 0:
            out = np.full(len(w), 1.0 / math.sqrt(2.0 * math.pi))
        elif j == 1:
            out = np.cos(k * theta) / math.sqrt(math.pi)
        else:
            out = np.sin(k * theta) / math.sqrt(math.pi)
    elif d == 3:
        m = j - 1 - k  # j = 1..2k+1  <->  m = -k..k
        ct = np.clip(w[:, 2], -1.0, 1.0)
        phi = np.arctan2(w[:, 1], w[:, 0])
        am = abs(m)
        p = _normalized_legendre(k, am, ct)
        if m > 0:
            out = math.sqrt(2.0) * p * np.cos(am * phi)
        elif m < 0:
            out = math.sqrt(2.0) * p * np.sin(am * phi)
        else:
            out = p
    else:
        raise UnsupportedDimensionError(f"harmonic_eval supports d in {{2, 3}}, got {d}")
    return float(out[0]) if single else out
