"""Reference computations that the benchmark checks radonlab's outputs against.

Nothing here imports radonlab.  Each oracle is derived from the definitions
(cosine sums, the ramp kernel, the planar harmonics cos(k theta), sin(k theta))
with numpy and scipy alone, so a fault in the library cannot hide in its own
check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize


def direction_groups(terms) -> list[list[tuple[float, float]]]:
    """Group cosine terms a cos(<xi, x>) by the direction of xi up to sign.

    Each group is a list of (amplitude, |xi|); cos is even, so xi and -xi
    contribute to the same profile.
    """
    groups: dict = {}
    for a, xi in terms:
        xi = np.asarray(xi, dtype=float)
        t = float(np.linalg.norm(xi))
        u = xi / t
        lead = u[np.flatnonzero(np.abs(u) > 1e-12)[0]]
        key = tuple(np.round(u if lead > 0 else -u, 12))
        groups.setdefault(key, []).append((float(a), t))
    return list(groups.values())


def _profile(group):
    amps = np.array([a * t * t for a, t in group])
    freqs = np.array([t for _, t in group])
    return (lambda b: np.cos(np.multiply.outer(b, freqs)) @ amps), freqs


def profile_roots(group, R: float) -> list[float]:
    """Sign changes of h(b) = sum a |xi|^2 cos(|xi| b) on (-R, R).

    Brackets on a grid of 32 points per half-period of the highest frequency
    (at least 8193 points), then refines each bracket with Brent's method.
    """
    h, freqs = _profile(group)
    m = max(8193, int(math.ceil(2.0 * R * 32.0 * freqs.max() / math.pi)) + 1)
    xs = np.linspace(-R, R, m)
    signs = np.sign(h(xs))
    signs[signs == 0] = 1.0
    brackets = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    return [optimize.brentq(h, xs[i], xs[i + 1], xtol=1e-15) for i in brackets]


def norm(terms, R: float) -> float:
    """Ball representation norm: sum over direction groups of the integral of
    |sum a |xi|^2 cos(|xi| b)| over (-R, R), by quad between the roots."""
    total = 0.0
    for group in direction_groups(terms):
        h, _ = _profile(group)
        edges = [-R, *profile_roots(group, R), R]
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, _ = integrate.quad(h, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)
            total += abs(val)
    return total


def min_root_gap(terms, R: float) -> float:
    """Smallest distance between adjacent roots of any direction's profile."""
    gaps = [np.diff(r).min() for g in direction_groups(terms) if len(r := profile_roots(g, R)) > 1]
    return float(min(gaps, default=math.inf))


def abs_cosine_integral(amplitude: float, t: float, R: float) -> float:
    """Closed form of the integral of |amplitude t^2 cos(t b)| over (-R, R)."""
    x = t * R
    m = math.floor((x + math.pi / 2) / math.pi)
    half = 2 * m - 1 + abs(math.sin(x) - (-1) ** (m - 1))  # integral of |cos| on (0, x)
    return 2.0 * abs(amplitude) * t * half


def fourier_constant(terms) -> float:
    """C_f = sum |a| |xi|^2."""
    return float(sum(abs(a) * float(np.dot(xi, xi)) for a, xi in terms))


def cosine_sum(terms, X) -> np.ndarray:
    X = np.atleast_2d(X)
    return sum(a * np.cos(X @ np.asarray(xi, dtype=float)) for a, xi in terms)


def relu_network(payload: dict, X, chunk: int = 64) -> np.ndarray:
    """Value of a network in radonlab's JSON schema:
    kappa/n * sum a (<omega, x> - b)_+ + <v, x> + c.

    Evaluated ``chunk`` points at a time, so that the check holds far less
    memory than the program's own dense evaluation and does not set the
    run's peak resident set.
    """
    X = np.atleast_2d(X)
    a = np.array([nu["a"] for nu in payload["neurons"]])
    omega = np.array([nu["omega"] for nu in payload["neurons"]]).reshape(len(a), -1)
    b = np.array([nu["b"] for nu in payload["neurons"]])
    hidden = np.concatenate([np.maximum(X[i : i + chunk] @ omega.T - b, 0.0) @ a for i in range(0, len(X), chunk)])
    return payload["kappa"] / len(a) * hidden + X @ np.asarray(payload["v"]) + payload["c"]


def ball_points(rng: np.random.Generator, d: int, R: float, m: int) -> np.ndarray:
    """m uniform points strictly inside the ball of radius R in R^d."""
    g = rng.standard_normal((m, d))
    r = R * (1.0 - 1e-9) * rng.random(m) ** (1.0 / d)
    return g / np.linalg.norm(g, axis=1)[:, None] * r[:, None]


def loglog_slope(ns, errors) -> float:
    slope, _ = np.polyfit(np.log(ns), np.log(errors), 1)
    return float(slope)


def null_pairing_2d(k: int, j: int, kprime: int, coeff: float, R: float, X, nodes: int = 4096) -> np.ndarray:
    """Pairing of coeff * Y_{k,j}(theta) b^{k'} with the ramp (<w, x> - b)_+ at points X.

    The bias integral of (u - b) b^{k'} over (-R, u) is the second
    antiderivative of b^{k'} from -R; the circle integral is the trapezoid
    rule, exact for the trigonometric polynomial of degree k + k' + 2 < nodes.
    Y is cos(k theta)/sqrt(pi) for j = 1 and sin(k theta)/sqrt(pi) for j = 2.
    """
    if k + kprime + 2 >= nodes:
        raise ValueError("trapezoid rule too coarse for this degree")
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    y = (np.cos if j == 1 else np.sin)(k * theta) / math.sqrt(math.pi)
    ramp_moment = np.polynomial.Polynomial.basis(kprime).integ(2, lbnd=-R)
    u = np.atleast_2d(X) @ np.vstack([np.cos(theta), np.sin(theta)])
    return coeff * (2.0 * np.pi / nodes) * (ramp_moment(u) @ y)


def bump(center, r: float, amplitude: float, Y) -> np.ndarray:
    """amplitude * exp(-1 / (1 - |(y - center)/r|^2)) inside the disk, 0 outside."""
    u = np.sum(((np.atleast_2d(Y) - center) / r) ** 2, axis=1)
    out = np.zeros(len(u))
    inside = u < 1.0
    out[inside] = amplitude * np.exp(-1.0 / (1.0 - u[inside]))
    return out


def chord_integral(center, r: float, amplitude: float, omega, b: float) -> float:
    """Line integral of the bump over {y : <omega, y> = b}, by quad along the chord."""
    center = np.asarray(center, dtype=float)
    omega = np.asarray(omega, dtype=float)
    perp = np.array([-omega[1], omega[0]])
    h2 = r * r - (b - omega @ center) ** 2
    if h2 <= 0:
        return 0.0
    t0, half = float(perp @ center), math.sqrt(h2)
    line = lambda t: bump(center, r, amplitude, b * omega + t * perp)[0]
    val, _ = integrate.quad(line, t0 - half, t0 + half, epsabs=1e-15, epsrel=1e-12, limit=200)
    return val
