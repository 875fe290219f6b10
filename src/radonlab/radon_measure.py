"""Radon densities of spectral measures: total-variation norms, ball
reconstruction, affine fitting, and harmonic moments.

A symmetry-closed atomic spectral measure induces a density on hyperplane
space whose sphere marginal is atomic: finitely many unit directions, each
carrying a per-direction profile

    g_w(b) = sum_j Re(w_j * exp(-i t_j b)) + P_w(b),   w_j = -t_j^2 * c_j,

supported on b in (-R, R); the polynomial part P_w (zero for spectra) lets
harmonic null densities merge in as direction atoms of a sphere rule.  Its
total variation equals the Radon-based representation norm of f on the ball
of radius R, ramp integrals against it reconstruct f up to an affine part,
and its harmonic-times-monomial pairings are the null-space moments.

Every profile integral is an evaluation of the exact antiderivatives
G_k(b) = sum_j Re(w_j e^{-i t_j b} / (-i t_j)^k) + (P_w integrated k times):
the total variation sums |G_1(r_{k+1}) - G_1(r_k)| over the sign-change
roots r_k of g_w, the ramp pairing is G_2(u) - G_2(-R) - (u + R) G_1(-R),
and moments follow by integration by parts.

The roots come from ``sign_change_roots``, run once per density and
interval: a uniform scan brackets each sign change and every bracket is
bisected to ``_ROOT_TOL`` in one array pass.  The scan has at least
``_SCAN_PER_HALF_PERIOD`` points per half-period pi/t of the profile's top
frequency (and never fewer than ``_ROOT_SCAN``), so it brackets every root
of a single cosine.  A sum of terms can still hide a pair of roots in one
scan cell of width h, where g dips across zero and back; the norm then
loses twice the mass of that lobe, at most h^3 max|g''| / 6 per cell, with
max|g''| <= sum_j |w_j| t_j^2 + max|P_w''|.  A double root, where g touches
zero without crossing, costs nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.polynomial import polyint, polyval

from .errors import (
    DomainError,
    InvalidInputError,
    InvariantViolationError,
    SingularFitError,
    UnsupportedDimensionError,
)
from .harmonics import harmonic_eval
from .quadrature import BallGrid
from .spectrum import SpectralMeasure

_REAL_TOL = 1e-12
_ROOT_SCAN = 512
_ROOT_TOL = 1e-12
_SCAN_PER_HALF_PERIOD = 16
# largest points x terms matrix one profile evaluation builds (512 KiB of float64)
_EVAL_BLOCK = 1 << 16


@dataclass(frozen=True)
class DirectionProfile:
    """Profile b -> g(b) of one direction: trigonometric plus polynomial part.

    Trig frequencies are nonzero; a constant belongs to the polynomial part.
    """

    trig_freqs: np.ndarray
    trig_weights: np.ndarray
    poly_coefs: np.ndarray

    def __post_init__(self):
        tf = np.asarray(self.trig_freqs, dtype=float)
        tw = np.asarray(self.trig_weights, dtype=complex)
        pc = np.asarray(self.poly_coefs, dtype=float)
        if tf.shape != tw.shape:
            raise InvalidInputError("trig frequencies and weights must align")
        if np.any(tf == 0):
            raise InvalidInputError("zero trig frequency: constants belong to the polynomial part")
        for arr in (tf, tw, pc):
            arr.setflags(write=False)
        object.__setattr__(self, "trig_freqs", tf)
        object.__setattr__(self, "trig_weights", tw)
        object.__setattr__(self, "poly_coefs", pc)

    def __call__(self, b):
        """Real value of the profile (vectorized over any-shape b)."""
        return self.antiderivative(b, 0)

    def antiderivative(self, b, k: int):
        """k-th antiderivative G_k of the profile (G_0 = g), vectorized over b.

        The trig part integrates term by term to Re(w e^{-itb} / (-it)^k) and
        the polynomial part by ``polyint``.  Every integration constant is
        zero, so G_{k+1}' = G_k holds along the whole chain.  Points are
        evaluated in blocks of at most ``_EVAL_BLOCK`` point-term pairs, so
        memory stays bounded for any number of points and terms.
        """
        b = np.asarray(b, dtype=float)
        step = max(1, _EVAL_BLOCK // max(1, len(self.trig_freqs)))
        if b.size <= step:
            return self._antiderivative_block(b, k)
        flat = b.ravel()
        blocks = [self._antiderivative_block(flat[s : s + step], k) for s in range(0, len(flat), step)]
        return np.concatenate(blocks).reshape(b.shape)

    def _antiderivative_block(self, b: np.ndarray, k: int):
        out = np.zeros(b.shape)
        if len(self.trig_freqs):
            scale = self.trig_weights / (-1j * self.trig_freqs) ** k if k else self.trig_weights
            tb = np.multiply.outer(b, self.trig_freqs)
            out = np.cos(tb) @ scale.real + np.sin(tb) @ scale.imag
        if len(self.poly_coefs):
            out = out + polyval(b, polyint(self.poly_coefs, k))
        return out

    def imag_residue(self, b) -> float:
        """Largest imaginary part of the complex profile sum (realness check)."""
        if not len(self.trig_freqs):
            return 0.0
        b = np.asarray(b, dtype=float)
        tb = np.multiply.outer(b, self.trig_freqs)
        vals = np.exp(-1j * tb) @ self.trig_weights
        return float(np.abs(vals.imag).max())

    def merged(self, other: "DirectionProfile") -> "DirectionProfile":
        freqs = np.concatenate([self.trig_freqs, other.trig_freqs])
        weights = np.concatenate([self.trig_weights, other.trig_weights])
        p, q = self.poly_coefs, other.poly_coefs
        coefs = np.zeros(max(len(p), len(q)))
        coefs[: len(p)] += p
        coefs[: len(q)] += q
        return DirectionProfile(freqs, weights, coefs)


@dataclass(frozen=True)
class RadonDensity:
    """Even real density on S^{d-1} x (-R, R) with an atomic sphere marginal."""

    d: int
    R: float
    directions: np.ndarray
    profiles: tuple[DirectionProfile, ...]
    _panels: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        dirs = np.atleast_2d(np.asarray(self.directions, dtype=float))
        if len(self.profiles) != len(dirs) and len(dirs) > 0:
            raise InvalidInputError("one profile per direction required")
        dirs.setflags(write=False)
        object.__setattr__(self, "directions", dirs)
        object.__setattr__(self, "profiles", tuple(self.profiles))

    def __len__(self) -> int:
        return len(self.profiles)

    @property
    def is_empty(self) -> bool:
        return len(self.profiles) == 0

    def panels(self, lo: float, hi: float) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
        """Sign-constant panels of every profile on (lo, hi), computed once per interval.

        Per profile: the edges (lo, the sign-change roots, hi), G_1 at the
        edges, and the integral of |g| from lo to each edge.
        """
        key = (float(lo), float(hi))
        if key not in self._panels:
            self._panels[key] = tuple(_profile_panels(p, *key) for p in self.profiles)
        return self._panels[key]

    def validate(self, tol: float = _REAL_TOL, n_check: int = 17) -> None:
        """Spot-check realness and the evenness g_w(b) = g_{-w}(-b)."""
        if self.is_empty:
            return
        b = np.linspace(-self.R, self.R, n_check)
        index = {tuple(w): i for i, w in enumerate(np.round(self.directions, 12).tolist())}
        for i, profile in enumerate(self.profiles):
            if profile.imag_residue(b) > tol:
                raise InvariantViolationError("profile is not real: spectral symmetry broken")
            key = tuple(np.round(-self.directions[i], 12).tolist())
            j = index.get(key)
            if j is None:
                raise InvariantViolationError("direction set is not antipodally symmetric")
            if np.max(np.abs(profile(b) - self.profiles[j](-b))) > tol * max(1.0, self._scale()):
                raise InvariantViolationError("evenness g_w(b) = g_{-w}(-b) violated")

    def _scale(self) -> float:
        return max(
            (float(np.abs(p.trig_weights).sum() + np.abs(p.poly_coefs).sum()) for p in self.profiles),
            default=1.0,
        )

    def merged_with(self, other: "RadonDensity") -> "RadonDensity":
        """Union of two densities on the same ball (profiles add on shared directions)."""
        if other.is_empty:
            return self
        if self.is_empty:
            return other
        if self.d != other.d or self.R != other.R:
            raise InvalidInputError("densities live on different hyperplane spaces")
        index = {tuple(w): i for i, w in enumerate(self.directions.tolist())}
        dirs = [w for w in self.directions]
        profs = list(self.profiles)
        for w, p in zip(other.directions, other.profiles):
            i = index.get(tuple(w.tolist()))
            if i is None:
                dirs.append(w)
                profs.append(p)
            else:
                profs[i] = profs[i].merged(p)
        return RadonDensity(self.d, self.R, np.array(dirs), tuple(profs))


def density_from_spectrum(mu: SpectralMeasure, R: float) -> RadonDensity:
    """Per-direction profile weights -t^2 c, grouped by the atomic directions.

    Directions are sorted lexicographically for reproducible summation order.
    """
    if R <= 0:
        raise InvalidInputError("ball radius must be positive")
    groups: dict = {}
    for atom in mu.atoms:
        key = tuple(atom.omega.tolist())
        groups.setdefault(key, []).append((atom.t, -atom.t**2 * atom.c))
    keys = sorted(groups)
    directions = np.array(keys).reshape(len(keys), mu.d)
    profiles = []
    for key in keys:
        freqs = np.array([t for t, _ in groups[key]])
        weights = np.array([w for _, w in groups[key]])
        profiles.append(DirectionProfile(freqs, weights, np.zeros(0)))
    density = RadonDensity(d=mu.d, R=float(R), directions=directions, profiles=tuple(profiles))
    density.validate()
    return density


def sign_change_roots(fn, lo: float, hi: float, scan: int = _ROOT_SCAN) -> np.ndarray:
    """Roots of a vectorized real function: a uniform scan, then one bisection pass.

    Adjacent scan points of opposite sign (a zero counts as positive) bracket
    a root.  All brackets are halved together, one call of ``fn`` per step on
    the midpoints of the brackets still wider than ``_ROOT_TOL``, each keeping
    the half whose ends differ in sign; a root is its final bracket's
    midpoint.  Roots that do not flip the sign between two scan points are
    not found; the caller sizes ``scan`` (see the module docstring for what
    a missed pair can cost).
    """
    xs = np.linspace(lo, hi, scan)
    vals = np.asarray(fn(xs), dtype=float)
    signs = np.sign(vals)
    signs[signs == 0] = 1.0
    i = np.flatnonzero(signs[:-1] * signs[1:] < 0)
    a, b, fa = xs[i], xs[i + 1], vals[i]
    live = np.flatnonzero(b - a > _ROOT_TOL)
    while len(live):
        m = 0.5 * (a[live] + b[live])
        fm = np.asarray(fn(m), dtype=float)
        left = fa[live] * fm <= 0
        b[live[left]] = m[left]
        right = live[~left]
        a[right] = m[~left]
        fa[right] = fm[~left]
        live = live[b[live] - a[live] > _ROOT_TOL]
    return 0.5 * (a + b)


def _profile_panels(profile: DirectionProfile, lo: float, hi: float):
    top = float(np.abs(profile.trig_freqs).max(initial=0.0))
    scan = max(_ROOT_SCAN, math.ceil(_SCAN_PER_HALF_PERIOD * top * (hi - lo) / math.pi) + 1)
    edges = np.concatenate([[lo], sign_change_roots(profile, lo, hi, scan), [hi]])
    g1 = profile.antiderivative(edges, 1)
    return edges, g1, np.concatenate([[0.0], np.cumsum(np.abs(np.diff(g1)))])


def direction_masses(density: RadonDensity, lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Per-direction integral of |g| over (lo, hi); defaults to (-R, R)."""
    lo = -density.R if lo is None else lo
    hi = density.R if hi is None else hi
    return np.array([cum_mass[-1] for _, _, cum_mass in density.panels(lo, hi)])


def tv_norm(density: RadonDensity) -> float:
    """Total variation of the density: the representation norm of f on the ball.

    The sphere marginal being atomic, this is an exact finite sum over
    directions of the integral of |g_w| over (-R, R): the sum of
    |G_1(r_{k+1}) - G_1(r_k)| between consecutive sign-change roots.
    """
    if density.is_empty:
        return 0.0
    return float(direction_masses(density).sum())


def _trig_moments(freqs: np.ndarray, power: int, lo: float, hi: float) -> np.ndarray:
    """Integrals of b^power exp(-i t b) over (lo, hi), one per frequency t.

    Integration by parts gives e^{-itb} sum_m (-1)^m p!/(p-m)! b^(p-m) / (-it)^(m+1),
    whose terms grow like p!/(|t| X)^m with X = max(|lo|, |hi|) and cancel
    badly when |t| X is small against p.  Below |t| X = 0.3 p the series
    sum_n (-it)^n/n! b^(p+n+1)/(p+n+1) is summed instead; its terms stay
    below e^{0.3 p} times the result's scale.
    """
    out = np.empty(len(freqs), dtype=complex)
    X = max(abs(lo), abs(hi))
    series = np.abs(freqs) * X < 0.3 * power
    t = freqs[~series]
    acc = np.zeros(len(t), dtype=complex)
    coef = 1.0
    for m in range(power + 1):
        ends = hi ** (power - m) * np.exp(-1j * t * hi) - lo ** (power - m) * np.exp(-1j * t * lo)
        acc += coef * ends / (-1j * t) ** (m + 1)
        coef *= -(power - m)
    out[~series] = acc
    t = freqs[series]
    acc = np.zeros(len(t), dtype=complex)
    term = np.ones(len(t), dtype=complex)  # (-it)^n / n!
    n = 0
    while len(t) and np.max(np.abs(term)) * X**n > 1e-17:
        e = power + n + 1
        acc += term * (hi**e - lo**e) / e
        n += 1
        term *= -1j * t / n
    out[series] = acc
    return out


def profile_moment(density: RadonDensity, i: int, power: int, lo: float, hi: float) -> float:
    """Signed integral of b^power * g_i(b) over (lo, hi), in closed form.

    The polynomial part is integrated as the product polynomial (integration
    by parts would cancel badly at high degree); the trig part as in
    ``_trig_moments``.
    """
    profile = density.profiles[i]
    total = 0.0
    if len(profile.trig_freqs):
        total += float(np.real(profile.trig_weights @ _trig_moments(profile.trig_freqs, power, lo, hi)))
    if len(profile.poly_coefs):
        prim = polyint(np.concatenate([np.zeros(power), profile.poly_coefs]))
        total += float(polyval(hi, prim) - polyval(lo, prim))
    return total


def spectral_second_moment(mu: SpectralMeasure) -> float:
    """Second frequency moment sum |c| t^2 of the atomic spectral measure.

    For a cosine sum this equals the Euclidean Fourier constant C_f.
    """
    return float(sum(abs(a.c) * a.t**2 for a in mu.atoms))


def check_fourier_bound(mu: SpectralMeasure, R: float, slack: float = 1e-10) -> tuple[float, float, bool]:
    """Compare the computed ball norm against the bound 2 R C_f.

    Returns (norm, bound, ok) with ok = (norm <= bound + slack).
    """
    density = density_from_spectrum(mu, R)
    norm = tv_norm(density)
    bound = 2.0 * R * spectral_second_moment(mu)
    return norm, bound, norm <= bound + slack


@dataclass(frozen=True)
class AffinePart:
    """Affine remainder (v, c) with the sup residual of its least-squares fit."""

    v: np.ndarray
    c: float
    max_affine_residual: float = 0.0

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    @staticmethod
    def zero(d: int) -> "AffinePart":
        return AffinePart(v=np.zeros(d), c=0.0, max_affine_residual=0.0)

    def __call__(self, X):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X @ self.v + self.c


def ramp_integral_grid(density: RadonDensity, X) -> np.ndarray:
    """Ramp pairing x -> integral of (<w, x> - b)_+ g_w(b) db, summed over directions.

    Integrating by parts over (-R, u) with u = <w, x> gives the closed form
    G_2(u) - G_2(-R) - (u + R) G_1(-R), exact at any frequency.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.zeros(len(X))
    R = density.R
    for w, profile in zip(density.directions, density.profiles):
        u = X @ w
        out += profile.antiderivative(u, 2) - profile.antiderivative(-R, 2) - (u + R) * profile.antiderivative(-R, 1)
    return out


def reconstruct(density: RadonDensity, affine: AffinePart, x) -> float:
    """Evaluate the ramp representation at one interior point of the ball."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.linalg.norm(x) >= density.R:
        raise DomainError(f"|x| = {np.linalg.norm(x)} is not inside the open ball of radius {density.R}")
    return float(ramp_integral_grid(density, x[None, :])[0] + affine(x[None, :])[0])


def reconstruct_grid(density: RadonDensity, affine: AffinePart, X) -> np.ndarray:
    """Vectorized reconstruct over a batch of interior points."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if np.any(np.linalg.norm(X, axis=1) >= density.R):
        raise DomainError("grid contains points outside the open ball")
    return ramp_integral_grid(density, X) + affine(X)


def fit_affine(mu: SpectralMeasure, density: RadonDensity, grid: BallGrid) -> AffinePart:
    """Least-squares affine part of f minus its ramp pairing on a ball grid.

    The residual r(x) = f(x) - ramp(x) is affine in exact arithmetic; the
    returned ``max_affine_residual`` certifies how affine it is on this grid.
    """
    X = grid.points
    if len(X) < density.d + 2:
        raise InvalidInputError(f"need at least d+2 = {density.d + 2} grid points")
    design = np.column_stack([X, np.ones(len(X))])
    if np.linalg.matrix_rank(design) < density.d + 1:
        raise SingularFitError("grid points are not in general position")
    target = mu.evaluate(X) - ramp_integral_grid(density, X)
    theta, *_ = np.linalg.lstsq(design, target, rcond=None)
    residual = float(np.max(np.abs(target - design @ theta)))
    return AffinePart(v=theta[:-1], c=float(theta[-1]), max_affine_residual=residual)


def harmonic_moment(density: RadonDensity, k: int, j: int, kprime: int) -> float:
    """Pairing of the density with the harmonic-times-monomial Y_{k,j} (x) b^{k'}.

    Computed as sum_w Y_{k,j}(w) * integral of b^{k'} g_w(b) db, the exact
    pairing for an atomic sphere marginal.
    """
    if density.d not in (2, 3):
        raise UnsupportedDimensionError("harmonic moments need d in {2, 3}")
    if kprime < 0 or kprime >= k:
        raise InvalidInputError("moment degree must satisfy 0 <= k' < k")
    if (k - kprime) % 2 != 0:
        raise InvalidInputError("k and k' must share parity (even densities)")
    total = 0.0
    for i in range(len(density)):
        y = float(harmonic_eval(k, j, density.d, density.directions[i]))
        total += y * profile_moment(density, i, kprime, -density.R, density.R)
    return total
