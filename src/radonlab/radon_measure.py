"""Radon densities of spectral measures: total-variation norms, ball
reconstruction, the affine part in closed form, and harmonic moments.

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
the affine part is what that leaves of sum_w G_2(<w, x>) = f(x), and
moments follow by integration by parts.

The roots come from ``sign_change_roots``, run once per density and
interval over every profile together: a uniform scan per profile brackets
each sign change, and the brackets of all profiles are bisected to
``_ROOT_TOL`` in one array pass.  The scan has at least
``_SCAN_PER_HALF_PERIOD`` points per half-period pi/t of its profile's top
frequency (and never fewer than ``_ROOT_SCAN``), so it brackets every root
of a single cosine.  A profile whose scan would pass ``_MAX_SCAN`` points
is refused with ``DomainError`` before anything is scanned;
``density_from_spectrum`` refuses one on (-R, R) before it validates the
density.  A sum of terms can still hide a pair of roots in one scan cell
of width h, where g dips across zero and back; the norm then loses twice
the mass of that lobe, at most h^3 max|g''| / 6 per cell, with
max|g''| <= sum_j |w_j| t_j^2 + max|P_w''|.  A double root, where g
touches zero without crossing, costs nothing.

Every profile value comes from one kernel, ``_ProfileStack.values``, over
the profiles' terms stacked as padded columns, each conjugate pair of
terms folded into one.  It sums each point's terms in a fixed order with
elementwise operations, so a value depends only on the profile and the
point, never on the other points evaluated with it: a root, a sampled
bias or a ramp pairing has the same bits whichever batch it is computed
in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from numpy.polynomial.polynomial import polyint, polyval

from .errors import (
    DomainError,
    InvalidInputError,
    InvariantViolationError,
    UnsupportedDimensionError,
)
from .harmonics import harmonic_eval
from .spectrum import SpectralMeasure, _first_seen

_REAL_TOL = 1e-12
_ROOT_SCAN = 512
_ROOT_TOL = 1e-12
_SCAN_PER_HALF_PERIOD = 16
# most (order, term, point) triples one block of a profile evaluation holds
# (512 KiB per float64 array)
_EVAL_BLOCK = 1 << 16
# most points one block of a root scan holds: a block keeps a dozen arrays of
# its points and the kernel's of each (64 KiB per float64 array)
_SCAN_BLOCK = 1 << 13
# most points a root scan may take: 8 MiB per float64 array of the scan, and
# |t| * R up to about 1e5 on (-R, R)
_MAX_SCAN = 1 << 20
# the roots of a stack of profiles: the profile's row and the root
_ROOTS = np.dtype([("row", np.intp), ("x", float)])


def _folded_terms(profile) -> list[tuple[float, complex]]:
    """The profile's trig terms, with each pair (t, w), (-t, conj w) as one term (t, 2 w).

    The two terms of such a pair are complex conjugates at every b, so the
    pair is exactly twice the real part of either: a spectrum's profiles,
    made of such pairs, take half the trig evaluations.
    """
    terms = list(zip(profile.trig_freqs.tolist(), profile.trig_weights.tolist()))
    where = {term: j for j, term in enumerate(terms)}
    folded, used = [], set()
    for j, (t, w) in enumerate(terms):
        if j in used:
            continue
        used.add(j)
        partner = where.get((-t, w.conjugate()))
        if partner is not None and partner not in used:
            used.add(partner)
            w = 2 * w
        folded.append((t, w))
    return folded


@dataclass(frozen=True)
class _ProfileStack:
    """Profiles as padded term arrays: column r holds profile r.

    ``freqs`` and ``weights`` are (terms, profiles), the terms of each
    profile after ``_folded_terms``, padded with frequency 1 and weight 0;
    ``poly`` is (degree + 1, profiles), low order first, padded with zero
    leading coefficients.  Padding adds exact zeros, so a column evaluates
    to the same bits as the one-profile stack of its profile.
    """

    freqs: np.ndarray
    weights: np.ndarray
    poly: np.ndarray
    _coefs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def of(profiles) -> "_ProfileStack":
        terms = [_folded_terms(p) for p in profiles]
        T = max((len(t) for t in terms), default=0)
        P = max((len(p.poly_coefs) for p in profiles), default=0)
        freqs = np.ones((T, len(profiles)))
        weights = np.zeros((T, len(profiles)), dtype=complex)
        poly = np.zeros((P, len(profiles)))
        for r, (p, t) in enumerate(zip(profiles, terms)):
            if t:
                freqs[: len(t), r], weights[: len(t), r] = zip(*t)
            poly[: len(p.poly_coefs), r] = p.poly_coefs
        return _ProfileStack(freqs, weights, poly)

    def coefs(self, orders: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The trig table of ``orders``: the frequencies, then for every k the
        cos and then for every k the sin coefficients of G_k's terms, as one
        (1 + 2 len(orders), terms, profiles) array; and the polynomial parts
        of the G_k, (orders, degree + 1, profiles) with zero leading
        coefficients as padding."""
        if orders not in self._coefs:
            scale = np.array([self.weights / (-1j * self.freqs) ** k if k else self.weights for k in orders])
            trig = np.concatenate([self.freqs[None], scale.real, scale.imag])
            polys = [polyint(self.poly, k, axis=0) for k in orders] if len(self.poly) else []
            poly = np.zeros((len(orders), max(map(len, polys), default=0), self.poly.shape[1]))
            for padded, p in zip(poly, polys):
                padded[: len(p)] = p
            self._coefs[orders] = (trig, poly)
        return self._coefs[orders]

    def values(self, b, orders, rows=None) -> tuple:
        """G_k for every k in ``orders`` at the points b, point i on row ``rows[i]``.

        ``rows`` may be omitted for a one-profile stack.  A point's terms are
        summed in order, by a running sum over contiguous term rows, and its
        polynomial part by Horner's rule as in ``polyval``: elementwise
        operations only, so a value does not depend on the other points.
        Points go in blocks of at most ``_EVAL_BLOCK`` (order, term, point) triples.
        """
        b = np.asarray(b, dtype=float)
        flat = b.ravel()
        trig, poly = self.coefs(tuple(orders))
        K, T, P = len(orders), trig.shape[1], poly.shape[1]
        step = max(1, _EVAL_BLOCK // max(1, T * K))
        out = np.empty((K, len(flat)))
        for s in range(0, len(flat), step):
            x = flat[s : s + step]
            table, c_poly = trig, poly
            if rows is not None:
                r = rows[s : s + step]
                table, c_poly = trig[..., r], poly[..., r] if P else None
            if T:
                tb = table[0] * x
                terms = np.cos(tb) * table[1 : K + 1]
                terms += np.sin(tb, out=tb) * table[K + 1 :]
                val = terms[:, 0]
                for j in range(1, T):
                    val += terms[:, j]
            else:
                val = np.zeros((K, len(x)))
            if P:
                # Horner's rule, step for step as numpy's polyval runs it
                p = c_poly[:, -1] + x * 0
                for j in range(P - 2, -1, -1):
                    p = c_poly[:, j] + p * x
                val += p
            out[:, s : s + step] = val
        return tuple(o.reshape(b.shape)[()] for o in out)


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
        zero, so G_{k+1}' = G_k holds along the whole chain.  This is the
        one-row case of the profile kernel: the value at a point depends only
        on that point, bit for bit, not on the other points of b, and memory
        stays bounded for any number of points and terms.
        """
        return self._antiderivatives(b, (k,))[0]

    def _antiderivatives(self, b, orders) -> tuple:
        """G_k for every k in ``orders``, sharing one cos/sin evaluation per block."""
        return self._stack.values(b, orders)

    @cached_property
    def _stack(self) -> _ProfileStack:
        return _ProfileStack.of((self,))

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
            self._panels[key] = _density_panels(self, *key)
        return self._panels[key]

    @cached_property
    def _stack(self) -> _ProfileStack:
        return _ProfileStack.of(self.profiles)

    def validate(self, tol: float = _REAL_TOL, n_check: int = 17) -> None:
        """Spot-check realness and the evenness g_w(b) = g_{-w}(-b).

        Evenness is checked for every direction in one stacked evaluation;
        the checks still fail in direction order.
        """
        if self.is_empty:
            return
        b = np.linspace(-self.R, self.R, n_check)
        index = {tuple(w): i for i, w in enumerate(np.round(self.directions, 12).tolist())}
        partners = [index.get(tuple(np.round(-w, 12).tolist())) for w in self.directions]
        m = len(self)
        rows = np.arange(m)
        mirror = np.array([i if j is None else j for i, j in enumerate(partners)])
        points = np.concatenate([np.tile(b, m), np.tile(-b, m)])
        g = self._stack.values(points, (0,), np.concatenate([rows, mirror]).repeat(n_check))[0]
        gaps = np.abs(g[: m * n_check] - g[m * n_check :]).reshape(m, n_check).max(axis=1)
        limit = tol * max(1.0, self._scale())
        for profile, j, gap in zip(self.profiles, partners, gaps):
            if profile.imag_residue(b) > tol:
                raise InvariantViolationError("profile is not real: spectral symmetry broken")
            if j is None:
                raise InvariantViolationError("direction set is not antipodally symmetric")
            if gap > limit:
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
    """Per-direction profile weights -t^2 c, grouped by the atomic directions
    to 12 decimals (the antipode key of ``RadonDensity.validate``), so that
    parallel frequencies such as (1, 1) and (3, 3), whose directions can
    differ in the last bit, share one: the first seen.  Directions are
    sorted lexicographically for reproducible summation order.
    """
    if not math.isfinite(R):
        raise InvalidInputError(f"ball radius R must be finite, not {R}")
    if R <= 0:
        raise InvalidInputError("ball radius must be positive")
    groups, ids = _first_seen(map(tuple, np.round(mu.omegas, 12).tolist()))
    first = np.unique(ids, return_index=True)[1]
    order = sorted(range(len(groups)), key=lambda g: mu.omegas[first[g]].tolist())
    weights = -mu.freqs**2 * mu.coefs
    profiles = tuple(DirectionProfile(mu.freqs[ids == g], weights[ids == g], np.zeros(0)) for g in order)
    # a ball too large to scan is refused before validate evaluates anything on
    # it, and so is one whose diameter overflows, which an empty spectrum never scans
    _scan_sizes(profiles, -R, R)
    if not math.isfinite(2.0 * R):
        raise DomainError(f"ball radius R = {R:g} is too large: its diameter 2R overflows a float")
    density = RadonDensity(d=mu.d, R=float(R), directions=mu.omegas[first[order]], profiles=profiles)
    density.validate()
    return density


def sign_change_roots(fn, lo: float, hi: float, scans) -> np.ndarray:
    """Roots of the real functions x -> fn(rows, x), one per entry of ``scans``:
    a uniform scan of each, then one bisection pass over all of them.

    ``fn(rows, x)`` evaluates function ``rows[i]`` at ``x[i]``.  Function r
    is scanned at ``np.linspace(lo, hi, scans[r])``, all scans in blocks of
    at most ``_SCAN_BLOCK`` points; adjacent scan points of opposite sign (a
    zero counts as positive) bracket a root.  The brackets of every
    function are halved together, one call of ``fn`` per step on the
    midpoints of the brackets still wider than ``_ROOT_TOL``, each keeping
    the half whose ends differ in sign; a root is its final bracket's
    midpoint.  Returns one ``(row, x)`` record per root, by row and then x.
    Roots that do not flip the sign between two scan points are not found;
    the caller sizes ``scans`` (see the module docstring for what a missed
    pair can cost).
    """
    scans = np.asarray(scans, dtype=np.intp)
    starts = np.concatenate([[0], np.cumsum(scans)])
    steps = (hi - lo) / (scans - 1)
    found = [(np.zeros(0, np.intp), np.zeros(0), np.zeros(0), np.zeros(0))]  # rows, a, b, f(a) of the brackets
    for s in range(0, starts[-1] - 1, _SCAN_BLOCK):
        # the block's points, and the first point of the next block
        idx = np.arange(s, min(s + _SCAN_BLOCK + 1, starts[-1]))
        rows = np.searchsorted(starts, idx, side="right") - 1
        k = idx - starts[rows]
        xs = np.where(k == scans[rows] - 1, hi, k * steps[rows] + lo)  # np.linspace's points, bit for bit
        vals = np.asarray(fn(rows, xs), dtype=float)
        signs = np.sign(vals)
        signs[signs == 0] = 1.0
        i = np.flatnonzero((signs[:-1] * signs[1:] < 0) & (rows[:-1] == rows[1:]))
        found.append((rows[i], xs[i], xs[i + 1], vals[i]))
    row, a, b, fa = (np.concatenate(parts) for parts in zip(*found))
    roots = np.empty(len(a), dtype=_ROOTS)
    roots["row"], roots["x"] = row, 0.5 * (a + b)
    # the brackets still wider than _ROOT_TOL, kept packed
    live = np.flatnonzero(b - a > _ROOT_TOL)
    row, a, b, fa = row[live], a[live], b[live], fa[live]
    while len(live):
        m = 0.5 * (a + b)
        fm = np.asarray(fn(row, m), dtype=float)
        left = fa * fm <= 0
        b = np.where(left, m, b)
        a = np.where(left, a, m)
        fa = np.where(left, fa, fm)
        wide = b - a > _ROOT_TOL
        if not wide.all():
            roots["x"][live[~wide]] = 0.5 * (a[~wide] + b[~wide])
            live, row, a, b, fa = live[wide], row[wide], a[wide], b[wide], fa[wide]
    return roots


def _scan_sizes(profiles, lo: float, hi: float) -> list[int]:
    """Root-scan points of each profile on (lo, hi); a scan of more than
    ``_MAX_SCAN`` points raises ``DomainError``."""
    scans = []
    for profile in profiles:
        top = float(np.abs(profile.trig_freqs).max(initial=0.0))
        cells = _SCAN_PER_HALF_PERIOD * top * (hi - lo) / math.pi
        # compared as a float, so that a count that overflows to inf is refused too
        if not cells <= _MAX_SCAN - 1:
            raise DomainError(
                f"frequency too high for the ball: |xi| * R = {top * max(abs(lo), abs(hi)):.6g} needs a root scan "
                f"of more than the {_MAX_SCAN} points allowed"
            )
        scans.append(max(_ROOT_SCAN, math.ceil(cells) + 1))
    return scans


def _density_panels(density: RadonDensity, lo: float, hi: float):
    """Per profile: the panel edges (lo, the roots, hi), G_1 at the edges and
    the running integral of |g|, from one root pass over every profile."""
    if density.is_empty:
        return ()
    scans = _scan_sizes(density.profiles, lo, hi)
    stack = density._stack
    roots = sign_change_roots(lambda rows, x: stack.values(x, (0,), rows)[0], lo, hi, scans)
    counts = np.bincount(roots["row"], minlength=len(density))
    cuts = np.cumsum(counts)[:-1]
    edges = [np.concatenate([[lo], x, [hi]]) for x in np.split(roots["x"], cuts)]
    g1 = stack.values(np.concatenate(edges), (1,), np.arange(len(density)).repeat(counts + 2))[0]
    g1 = np.split(g1, np.cumsum(counts + 2)[:-1])
    return tuple((e, g, np.concatenate([[0.0], np.cumsum(np.abs(np.diff(g)))])) for e, g in zip(edges, g1))


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
    return float(sum((np.abs(mu.coefs) * mu.freqs**2).tolist()))


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
    """Affine remainder x -> <v, x> + c of a ramp representation on the ball."""

    v: np.ndarray
    c: float

    def __post_init__(self):
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        v.setflags(write=False)
        object.__setattr__(self, "v", v)

    @staticmethod
    def zero(d: int) -> "AffinePart":
        return AffinePart(v=np.zeros(d), c=0.0)

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
    n, R = len(X), density.R
    # G_2 and G_1 at the (direction, point) pairs and at each direction's -R,
    # one kernel call per chunk of about _EVAL_BLOCK pairs: one for a usual grid
    step = max(1, _EVAL_BLOCK // max(1, n))
    for s in range(0, len(density), step):
        u = np.array([X @ w for w in density.directions[s : s + step]])
        m = len(u)
        rows = np.arange(s, s + m)
        points = np.concatenate([u.ravel(), np.full(m, -R)])
        G2, G1 = density._stack.values(points, (2, 1), np.concatenate([rows.repeat(n), rows]))
        G2R, G1R = G2[m * n :, None], G1[m * n :, None]
        for term in G2[: m * n].reshape(m, n) - G2R - (u + R) * G1R:  # directions added in order
            out += term
    return out


def reconstruct_grid(density: RadonDensity, affine: AffinePart, X) -> np.ndarray:
    """The ramp representation, ramp pairing plus affine part, at interior points of the ball."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if np.any(np.linalg.norm(X, axis=1) >= density.R):
        raise DomainError("grid contains points outside the open ball")
    return ramp_integral_grid(density, X) + affine(X)


def fit_affine(density: RadonDensity) -> AffinePart:
    """The affine part of the ball representation f = ramp pairing + affine, in closed form.

    For the density of f, sum_w G_2(<w, x>) = f(x), so the ramp pairing
    leaves f(x) - ramp(x) = sum_w [G_2(-R) + (<w, x> + R) G_1(-R)], the Taylor
    term of f along w at b = -R: v = sum_w G_1(-R) w and
    c = sum_w [G_2(-R) + R G_1(-R)], from one kernel call at -R.  Nothing
    is fitted: the name dates from a least-squares fit and is kept for its
    callers.  The ``norm`` command checks the whole identity on a ball grid
    as ``residual_affine``.
    """
    if density.is_empty:
        return AffinePart.zero(density.d)
    m, R = len(density), density.R
    G2, G1 = density._stack.values(np.full(m, -R), (2, 1), np.arange(m))
    return AffinePart(v=G1 @ density.directions, c=float(np.sum(G2 + R * G1)))


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
