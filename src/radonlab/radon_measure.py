"""Radon densities of spectral measures: total-variation norms, ball
reconstruction, the affine part in closed form, and profile moments.

A symmetry-closed atomic spectral measure induces a density on hyperplane
space whose sphere marginal is atomic: finitely many unit directions, each
carrying a per-direction profile

    g_w(b) = sum_j Re(w_j * exp(-i t_j b)) + P_w(b),   w_j = -t_j^2 * c_j,

supported on b in (-R, R); the polynomial part P_w (zero for spectra) lets
harmonic null densities merge in as direction atoms of a sphere rule.
The closure makes every profile real and even, g_w(b) = g_{-w}(-b), and
lets each conjugate pair of atoms (t, w), (-t, conj w) of a direction
be stored as one term (t, 2 w): ``density_from_spectrum`` checks the
closure once, on the measure, and folds the pairs as it builds.  Its
total variation equals the Radon-based representation norm of f on the ball
of radius R, and ramp integrals against it reconstruct f up to an affine
part.

Every profile integral is an evaluation of the exact antiderivatives
G_k(b) = sum_j Re(w_j e^{-i t_j b} / (-i t_j)^k) + (P_w integrated k times):
the total variation sums |G_1(r_{k+1}) - G_1(r_k)| over the sign-change
roots r_k of g_w, the ramp pairing is G_2(u) - G_2(-R) - (u + R) G_1(-R),
the affine part is what that leaves of sum_w G_2(<w, x>) = f(x), and
moments follow by integration by parts.

The roots come from ``sign_change_roots``, run once per density and
interval over its lines together.  A line is a set of columns whose
profiles are the same function of b (``RadonDensity._lines``): the
directions w and -w of a spectrum's density, whose real weights make each
term w cos(t b) even in t.  A uniform scan of each line's value g alone
brackets each sign change, the brackets of all lines are refined together
by ``_bracketed_newton``, Newton's method on g with g' = G_{-1} that falls
back to the midpoint whenever a step leaves its bracket, and every column
copies its line's roots, panel edges, G_1 values and running masses.  The
sampler's inverse-CDF draws and start tables solve with the same
``_bracketed_newton``, the start tables once per line.  The scan has at least
``_SCAN_PER_HALF_PERIOD`` points per half-period pi/t of its profile's top
frequency (and never fewer than ``_ROOT_SCAN``), so it brackets every root
of a single cosine.  A profile whose scan would pass ``_MAX_SCAN`` points
is refused with ``DomainError`` before anything is scanned;
``density_from_spectrum`` refuses one on (-R, R) as it builds the
density.  A sum of terms can still hide a pair of roots in one scan cell
of width h, where g dips across zero and back; the norm then loses twice
the mass of that lobe, at most h^3 max|g''| / 6 per cell, with
max|g''| <= sum_j |w_j| t_j^2 + max|P_w''|.  A double root, where g
touches zero without crossing, costs nothing.

A density is its profile arrays: column r of ``freqs``, ``weights`` and
``poly`` is the profile of direction r, padded with empty slots and zero
coefficients.  Every profile value comes from one kernel,
``RadonDensity._values``, over a table the density builds once from those
arrays as they are.  It sums each point's terms in a fixed order with
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
from numpy.polynomial.polynomial import polyder, polyint, polyval

from .errors import DomainError, InvalidInputError, as_directions, as_points, check_radius, freeze
from .spectrum import SpectralMeasure, _first_seen

_ROOT_SCAN = 512
_SCAN_PER_HALF_PERIOD = 16
# most (order, term, point) triples one block of a profile evaluation holds
# (128 KiB per float64 array; its gathered columns take 1 + 2 / K times as
# much): at 1 << 16 a d=1 sampling ladder took 2.6 times the page faults
_EVAL_BLOCK = 1 << 14
# most points one block of a root scan holds: a block keeps a dozen arrays of
# its points and the kernel's of each (64 KiB per float64 array)
_SCAN_BLOCK = 1 << 13
# most points a root scan may take: 8 MiB per float64 array of the scan, and
# |t| * R up to about 1e5 on (-R, R)
_MAX_SCAN = 1 << 20
_NEWTON_STOP = 1e-9  # the step, as a share of its interval, that stops a bracket: Newton's error is then its square
# a cap only: bisection alone takes a bracket as wide as the interval below
# _NEWTON_STOP of it in 30 steps
_NEWTON_STEPS = 64
# the roots of a set of functions: the function's row and the root
_ROOTS = np.dtype([("row", np.intp), ("x", float)])


def _folded_terms(terms: list[tuple[float, complex]]) -> list[tuple[float, complex]]:
    """The terms (t, w), with each pair (t, w), (-t, conj w) as one term (t, 2 w).

    The two terms of such a pair are complex conjugates at every b, so the
    pair is exactly twice the real part of either: a spectrum's profiles,
    made of such pairs, take half the trig evaluations.
    """
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
class RadonDensity:
    """Real density on S^{d-1} x (-R, R) with an atomic sphere marginal.

    Direction r, row r of ``directions``, carries the profile held in column
    r of the arrays:

        g_r(b) = sum_j Re(weights[j, r] exp(-i freqs[j, r] b)) + sum_p poly[p, r] b^p.

    ``freqs`` and ``weights`` are (slots, m) and hold the terms the kernel
    sums, slot by slot; a slot with frequency 0 is empty and must have
    weight 0, since a constant belongs to the polynomial part.  ``poly`` is
    (degree + 1, m), low order first.  R must be positive and finite and
    ``directions`` (m, d) unit vectors (``as_directions``); it and the three
    are kept as read-only copies.  Evenness, g_w(b) = g_{-w}(-b), is not
    checked here: it is the symmetry closure of the measure the density
    comes from, which ``density_from_spectrum`` checks.
    """

    d: int
    R: float
    directions: np.ndarray
    freqs: np.ndarray = ()
    weights: np.ndarray = ()
    poly: np.ndarray = ()
    _tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _scans: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _panels: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # the sampler's inverse-CDF start tables, per interval (``sparsifier._start_table``)
    _start_tables: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_radius(self.R)
        dirs = as_directions(self.directions, self.d)[0]
        columns = {"directions": dirs}
        for name, dtype in (("freqs", float), ("weights", complex), ("poly", float)):
            a = np.asarray(getattr(self, name), dtype=dtype)
            a = a.reshape(0, len(dirs)) if a.size == 0 else a
            if a.ndim != 2 or a.shape[1] != len(dirs):
                raise InvalidInputError(f"{name} of shape {a.shape} must have one column per direction, {len(dirs)}")
            columns[name] = a
        if columns["freqs"].shape != columns["weights"].shape:
            raise InvalidInputError("trig frequencies and weights must align")
        if np.any((columns["freqs"] == 0) & (columns["weights"] != 0)):
            raise InvalidInputError("zero trig frequency: constants belong to the polynomial part")
        freeze(self, **columns)

    def __len__(self) -> int:
        return len(self.directions)

    @cached_property
    def _lines(self) -> np.ndarray:
        """Each column's line: the first column whose profile is the same function of b.

        Two columns are when all their weights are real and, slot by slot, they
        hold the same |t| and the same weight, and their polynomial columns are
        the same, all bit for bit: a real weight's term w cos(t b) is even in t.
        The profiles of w and -w in a spectrum's density are such a pair, the
        two directions of one hyperplane family.  Any other column is its own line.
        """
        keys = np.concatenate([np.abs(self.freqs), self.weights.real, self.poly]).T.view(np.int64).tolist()
        real = (self.weights.imag == 0).all(axis=0).tolist()
        first: dict = {}
        return np.array([first.setdefault(tuple(k), r) if ok else r for r, (k, ok) in enumerate(zip(keys, real))], dtype=np.intp)

    def panels(self, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Sign-constant panels of every profile on (lo, hi), computed once per interval: flat
        arrays ``(starts, edges, g1, cum)`` whose entries ``starts[r]:starts[r + 1]`` are profile
        r's panel edges (lo, its sign-change roots, hi), G_1 at them and the integral of |g| from
        lo to each."""
        key = (float(lo), float(hi))
        if key not in self._panels:
            self._panels[key] = _density_panels(self, *key)
        return self._panels[key]

    def antiderivative(self, b, k: int, rows):
        """k-th antiderivative G_k of the profiles at the points b (G_0 = g, and
        k = -1 gives g'): point i on column ``rows[i]``, or every point on
        column ``rows`` for an int.

        The trig part integrates term by term to Re(w e^{-itb} / (-it)^k) and
        the polynomial part by ``polyint``.  Every integration constant is
        zero, so G_{k+1}' = G_k holds along the whole chain.
        """
        return self._values(b, (k,), np.full(np.size(b), rows) if np.ndim(rows) == 0 else rows)[0]

    def _table(self, orders: tuple) -> tuple[np.ndarray, np.ndarray]:
        """The kernel table of ``orders``, built once per density: the
        frequencies, then for every k the cos and then for every k the sin
        coefficients of G_k's terms, as one (1 + 2 len(orders), slots, m)
        array with an empty slot as frequency 1 and weight 0; and the
        polynomial parts of the G_k, (orders, degree + 1, m) with zero
        leading coefficients as padding.  Order -1 is the
        derivative g': its trig weights w / (-it)^-1 = w (-it) come from the
        same formula, and its polynomial part from ``polyder``."""
        if orders not in self._tables:
            freqs = np.where(self.freqs == 0, 1.0, self.freqs)
            scale = np.array([self.weights / (-1j * freqs) ** k if k else self.weights for k in orders])
            trig = np.concatenate([freqs[None], scale.real, scale.imag])
            polys = (
                [polyint(self.poly, k, axis=0) if k >= 0 else polyder(self.poly, -k, axis=0) for k in orders]
                if len(self.poly)
                else []
            )
            poly = np.zeros((len(orders), max(map(len, polys), default=0), len(self)))
            for padded, p in zip(poly, polys):
                padded[: len(p)] = p
            self._tables[orders] = (trig, poly)
        return self._tables[orders]

    def _values(self, b, orders, rows) -> tuple:
        """G_k for every k in ``orders`` at the points b, point i on column ``rows[i]``.

        A point's terms are summed in order, by a running sum over contiguous
        term rows, and its polynomial part by Horner's rule as in
        ``polyval``: elementwise operations only, so a value does not depend
        on the other points.  Padding adds exact zeros, so a column has the
        same bits in any density it sits in.  Points go in blocks of at most
        ``_EVAL_BLOCK`` (order, term, point) triples; each block gathers its
        columns with ``take``, whose contiguous result keeps the elementwise
        operations after it fast.
        """
        b = np.asarray(b, dtype=float)
        flat = b.ravel()
        trig, poly = self._table(tuple(orders))
        K, T, P = len(orders), trig.shape[1], poly.shape[1]
        step = max(1, _EVAL_BLOCK // max(1, T * K))
        out = np.empty((K, len(flat)))
        for s in range(0, len(flat), step):
            x, r = flat[s : s + step], rows[s : s + step]
            table, c_poly = trig.take(r, axis=-1), poly.take(r, axis=-1)
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

    def merged_with(self, other: "RadonDensity") -> "RadonDensity":
        """Union of two densities on the same ball: on a shared direction the
        slots of ``other`` follow those of ``self`` and the polynomials add."""
        if self.d != other.d or self.R != other.R:
            raise InvalidInputError("densities live on different hyperplane spaces")
        if not len(other):
            return self
        if not len(self):
            return other
        index = {tuple(w): i for i, w in enumerate(self.directions.tolist())}
        cols = np.array([index.get(tuple(w), -1) for w in other.directions.tolist()])
        new = cols < 0
        cols[new] = len(self) + np.arange(np.count_nonzero(new))
        m, S, P = len(self) + np.count_nonzero(new), len(self.freqs), len(self.poly)
        freqs = np.zeros((S + len(other.freqs), m))
        weights = np.zeros(freqs.shape, dtype=complex)
        poly = np.zeros((max(P, len(other.poly)), m))
        freqs[:S, : len(self)], weights[:S, : len(self)], poly[:P, : len(self)] = self.freqs, self.weights, self.poly
        freqs[S:, cols], weights[S:, cols] = other.freqs, other.weights
        poly[: len(other.poly), cols] += other.poly
        directions = np.concatenate([self.directions, other.directions[new]])
        return RadonDensity(self.d, self.R, directions, freqs, weights, poly)


def density_from_spectrum(mu: SpectralMeasure, R: float) -> RadonDensity:
    """The density of a symmetry-closed measure on the ball of radius R.

    ``mu.validate()`` runs first: a closed measure has real, even profiles,
    so nothing is checked after it.  Atoms are grouped by direction to 12
    decimals, so that parallel frequencies such as (1, 1) and (3, 3), whose
    directions can differ in the last bit, share one: the first seen.
    Directions are sorted lexicographically for reproducible summation
    order.  Column r holds direction r's atoms as terms (t, -t^2 c) in atom
    order, each exact conjugate pair as one slot by ``_folded_terms``.
    A slot whose weight, or whose weight -i t w in g', overflows a float
    is refused with ``DomainError``, after the scan size is checked.
    """
    mu.validate()
    groups, ids = _first_seen(map(tuple, np.round(mu.omegas, 12).tolist()))
    first = np.unique(ids, return_index=True)[1]
    keys = mu.omegas[first].tolist()
    order = sorted(range(len(groups)), key=keys.__getitem__)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        weights = -mu.freqs**2 * mu.coefs
    members = [[] for _ in groups]  # each direction's terms with a frequency, in atom order
    for g, term in zip(ids.tolist(), zip(mu.freqs.tolist(), weights.tolist())):
        if term[0]:
            members[g].append(term)
    columns = [_folded_terms(members[g]) for g in order]
    slot = [j for terms in columns for j in range(len(terms))]
    column = [r for r, terms in enumerate(columns) for _ in terms]
    freqs = np.zeros((max(map(len, columns), default=0), len(columns)))
    folded = np.zeros(freqs.shape, dtype=complex)
    freqs[slot, column] = [t for terms in columns for t, _ in terms]
    folded[slot, column] = [w for terms in columns for _, w in terms]
    density = RadonDensity(mu.d, float(R), mu.omegas[first[order]], freqs, folded)
    # a ball too large to scan is refused here, before anything is evaluated on
    # it, and so is one whose diameter overflows, which an empty spectrum never scans
    _scan_sizes(density, -R, R)
    if not math.isfinite(2.0 * R):
        raise DomainError(f"ball radius R = {R:g} is too large: its diameter 2R overflows a float")
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(density.weights * density.freqs).all()
    if not finite:
        raise DomainError("spectrum too large: a density weight -t^2 c, or its weight i t^3 c in g', overflows a float")
    return density


def _bracketed_newton(fn, x, lo, hi, span: float) -> np.ndarray:
    """Solve F = 0 in each bracket [lo, hi] by Newton's method kept inside it.

    ``fn(live, x)`` returns F and F' of the brackets ``live`` (an index of
    x: the slice of all of them on the first step, so that no caller
    gathers its arrays for it, and their indices after) at the points x,
    oriented so that F(lo) <= 0 <= F(hi).  Each step
    moves the bracket end on the side of F's sign to x and takes the Newton
    step x - F/F' if it lies in the closed bracket (a step onto an end
    counts), else the midpoint.  A bracket stops once its step is at most
    ``_NEWTON_STOP * span``, and every bracket after ``_NEWTON_STEPS`` steps;
    its solution is its last step.  Each bracket's steps read only its own
    F, so a solution does not depend on the other brackets solved with it.
    """
    x = np.asarray(x, dtype=float)
    out = x.copy()
    live, tol = slice(None), _NEWTON_STOP * span
    for _ in range(_NEWTON_STEPS):
        if not len(x):
            break
        F, dF = fn(live, x)
        lo = np.where(F <= 0, x, lo)
        hi = np.where(F >= 0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - F / dF
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        out[live] = step
        moving = np.abs(step - x) > tol
        live = np.flatnonzero(moving) if isinstance(live, slice) else live[moving]
        x, lo, hi = step[moving], lo[moving], hi[moving]
    return out


def sign_change_roots(density: RadonDensity, lo: float, hi: float, scans) -> np.ndarray:
    """Roots of the profiles of ``density`` on (lo, hi): a uniform scan of each
    line, then one Newton pass over all of them.

    Only the first column of each line (``RadonDensity._lines``) is solved.
    Its profile is scanned at ``np.linspace(lo, hi, scans[r])``, one
    linspace per distinct scan size over every line of that size, in blocks
    of at most ``_SCAN_BLOCK`` points, reading the value g alone; adjacent
    scan points of opposite sign (a zero counts as positive, a NaN as
    neither) bracket a root.  The brackets of every line are refined
    together by ``_bracketed_newton`` on g and g' from their midpoints, each
    oriented by the sign at its left end, until a step is at most
    ``_NEWTON_STOP`` of hi - lo.  Returns one ``(row, x)`` record per root
    of every column, its line's roots, by row and then x.  Roots that do not
    flip the sign between two scan points are not found; the caller sizes
    ``scans`` (see the module docstring for what a missed pair can cost).
    """
    scans, line = np.asarray(scans, dtype=np.intp), density._lines
    solved = np.flatnonzero(line == np.arange(len(line)))
    found = [(np.zeros(0, np.intp), np.zeros(0), np.zeros(0), np.zeros(0))]  # rows, a, b, g(a) of the brackets
    for n in np.unique(scans[solved]).tolist():
        xs = np.linspace(lo, hi, n)
        group = solved[scans[solved] == n]
        cells, per = min(n - 1, _SCAN_BLOCK), max(1, _SCAN_BLOCK // n)  # cells per block, profiles per block
        for i in range(0, len(group), per):
            rows = group[i : i + per]
            for s in range(0, n - 1, cells):
                x = xs[s : s + cells + 1]
                vals = density._values(np.tile(x, len(rows)), (0,), rows.repeat(len(x)))[0].reshape(len(rows), -1)
                neg, pos = vals < 0, vals >= 0
                r, c = np.nonzero((neg[:, :-1] & pos[:, 1:]) | (pos[:, :-1] & neg[:, 1:]))
                found.append((rows[r], x[c], x[c + 1], vals[r, c]))
    row, a, b, fa = (np.concatenate(parts) for parts in zip(*found))
    by_row = np.argsort(row, kind="stable")
    row, a, b, fa = row[by_row], a[by_row], b[by_row], fa[by_row]
    # rising brackets keep the sign of g, falling ones flip it
    sign = np.where(fa < 0, 1.0, -1.0)

    def oriented(live, x):
        g, dg = density._values(x, (0, -1), row[live])
        return sign[live] * g, sign[live] * dg

    x = _bracketed_newton(oriented, 0.5 * (a + b), a, b, hi - lo)
    _, rows, _, source = _line_runs(line, np.bincount(row, minlength=len(line))[line])
    roots = np.empty(len(rows), dtype=_ROOTS)
    roots["row"] = rows
    roots["x"][source == np.arange(len(rows))] = x
    roots["x"] = roots["x"][source]
    return roots


def _line_runs(line: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Runs of ``counts[r]`` entries per column r, laid out column after column
    (the columns of a line have runs of one length): the start of each run,
    and each entry's column, its place in its run and the entry at the same
    place in the run of its line's first column, which it copies (itself in
    that column)."""
    starts = np.concatenate([[0], np.cumsum(counts)])
    rows = np.arange(len(counts)).repeat(counts)
    place = np.arange(starts[-1]) - starts[rows]
    return starts, rows, place, starts[line[rows]] + place


def _scan_sizes(density: RadonDensity, lo: float, hi: float) -> np.ndarray:
    """Root-scan points of each profile on (lo, hi), sized by its top
    frequency (empty slots count as none) once per density and interval;
    a scan of more than ``_MAX_SCAN`` points raises ``DomainError``."""
    key = (float(lo), float(hi))
    if key in density._scans:
        return density._scans[key]
    top = np.abs(density.freqs).max(axis=0, initial=0.0)
    cells = _SCAN_PER_HALF_PERIOD * top * (hi - lo) / math.pi
    # compared as floats, so that a count that overflows to inf is refused too
    refused = ~(cells <= _MAX_SCAN - 1)
    if refused.any():
        t = top[np.argmax(refused)]
        raise DomainError(
            f"frequency too high for the ball: |xi| * R = {t * max(abs(lo), abs(hi)):.6g} needs a root scan "
            f"of more than the {_MAX_SCAN} points allowed"
        )
    density._scans[key] = np.maximum(_ROOT_SCAN, np.ceil(cells).astype(np.intp) + 1)
    return density._scans[key]


def _density_panels(density: RadonDensity, lo: float, hi: float):
    """The panels of ``RadonDensity.panels``, from one root pass over the lines.
    Each column copies its line's edges, G_1 and running masses, computed on the
    line's first column.  The running integral of |g| restarts at 0 on each
    profile: the profiles with c edges are summed as the rows of one
    (profiles, c) table of panel masses."""
    roots = sign_change_roots(density, lo, hi, _scan_sizes(density, lo, hi))
    counts = np.bincount(roots["row"], minlength=len(density)) + 2
    starts, rows, place, source = _line_runs(density._lines, counts)
    edges = np.where(place == 0, lo, hi)
    edges[(place > 0) & (place < counts[rows] - 1)] = roots["x"]
    own = np.flatnonzero(source == np.arange(len(rows)))
    g1 = np.empty(len(rows))
    g1[own] = density._values(edges[own], (1,), rows[own])[0]
    g1 = g1[source]
    mass = np.where(place > 0, np.abs(np.diff(g1, prepend=0.0)), 0.0)
    cum = np.empty(len(mass))
    for c in np.unique(counts).tolist():
        sel = np.flatnonzero(counts[rows] == c)
        cum[sel] = np.cumsum(mass[sel].reshape(-1, c), axis=1).ravel()
    return starts, edges, g1, cum


def direction_masses(density: RadonDensity, lo: float | None = None, hi: float | None = None) -> np.ndarray:
    """Per-direction integral of |g| over (lo, hi); defaults to (-R, R)."""
    lo = -density.R if lo is None else lo
    hi = density.R if hi is None else hi
    starts, _, _, cum = density.panels(lo, hi)
    return cum[starts[1:] - 1]


def tv_norm(density: RadonDensity) -> float:
    """Total variation of the density: the representation norm of f on the ball.

    The sphere marginal being atomic, this is an exact finite sum over
    directions of the integral of |g_w| over (-R, R): the sum of
    |G_1(r_{k+1}) - G_1(r_k)| between consecutive sign-change roots.  A
    norm that overflows a float raises ``DomainError``.
    """
    with np.errstate(over="ignore"):  # an overflow is refused below
        norm = float(direction_masses(density).sum())
    if not math.isfinite(norm):
        raise DomainError(f"density norm too large: its direction masses sum to {norm}, past the float range")
    return norm


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
    freqs, weights, poly = density.freqs[:, i], density.weights[:, i], density.poly[:, i]
    filled = freqs != 0
    total = 0.0
    if filled.any():
        total += float(np.real(weights[filled] @ _trig_moments(freqs[filled], power, lo, hi)))
    if len(poly):
        prim = polyint(np.concatenate([np.zeros(power), poly]))
        total += float(polyval(hi, prim) - polyval(lo, prim))
    return total


def spectral_second_moment(mu: SpectralMeasure) -> float:
    """Second frequency moment sum |c| t^2 of the atomic spectral measure.

    For a cosine sum this equals the Euclidean Fourier constant C_f.
    """
    return float(sum((np.abs(mu.coefs) * mu.freqs**2).tolist()))


@dataclass(frozen=True)
class AffinePart:
    """Affine remainder x -> <v, x> + c of a ramp representation on the ball."""

    v: np.ndarray
    c: float

    def __post_init__(self):
        freeze(self, v=np.atleast_1d(np.asarray(self.v, dtype=float)))

    @staticmethod
    def zero(d: int) -> "AffinePart":
        return AffinePart(v=np.zeros(d), c=0.0)

    def __call__(self, X):
        return as_points(X, len(self.v))[0] @ self.v + self.c


def ramp_integral_grid(density: RadonDensity, X) -> np.ndarray:
    """Ramp pairing x -> integral of (<w, x> - b)_+ g_w(b) db, summed over directions.

    Integrating by parts over (-R, u) with u = <w, x> gives the closed form
    G_2(u) - G_2(-R) - (u + R) G_1(-R), exact at any frequency.
    """
    X = as_points(X, density.d)[0]
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
        G2, G1 = density._values(points, (2, 1), np.concatenate([rows.repeat(n), rows]))
        G2R, G1R = G2[m * n :, None], G1[m * n :, None]
        for term in G2[: m * n].reshape(m, n) - G2R - (u + R) * G1R:  # directions added in order
            out += term
    return out


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
    m, R = len(density), density.R
    G2, G1 = density._values(np.full(m, -R), (2, 1), np.arange(m))
    return AffinePart(v=G1 @ density.directions, c=float(np.sum(G2 + R * G1)))
