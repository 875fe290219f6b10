"""Finite-width ReLU networks sampled from a Radon density.

Sampling (convention ``thm2``): neurons (w_i, b_i) are drawn i.i.d. from the
normalized absolute density |g|/norm -- directions with probability
proportional to their mass, biases by inverting the exact CDF of |g_w|,
which on each sign-constant panel (r_k, r_{k+1}) is |G_1(b) - G_1(r_k)| plus
the mass of the panels before it -- and the coefficient a_i = sign(g_w(b_i))
is the positive/negative part indicator of the signed density.  With outer
scale kappa equal to the density norm, the expectation of the sampled
network is exactly the ramp pairing, and the sup error over the ball of
radius R decays like R * norm / sqrt(n).

The ``prop2`` convention additionally folds the negative-bias mass into the
affine part and pushes neurons through (w, b) -> (w/|w|_1, b/|w|_1), giving
coefficients |a_i| <= 1, l1-unit directions, biases in [0, 1], and outer
scale at most sqrt(d) times the norm (requires R <= 1).

Both samplers and ``error_decay_experiment`` draw through one path: a plan
computed once per density and convention, then one inverse-CDF pass per
direction over the neurons of any number of seeded streams.  Each draw is
a safeguarded Newton solve inside its panel, started from the CDF of a
sine lobe that vanishes at the panel's sign-change roots.

Every network is evaluated one way: its neurons are grouped by distinct
direction, and each group's ramps are summed from prefix sums over its
sorted biases, with no N x n ramp matrix.  The same kernel scores all
seeded streams of a ladder batch at once, one pass per direction, and a
stream's values have the same bits there as from its network alone.  A
sampled network has only as many distinct directions as the density, and
a null-space network repeats each sphere node over all of its bias nodes,
so the directions are far fewer than the neurons for both.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMeasureError, DomainError, InvalidInputError, float_field, integer_field
from .quadrature import BallGrid, ball_grid
from .radon_measure import (
    AffinePart,
    DirectionProfile,
    RadonDensity,
    density_from_spectrum,
    direction_masses,
    fit_affine,
    profile_moment,
    tv_norm,
)
from .spectrum import SpectralMeasure

CONVENTIONS = ("thm2", "prop2", "quadrature")


@dataclass(frozen=True)
class TwoLayerNet:
    """Finite-width ReLU network with skip term.

    Evaluation: kappa/n * sum_i a_i (<w_i, x> - b_i)_+ + <v, x> + c.
    ``convention`` tags the weight-constraint profile: ``thm2`` (|a_i| = 1,
    l2-unit directions, biases in (-R, R)), ``prop2`` (|a_i| <= 1, l1-unit
    directions, biases in [0, 1]), or ``quadrature`` (free coefficients,
    kappa/n = 1).
    """

    d: int
    a: np.ndarray
    omegas: np.ndarray
    b: np.ndarray
    kappa: float
    v: np.ndarray
    c: float
    convention: str = "thm2"

    def __post_init__(self):
        if self.convention not in CONVENTIONS:
            raise InvalidInputError(f"unknown convention {self.convention!r}")
        a = np.atleast_1d(np.asarray(self.a, dtype=float))
        omegas = np.asarray(self.omegas, dtype=float).reshape(len(a), self.d)
        b = np.atleast_1d(np.asarray(self.b, dtype=float))
        v = np.atleast_1d(np.asarray(self.v, dtype=float))
        if len(b) != len(a):
            raise InvalidInputError("coefficient and bias counts differ")
        if v.shape != (self.d,):
            raise InvalidInputError(f"affine part v of shape {v.shape} does not match d={self.d}")
        for arr in (a, omegas, b, v):
            arr.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "omegas", omegas)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "v", v)

    @property
    def n(self) -> int:
        return len(self.a)

    def evaluate(self, X):
        """Network value at points of shape (d,) or (N, d); a float for a single point.

        Ramps are summed per distinct direction by ``_ramp_sums``, with no
        N x n array.  With all n directions distinct its Python loop makes
        two steps per neuron: about 13x the dense product at 4096 neurons x
        500 points in d=3 (2-core machine, 150-170 ms against 11-13 ms); no
        CLI command evaluates such a net.
        """
        pts = np.asarray(X, dtype=float)
        single = pts.ndim <= 1
        pts = np.atleast_2d(pts if pts.ndim else pts.reshape(1))
        if pts.shape[1] != self.d:
            raise InvalidInputError(f"points of shape {pts.shape} do not match d={self.d}")
        out = _project(pts, self.v[None, :])[0] + self.c
        if self.n:
            _, first, labels = np.unique(self.omegas, axis=0, return_index=True, return_inverse=True)
            ramps = _ramp_sums(self.a, self.b, labels.ravel(), _project(pts, self.omegas[first]))
            out = out + (self.kappa / self.n) * ramps
        return float(out[0]) if single else out

    def check_convention(self, R: float | None = None, norm: float | None = None, slack: float = 1e-10) -> None:
        """Assert the weight constraints of the declared convention."""
        if self.n == 0:
            return
        if self.convention == "thm2":
            if not np.all(np.abs(self.a) == 1.0):
                raise InvalidInputError("thm2 coefficients must be exactly +-1")
            if np.max(np.abs(np.linalg.norm(self.omegas, axis=1) - 1.0)) > 1e-12:
                raise InvalidInputError("thm2 directions must be l2-unit")
            if R is not None and not np.all((self.b > -R) & (self.b < R)):
                raise InvalidInputError("thm2 biases must lie in (-R, R)")
            if norm is not None and self.kappa != norm:
                raise InvalidInputError("thm2 outer scale must equal the density norm")
        elif self.convention == "prop2":
            l1 = np.abs(self.omegas).sum(axis=1)
            if not np.all(l1 == 1.0):
                raise InvalidInputError("prop2 directions must be exactly l1-unit")
            if not np.all((self.b >= 0.0) & (self.b <= 1.0)):
                raise InvalidInputError("prop2 biases must lie in [0, 1]")
            if not np.all(np.abs(self.a) <= 1.0):
                raise InvalidInputError("prop2 coefficients must satisfy |a| <= 1")
            if norm is not None and self.kappa > math.sqrt(self.d) * norm + slack:
                raise InvalidInputError("prop2 outer scale exceeds sqrt(d) * norm")


_NEWTON_STEPS = 64  # a cap only: bisection alone gets below 1e-9 in 30 steps


def _inverse_cdf(profile: DirectionProfile, panels, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Biases b at which the mass of |g| from the interval's start reaches u * mass,
    and the signs of g at them: +-1, the sign of the panel each b lies in.

    The panel holding each target comes from the running masses; inside it
    the CDF |G_1(b) - G_1(r_k)| is monotone with derivative |g|.  Newton's
    method starts from the CDF of a sine lobe with the panel's roots: the
    interior panel edges are sign-change roots, where g = 0, so with s the
    target's share of the panel mass a panel with a root at both edges
    starts at the fraction arccos(1 - 2s)/pi of its width, one with a root
    at its left edge only at (2/pi) arccos(1 - s), at its right edge only at
    (2/pi) arcsin(s), and one with no root at s.  Newton is replaced by
    bisection whenever it leaves the shrinking bracket.  A draw stops once
    its step is below 1e-9 of the interval: Newton's error after such a
    step is of its square, and smaller steps would only chase the rounding
    noise of G_1.  Only the draws still moving are iterated, and each step
    reads G_1 and g off one evaluation of the trig terms.
    """
    edges, g1, cum = panels
    target = u * cum[-1]
    k = np.minimum(np.searchsorted(cum, target, side="right") - 1, len(edges) - 2)
    rest = target - cum[k]
    sign = signs = np.where(g1[k + 1] >= g1[k], 1.0, -1.0)
    lo, hi = edges[k], edges[k + 1]
    panel_mass = cum[k + 1] - cum[k]
    s = np.clip(np.divide(rest, panel_mass, out=np.zeros_like(rest), where=panel_mass > 0), 0.0, 1.0)
    left, right = k > 0, k < len(edges) - 2  # the panel's left and right edges are roots
    lobe = np.where(
        left,
        np.where(right, np.arccos(1.0 - 2.0 * s) / np.pi, np.arccos(1.0 - s) * (2.0 / np.pi)),
        np.where(right, np.arcsin(s) * (2.0 / np.pi), s),
    )
    b = lo + (hi - lo) * lobe
    tol = 1e-9 * (edges[-1] - edges[0])
    live = np.arange(len(b))
    x, start = b.copy(), g1[k]
    for _ in range(_NEWTON_STEPS):
        G1, g = profile._antiderivatives(x, (1, 0))
        excess = sign * (G1 - start) - rest
        lo = np.where(excess <= 0, x, lo)
        hi = np.where(excess >= 0, x, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = x - excess / (sign * g)
        step = np.where((step >= lo) & (step <= hi), step, 0.5 * (lo + hi))
        moving = np.abs(step - x) > tol
        b[live] = step
        if not moving.any():
            break
        live, x, start, rest, sign, lo, hi = (arr[moving] for arr in (live, step, start, rest, sign, lo, hi))
    return b, signs


def _draw_biases(density: RadonDensity, idx, u, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF biases from |g_w| on the open interval (lo, hi) for the
    drawn directions ``idx``, and the signs a = sign(g_w(b)), read off the
    sign-constant panel each b lies in."""
    b = np.empty(len(idx))
    a = np.empty(len(idx))
    for i, (profile, panels) in enumerate(zip(density.profiles, density.panels(lo, hi))):
        sel = np.flatnonzero(idx == i)
        if len(sel):
            bi, a[sel] = _inverse_cdf(profile, panels, u[sel])
            b[sel] = np.clip(bi, np.nextafter(lo, hi), np.nextafter(hi, lo))
    return b, a


def _exact_l1_unit(w: np.ndarray) -> np.ndarray:
    """Rescale w to unit l1 norm, exactly in floating point.

    The largest-magnitude coordinate is rewritten as the complement of the
    others so that the absolute values sum to 1.0 under sequential float
    addition (guaranteed for d <= 8, where numpy sums sequentially).
    """
    s = float(np.abs(w).sum())
    out = w / s
    k = int(np.argmax(np.abs(out)))
    rest = float(np.sum(np.abs(np.delete(out, k))))
    out[k] = math.copysign(max(1.0 - rest, 0.0), out[k] if out[k] != 0 else 1.0)
    return out


@dataclass(frozen=True)
class _DrawPlan:
    """What every network drawn from one density under one convention shares.

    Directions are drawn with probability proportional to ``weights`` and
    biases from |g_w| on (lo, hi); neuron i stores the direction row
    ``rows[idx_i]`` and, for prop2, its bias divided by ``l1[idx_i]``.
    """

    density: RadonDensity
    convention: str
    lo: float
    hi: float
    weights: np.ndarray
    kappa: float
    v: np.ndarray
    c: float
    rows: np.ndarray
    l1: np.ndarray | None

    def net(self, idx: np.ndarray, a: np.ndarray, b: np.ndarray) -> TwoLayerNet:
        return TwoLayerNet(self.density.d, a, self.rows[idx], b, self.kappa, self.v, self.c, self.convention)


def _draw_plan(density: RadonDensity, affine: AffinePart, convention: str, norm: float | None = None) -> _DrawPlan:
    """The plan of ``sample_network`` (thm2, with ``norm``) or ``l1_normalized_network`` (prop2)."""
    if convention != "prop2":
        masses, R = direction_masses(density), density.R
        return _DrawPlan(density, "thm2", -R, R, masses, float(norm), affine.v, affine.c, density.directions, None)
    if density.R > 1.0:
        raise DomainError("l1-normalized networks require the ball radius R <= 1")
    l1 = np.abs(density.directions).sum(axis=1)
    weights = 2.0 * direction_masses(density, lo=0.0, hi=density.R) * l1
    # affine corrections from folding b < 0 onto b > 0
    v = affine.v.copy()
    c = affine.c
    for i, w in enumerate(density.directions):
        v = v - w * profile_moment(density, i, 0, 0.0, density.R)
        c = c + profile_moment(density, i, 1, 0.0, density.R)
    rows = np.array([_exact_l1_unit(w) for w in density.directions])
    return _DrawPlan(density, "prop2", 0.0, density.R, weights, float(weights.sum()), v, float(c), rows, l1)


def _draw(plan: _DrawPlan, streams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Direction indices, signs and biases of the neurons of every (n, seed) stream, end to end.

    Each stream draws its n directions and then its n uniforms from its own
    generator, so a stream's neurons do not depend on the streams beside
    it; the biases of all streams come from one inverse-CDF pass per
    direction, whose draws each stop on their own Newton step.
    """
    if any(n < 1 for n, _ in streams):
        raise InvalidInputError("need at least one neuron")
    total = float(plan.weights.sum())
    if total <= 0 or plan.kappa <= 0:
        raise DegenerateMeasureError("cannot sample from a zero-mass density")
    p = plan.weights / total
    rngs = [(n, np.random.default_rng(seed)) for n, seed in streams]
    draws = [(rng.choice(len(p), size=n, p=p), rng.random(n)) for n, rng in rngs]
    idx, u = (np.concatenate(x) for x in zip(*draws))
    b, a = _draw_biases(plan.density, idx, u, plan.lo, plan.hi)
    if plan.l1 is not None:
        b = np.minimum(b / plan.l1[idx], 1.0)
        plan.net(idx, a, b).check_convention()
    return idx, a, b


def sample_network(density: RadonDensity, norm: float, affine: AffinePart, n: int, seed) -> TwoLayerNet:
    """Importance-sample an n-neuron network from |density|/norm (convention thm2).

    Deterministic for a fixed seed: one direction draw, one uniform draw for
    the bias inverse-CDF, signs read off the signed profile.
    """
    plan = _draw_plan(density, affine, "thm2", norm)
    return plan.net(*_draw(plan, [(n, seed)]))


def l1_normalized_network(density: RadonDensity, affine: AffinePart, n: int, seed) -> TwoLayerNet:
    """Sample an l1-normalized network (convention prop2) on a ball with R <= 1.

    Negative-bias mass folds into the affine part through the reflection
    identity (b - u)_+ = (u - b)_+ - u + b, doubling the positive-bias
    density; neurons are then pushed through (w, b) -> (w/|w|_1, b/|w|_1)
    with the l1 weight absorbed into the outer scale kappa.
    """
    plan = _draw_plan(density, affine, "prop2")
    return plan.net(*_draw(plan, [(n, seed)]))


def _project(points: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """dirs @ points.T, summed coordinate by coordinate in elementwise products.

    Unlike a BLAS product, the bits of a row depend only on its values, so
    a direction projects the same from any array it sits in.
    """
    out = np.multiply.outer(dirs[:, 0], points[:, 0])
    for j in range(1, points.shape[1]):
        out += np.multiply.outer(dirs[:, j], points[:, j])
    return out


_SCORE_BLOCK = 2**16  # most entries of each table of one block of (direction, stream) groups


def _ramp_sums(a: np.ndarray, b: np.ndarray, labels: np.ndarray, proj: np.ndarray, sizes=None) -> np.ndarray:
    """sum_i a_i (<w_i, x> - b_i)_+ at every point x, per stream, summed per direction group.

    Neuron i has direction label ``labels[i]``, and ``proj[labels[i]]``
    holds the points' projections on that direction.  The neurons are
    consecutive streams of ``sizes`` neurons, and row s of the
    (streams, points) result sums stream s alone; without ``sizes`` they
    are one stream and the result is that row.

    The biases of each (direction, stream) group are sorted once, with
    prefix sums A of a_i and B of a_i b_i held as the zero-padded rows of
    one table; a point whose projection p lies above the first k biases
    of its group gets sum_i a_i (p - b_i)_+ = p A_k - B_k (a bias equal
    to p adds nothing either way).  k is an exact count: each bias is
    ranked among its direction's sorted projections by binary search, and
    the ranks are counted and summed up along the points of every group.
    Each stream adds its groups in label order, so its row has the same
    bits in any batch as from its own neurons alone.  Groups go in blocks
    whose tables hold at most ``_SCORE_BLOCK`` entries each; the Python
    loop runs over the directions of a block.
    """
    one = sizes is None
    sizes = np.array([len(a)] if one else sizes, dtype=np.intp)
    S, N = len(sizes), proj.shape[1]
    out = np.zeros((S, N))
    # neurons by (direction, stream), then bias, ties in neuron order: the
    # order of np.lexsort((b, key)), at a fraction of its cost.  An unstable
    # bias sort is exact unless biases tie; the keys take the smallest
    # dtype, which numpy sorts stably by radix up to 16 bits
    key = labels * S + np.repeat(np.arange(S), sizes)
    order = np.argsort(b)
    if np.any(b[order[1:]] == b[order[:-1]]):
        order = np.argsort(b, kind="stable")
    order = order[np.argsort(key[order].astype(np.min_scalar_type(len(proj) * S)), kind="stable")]
    key, a, b = key[order], a[order], b[order]
    # the (direction, stream) groups, and each neuron's group and 1-based place in it
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    counts = np.diff(np.append(starts, len(order)))
    group = np.repeat(np.arange(len(starts)), counts)
    place = np.arange(len(order)) - starts[group] + 1
    g0 = 0
    while g0 < len(starts):
        # as many groups as keep rows x (points + widest group + 2) within the block
        widest = np.maximum.accumulate(counts[g0 : g0 + max(1, _SCORE_BLOCK // (N + 2))])
        g1 = g0 + max(1, int(np.count_nonzero(np.arange(1, len(widest) + 1) * (N + 2 + widest) <= _SCORE_BLOCK)))
        sel = slice(starts[g0], starts[g1] if g1 < len(starts) else len(order))
        rows, width = group[sel] - g0, widest[g1 - g0 - 1] + 1
        A, B = prefix = np.zeros((2, g1 - g0, width))
        prefix[:, rows, place[sel]] = a[sel], a[sel] * b[sel]
        np.cumsum(prefix, axis=2, out=prefix)
        # the block's directions, the order of their projections, and each
        # point's place in it (tied projections get the same k in any order)
        label, into = np.divmod(key[starts[g0:g1]], S)
        dirs, first, dir_of = np.unique(label, return_index=True, return_inverse=True)
        p = proj[dirs]
        ranks = np.argsort(p, axis=1)
        place_of = np.empty_like(ranks)
        place_of[np.arange(len(dirs))[:, None], ranks] = np.arange(N)
        p = np.sort(p, axis=1)
        # each bias's count of the points at or below it, then k at every point
        above = np.empty(sel.stop - sel.start, dtype=np.intp)
        bs = b[sel]
        cuts = (np.append(starts[g0 + first], sel.stop) - sel.start).tolist()
        for j in range(len(dirs)):
            above[cuts[j] : cuts[j + 1]] = p[j].searchsorted(bs[cuts[j] : cuts[j + 1]], side="right")
        k = np.bincount(rows * (N + 1) + above, minlength=(g1 - g0) * (N + 1)).reshape(g1 - g0, N + 1)
        k = np.take_along_axis(np.cumsum(k[:, :N], axis=1), place_of[dir_of], axis=1)
        k += np.arange(0, A.size, width)[:, None]
        vals = proj[label] * A.take(k) - B.take(k)
        # each stream adds its directions in label order
        bounds = np.append(first, g1 - g0).tolist()
        for lo, hi in zip(bounds, bounds[1:]):
            out[into[lo:hi]] += vals[lo:hi]
        g0 = g1
    return out[0] if one else out


def sup_error(net: TwoLayerNet, mu: SpectralMeasure, grid: BallGrid) -> float:
    """Largest deviation between the network and the represented function on the grid."""
    if net.d != mu.d:
        raise InvalidInputError("network and measure dimensions differ")
    return float(np.max(np.abs(net.evaluate(grid.points) - mu.evaluate(grid.points))))


@dataclass(frozen=True)
class ApproxReport:
    """Sup-error statistics of seeded sampling trials at one width n."""

    n: int
    trials: int
    seed: int
    bound: float
    errors: tuple[float, ...]
    grid_size: int

    def __post_init__(self):
        if self.trials != len(self.errors):
            raise InvalidInputError("trial count does not match error list")
        if min(self.errors) > sum(self.errors) / len(self.errors) + 1e-15:
            raise InvalidInputError("min error cannot exceed the mean")

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.errors))

    @property
    def min_error(self) -> float:
        return float(min(self.errors))

    @property
    def max_error(self) -> float:
        return float(max(self.errors))


_BATCH_DRAWS = 2**14  # most neurons per draw pass of a ladder: each holds a few float64 arrays of this size


def error_decay_experiment(
    mu: SpectralMeasure,
    R: float,
    n_list,
    trials: int,
    seed: int,
    grid_size: int = 500,
    convention: str = "thm2",
) -> list[ApproxReport]:
    """Sample `trials` networks at each width and record sup errors on a fixed grid.

    Each (width, trial) pair derives its own RNG stream from
    (seed, width index, trial index), so any one trial can be redrawn alone,
    to the bit: a profile's value does not depend on the other draws of its
    batch.
    A trial's error is ``sup_error`` of its network to the bit: the same
    per-direction sum, directions added in the same order, with f and the
    grid's projections computed once.

    The draw plan (direction probabilities, outer scale, affine part and,
    for prop2, the folded affine part) is computed once per ladder.  Whole
    streams, in (width, trial) order, are then drawn together in batches of
    at most ``_BATCH_DRAWS`` neurons, a stream larger than that alone, so a
    batch costs one inverse-CDF pass per direction rather than one per
    trial.  The cap bounds the experiment's memory at the cost of more
    passes: a d=1, 16..4096 x 20-trial ladder (109,120 neurons) makes 7
    batches and peaks at 3.7 MiB under ``tracemalloc``, against 2.6 MiB in
    14 batches of 2**13, 6.8 MiB in 4 batches of 2**15 and 17.0 MiB in one.
    A batch also closes once its streams' ramp sums, one row of grid
    values per stream, fill ``_SCORE_BLOCK`` entries, so thousands of
    one-neuron streams do not make one large table.  Each batch is scored
    by one ``_ramp_sums`` call over all of its streams.
    """
    return _ladder(mu, R, n_list, trials, seed, grid_size, convention)[0]


def _ladder(
    mu: SpectralMeasure, R: float, n_list, trials: int, seed: int, grid_size: int, convention: str
) -> tuple[list[ApproxReport], float, BallGrid, TwoLayerNet | None]:
    """``error_decay_experiment``, with the density norm, the scoring grid,
    and the network of the first best trial at the largest width."""
    n_list = [int(n) for n in n_list]
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidInputError("widths must be strictly increasing")
    if trials < 1:
        raise InvalidInputError("need at least one trial")
    density = density_from_spectrum(mu, R)
    norm = tv_norm(density)
    grid = ball_grid(mu.d, R, grid_size, mode="low-discrepancy")
    plan = _draw_plan(density, fit_affine(density), convention, norm)
    # f, the affine part and the projections on every direction a neuron can
    # draw, once; directions are labelled by the ranks that evaluate gives them
    f = mu.evaluate(grid.points)
    base = _project(grid.points, plan.v[None, :])[0] + plan.c
    rows, labels = np.unique(plan.rows, axis=0, return_inverse=True)
    proj, labels = _project(grid.points, rows), labels.ravel()
    # whole (n, seed) streams in (width, trial) order, in runs of at most
    # _BATCH_DRAWS neurons and of streams whose ramp sums fill _SCORE_BLOCK
    batches, size = [[]], 0
    for ni, n in enumerate(n_list):
        for t in range(trials):
            if batches[-1] and (size + n > _BATCH_DRAWS or len(batches[-1]) * len(grid) >= _SCORE_BLOCK):
                batches.append([])
                size = 0
            batches[-1].append((n, [seed, ni, t]))
            size += n
    errors, best = [], None
    for batch in batches:
        sizes = np.array([n for n, _ in batch])
        idx, a, b = _draw(plan, batch)
        sums = _ramp_sums(a, b, labels[idx], proj, sizes)
        scores = np.max(np.abs(base + (plan.kappa / sizes)[:, None] * sums - f), axis=1)
        errors.extend(scores.tolist())
        wide = np.flatnonzero(sizes == n_list[-1])
        if len(wide) and (best is None or scores[wide].min() < best[0]):
            s = wide[np.argmin(scores[wide])]
            cut = slice(sizes[:s].sum(), sizes[: s + 1].sum())
            best = (scores[s], idx[cut], a[cut], b[cut])
    reports = [
        ApproxReport(n, trials, seed, R * norm / math.sqrt(n), tuple(errors[ni * trials : (ni + 1) * trials]), len(grid))
        for ni, n in enumerate(n_list)
    ]
    return reports, norm, grid, plan.net(*best[1:]) if best else None


def _json_float(x: float) -> str:
    """A float as ``json`` writes it: its repr, or NaN, Infinity, -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _json_list(items, indent: str) -> str:
    """A list of json texts laid out as ``json.dump(indent=2)`` lays it out at this depth."""
    if not items:
        return "[]"
    items = f",\n{indent}  ".join(items)
    return f"[\n{indent}  {items}\n{indent}]"


def save_network(path, net: TwoLayerNet) -> None:
    """Write the canonical network JSON schema.

    The text is what ``json.dump(payload, indent=2, sort_keys=True)`` writes
    for the schema's fixed keys, composed directly: indented output goes
    through json's pure-Python encoder, which was most of the cost of
    saving a wide network.  The neurons fill copies of one template with
    their d + 2 floats in one ``%`` pass: their reprs, or json's names for
    them when the net holds a NaN or an infinity.
    """
    fmt = float.__repr__ if all(np.isfinite(x).all() for x in (net.a, net.omegas, net.b)) else _json_float
    omega = _json_list(["%s"] * net.d, "      ")
    neuron = f'    {{\n      "a": %s,\n      "b": %s,\n      "omega": {omega}\n    }}'
    values = np.column_stack([net.a, net.b, net.omegas]).ravel().tolist()
    neurons = ",\n".join([neuron] * net.n) % tuple(map(fmt, values))
    neuron_list = "[\n" + neurons + "\n  ]" if net.n else "[]"
    text = (
        "{\n"
        f'  "c": {_json_float(float(net.c))},\n'
        f'  "convention": {json.dumps(net.convention)},\n'
        f'  "d": {json.dumps(net.d)},\n'
        f'  "kappa": {json.dumps(net.kappa)},\n'
        f'  "neurons": {neuron_list},\n'
        f'  "v": {_json_list(list(map(_json_float, net.v.tolist())), "  ")}\n'
        "}\n"
    )
    with open(path, "w") as fh:
        fh.write(text)


def load_network(path) -> TwoLayerNet:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        neurons = payload["neurons"]
        columns = {key: [x[key] for x in neurons] for key in ("a", "omega", "b")}
        return TwoLayerNet(
            d=integer_field(payload, "d", "network"),
            a=float_field(columns, "a", "network", array=True),
            omegas=float_field(columns, "omega", "network", array=True),
            b=float_field(columns, "b", "network", array=True),
            kappa=float_field(payload, "kappa", "network"),
            v=float_field(payload, "v", "network", array=True),
            c=float_field(payload, "c", "network"),
            convention=str(payload["convention"]),
        )
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed network file: {exc}") from exc


def write_decay_csv(path, reports: list[ApproxReport]) -> None:
    """Plot-ready decay curve: n, bound, mean_err, min_err, max_err."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "bound", "mean_err", "min_err", "max_err"])
        for r in reports:
            writer.writerow([r.n, repr(r.bound), repr(r.mean_error), repr(r.min_error), repr(r.max_error)])
