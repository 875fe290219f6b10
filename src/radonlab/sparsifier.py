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
computed once per density and convention, then one inverse-CDF pass over
the neurons of any number of seeded streams, whatever their directions.
Each draw is a Newton solve kept inside its panel, by the same bracketed
Newton that refines the sign-change roots, started from the CDF of a sine
lobe that vanishes at the panel's roots.

Every network is evaluated one way: its neurons are grouped by distinct
direction, and each direction's ramps are summed from one histogram of its
biases over the sorted projections, with no N x n ramp matrix.  The same
kernel scores all seeded streams of a ladder batch at once, one pass per
direction, and a stream's values have the same bits as in its own net.  A
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
    RadonDensity,
    _bracketed_newton,
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
        omegas = np.asarray(self.omegas, dtype=float)
        if self.d < 1 or omegas.size != len(a) * self.d:
            raise InvalidInputError(
                f"neuron directions omega of shape {omegas.shape} do not form an n x d = {len(a)} x {self.d} array"
            )
        omegas = omegas.reshape(len(a), self.d)
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
        one step per neuron: about 5x the dense product at 4096 neurons x
        500 points in d=3 (shared 2-core machine, 185-245 ms against 32-48
        ms for max(X W^T - b, 0) a); no CLI command evaluates such a net.
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


def _draw_biases(density: RadonDensity, idx, u, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF biases from |g_w| on the open interval (lo, hi) for the
    drawn directions ``idx``, and the signs a = sign(g_w(b)) of the panels
    they lie in: neuron i's bias is where the mass of |g| of profile
    ``idx[i]`` from lo reaches u_i times its mass, clipped into (lo, hi).

    The panel holding each target comes from its profile's running masses;
    inside it the CDF |G_1(b) - G_1(r_k)| is monotone with derivative |g|,
    and one ``_bracketed_newton`` call solves every neuron's b, whatever its
    direction, with its panel as its bracket.  Newton's method starts from
    the CDF of a sine lobe with the panel's roots: the interior panel edges
    are sign-change roots, where g = 0, so with s the target's share of the
    panel mass a panel with a root at both edges starts at the fraction
    arccos(1 - 2s)/pi of its width, one with a root at its left edge only
    at (2/pi) arccos(1 - s), at its right edge only at (2/pi) arcsin(s), and
    one with no root at s.  A draw stops once its step is at most 1e-9 of
    the interval: Newton's error after such a step is of its square, and
    smaller steps would only chase the rounding noise of G_1.  Each step
    reads G_1 and g off one evaluation of the trig terms, of the draw's own
    profile only, so a bias has the same bits in any batch.
    """
    starts, edges, g1, cum = density.panels(lo, hi)
    first, last = starts[idx], starts[idx + 1] - 1  # each neuron's profile: its first and last edge
    target = u * cum[last]
    k = np.empty(len(idx), dtype=np.intp)
    for r in range(len(density)):
        sel = np.flatnonzero(idx == r)
        k[sel] = np.searchsorted(cum[starts[r] : starts[r + 1]], target[sel], side="right")
    k = np.minimum(first + k - 1, last - 1)
    rest = target - cum[k]
    sign = np.where(g1[k + 1] >= g1[k], 1.0, -1.0)
    left, right = edges[k], edges[k + 1]
    panel_mass = cum[k + 1] - cum[k]
    s = np.clip(np.divide(rest, panel_mass, out=np.zeros_like(rest), where=panel_mass > 0), 0.0, 1.0)
    rooted_left, rooted_right = k > first, k < last - 1  # the panel's left and right edges are roots
    lobe = np.where(
        rooted_left,
        np.where(rooted_right, np.arccos(1.0 - 2.0 * s) / np.pi, np.arccos(1.0 - s) * (2.0 / np.pi)),
        np.where(rooted_right, np.arcsin(s) * (2.0 / np.pi), s),
    )
    start, x = g1[k], left + (right - left) * lobe
    del first, last, target, k, panel_mass, s, lobe  # a batch's Newton pass holds only what it reads

    def excess(live, x):
        G1, g = density._values(x, (1, 0), idx[live])
        return sign[live] * (G1 - start[live]) - rest[live], sign[live] * g

    b = _bracketed_newton(excess, x, left, right, 1e-9 * (hi - lo))
    return np.clip(b, np.nextafter(lo, hi), np.nextafter(hi, lo)), sign


def _exact_l1_unit(w: np.ndarray) -> np.ndarray:
    """Rescale w to unit l1 norm, exactly in floating point: ``np.abs(out).sum() == 1.0``.

    The largest-magnitude coordinate is rewritten as 1 minus the sum of the
    others.  From d = 3 on numpy's sum, which adds in an order of its own
    (pairwise from d = 8), can still miss 1.0 by an ulp, and stepping that
    coordinate cannot always mend it: one step can carry the sum from just
    below 1.0 to just above.  Such a row is rounded to multiples of 2^-53
    instead, the largest coordinate again taking the rest.  Every partial
    sum of such numbers up to 1 is exact, so the sum is 1.0 in any order
    and any d; each other coordinate moves by at most 2^-54.
    """
    s = float(np.abs(w).sum())
    out = w / s
    k = int(np.argmax(np.abs(out)))
    rest = float(np.sum(np.abs(np.delete(out, k))))
    out[k] = math.copysign(max(1.0 - rest, 0.0), out[k] if out[k] != 0 else 1.0)
    if np.abs(out).sum() != 1.0:
        q = np.round(np.abs(out) * 2.0**53)
        q[k] = 2.0**53 - np.delete(q, k).sum()  # integers below 2^53: exact
        out = np.copysign(q * 2.0**-53, out)
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
    it; the biases of all streams come from one inverse-CDF pass, whose
    draws each stop on their own Newton step.
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


_SCORE_BLOCK = 2**16  # (stream, point) entries that close a ladder batch: the size of _ramp_sums' tables


def _ramp_sums(a: np.ndarray, b: np.ndarray, labels: np.ndarray, proj: np.ndarray, sizes=None) -> np.ndarray:
    """sum_i a_i (<w_i, x> - b_i)_+ at every point x, per stream, from one bias histogram per direction.

    Neuron i has direction label ``labels[i]``, and ``proj[labels[i]]``
    holds the points' projections on that direction.  The neurons are
    consecutive streams of ``sizes`` neurons, and row s of the
    (streams, points) result sums stream s alone; without ``sizes`` they
    are one stream and the result is that row.

    Per direction, in label order, with its projections sorted into ps:
    neuron i falls in slot k_i, the count of points at or below b_i, so
    exactly the points from ps[k_i] on lie above it (a bias equal to a
    point adds nothing either way).  The running sums A of a_i and B of
    a_i b_i over each stream's slots give sum_i a_i (p - b_i)_+ = p A - B
    at each sorted point p.  A bin sums its own stream's neurons in their order, and a
    direction a stream lacks adds zeros, so a row has the same bits in any
    batch as from that stream's neurons alone.
    """
    one = sizes is None
    sizes = np.array([len(a)] if one else sizes, dtype=np.intp)
    S, N = len(sizes), proj.shape[1]
    out = np.zeros((S, N))
    by_label = np.argsort(labels, kind="stable")
    labels, a, b = labels[by_label], a[by_label], b[by_label]
    ab = a * b
    first_bin = np.repeat(np.arange(S), sizes)[by_label] * (N + 1)  # of each neuron's stream
    cuts = np.flatnonzero(np.diff(labels, prepend=-1)).tolist() + [len(a)]
    for lo, hi in zip(cuts, cuts[1:]):
        order = np.argsort(proj[labels[lo]])
        ps = proj[labels[lo], order]
        bins = first_bin[lo:hi] + ps.searchsorted(b[lo:hi], side="right")
        A, B = (np.bincount(bins, w[lo:hi], S * (N + 1)).reshape(S, N + 1)[:, :N].cumsum(axis=1) for w in (a, ab))
        out[:, order] += ps * A - B
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
    batch costs one inverse-CDF pass rather than one per trial.  The cap
    bounds the experiment's memory at the cost of more passes: a d=1,
    16..4096 x 20-trial ladder (109,120 neurons) makes 7 batches and peaks
    at 4.4 MiB under ``tracemalloc``, against 2.7 MiB in 14 batches of
    2**13, 7.4 MiB in 4 batches of 2**15 and 20.0 MiB in one.
    A batch also closes once its streams' ramp sums, one row of grid
    values per stream, fill ``_SCORE_BLOCK`` entries, which bounds the two
    (streams, grid points + 1) histograms ``_ramp_sums`` builds for each
    direction, however many one-neuron streams the ladder has.  Each batch
    is scored by one ``_ramp_sums`` call over all of its streams.
    """
    return _ladder(mu, R, n_list, trials, seed, grid_size, convention)[0]


def _ladder(
    mu: SpectralMeasure, R: float, n_list, trials: int, seed: int, grid_size: int, convention: str
) -> tuple[list[ApproxReport], float, TwoLayerNet | None, float | None]:
    """``error_decay_experiment``, with the density norm, the network of the
    first best trial at the largest width, and that trial's error: its
    ``sup_error`` on the scoring grid, to the bit."""
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
    if best is None:
        return reports, norm, None, None
    return reports, norm, plan.net(*best[1:]), float(best[0])


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
