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

Both samplers and ``error_decay_experiment``, the width ladder behind the
``approximate`` command, draw through one path: a plan computed once per
density and convention, then one inverse-CDF pass over the neurons of any
number of seeded streams, whatever their directions.
A batch of streams is put in one order by one 16-bit radix sort, each
direction's neurons in one run and by uniform to within 1/B, B the most
buckets of the uniform the key has room for, and both of its passes run
in that order: the draw pass searches each direction's panels with
(nearly) sorted targets, and since the inverse CDF is monotone in the
uniform, the scoring pass searches each direction's slots with its biases
in nearly sorted order too.  The order only speeds the searches: each
search gives the same panel or slot in any order.
Each draw is a Newton solve kept inside its panel, by the same bracketed
Newton that refines the sign-change roots, started from a table of every
panel's inverse CDF: cubics in theta = arccos(1 - 2s)/pi, s the share of
the panel's mass, solved at a few nodes per panel once per density and
interval, so that a draw's first step is mostly its last.

Every network is evaluated one way: its neurons are grouped by distinct
direction, and each direction's ramps are summed from one histogram of its
biases over the sorted projections, with no N x n ramp matrix.  The same
kernel scores all seeded streams of a ladder batch at once, one pass per
direction, in the batch's draw order, over the grid's projections sorted
once per ladder, and a stream's values have the same bits as in its own
net, which sorts its projections once per call and its neurons by
direction and bias.  A sampled network has only as many distinct
directions as the density, and a null-space network repeats each sphere
node over all of its bias nodes, so the directions are far fewer than the
neurons for both.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateMeasureError,
    DomainError,
    InvalidInputError,
    _check_table,
    as_directions,
    as_points,
    check_count,
    check_finite,
    check_integer,
    float_field,
    freeze,
    integer_field,
    list_field,
)
from .quadrature import BallGrid, ball_grid
from .radon_measure import (
    AffinePart,
    RadonDensity,
    _bracketed_newton,
    _line_runs,
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
        if a.ndim != 1 or b.ndim != 1:
            raise InvalidInputError(
                f"coefficients a of shape {a.shape} and biases b of shape {b.shape} must be one number per neuron"
            )
        if len(b) != len(a):
            raise InvalidInputError("coefficient and bias counts differ")
        if v.shape != (self.d,):
            raise InvalidInputError(f"affine part v of shape {v.shape} does not match d={self.d}")
        freeze(self, a=a, omegas=omegas, b=b, v=v)

    @property
    def n(self) -> int:
        return len(self.a)

    def evaluate(self, X):
        """Network value at points of shape (d,) or (N, d); a float for a single point.

        Ramps are summed per distinct direction by ``_ramp_sums``, with no
        N x n array, over each direction's projections sorted once.  With
        all n directions distinct its Python loop makes one step per
        neuron: about 15x the dense product at 4096 neurons x 500 points in
        d=3 (shared 2-core machine, best of 7: 130 ms against 8.5 ms for
        max(X W^T - b, 0) a); no CLI command evaluates such a net.
        """
        pts, single = as_points(X, self.d)
        out = _project(pts, self.v[None, :])[0] + self.c
        if self.n:
            first, labels = _group_rows(self.omegas)
            _check_table(len(pts), len(first), "directions")  # the projections, sorted and placed
            ps, place = _sorted_projections(_project(pts, self.omegas[first]))
            lo, hi = self.b.min(), self.b.max()
            with np.errstate(all="ignore"):  # the biases' shares of their range only order the searches
                order = _by_direction(labels, (self.b - lo) / (hi - lo))
            out = out + (self.kappa / self.n) * _ramp_sums(self.a, self.b, labels, ps, place, [self.n], order)[0]
        return float(out[0]) if single else out

    def check_convention(self, R: float | None = None, norm: float | None = None) -> None:
        """Assert the weight constraints of the declared convention; a prop2
        outer scale may pass sqrt(d) * norm by 1e-10."""
        if self.n == 0:
            return
        if self.convention == "thm2":
            if not np.all(np.abs(self.a) == 1.0):
                raise InvalidInputError("thm2 coefficients must be exactly +-1")
            as_directions(self.omegas, self.d)
            if R is not None and not np.all((self.b > -R) & (self.b < R)):
                raise InvalidInputError("thm2 biases must lie in (-R, R)")
            if norm is not None and self.kappa != norm:
                raise InvalidInputError("thm2 outer scale must equal the density norm")
        elif self.convention == "prop2":
            _check_l1_rows(self.omegas)
            _check_prop2_neurons(self.a, self.b)
            if norm is not None and self.kappa > math.sqrt(self.d) * norm + 1e-10:
                raise InvalidInputError("prop2 outer scale exceeds sqrt(d) * norm")


def _check_l1_rows(omegas: np.ndarray) -> None:
    if not np.all(np.abs(omegas).sum(axis=1) == 1.0):
        raise InvalidInputError("prop2 directions must be exactly l1-unit")


def _check_prop2_neurons(a: np.ndarray, b: np.ndarray) -> None:
    if not np.all((b >= 0.0) & (b <= 1.0)):
        raise InvalidInputError("prop2 biases must lie in [0, 1]")
    if not np.all(np.abs(a) <= 1.0):
        raise InvalidInputError("prop2 coefficients must satisfy |a| <= 1")


# the most nodes of a density's start table, panel edges included: a density
# of P panels gets min(_TABLE_CELLS, _TABLE_NODES // P - 1) cells per panel,
# each with one node more, and below 3 cells per panel one cell holding the line
_TABLE_NODES = 2**13
_TABLE_CELLS = 128


def _solve_in_panels(density: RadonDensity, edges, g1, k, sign, rows, rest, x, span: float) -> np.ndarray:
    """b in panel k (from edge k to edge k + 1) of profile ``rows``, where g has the sign
    ``sign``, at which the mass of |g| from the panel's left edge reaches ``rest``: by
    ``_bracketed_newton`` from x clipped into the panel, on an interval of width ``span``.

    Inside a panel the mass sign (G_1(b) - G_1(edge k)) is monotone with derivative |g|.
    Each Newton step reads G_1 and g off one evaluation of the trig terms of its own
    profile only, so a solution has the same bits in any batch.
    """
    start, left, right = g1[k], edges[k], edges[k + 1]

    def excess(live, x):
        G1, g = density._values(x, (1, 0), rows[live])
        return sign[live] * (G1 - start[live]) - rest[live], sign[live] * g

    return _bracketed_newton(excess, np.minimum(np.maximum(x, left), right), left, right, span)


def _start_table(density: RadonDensity, lo: float, hi: float) -> tuple[np.ndarray, int, np.ndarray]:
    """The sign of g on every panel on (lo, hi), and its inverse CDF as cubics in theta =
    arccos(1 - 2s)/pi, s the share of the panel's mass, built once per density and
    interval: ``(sign, M, coef)`` gives panel k (indexed by its left edge) the sign
    ``sign[k]`` and M cells of theta, cell i in column k M + i of the (4, cells) ``coef``:
    the coefficients of b in t = M theta - i, low order first.

    theta is the coordinate in which the CDF of a sine lobe is linear, and in which
    b(theta) stays smooth at both kinds of panel edge: near a sign-change root s grows
    like (b - r)^2 and near an end of (lo, hi) like b - lo, while s(theta) grows like
    theta^2.  A density of P panels gets M = min(_TABLE_CELLS, _TABLE_NODES // P - 1):
    every panel's biases are solved, to the draws' tolerance, at the M - 1 inner nodes
    theta = j / M (the end nodes are the panel's edges), in one Newton pass over the
    panels of each line's first column (``RadonDensity._lines``), whose nodes the line's
    other columns copy, and each cell holds the cubic through its 4 nearest nodes.  Where fewer than 3 cells fit, M is
    1 and each panel's one cell holds the line b = left + (right - left) theta, as the
    cubic with coefficients (left, right - left, 0, 0).
    The coefficients are elementwise sums in a fixed order, so a panel's cubics have the
    same bits in any density with the same M: in every density of at most 63 panels.
    """
    key = (float(lo), float(hi))
    if key in density._start_tables:
        return density._start_tables[key]
    starts, edges, g1, cum = density.panels(lo, hi)
    sign = np.where(g1[1:] >= g1[:-1], 1.0, -1.0)
    panel = np.ones(len(sign), dtype=bool)
    panel[starts[1:-1] - 1] = False  # a profile's last edge starts no panel
    M = min(_TABLE_CELLS, _TABLE_NODES // max(1, int(panel.sum())) - 1)
    if M < 3:
        M, coef = 1, np.vstack([edges[:-1], np.diff(edges), np.zeros((2, len(sign)))])
    else:
        # the nodes j = 0..M of every panel: its edges, and the inner ones solved
        # on the first column of each line, whose panels the line's others copy
        y = np.linspace(edges[:-1], edges[1:], M + 1, axis=1)  # the linear start of each node
        _, rows, _, source = _line_runs(density._lines, np.diff(starts))
        copies = source[:-1] != np.arange(len(sign))
        solved = np.flatnonzero(panel & ~copies)
        k, j = solved.repeat(M - 1), np.tile(np.arange(1, M), len(solved))
        rest = 0.5 * (1.0 - np.cos(np.pi * j / M)) * (cum[k + 1] - cum[k])
        y[k, j] = _solve_in_panels(density, edges, g1, k, sign[k], rows[k], rest, y[k, j], hi - lo)
        y[copies] = y[source[:-1][copies]]
        # each cell i: the cubic through its stencil of nodes j0..j0 + 3, by forward
        # differences in tau = j - j0, then shifted to t = tau - (i - j0)
        i = np.arange(M)
        j0 = np.clip(i - 1, 0, M - 3)
        y0, y1, y2, y3 = y[:, j0], y[:, j0 + 1], y[:, j0 + 2], y[:, j0 + 3]
        d1 = y1 - y0
        d2 = (y2 - y1) - d1
        d3 = ((y3 - y2) - (y2 - y1)) - d2
        c1, c2, c3 = d1 - 0.5 * d2 + d3 / 3.0, 0.5 * d2 - 0.5 * d3, d3 / 6.0
        o = (i - j0).astype(float)
        coef = np.stack(
            [y0 + o * (c1 + o * (c2 + o * c3)), c1 + o * (2.0 * c2 + 3.0 * o * c3), c2 + 3.0 * o * c3, c3]
        ).reshape(4, -1)
    density._start_tables[key] = sign, M, coef
    return sign, M, coef


def _by_direction(rank: np.ndarray, u: np.ndarray) -> np.ndarray:
    """An order of the neurons by rank, each rank's neurons in one run and by u to within 1/B.

    One stable argsort of the key rank * B + floor(u B), B the power of two that leaves the
    key in 16 bits (1 from 2^16 ranks on), which numpy radix-sorts: u in [0, 1) falls in one
    of B buckets, and a u outside it, or NaN, in an end bucket.  Within a bucket the neurons
    keep their order.  Every caller reads the order only for speed: each rank's run is what
    its searches need, and their results do not depend on the order within it.
    """
    top = int(rank.max(initial=0))
    B = 1 << max(0, 16 - top.bit_length())
    bucket = np.fmax(np.fmin(u * B, B - 1), 0.0).astype(np.intp)  # fmin and fmax send NaN to B - 1
    key = (rank * B + bucket).astype(np.min_scalar_type(top * B + B - 1))
    return np.argsort(key, kind="stable")


def _draw_biases(density: RadonDensity, idx, u, lo: float, hi: float, order) -> tuple[np.ndarray, np.ndarray]:
    """Inverse-CDF biases from |g_w| on the open interval (lo, hi) for the
    drawn directions ``idx``, and the signs a = sign(g_w(b)) of the panels
    they lie in: neuron i's bias is where the mass of |g| of profile
    ``idx[i]`` from lo reaches u_i times its mass, clipped into (lo, hi).

    The neurons are drawn in ``order``, which lists each direction's
    neurons in one run (the runs in any order of the directions), as
    ``_by_direction`` gives it.  Each direction's panels are searched over
    one contiguous slice of the running masses, with its targets sorted to
    within the order's buckets of u, which is most of the speed of a
    search with sorted keys and gives the same panels as any order.  One
    ``_solve_in_panels`` call then solves every neuron's b, whatever its
    direction, with its panel as its bracket.  Newton's method starts from the panel's inverse CDF in
    ``_start_table``: the cubic of the target's theta cell, read in one
    gather and evaluated by Horner's rule.  A draw stops once its step is
    at most ``_NEWTON_STOP`` of the interval, as a root does; a start
    within that tolerance stops after one profile evaluation.  Every step
    is elementwise, so a bias has the same bits in any order; they are
    returned in the order of ``idx``.
    """
    starts, edges, g1, cum = density.panels(lo, hi)
    panel_sign, M, coef = _start_table(density, lo, hi)
    rows = idx[order]
    last = starts[rows + 1] - 1  # each neuron's profile: its last edge
    target = u[order] * cum[last]
    cuts = np.flatnonzero(np.diff(rows, prepend=-1)).tolist() + [len(rows)]
    k = np.empty(len(rows), dtype=np.intp)
    for i, j in zip(cuts, cuts[1:]):
        first, end = starts[rows[i]], starts[rows[i] + 1]
        k[i:j] = first + np.searchsorted(cum[first:end], target[i:j], side="right")
    k = np.minimum(k - 1, last - 1)
    rest = target - cum[k]
    panel_mass = cum[k + 1] - cum[k]
    s = np.clip(np.divide(rest, panel_mass, out=np.zeros_like(rest), where=panel_mass > 0), 0.0, 1.0)
    pos = np.arccos(1.0 - 2.0 * s) / np.pi * M
    i = np.minimum(pos.astype(np.intp), M - 1)  # pos >= 0: truncation is floor
    t = pos - i
    c = coef.take(k * M + i, axis=1)
    x = c[0] + t * (c[1] + t * (c[2] + t * c[3]))
    del last, target, panel_mass, s, pos, i, t, c  # a batch's Newton pass holds only what it reads
    sign = panel_sign[k]
    solved = _solve_in_panels(density, edges, g1, k, sign, rows, rest, x, hi - lo)
    b, a = np.empty(len(rows)), np.empty(len(rows))
    b[order] = np.clip(solved, np.nextafter(lo, hi), np.nextafter(hi, lo))
    a[order] = sign
    return b, a


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

    Directions are drawn by ``cdf``, the running share of ``weights`` in their
    total ``kappa``, summed and checked once here, and biases from |g_w| on
    (lo, hi); neuron i stores row ``rows[idx_i]`` and, for prop2, its bias over ``l1[idx_i]``.
    ``rows[first]`` are the distinct rows and ``labels`` each direction's
    row among them, as ``_group_rows`` gives them and as networks evaluate
    them; ``rank`` places each direction in (label, index) order.
    """

    density: RadonDensity
    convention: str
    lo: float
    hi: float
    weights: np.ndarray
    v: np.ndarray
    c: float
    rows: np.ndarray
    l1: np.ndarray | None
    cdf: np.ndarray = field(init=False, repr=False)
    first: np.ndarray = field(init=False, repr=False)
    labels: np.ndarray = field(init=False, repr=False)
    rank: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise DomainError(f"cannot sample from a density of total mass {self.kappa}")
        if self.kappa <= 0:
            raise DegenerateMeasureError("cannot sample from a zero-mass density")
        cdf = np.cumsum(self.weights / self.kappa)
        cdf /= cdf[-1]
        first, labels = _group_rows(self.rows)
        rank = np.empty(len(labels), dtype=np.intp)
        rank[np.argsort(labels, kind="stable")] = np.arange(len(labels))
        freeze(self, cdf=cdf, first=first, labels=labels, rank=rank)

    @cached_property
    def kappa(self) -> float:
        return float(self.weights.sum())

    def net(self, idx: np.ndarray, a: np.ndarray, b: np.ndarray) -> TwoLayerNet:
        return TwoLayerNet(self.density.d, a, self.rows[idx], b, self.kappa, self.v, self.c, self.convention)


def _draw_plan(density: RadonDensity, affine: AffinePart, convention: str) -> _DrawPlan:
    """The plan of ``sample_network`` (thm2) or ``l1_normalized_network`` (prop2).
    A thm2 outer scale is the density norm, summed as ``tv_norm`` sums it."""
    if convention != "prop2":
        masses, R = direction_masses(density), density.R
        return _DrawPlan(density, "thm2", -R, R, masses, affine.v, affine.c, density.directions, None)
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
    rows = np.array([_exact_l1_unit(w) for w in density.directions]).reshape(density.directions.shape)
    _check_l1_rows(rows)
    return _DrawPlan(density, "prop2", 0.0, density.R, weights, v, float(c), rows, l1)


def _draw(plan: _DrawPlan, streams) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Direction indices, signs and biases of the neurons of every (n, seed) stream, end to end,
    and the order of the neurons, by direction and uniform, in which they were drawn.

    Each stream draws its n directions and then its n uniforms from its own
    generator, so a stream's neurons do not depend on the streams beside
    it; the biases of all streams come from one inverse-CDF pass, whose
    draws each stop on their own Newton step.  The pass runs in one order,
    ``_by_direction``'s: the directions by ``plan.rank``, each in one run,
    and its neurons by uniform to within 1/B.  As the inverse CDF is
    monotone in the uniform, that is also nearly the (label, bias) order
    that ``_ramp_sums`` searches in best; the biases, signs and slots are
    the same in any order.  A prop2 batch checks its biases and
    coefficients against the convention; the plan checked its rows and its
    mass once.  The directions are what ``Generator.choice`` draws with p the
    shares of the weights, searched in the plan's ``cdf`` without its checks.
    """
    if any(n < 1 for n, _ in streams):
        raise InvalidInputError("need at least one neuron")
    rngs = [(n, np.random.default_rng(seed)) for n, seed in streams]
    draws = [(plan.cdf.searchsorted(rng.random(n), side="right"), rng.random(n)) for n, rng in rngs]
    idx, u = (np.concatenate(x) for x in zip(*draws))
    order = _by_direction(plan.rank[idx], u)
    b, a = _draw_biases(plan.density, idx, u, plan.lo, plan.hi, order)
    if plan.l1 is not None:
        b = np.minimum(b / plan.l1[idx], 1.0)
        _check_prop2_neurons(a, b)
    return idx, a, b, order


def sample_network(density: RadonDensity, affine: AffinePart, n: int, seed) -> TwoLayerNet:
    """Importance-sample an n-neuron network from |density|/norm (convention thm2),
    with outer scale kappa the density norm.

    Deterministic for a fixed seed: one direction draw, one uniform draw for
    the bias inverse-CDF, signs read off the signed profile.
    """
    plan = _draw_plan(density, affine, "thm2")
    return plan.net(*_draw(plan, [(n, seed)])[:3])


def l1_normalized_network(density: RadonDensity, affine: AffinePart, n: int, seed) -> TwoLayerNet:
    """Sample an l1-normalized network (convention prop2) on a ball with R <= 1.

    Negative-bias mass folds into the affine part through the reflection
    identity (b - u)_+ = (u - b)_+ - u + b, doubling the positive-bias
    density; neurons are then pushed through (w, b) -> (w/|w|_1, b/|w|_1)
    with the l1 weight absorbed into the outer scale kappa.
    """
    plan = _draw_plan(density, affine, "prop2")
    return plan.net(*_draw(plan, [(n, seed)])[:3])


def _group_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index and inverse of ``np.unique(rows, axis=0, return_index=True, return_inverse=True)``,
    from one stable ``np.lexsort`` and a compare of adjacent sorted rows (so -0.0 equals 0.0 there too):
    ``rows[first]`` are the distinct rows in order, each at its first index, and row i is ``rows[first[labels[i]]]``."""
    order = np.lexsort(rows.T[::-1])
    ranked = rows[order]
    starts = np.ones(len(rows), dtype=bool)
    np.any(ranked[1:] != ranked[:-1], axis=1, out=starts[1:])
    labels = np.empty(len(rows), dtype=np.intp)
    labels[order] = np.cumsum(starts) - 1
    return order[starts], labels


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


def _sorted_projections(proj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of the (directions, points) projections ``proj`` sorted, and each point's place
    in its sorted row: ``(ps, place)`` with ``ps[l, place[l, j]] == proj[l, j]``.  Each row is
    sorted as ``np.argsort`` sorts it alone."""
    by_point = np.argsort(proj, axis=1)
    place = np.empty_like(by_point)
    np.put_along_axis(place, by_point, np.arange(proj.shape[1]), axis=1)
    return np.take_along_axis(proj, by_point, axis=1), place


def _ramp_sums(
    a: np.ndarray, b: np.ndarray, labels: np.ndarray, ps: np.ndarray, place: np.ndarray, sizes, order
) -> np.ndarray:
    """sum_i a_i (<w_i, x> - b_i)_+ at every point x, per stream, from one bias histogram per direction.

    Neuron i has direction label ``labels[i]``, and ``ps[labels[i]]``
    holds the points' projections on that direction in increasing order,
    point j's at ``place[labels[i], j]``, as ``_sorted_projections`` gives
    them: a ladder sorts them once for all its batches.  The neurons are
    consecutive streams of ``sizes`` neurons, and row s of the
    (streams, points) result sums stream s alone.

    Per direction, in label order, with its sorted projections ps:
    neuron i falls in slot k_i, the count of points at or below b_i, so
    exactly the points from ps[k_i] on lie above it (a bias equal to a
    point adds nothing either way).  The running sums A of a_i and B of
    a_i b_i over each stream's slots give sum_i a_i (p - b_i)_+ = p A - B
    at each sorted point p, read back into point order by one gather.  A
    bin sums its own stream's neurons in their order, and a direction a
    stream lacks adds zeros, so a row has the same bits in any batch as
    from that stream's neurons alone.

    The slots are searched in ``order``, which lists each label's neurons
    in one run, in label order, and within it by bias, or nearly so: a
    search with sorted keys is several times cheaper per key than with
    unsorted ones, and any order within a run gives the same slots.  A
    ladder hands in the order its draw pass ran in, and
    ``TwoLayerNet.evaluate`` its one stream's neurons by label and their
    biases' shares of their range, as ``_by_direction`` sorts them.  The
    bins are filled in neuron order within each label, by one stable
    argsort of the labels narrowed to the smallest unsigned type that holds
    them, which numpy radix-sorts up to 16 bits.
    """
    S, N = len(sizes), ps.shape[1]
    out = np.zeros((S, N))
    key = labels.astype(np.min_scalar_type(labels.max(initial=0)))
    by_label = np.argsort(key, kind="stable")
    sorted_b = b[order]
    labels, a = labels[by_label], a[by_label]
    ab = a * b[by_label]
    cuts = np.flatnonzero(np.diff(labels, prepend=-1)).tolist() + [len(a)]
    first_bin = np.repeat(np.arange(S), sizes)[by_label] * (N + 1)  # of each neuron's stream
    slot = np.empty(len(a), dtype=np.intp)
    for lo, hi in zip(cuts, cuts[1:]):
        row = labels[lo]
        slot[order[lo:hi]] = ps[row].searchsorted(sorted_b[lo:hi], side="right")
        bins = first_bin[lo:hi] + slot[by_label[lo:hi]]
        A, B = (np.bincount(bins, w[lo:hi], S * (N + 1)).reshape(S, N + 1)[:, :N].cumsum(axis=1) for w in (a, ab))
        A *= ps[row]
        A -= B
        out += A[:, place[row]]
    return out


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
        if not self.min_error <= self.mean_error <= self.max_error:
            raise InvalidInputError(f"mean error {self.mean_error!r} lies outside the errors' range")

    @property
    def mean_error(self) -> float:
        """The mean error, held in [min, max]: the rounded mean of equal errors
        can land an ulp outside them."""
        with np.errstate(over="ignore"):
            mean = float(np.mean(self.errors))
        if math.isinf(mean):  # their sum overflowed; a sum of errors / n cannot
            mean = float(np.sum(np.divide(self.errors, len(self.errors))))
        return min(max(mean, self.min_error), self.max_error)

    @property
    def min_error(self) -> float:
        return float(min(self.errors))

    @property
    def max_error(self) -> float:
        return float(max(self.errors))


_MAX_NEURONS = 2**24  # most neurons of a null network, or of a ladder over its widths and trials: 128 MiB a float
_BATCH_DRAWS = 2**14  # most neurons per draw pass of a ladder: each holds a few float64 arrays of this size


def _check_neurons(n: int, what: str) -> None:
    if n > _MAX_NEURONS:
        raise DomainError(f"{what} is above the limit of {_MAX_NEURONS}")


def error_decay_experiment(
    mu: SpectralMeasure,
    R: float,
    n_list,
    trials: int,
    seed: int,
    grid_size: int = 500,
    convention: str = "thm2",
) -> tuple[list[ApproxReport], float, TwoLayerNet, float]:
    """Sample `trials` networks at each width and record sup errors on a fixed grid.

    Returns the reports, one per width, the density norm, the network of
    the first best trial at the largest width, and that trial's error.

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
    is scored by one ``_ramp_sums`` call over all of its streams, on the
    grid's projections sorted once per ladder.  A ladder of more than
    ``_MAX_NEURONS`` neurons over all widths and trials is refused with
    ``DomainError`` before any stream is drawn.
    """
    n_list = list(n_list)
    for n in n_list:
        check_integer(n, "width")
    n_list = [int(n) for n in n_list]
    if not n_list:
        raise InvalidInputError("need at least one width in the width list")
    if any(b <= a for a, b in zip(n_list, n_list[1:])):
        raise InvalidInputError("widths must be strictly increasing")
    check_integer(trials, "trial count")
    if trials < 1:
        raise InvalidInputError("need at least one trial")
    if n_list[0] < 1:
        raise InvalidInputError("need at least one neuron")
    total = sum(n_list) * int(trials)
    _check_neurons(total, f"a ladder of {total} neurons over its widths and trials")
    check_count(seed, "seed", zero=True)
    if convention not in ("thm2", "prop2"):
        raise InvalidInputError(f"unknown convention {convention!r}: expected 'thm2' or 'prop2'")
    density = density_from_spectrum(mu, R)
    norm = tv_norm(density)
    grid = ball_grid(mu.d, R, grid_size)
    # f, the affine part and the projections on every direction a neuron can
    # draw, once; directions are labelled by the ranks that evaluate gives them.
    # Overflow is refused below, not warned about.
    with np.errstate(over="ignore", invalid="ignore"):
        plan = _draw_plan(density, fit_affine(density), convention)
        f = mu.evaluate(grid.points)
        base = _project(grid.points, plan.v[None, :])[0] + plan.c
    if not np.isfinite(f).all():
        raise DomainError(f"f overflows a float on the ball of radius R = {R}")
    if not np.isfinite(base).all():
        raise DomainError(f"the affine part (v, c) = ({plan.v.tolist()}, {plan.c}) of f overflows a float on the ball")
    ps, place = _sorted_projections(_project(grid.points, plan.rows[plan.first]))
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
        idx, a, b, order = _draw(plan, batch)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = _ramp_sums(a, b, plan.labels[idx], ps, place, sizes, order)
            scores = np.max(np.abs(base + (plan.kappa / sizes)[:, None] * sums - f), axis=1)
        if not np.isfinite(scores).all():
            raise DomainError("a sampled network's sup error overflows a float")
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


def _texts_by_bits(rows: np.ndarray, text) -> list[str]:
    """``text`` of each row of floats, as a list, called once per distinct row by bits."""
    keys = np.ascontiguousarray(rows).view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel().tolist()
    texts = {key: text(np.frombuffer(key).tolist()) for key in dict.fromkeys(keys)}
    return list(map(texts.__getitem__, keys))


def save_network(path, net: TwoLayerNet) -> None:
    """Write the canonical network JSON schema.

    The text is what ``json.dump(payload, indent=2, sort_keys=True)`` writes
    for the schema's fixed keys, composed directly: indented output goes
    through json's pure-Python encoder, which was most of the cost of
    saving a wide network.  Each neuron's text joins three texts: its
    coefficient's with the keys around it, its bias and its whole ``omega``
    block, every float as its repr or json's name for NaN and the
    infinities.  A ladder's net repeats its few direction rows and its +-1
    coefficients over every neuron, and formatting a float is most of the
    cost of each, so each distinct row and each distinct coefficient (by
    bits: 0.0 and -0.0 stay apart) is formatted once, found by a dict of
    their bytes, and each bias once.
    """
    heads = _texts_by_bits(net.a[:, None], lambda a: f'    {{\n      "a": {_json_float(a[0])},\n      "b": ')
    tails = _texts_by_bits(net.omegas, lambda w: f',\n      "omega": {_json_list(list(map(_json_float, w)), "      ")}\n    }}')
    neurons = ",\n".join(map("".join, zip(heads, map(_json_float, net.b.tolist()), tails)))
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
        neurons = list_field(payload, "neurons", "network")
        columns = {key: [x[key] for x in neurons] for key in ("a", "omega", "b")}
        d = integer_field(payload, "d", "network")
        fields = {key: float_field(columns, key, "network", array=True) for key in columns}
        fields |= {key: float_field(payload, key, "network", array=key == "v") for key in ("kappa", "v", "c")}
        for key, value in fields.items():
            check_finite(value, f"malformed network file: {key!r}")
        return TwoLayerNet(d, *fields.values(), convention=str(payload["convention"]))  # a, omegas, b, kappa, v, c
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed network file: {exc}") from exc


def write_decay_csv(path, reports: list[ApproxReport]) -> None:
    """Plot-ready decay curve: n, bound, mean_err, min_err, max_err."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "bound", "mean_err", "min_err", "max_err"])
        for r in reports:
            writer.writerow([r.n, repr(r.bound), repr(r.mean_error), repr(r.min_error), repr(r.max_error)])
