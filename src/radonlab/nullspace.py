"""Harmonic-times-monomial densities that represent the zero function on a ball.

A density h(w, b) = coeff * Y_{k,j}(w) * b^{k'} with matching parity and
k' < k - 2 pairs to zero against every ramp (<w, x> - b)_+ for x inside the
ball: the bias integral of the ramp against b^{k'} is a polynomial of
degree k' + 2 < k in <w, x>, hence orthogonal to the degree-k harmonic.
At the threshold k' = k - 2 the degree-k term survives and the pairing is
proportional to |x|^k Y_{k,j}(x/|x|), the non-null witness, which is the
ramp pairing ``ramp_integral_grid`` of the term's ``null_term_density``.
Discretizing a null density on a product quadrature yields finite ReLU
networks with substantial coefficient mass and near-zero function values:
displacement directions of near-constant loss.

The bias integral has three nonzero monomial coefficients in c = <w, x>,
kept in one place (``_ramp_moment``).  ``ramp_moment_closed_form``
evaluates them pointwise; ``verify_null(term, xs, tolerance)`` pairs them
with the smallest exact sphere rule by moments, so a whole grid costs one
integer power of the points x nodes array and two matrix-vector products,
and judges the largest pairing against ``tolerance`` times the term's
scale max(1, |coeff| R^(k'+2)).  Integer powers are taken by repeated
squaring (``_int_power``): numpy sends a float array to any integer power
but 2 through libm ``pow``, tens of times slower than the products.

``discretize_null`` lays the term out on a product rule of sphere nodes
w_i times Gauss-Legendre bias nodes b_j (``_product_rule``), so the net's
coefficients have rank one, coeff * u_i * v_j.  The sphere factor of the
verification, the density and the product rule is one ``_sphere_factor``:
a sphere rule and Y_{k,j} at its nodes.  ``mode_connect_perturb(term, n,
s, grid)`` evaluates the product-rule net without building it: its value
is sum_i coeff * u_i * phi(<w_i, x>) with one piecewise-linear
phi(c) = sum_j v_j (c - b_j)_+ shared by every direction, read off the
count of bias nodes below each projection and two running sums.  The
counts come from a table of uniform cells over the bias nodes
(``_nodes_below``), not a binary search per projection.
``TwoLayerNet.evaluate`` of the built net would regroup its thousands of
neurons by direction and loop over the directions in Python.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InvalidInputError,
    PreconditionError,
    UnsupportedDimensionError,
    _check_table,
    check_count,
    check_finite,
    check_integer,
    check_radius,
    float_field,
    integer_field,
)
from .harmonics import harmonic_dim, harmonic_eval
from .quadrature import BallGrid, QuadratureRule, gauss_legendre, sphere_rule
from .radon_measure import RadonDensity
from .sparsifier import TwoLayerNet, _check_neurons, _project


_MAX_RULE_NODES = 2**16  # largest sphere rule a null term may need


def _rule_resolution(d: int, k: int, kprime: int) -> int:
    """Smallest sphere-rule resolution m for the pairings of Y_k (x) b^{k'}.

    The rule must be exact to degree k + k' + 2 (the harmonic times the
    ramp's bias moment): m circle nodes are exact to degree m - 1, and the
    d=3 product rule of 2 m^2 nodes to 2m - 1.  In d=3 its 2m equispaced
    azimuths are all zeros of sin(j phi) when the azimuthal order j is a
    multiple of m, which would discretize the term to the zero network, so
    there m >= k + 1 as well.
    """
    degree = k + kprime + 2
    return degree + 1 if d == 2 else max((degree + 2) // 2, k + 1)


def _rule_nodes(d: int, m: int) -> int:
    """Node count of ``sphere_rule(d, m)``."""
    return m if d == 2 else 2 * m * m


@dataclass(frozen=True)
class HarmonicNullTerm:
    """One density coeff * Y_{k,j} (x) b^{k'} on S^{d-1} x (-R, R)."""

    k: int
    j: int
    kprime: int
    coeff: float
    d: int
    R: float

    def __post_init__(self):
        for name in ("k", "j", "kprime", "d"):
            check_integer(getattr(self, name), f"null term field {name}")
        if self.d not in (2, 3):
            raise UnsupportedDimensionError(f"null terms are supported in d = 2 and d = 3, not d = {self.d}")
        if self.kprime < 0:
            raise InvalidInputError("monomial degree must be nonnegative")
        if (self.k - self.kprime) % 2 != 0:
            raise InvalidInputError("k and k' must share parity")
        n = harmonic_dim(self.k, self.d)
        if not 1 <= self.j <= n:
            raise InvalidInputError(f"index j={self.j} outside 1..{n}")
        check_finite(self.coeff, "null term coefficient coeff")
        check_radius(self.R)
        _check_bias_power(self.R, self.kprime)
        nodes = _rule_nodes(self.d, _rule_resolution(self.d, self.k, self.kprime))
        if nodes > _MAX_RULE_NODES:
            raise DomainError(
                f"null term k={self.k}, k'={self.kprime} in d={self.d} needs a sphere rule of {nodes} nodes,"
                f" above the limit of {_MAX_RULE_NODES}"
            )

    @property
    def in_set_a(self) -> bool:
        """Null membership: strictly below the k-2 threshold."""
        return self.kprime < self.k - 2


@dataclass(frozen=True)
class NullVerificationReport:
    term: HarmonicNullTerm
    points: int
    max_ramp_integral: float
    tolerance: float

    @property
    def verdict(self) -> bool:
        return self.max_ramp_integral <= self.tolerance


@dataclass(frozen=True)
class ModeConnectReport:
    """Functional and parameter-space effect of adding a scaled null network."""

    scale: float
    added_neurons: int
    functional_change: float
    displacement: float
    coefficient_mass: float
    grid_size: int


def _int_power(x: np.ndarray, n: int) -> np.ndarray:
    """x**n for an integer n >= 2 by repeated squaring, with elementwise products only.

    The bits of n are taken from the top, so that every product after the
    first is made in place.  The relative error is at most (n - 1) * 2**-53,
    against about one ulp for libm ``pow``; that is far inside any tolerance
    the pairings are checked to.
    """
    result = x * x
    for i, bit in enumerate(bin(n)[3:]):
        if i:
            result *= result
        if bit == "1":
            result *= x
    return result


def _check_bias_power(R: float, kprime: int) -> None:
    """Refuse a radius whose power R^(k'+2), the largest in the bias integrals of a
    degree-k' monomial on (-R, R), overflows a float."""
    try:
        float(R) ** (kprime + 2)
    except OverflowError:
        raise DomainError(f"ball radius R = {R:g} is too large for k' = {kprime}: R^(k'+2) overflows a float") from None


def _ramp_moment(c: np.ndarray, kprime: int, R: float) -> tuple[int, float, float, float]:
    """The closed form of ``ramp_moment_closed_form`` as (k2, top, lin, const):
    the integral is top * c^k2 + lin * c + const.  Refuses a negative k', an R
    whose power R^(k'+2) overflows and any kink position c outside (-R, R)."""
    if kprime < 0:
        raise InvalidInputError("monomial degree must be nonnegative")
    _check_bias_power(R, kprime)
    if c.max(initial=0.0) >= R or c.min(initial=0.0) <= -R:
        raise DomainError(f"kink position |c| = {max(c.max(), -c.min())} must lie inside (-R, R)")
    k1 = kprime + 1
    k2 = kprime + 2
    return k2, 1.0 / (k1 * k2), -((-R) ** k1) / k1, (-R) ** k2 / k2


def ramp_moment_closed_form(c, kprime: int, R: float):
    """Closed-form bias integral of the ramp against b^{k'} over (-R, R).

    For |c| < R, with k1 = k'+1 and k2 = k'+2,
        integral (c - b)_+ b^{k'} db
      = c^{k2} / (k1 k2) - (-R)^{k1} c / k1 + (-R)^{k2} / k2,
    the degree-k2 polynomial obtained by integrating the monomial twice.
    Vectorized over c; every kink position must lie inside (-R, R).
    """
    c = np.asarray(c, dtype=float)
    k2, top, lin, const = _ramp_moment(c, kprime, R)
    return top * _int_power(c, k2) + lin * c + const


def _sphere_factor(term: HarmonicNullTerm, m: int | None = None) -> tuple[QuadratureRule, np.ndarray]:
    """The sphere rule of resolution m, by default the smallest exact to degree
    k + k' + 2 (``_rule_resolution``), and Y_{k,j} at its nodes."""
    rule = sphere_rule(term.d, _rule_resolution(term.d, term.k, term.kprime) if m is None else m)
    return rule, np.asarray(harmonic_eval(term.k, term.j, term.d, rule.nodes), dtype=float)


def _check_grid(term: HarmonicNullTerm, grid: BallGrid) -> None:
    """Refuse a grid of another dimension than the term's, or on a larger ball."""
    if grid.d != term.d:
        raise InvalidInputError(f"grid dimension d = {grid.d} differs from the term's d = {term.d}")
    if grid.R > term.R:
        raise InvalidInputError("grid must lie inside the term's ball")


def verify_null(term: HarmonicNullTerm, xs: BallGrid, tolerance: float = 1e-8) -> NullVerificationReport:
    """Check that the term pairs to ~0 against every ramp centered in the grid.

    The bias integral uses the closed form, so the only numerical error is
    the sphere rule's, and the rule is the smallest exact to degree
    k + k' + 2 (``_rule_resolution``): k + k' + 3 circle nodes in d=2, and
    2 m^2 nodes in d=3 with m = max(floor((k + k' + 4) / 2), k + 1), which
    is k + 1 for every null-set term (k' <= k - 4).  The pairing of point x
    is sum_i v_i q(<w_i, x>) with v = weights * Y_{k,j}, and q has three
    monomials, so the grid's pairings are the moments
    top * (c^k2 @ v) + lin * (c @ v) + const * sum(v) of the points x nodes
    array c: one integer power and two matrix-vector products.

    A pairing's rounding error grows with the term, like |coeff| R^(k'+2),
    the largest bias moment on (-R, R), so the largest pairing is judged
    against ``tolerance`` times that scale where it passes 1, and the
    report carries the tolerance so scaled.  A scaled tolerance that
    overflows a float is refused, and so is a points x nodes array above
    ``errors._MAX_TABLE`` entries, before it is allocated.
    """
    if not term.in_set_a:
        raise PreconditionError("term is outside the null set (needs k' < k - 2)")
    _check_grid(term, xs)
    scale = abs(term.coeff) * term.R ** (term.kprime + 2)
    scaled = tolerance * max(1.0, scale)
    if not math.isfinite(scaled):
        raise DomainError(
            f"the tolerance {tolerance:g} times the term's scale |coeff| R^(k'+2) = {scale:g} overflows a float"
        )
    rule, y = _sphere_factor(term)
    _check_table(len(xs), len(rule), "sphere rule nodes")
    v = rule.weights * y
    c = xs.points @ rule.nodes.T
    k2, top, lin, const = _ramp_moment(c, term.kprime, term.R)
    vals = term.coeff * (top * (_int_power(c, k2) @ v) + lin * (c @ v) + const * v.sum())
    worst = float(np.abs(vals).max(initial=0.0))
    return NullVerificationReport(term=term, points=len(xs), max_ramp_integral=worst, tolerance=scaled)


def null_term_density(term: HarmonicNullTerm, m: int | None = None) -> RadonDensity:
    """Interpret the term as a RadonDensity on the direction atoms of a sphere rule.

    The continuous sphere marginal is discretized on the sphere rule of
    resolution m, by default the smallest exact to degree k + k' + 2
    (``_rule_resolution``), so that the ramp pairings are exact; quadrature
    weights fold into polynomial bias profiles.  That d=2 rule has
    k + k' + 3 nodes, an odd number since k and k' share parity, so its
    directions are not antipodally symmetric.
    """
    rule, y = _sphere_factor(term, m)
    poly = np.zeros((term.kprime + 1, len(y)))
    poly[term.kprime] = term.coeff * y * rule.weights
    return RadonDensity(d=term.d, R=term.R, directions=rule.nodes, poly=poly)


def _factor_neurons(n: int, d: int, k: int, kprime: int) -> tuple[int, int]:
    """Split a neuron budget into (sphere resolution, bias nodes).

    Bias quadrature fights the ramp kink, so it gets the square-root share.
    Where the budget's share of the sphere falls short of ``_rule_resolution``,
    the sphere factor is raised and the bias nodes take the rest of the
    budget, at least 4.
    """
    m_b = max(4, int(round(math.sqrt(n))))
    m_s = max(8, n // m_b) if d == 2 else max(4, int(round(math.sqrt(n / (2 * m_b)))))
    need = _rule_resolution(d, k, kprime)
    if m_s < need:
        m_s = need
        m_b = max(4, int(round(n / _rule_nodes(d, m_s))))
    return m_s, m_b


def _product_rule(term: HarmonicNullTerm, n: int) -> tuple[QuadratureRule, QuadratureRule, np.ndarray, np.ndarray]:
    """The product quadrature of an n-neuron budget: (sphere rule, bias rule, u, v).

    The neuron at (w_i, b_j) has coefficient coeff * u_i * v_j, with
    u = Y_{k,j}(w) * sphere weights and v = b^{k'} * bias weights.
    """
    check_count(n, "neuron count")  # a float count would reach sphere_rule on some branches only
    _check_neurons(n, f"a null network of n = {n} neurons")
    if n < 16:
        raise InvalidInputError("need at least 16 neurons to factor the product rule")
    m_s, m_b = _factor_neurons(n, term.d, term.k, term.kprime)
    srule, y = _sphere_factor(term, m_s)
    brule = gauss_legendre(m_b, -term.R, term.R)
    return srule, brule, y * srule.weights, brule.nodes**term.kprime * brule.weights


def discretize_null(term: HarmonicNullTerm, n: int) -> TwoLayerNet:
    """Product-quadrature ReLU network carrying the term's density.

    Neurons sit at (direction node, bias node) with coefficients
    h(w_i, b_j) * weight_i * weight_j; the quadrature convention makes the
    network value the quadrature approximation of the (null) ramp pairing.
    """
    srule, brule, u, v = _product_rule(term, n)
    a = (term.coeff * np.multiply.outer(u, v)).ravel()
    return TwoLayerNet(
        d=term.d,
        a=a,
        omegas=np.repeat(srule.nodes, len(brule), axis=0),
        b=np.tile(brule.nodes, len(srule)),
        kappa=float(len(a)),
        v=np.zeros(term.d),
        c=0.0,
        convention="quadrature",
    )


def _nodes_below(nodes: np.ndarray, x: np.ndarray) -> np.ndarray:
    """#{j : nodes[j] < x} for every key: ``np.searchsorted(nodes, x)`` to the
    integer, for sorted finite nodes, without a binary search per key.

    Nodes and keys are mapped to L uniform cells over [nodes[0], nodes[-1]],
    L the least power of two >= 16 len(nodes), keys outside the range to the
    end cells.  The map is non-decreasing even as rounded, so every node in a
    lower cell than a key lies below it and every node in a higher cell above
    it: the count is ``below[cell]``, the nodes of the lower cells, plus the
    comparisons with the at most w nodes of the key's own cell, held in a
    (w, L) table padded with +inf.  Gauss-Legendre nodes crowd the ends like
    1/m^2, so w grows like sqrt(m): 1 up to 111 nodes, 10 at 4096.
    """
    m = len(nodes)
    L = 1 << max(4, (16 * m - 1).bit_length())
    lo = float(nodes[0])
    # a zero or tiny span is widened so that the scale stays finite: fewer cells are used
    scale = L / max(float(nodes[-1]) - lo, L * np.finfo(float).tiny)

    def cells(y):
        with np.errstate(over="ignore"):  # a key far outside overflows to +-inf, clipped to an end cell
            t = y - lo
            t *= scale
        np.clip(t, 0, L - 1, out=t)
        return t.astype(np.intp)

    at = cells(nodes)
    below = np.searchsorted(at, np.arange(L))
    rank = np.arange(m) - below[at]
    slots = np.full((rank.max() + 1, L), np.inf)
    slots[rank, at] = nodes
    keys = cells(x)
    q = below[keys]
    for row in slots:
        q += row[keys] < x
    return q


def mode_connect_perturb(term: HarmonicNullTerm, n: int, s: float, grid: BallGrid) -> ModeConnectReport:
    """Add s times a discretized null network and measure what moved.

    Reports the sup change of the represented function on the grid next to
    the parameter-space displacement sum |s a_i|: large displacement with
    near-zero functional change is the flat direction being exhibited.

    The added network is ``discretize_null(term, n)``, but it is never
    built: its coefficients coeff * u_i * v_j have rank one, so its value at
    x is sum_i coeff * u_i * phi(<w_i, x>) with the one piecewise-linear
    phi(c) = sum_j v_j (c - b_j)_+ shared by every direction.
    ``_nodes_below`` gives each of the (directions, points) projections its
    count q of bias nodes below it: a cell table over the nodes leaves one
    comparison per projection where a binary search of unsorted keys took
    about 35 ns each.  The running sums A of v and B of v * b then give
    phi = c A[q] - B[q].  The directions are added row by row in a fixed
    order, without a BLAS product, so reruns keep their bits on any BLAS.
    This skips what ``TwoLayerNet.evaluate`` of the built net would do:
    group its n rows by direction and run ``_ramp_sums``' Python loop once
    per direction.  On a shared 2-core machine, at n = 2000 and 4000 on 500
    points in d = 2, a call takes 0.60 and 0.85 ms, against 1.0 and 1.7 ms
    with ``searchsorted`` and 2.0 and 2.9 ms through the built net.  The sup
    it reports is the built net's up to rounding, within 1e-15 of the
    coefficient mass; the neuron count, displacement and coefficient mass
    are the net's to the bit.  A budget above ``sparsifier._MAX_NEURONS`` is
    refused before anything is built, as is a (directions, points) array
    above ``errors._MAX_TABLE`` entries, and an s or a term so large that a
    reported sum overflows a float is refused too.
    """
    check_finite(s, "scale s")
    _check_grid(term, grid)
    srule, brule, u, v = _product_rule(term, n)
    _check_table(len(grid), len(srule), "sphere rule nodes")
    a = (term.coeff * np.multiply.outer(u, v)).ravel()
    c = _project(grid.points, srule.nodes)
    q = _nodes_below(brule.nodes, c)
    A = np.concatenate(([0.0], np.cumsum(v)))
    B = np.concatenate(([0.0], np.cumsum(v * brule.nodes)))
    terms = (term.coeff * u)[:, None] * (c * A[q] - B[q])
    # the perturbation is additive, so the functional change is exactly the
    # scaled added component; evaluating it alone keeps s = 0 exactly zero
    with np.errstate(over="ignore"):  # an overflow is refused below
        change = float(abs(s) * np.max(np.abs(terms.sum(axis=0))))
        displacement = float(np.abs(s * a).sum())
        mass = float(np.abs(a).sum())
    if not all(map(math.isfinite, (change, displacement, mass))):
        raise DomainError(
            f"the functional change {change}, displacement {displacement} or coefficient mass {mass}"
            f" at scale s = {s:g} overflows a float"
        )
    return ModeConnectReport(
        scale=float(s),
        added_neurons=len(a),
        functional_change=change,
        displacement=displacement,
        coefficient_mass=mass,
        grid_size=len(grid),
    )


def load_null_term(path) -> HarmonicNullTerm:
    with open(path) as fh:
        payload = json.load(fh)
    try:
        return HarmonicNullTerm(
            k=integer_field(payload, "k", "null-term"),
            j=integer_field(payload, "j", "null-term"),
            kprime=integer_field(payload, "kprime", "null-term"),
            coeff=float_field(payload, "coeff", "null-term"),
            d=integer_field(payload, "d", "null-term"),
            R=float_field(payload, "R", "null-term"),
        )
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed null-term file: {exc}") from exc
