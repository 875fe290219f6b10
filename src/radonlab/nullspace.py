"""Harmonic-times-monomial densities that represent the zero function on a ball.

A density h(w, b) = coeff * Y_{k,j}(w) * b^{k'} with matching parity and
k' < k - 2 pairs to zero against every ramp (<w, x> - b)_+ for x inside the
ball: the bias integral of the ramp against b^{k'} is a polynomial of
degree k' + 2 < k in <w, x>, hence orthogonal to the degree-k harmonic.
At the threshold k' = k - 2 the degree-k term survives and the pairing is
proportional to |x|^k Y_{k,j}(x/|x|), the non-null witness.  Discretizing a
null density on a product quadrature yields finite ReLU networks with
substantial coefficient mass and near-zero function values: displacement
directions of near-constant loss.

The bias integral has three nonzero monomial coefficients in c = <w, x>,
kept in one place (``_ramp_moment``).  ``ramp_moment_closed_form``
evaluates them pointwise; ``verify_null`` pairs them with the sphere
rule by moments, so a whole grid costs one integer power of the
points x nodes array and two matrix-vector products.  Integer powers are
taken by repeated squaring (``_int_power``): numpy sends a float array to
any integer power but 2 through libm ``pow``, tens of times slower than
the products.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError, PreconditionError, float_field, integer_field
from .harmonics import harmonic_dim, harmonic_eval, sphere_surface, weighted_profile_integral
from .quadrature import BallGrid, QuadratureRule, gauss_legendre, sphere_rule
from .radon_measure import DirectionProfile, RadonDensity
from .sparsifier import TwoLayerNet


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
        if self.kprime < 0:
            raise InvalidInputError("monomial degree must be nonnegative")
        if (self.k - self.kprime) % 2 != 0:
            raise InvalidInputError("k and k' must share parity")
        n = harmonic_dim(self.k, self.d)
        if not 1 <= self.j <= n:
            raise InvalidInputError(f"index j={self.j} outside 1..{n}")
        if not math.isfinite(self.coeff):
            raise InvalidInputError(f"null term coefficient coeff must be finite, not {self.coeff}")
        if not math.isfinite(self.R):
            raise InvalidInputError(f"ball radius R must be finite, not {self.R}")
        if self.R <= 0:
            raise InvalidInputError("ball radius must be positive")

    @property
    def in_set_a(self) -> bool:
        """Null membership: strictly below the k-2 threshold."""
        return self.kprime < self.k - 2

    def density(self, omega, b):
        """Pointwise density value h(omega, b)."""
        y = np.asarray(harmonic_eval(self.k, self.j, self.d, omega), dtype=float)
        return self.coeff * y * np.asarray(b, dtype=float) ** self.kprime


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


def _ramp_moment(c: np.ndarray, kprime: int, R: float) -> tuple[int, float, float, float]:
    """The closed form of ``ramp_moment_closed_form`` as (k2, top, lin, const):
    the integral is top * c^k2 + lin * c + const.  Refuses a negative k' and
    any kink position c outside (-R, R)."""
    if kprime < 0:
        raise InvalidInputError("monomial degree must be nonnegative")
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


def verify_null(term: HarmonicNullTerm, xs: BallGrid, rule: QuadratureRule, tolerance: float = 1e-8) -> NullVerificationReport:
    """Check that the term pairs to ~0 against every ramp centered in the grid.

    The bias integral uses the closed form, so the only numerical error is
    the sphere rule's; pass a rule exact to degree >= k + k' + 2.  The
    pairing of point x is sum_i v_i q(<w_i, x>) with v = weights * Y_{k,j},
    and q has three monomials, so the grid's pairings are the moments
    top * (c^k2 @ v) + lin * (c @ v) + const * sum(v) of the points x nodes
    array c: one integer power and two matrix-vector products.
    """
    if not term.in_set_a:
        raise PreconditionError(
            "term is outside the null set (needs k' < k - 2); use witness_nonzero "
            "for the threshold case k' = k - 2"
        )
    if xs.d != term.d:
        raise InvalidInputError("grid and term dimensions differ")
    if xs.R > term.R:
        raise InvalidInputError("grid must lie inside the term's ball")
    y = np.asarray(harmonic_eval(term.k, term.j, term.d, rule.nodes), dtype=float)
    v = rule.weights * y
    c = xs.points @ rule.nodes.T
    k2, top, lin, const = _ramp_moment(c, term.kprime, term.R)
    vals = term.coeff * (top * (_int_power(c, k2) @ v) + lin * (c @ v) + const * v.sum())
    worst = float(np.abs(vals).max(initial=0.0))
    return NullVerificationReport(term=term, points=len(xs), max_ramp_integral=worst, tolerance=tolerance)


def witness_nonzero(k: int, j: int, d: int, R: float, x) -> float:
    """Ramp pairing of Y_{k,j} (x) b^{k-2}: the term that is NOT null.

    Equals |S^{d-2}|/(k(k-1)) * |x|^k * Y_{k,j}(x/|x|) * m_k, where m_k is
    the weighted moment of t^k against the degree-k Legendre polynomial in
    dimension d (nonzero).  Vanishes only on the zero set of the harmonic.
    """
    if k < 2:
        raise InvalidInputError("witness needs degree k >= 2")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.linalg.norm(x))
    if r >= R:
        raise DomainError("witness point must lie inside the open ball")
    if r == 0.0:
        warnings.warn("witness at x = 0 is degenerate (harmonic direction undefined)")
        return 0.0
    moment = weighted_profile_integral(lambda t: t**k, k, d, m=max(64, 2 * k))
    y = float(harmonic_eval(k, j, d, x / r))
    return sphere_surface(d - 1) / (k * (k - 1)) * r**k * y * moment


def null_term_density(term: HarmonicNullTerm, m: int | None = None) -> RadonDensity:
    """Interpret the term as a RadonDensity on the direction atoms of a sphere rule.

    The continuous sphere marginal is discretized on an antipodally symmetric
    rule; quadrature weights fold into polynomial bias profiles.
    """
    m = m or (64 if term.d == 2 else 16)
    rule = sphere_rule(term.d, m)
    y = np.asarray(harmonic_eval(term.k, term.j, term.d, rule.nodes), dtype=float)
    profiles = []
    for yi, wi in zip(y, rule.weights):
        coefs = np.zeros(term.kprime + 1)
        coefs[term.kprime] = term.coeff * yi * wi
        profiles.append(DirectionProfile(np.zeros(0), np.zeros(0, dtype=complex), coefs))
    return RadonDensity(d=term.d, R=term.R, directions=rule.nodes, profiles=tuple(profiles))


def _factor_neurons(n: int, d: int, k: int, kprime: int) -> tuple[int, int]:
    """Split a neuron budget into (sphere resolution, bias nodes).

    Bias quadrature fights the ramp kink, so it gets the square-root share.
    The sphere rule must be exact to degree k + k' + 2 (the harmonic times
    the ramp's bias moment).  In d=3 its 2m equispaced azimuths are all
    zeros of sin(j phi) when the azimuthal order j is a multiple of m, which
    would discretize the term to the zero network, so there m >= k + 1 as
    well.  Where the budget's share falls short, the sphere factor is raised
    and the bias nodes take the rest of the budget, at least 4.
    """
    degree = k + kprime + 2
    m_b = max(4, int(round(math.sqrt(n))))
    if d == 2:
        # m equispaced angles are exact to degree m - 1
        m_s, need = max(8, n // m_b), degree + 1
    else:
        # d == 3: the product rule has 2 m^2 nodes, exact to degree 2m - 1
        m_s, need = max(4, int(round(math.sqrt(n / (2 * m_b))))), max((degree + 2) // 2, k + 1)
    if m_s < need:
        m_s = need
        m_b = max(4, int(round(n / (m_s if d == 2 else 2 * m_s**2))))
    return m_s, m_b


def discretize_null(term: HarmonicNullTerm, n: int, R: float | None = None) -> TwoLayerNet:
    """Product-quadrature ReLU network carrying the term's density.

    Neurons sit at (direction node, bias node) with coefficients
    h(w_i, b_j) * weight_i * weight_j; the quadrature convention makes the
    network value the quadrature approximation of the (null) ramp pairing.
    """
    R = term.R if R is None else R
    if n < 16:
        raise InvalidInputError("need at least 16 neurons to factor the product rule")
    m_s, m_b = _factor_neurons(n, term.d, term.k, term.kprime)
    srule = sphere_rule(term.d, m_s)
    brule = gauss_legendre(m_b, -R, R)
    y = np.asarray(harmonic_eval(term.k, term.j, term.d, srule.nodes), dtype=float)
    h = term.coeff * np.multiply.outer(y * srule.weights, brule.nodes**term.kprime * brule.weights)
    n_dir = len(srule.nodes)
    omegas = np.repeat(srule.nodes, m_b, axis=0)
    biases = np.tile(brule.nodes, n_dir)
    a = h.ravel()
    return TwoLayerNet(
        d=term.d,
        a=a,
        omegas=omegas,
        b=biases,
        kappa=float(len(a)),
        v=np.zeros(term.d),
        c=0.0,
        convention="quadrature",
    )


def mode_connect_perturb(
    base: TwoLayerNet,
    term: HarmonicNullTerm,
    n: int,
    s: float,
    grid: BallGrid,
) -> ModeConnectReport:
    """Add s times a discretized null network and measure what moved.

    Reports the sup change of the represented function on the grid next to
    the parameter-space displacement sum |s a_i|: large displacement with
    near-zero functional change is the flat direction being exhibited.
    """
    if not math.isfinite(s):
        raise InvalidInputError(f"scale s must be finite, not {s}")
    if base.d != term.d:
        raise InvalidInputError("network and term dimensions differ")
    if grid.R > term.R:
        raise InvalidInputError("grid must lie inside the term's ball")
    null_net = discretize_null(term, n)
    # the perturbation is additive, so the functional change is exactly the
    # scaled added component; evaluating it alone keeps s = 0 exactly zero
    change = float(abs(s) * np.max(np.abs(null_net.evaluate(grid.points))))
    displacement = float(np.abs(s * null_net.a).sum())
    return ModeConnectReport(
        scale=float(s),
        added_neurons=null_net.n,
        functional_change=change,
        displacement=displacement,
        coefficient_mass=float(np.abs(null_net.a).sum()),
        grid_size=len(grid),
    )


def save_null_term(path, term: HarmonicNullTerm) -> None:
    """Write the CLI-facing term JSON: {"k","j","kprime","coeff","d","R"}."""
    payload = {
        "k": term.k,
        "j": term.j,
        "kprime": term.kprime,
        "coeff": float(term.coeff),
        "d": term.d,
        "R": float(term.R),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
