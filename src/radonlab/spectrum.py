"""Atomic spectral measures on S^{d-1} x R and the Fourier constants.

A finite cosine sum f(x) = sum_i a_i cos(<xi_i, x>) is encoded as atoms
(omega, t, c) with f(x) = sum c * exp(i t <omega, x>), held as three arrays:
unit directions (n, d), frequencies (n,) and complex coefficients (n,).
Each cosine term contributes the four symmetric atoms (+-xi/|xi|, +-|xi|)
with coefficient a/4, which makes the measure closed under the
conjugate/antipodal symmetry group and the reconstruction real-valued.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DomainError,
    InconsistentMeasureError,
    InvalidInputError,
    _check_table,
    as_directions,
    as_points,
    float_field,
    freeze,
    integer_field,
    list_field,
)

_CLOSURE_TOL = 1e-12  # relative: how far partner coefficients, or f's imaginary part, may be off


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite atomic complex measure with the symmetry closure invariant:
    atom i is (omegas[i], freqs[i], coefs[i]), held in read-only copies."""

    d: int
    omegas: np.ndarray = ()
    freqs: np.ndarray = ()
    coefs: np.ndarray = ()

    def __post_init__(self):
        w, t, c = np.asarray(self.omegas, float), np.asarray(self.freqs, float), np.asarray(self.coefs, complex)
        w = w.reshape(0, self.d) if w.size == 0 else w
        if w.ndim != 2 or w.shape[1] != self.d or t.shape != (len(w),) or c.shape != t.shape:
            raise InvalidInputError(f"atom arrays of shapes {w.shape}, {t.shape}, {c.shape} do not match d={self.d}")
        freeze(self, omegas=as_directions(w, self.d)[0], freqs=t, coefs=c)

    def __len__(self) -> int:
        return len(self.freqs)

    def validate(self) -> None:
        """Check the symmetry closure.  Atoms are keyed by (w, t) to 9 decimals
        (``_rounded``) and their coefficients summed per key: every key
        (w, t) of sum C needs the partner keys (-w, -t) of sum C and (-w, t),
        (w, -t) of sum conj C, to 1e-12 of max(1, the key's sum of |c|).
        Sums are compared with sums, so atoms a rounding apart, which share
        a key, close as one."""
        w, t, c = np.round(self.omegas, 9), _rounded(self.freqs, 9), self.coefs
        table, ids = _first_seen(_keys(w, t))
        sums, mass = np.zeros(len(table), dtype=complex), np.zeros(len(table))
        np.add.at(sums, ids, c)
        np.add.at(mass, ids, np.abs(c))
        first = np.unique(ids, return_index=True)[1]  # each key's first atom
        w, t, conj = w[first], t[first], sums.conj()
        partners = _keys(np.concatenate([-w, -w, w]), np.concatenate([-t, t, -t]))
        got = np.array([table.get(k, -1) for k in partners], dtype=np.intp)
        want, tol = np.concatenate([sums, conj, conj]), _CLOSURE_TOL * np.maximum(1.0, np.tile(mass, 3))
        bad = ((got < 0) | (np.abs(sums[got] - want) > tol)).reshape(3, -1).any(axis=0)[ids]
        if bad.any():
            omega, freq = self.omegas[np.argmax(bad)], self.freqs[np.argmax(bad)]
            raise InconsistentMeasureError(f"missing symmetry partner for atom (omega={omega}, t={freq})")

    def evaluate(self, x):
        """Evaluate f(x) = sum c * exp(i t <omega, x>); raises if the imaginary
        residue exceeds 1e-12 times the coefficients' total (inconsistent measure).

        Takes the points as ``as_points`` reads them: a float for one point.
        """
        X, single = as_points(x, self.d)
        _check_table(len(X), len(self), "atoms")
        phase = (X @ self.omegas.T) * self.freqs
        vals = np.exp(1j * phase) @ self.coefs
        residue = float(np.abs(vals.imag).max(initial=0.0))
        if residue > _CLOSURE_TOL * max(1.0, float(np.abs(self.coefs).sum())):
            raise InconsistentMeasureError(
                f"imaginary residue {residue:.3e} exceeds tolerance; measure is not symmetry closed"
            )
        return float(vals.real[0]) if single else vals.real


def _rounded(t: np.ndarray, decimals: int) -> np.ndarray:
    """``np.round(t, decimals)``, with each value whose scaling by 10**decimals
    overflows left as it is: far above 2**52, every float is an integer."""
    with np.errstate(over="ignore"):
        rounded = np.round(t, decimals)
    return np.where(np.isfinite(rounded), rounded, t)


def _keys(w: np.ndarray, t: np.ndarray) -> list:
    """Hashable (direction, frequency) keys, one per row of w."""
    return list(zip(map(tuple, w.tolist()), t.tolist()))


def _first_seen(keys) -> tuple[dict, np.ndarray]:
    """The distinct keys numbered in the order first seen (the table keeps the
    first of equal keys), and the number of each key."""
    table: dict = {}
    return table, np.array([table.setdefault(k, len(table)) for k in keys], dtype=np.intp)


def from_cosine_sum(d: int, terms) -> SpectralMeasure:
    """Spectral measure of f(x) = sum_i a_i cos(<xi_i, x>).

    Each term (a, xi) with xi != 0 becomes four atoms at (+-xi/|xi|, +-|xi|)
    with coefficient a/4.  Atoms whose (direction, frequency) agree to 15
    decimals (``_rounded``) merge, in the order first seen: (direction,
    frequency) from the last term, coefficients summed in term order."""
    omegas, norms, quarters = [], [], []
    for amp, xi in terms:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if xi.shape != (d,):
            raise InvalidInputError(f"frequency vector shape {xi.shape} does not match d={d}")
        # |xi| as scale * |xi / scale|, whose squares cannot overflow; a power of two scales exactly
        scale = math.ldexp(1.0, math.frexp(float(np.abs(xi).max()))[1] - 1)
        norm = scale * float(np.linalg.norm(xi / scale))
        if norm == 0.0:
            raise InvalidInputError("zero frequency vector: constant terms carry no spectrum")
        if math.isinf(norm) and np.isfinite(xi).all():
            raise DomainError(f"frequency too high: |xi| of xi = {xi.tolist()} overflows a float")
        omegas.append(xi / norm)
        norms.append(norm)
        quarters.append(complex(amp) / 4.0)
    omega, norm = np.array(omegas).reshape(len(omegas), d), np.array(norms)
    w = np.stack([omega, -omega, omega, -omega], axis=1).reshape(-1, d)
    t = np.stack([norm, -norm, -norm, norm], axis=1).ravel()
    table, ids = _first_seen(_keys(np.round(w, 15), _rounded(t, 15)))
    coefs = np.zeros(len(table), dtype=complex)
    np.add.at(coefs, ids, np.repeat(quarters, 4))
    last = len(ids) - 1 - np.unique(ids[::-1], return_index=True)[1]  # each key's last atom
    return SpectralMeasure(d, w[last], t[last], coefs)


def fourier_constant_l2(terms) -> float:
    """C_f = sum |a_i| * |xi_i|_2^2 for the cosine sum (squared-frequency
    first moment of the Fourier measure, Euclidean norm)."""
    return _fourier_constant("C_f", terms, lambda xi: xi @ xi)


def fourier_constant_l1(terms) -> float:
    """Same first moment with the l1 norm of the frequency: sum |a_i| * |xi_i|_1^2."""
    # numpy's ** overflows to inf where a Python float's raises; both take libm pow's bits
    return _fourier_constant("C_tilde", terms, lambda xi: np.abs(xi).sum() ** 2)


def _fourier_constant(name: str, terms, square) -> float:
    """sum |a_i| * square(xi_i), summed in term order; a sum that overflows raises ``DomainError``."""
    total = 0.0
    with np.errstate(over="ignore"):  # an overflow is refused below
        for amp, xi in terms:
            total += abs(float(amp)) * float(square(np.atleast_1d(np.asarray(xi, dtype=float))))
    if not math.isfinite(total):
        raise DomainError(f"Fourier constant {name} = {total} overflows a float")
    return total


def load_spectrum(path) -> tuple[int, list[tuple[float, np.ndarray]]]:
    """Read the canonical spectrum JSON; returns (d, terms)."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        d = integer_field(payload, "d", "spectrum")
        terms = [
            (float_field(t, "amplitude", "spectrum"), float_field(t, "xi", "spectrum", array=True))
            for t in list_field(payload, "terms", "spectrum")
        ]
    except (KeyError, TypeError, ValueError) as exc:
        fault = "missing" if isinstance(exc, KeyError) else "wrong type:"
        raise InvalidInputError(f"malformed spectrum file: {fault} {exc}") from exc
    if d < 1:
        raise InvalidInputError(f"spectrum dimension d={d} must be at least 1")
    for amp, xi in terms:
        if not np.isfinite(amp):
            raise InvalidInputError(f"non-finite amplitude {amp} in spectrum file")
        if xi.shape != (d,):
            raise InvalidInputError(f"xi entry of shape {xi.shape} does not match d={d}")
        if not np.all(np.isfinite(xi)):
            raise InvalidInputError("non-finite frequency vector in spectrum file")
    return d, terms
