"""Atomic spectral measures on S^{d-1} x R and the Fourier constants.

A finite cosine sum f(x) = sum_i a_i cos(<xi_i, x>) is encoded as atoms
(omega, t, c) with f(x) = sum c * exp(i t <omega, x>).  Each cosine term
contributes the four symmetric atoms (+-xi/|xi|, +-|xi|) with coefficient
a/4, which makes the measure closed under the conjugate/antipodal symmetry
group and the reconstruction real-valued.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentMeasureError, InvalidInputError

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class SpectralAtom:
    """Single atom (direction, frequency, complex coefficient)."""

    omega: np.ndarray
    t: float
    c: complex

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.omega, dtype=float))
        if abs(np.linalg.norm(w) - 1.0) > _UNIT_TOL:
            raise InvalidInputError(f"atom direction not unit length: |omega| = {np.linalg.norm(w)}")
        w.setflags(write=False)
        object.__setattr__(self, "omega", w)
        object.__setattr__(self, "t", float(self.t))
        object.__setattr__(self, "c", complex(self.c))


@dataclass(frozen=True)
class SpectralMeasure:
    """Finite atomic complex measure with the symmetry closure invariant."""

    d: int
    atoms: tuple[SpectralAtom, ...]

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple(self.atoms))
        for atom in self.atoms:
            if atom.omega.shape != (self.d,):
                raise InvalidInputError("atom dimension does not match measure dimension")

    def __len__(self) -> int:
        return len(self.atoms)

    def validate(self, tol: float = _UNIT_TOL) -> None:
        """Check the symmetry closure: for every atom (w, t, c) the partners
        (-w, -t, c), (-w, t, conj c), (w, -t, conj c) are present."""
        key = lambda w, t: (tuple(np.round(w, 9)), round(t, 9))
        table: dict = {}
        for atom in self.atoms:
            table[key(atom.omega, atom.t)] = table.get(key(atom.omega, atom.t), 0) + atom.c
        for atom in self.atoms:
            partners = [
                (-atom.omega, -atom.t, atom.c),
                (-atom.omega, atom.t, atom.c.conjugate()),
                (atom.omega, -atom.t, atom.c.conjugate()),
            ]
            for w, t, c in partners:
                got = table.get(key(w, t))
                if got is None or abs(got - c) > tol * max(1.0, abs(c)):
                    raise InconsistentMeasureError(
                        f"missing symmetry partner for atom (omega={atom.omega}, t={atom.t})"
                    )

    def evaluate(self, x, tol: float = _UNIT_TOL):
        """Evaluate f(x) = sum c * exp(i t <omega, x>); raises if the imaginary
        residue exceeds ``tol`` (inconsistent measure).

        Accepts a scalar (d=1 only), a point of shape (d,), or a batch (n, d).
        """
        pts = np.asarray(x, dtype=float)
        single = pts.ndim <= 1
        if pts.ndim == 0:
            if self.d != 1:
                raise InvalidInputError("scalar points are only valid for d=1")
            X = pts.reshape(1, 1)
        elif pts.ndim == 1:
            if pts.shape != (self.d,):
                raise InvalidInputError(f"point of shape {pts.shape} does not match d={self.d}")
            X = pts.reshape(1, self.d)
        else:
            if pts.shape[1] != self.d:
                raise InvalidInputError(f"batch of shape {pts.shape} does not match d={self.d}")
            X = pts
        if len(self.atoms) == 0:
            return 0.0 if single else np.zeros(len(X))
        omegas = np.stack([a.omega for a in self.atoms])
        freqs = np.array([a.t for a in self.atoms])
        coefs = np.array([a.c for a in self.atoms])
        phase = (X @ omegas.T) * freqs
        vals = np.exp(1j * phase) @ coefs
        scale = max(1.0, float(np.abs(coefs).sum()))
        residue = float(np.abs(vals.imag).max())
        if residue > tol * scale:
            raise InconsistentMeasureError(
                f"imaginary residue {residue:.3e} exceeds tolerance; measure is not symmetry closed"
            )
        out = vals.real
        return float(out[0]) if single else out


def from_cosine_sum(d: int, terms) -> SpectralMeasure:
    """Spectral measure of f(x) = sum_i a_i cos(<xi_i, x>).

    Each term (a, xi) with xi != 0 becomes four atoms at (+-xi/|xi|, +-|xi|)
    with coefficient a/4.  Atoms sharing (direction, frequency) merge.
    """
    merged: dict = {}
    store: dict = {}
    for amp, xi in terms:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        if xi.shape != (d,):
            raise InvalidInputError(f"frequency vector shape {xi.shape} does not match d={d}")
        norm = float(np.linalg.norm(xi))
        if norm == 0.0:
            raise InvalidInputError("zero frequency vector: constant terms carry no spectrum")
        omega = xi / norm
        quarter = complex(amp) / 4.0
        for w, t in ((omega, norm), (-omega, -norm), (omega, -norm), (-omega, norm)):
            k = (tuple(np.round(w, 15)), round(t, 15))
            merged[k] = merged.get(k, 0.0) + quarter
            store[k] = (w, t)
    atoms = []
    for k, c in merged.items():
        w, t = store[k]
        atoms.append(SpectralAtom(omega=w, t=t, c=c))
    return SpectralMeasure(d=d, atoms=tuple(atoms))


def fourier_constant_l2(terms) -> float:
    """C_f = sum |a_i| * |xi_i|_2^2 for the cosine sum (squared-frequency
    first moment of the Fourier measure, Euclidean norm)."""
    total = 0.0
    for amp, xi in terms:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        total += abs(float(amp)) * float(xi @ xi)
    return total


def fourier_constant_l1(terms) -> float:
    """Same first moment with the l1 norm of the frequency: sum |a_i| * |xi_i|_1^2."""
    total = 0.0
    for amp, xi in terms:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        total += abs(float(amp)) * float(np.abs(xi).sum()) ** 2
    return total


def save_spectrum(path, d: int, terms) -> None:
    """Write the canonical spectrum JSON: {"d": int, "terms": [{"amplitude", "xi"}]}."""
    payload = {
        "d": int(d),
        "terms": [
            {"amplitude": float(a), "xi": [float(v) for v in np.atleast_1d(xi)]} for a, xi in terms
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_spectrum(path) -> tuple[int, list[tuple[float, np.ndarray]]]:
    """Read the canonical spectrum JSON; returns (d, terms)."""
    with open(path) as fh:
        payload = json.load(fh)
    try:
        d = int(payload["d"])
        terms = [(float(t["amplitude"]), np.asarray(t["xi"], dtype=float)) for t in payload["terms"]]
    except (KeyError, TypeError) as exc:
        raise InvalidInputError(f"malformed spectrum file: missing {exc}") from exc
    if d < 1:
        raise InvalidInputError(f"spectrum dimension d={d} must be at least 1")
    for amp, xi in terms:
        if not np.isfinite(amp):
            raise InvalidInputError(f"non-finite amplitude {amp} in spectrum file")
        if xi.shape != (d,):
            raise InvalidInputError(f"xi entry of length {len(xi)} does not match d={d}")
        if not np.all(np.isfinite(xi)):
            raise InvalidInputError("non-finite frequency vector in spectrum file")
    return d, terms
