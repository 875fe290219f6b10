"""The benchmark's four workloads: seeded inputs, one cycle of operations, and
the checks of every output.

Each workload is a fixed list of operations (one cycle) built from the seed.
The seed varies amplitudes, directions, frequencies within a few percent,
harmonic indices and scales, but not the amount of work: term counts, radii,
widths, trials and grid sizes are fixed per slot, so every seed costs about
the same.  Inputs that radonlab gets wrong today (``known_faults``) do not
depend on the seed.

CLI operations go through ``radonlab.cli.main`` on files written here;
``planar-transforms`` calls the public functions of ``radonlab.radon2d``,
since no CLI command reaches them.  Library functions are looked up on their
modules at call time, so the tracer's patches apply.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
from radonlab import cli, radon2d, radon_measure, spectrum

import oracles

THM2_LADDER = (16, 64, 256, 1024, 4096)
PROP2_LADDER = (16, 64, 256, 1024)
TRIALS = 20

# |xi| = (40 / R) * factor: every seeded spectrum keeps |xi| R <= 40
NORM_FACTORS = {1: (0.9,), 2: (0.3, 0.9), 4: (0.15, 0.4, 0.65, 0.9), 8: tuple(np.linspace(0.1, 0.95, 8))}
NORM_SLOTS = ((1, 0.5), (2, 2.0), (4, 1.0), (8, 1.5))  # (terms, R) for each d in 1, 2, 3
LADDER_FACTORS = (0.05, 0.12, 0.2)

# tolerances for the planar identities, per resolution: about 100 times the
# largest relative gap measured over seeded bumps when they were set
ADJOINT_TOL = {32: 1e-6, 64: 1e-11, 96: 1e-12}
PAIRING_TOL = {48: 1e-5, 64: 1e-7}
SPOT_TOL = 1e-5


@dataclass
class Op:
    """One operation of a cycle: ``run`` is timed, ``check`` is not.

    ``check`` returns the problems it finds, each starting with the name of
    what is wrong.  ``known_faults`` maps the problems that a fault of the
    program named here causes on this input to that fault; any other problem
    is a wrong output.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    outputs: tuple[Path, ...] = ()
    known_faults: dict[str, str] = field(default_factory=dict)


def _rel_gap(x: float, y: float) -> float:
    return abs(x - y) / max(abs(x), abs(y), 1e-300)


def _read_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_json(path: Path, payload) -> Path:
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def _terms(rng: np.random.Generator, d: int, R: float, factors, scale: float = 40.0) -> list:
    """Cosine terms with |xi| = scale / R * factor * (1 +- 5%) and random signs."""
    terms = []
    for f in factors:
        w = rng.standard_normal(d)
        xi = w / np.linalg.norm(w) * (scale / R) * f * rng.uniform(0.95, 1.05)
        terms.append((float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 1.5)), xi))
    return terms


def _spectrum_file(path: Path, d: int, terms) -> Path:
    payload = {"d": d, "terms": [{"amplitude": a, "xi": [float(x) for x in xi]} for a, xi in terms]}
    return _write_json(path, payload)


def _cli_op(name, argv, outputs, check, known_faults=None) -> Op:
    return Op(name, lambda: cli.main(argv), check, tuple(outputs), known_faults or {})


# --- norm-sweep --------------------------------------------------------------


def _norm_op(work: Path, name: str, d: int, terms, R: float, known_faults=None) -> Op:
    spec = _spectrum_file(work / f"{name}.json", d, terms)
    out = work / f"{name}.norm.json"
    expected = functools.cache(lambda: oracles.norm(terms, R))
    c_f = oracles.fourier_constant(terms)

    def check(rc) -> list[str]:
        rep = _read_json(out)
        problems = [] if rc == 0 else [f"exit {rc}"]
        if _rel_gap(rep["norm"], expected()) > 1e-10:
            problems.append(f"norm {rep['norm']!r} against oracle {expected()!r}")
        if _rel_gap(rep["C_f"], c_f) > 1e-12 or _rel_gap(rep["bound_2RCf"], 2 * R * c_f) > 1e-12:
            problems.append(f"C_f {rep['C_f']!r} or bound {rep['bound_2RCf']!r} against C_f {c_f!r}")
        if not rep["norm"] <= rep["bound_2RCf"] * (1 + 1e-12) or not rep["bound_ok"]:
            problems.append(f"bound_ok {rep['bound_ok']}: norm above 2 R C_f")
        if not rep["residual_affine"] <= 1e-6:
            problems.append(f"residual_affine {rep['residual_affine']!r} above 1e-6")
        if rep["d"] != d or rep["R"] != R:
            problems.append("d or R not echoed")
        return problems

    argv = ["norm", "--spectrum", str(spec), "--R", repr(R), "--out", str(out)]
    return _cli_op(name, argv, [out], check, known_faults)


# the two faults behind the known-bad norm-sweep inputs
SCAN_FAULT = "radon_measure.sign_change_roots scans 512 points, fewer than the 637 roots; tv_norm is 39% low"
PANEL_FAULT = "radon_measure.ramp_integral_grid uses one 48-node panel; residual_affine is far above 1e-6 at |xi| R >= 100"


def norm_sweep(rng: np.random.Generator, work: Path) -> list[Op]:
    # two seeded spectra per slot keep the known-bad inputs a minor share of the cycle
    ops = [
        _norm_op(work, f"d{d}-n{n}-R{R}-{i}", d, _terms(rng, d, R, NORM_FACTORS[n]), R)
        for i in range(2)
        for d in (1, 2, 3)
        for n, R in NORM_SLOTS
    ]
    near_cancel = [(1.0, np.array([1.0])), (-1.0, np.array([1.01]))]
    for R in (1.0, 30.0):
        ops.append(_norm_op(work, f"near-cancel-R{R}", 1, near_cancel, R))
    ops.append(
        _norm_op(
            work, "cos1000x-R1", 1, [(1.0, np.array([1000.0]))], 1.0,
            known_faults={"norm": SCAN_FAULT, "residual_affine": PANEL_FAULT},
        )
    )
    ops.append(
        _norm_op(
            work, "xi60-80-R1", 2, [(1.0, np.array([60.0, 80.0]))], 1.0, known_faults={"residual_affine": PANEL_FAULT}
        )
    )
    return ops


# --- decay-ladder ------------------------------------------------------------


def _approximate_op(work: Path, name: str, d: int, terms, R: float, ladder, convention: str, seed: int) -> Op:
    spec = _spectrum_file(work / f"{name}.json", d, terms)
    net_path, csv_path, rep_path = (work / f"{name}.{ext}" for ext in ("net.json", "csv", "report.json"))
    expected = functools.cache(lambda: oracles.norm(terms, R))
    points = oracles.ball_points(np.random.default_rng([seed, d]), d, R, 512)

    def check(rc) -> list[str]:
        rep, net = _read_json(rep_path), _read_json(net_path)
        norm = expected()
        problems = [] if rc == 0 and rep["passed"] else [f"exit {rc}, passed {rep['passed']}"]
        if _rel_gap(rep["norm"], norm) > 1e-10:
            problems.append(f"norm {rep['norm']!r} against oracle {norm!r}")
        rows = np.loadtxt(csv_path, delimiter=",", skiprows=1, ndmin=2)
        ns, bounds, mean, low, high = rows.T
        if list(ns) != list(ladder) or rep["widths"] != list(ladder) or rep["emitted_width"] != ladder[-1]:
            problems.append("widths not echoed")
        if np.max(np.abs(bounds - R * norm / np.sqrt(ns)) / bounds) > 1e-10:
            problems.append("decay.csv bounds differ from R norm / sqrt(n)")
        if not np.all((low <= mean) & (mean <= high)):
            problems.append("decay.csv min <= mean <= max broken")
        a = np.array([nu["a"] for nu in net["neurons"]])
        omega = np.array([nu["omega"] for nu in net["neurons"]]).reshape(len(a), d)
        b = np.array([nu["b"] for nu in net["neurons"]])
        if len(a) != ladder[-1] or net["convention"] != convention or net["d"] != d:
            problems.append("network shape or convention wrong")
        err = float(np.max(np.abs(oracles.relu_network(net, points) - oracles.cosine_sum(terms, points))))
        if convention == "thm2":
            if not np.all(low <= bounds):
                problems.append("a width whose best trial misses R norm / sqrt(n)")
            if (slope := oracles.loglog_slope(ns, mean)) > -0.4:
                problems.append(f"log-log slope {slope:.3f} above -0.4")
            if not np.all(np.abs(a) == 1.0) or np.max(np.abs(np.linalg.norm(omega, axis=1) - 1)) > 1e-12:
                problems.append("thm2 coefficients or directions off the convention")
            if not np.all(np.abs(b) < R) or _rel_gap(net["kappa"], norm) > 1e-10:
                problems.append("thm2 biases outside (-R, R) or kappa differs from the norm")
            limit = R * norm / math.sqrt(len(a))
        else:
            l1 = np.array([math.fsum(np.abs(w)) for w in omega])
            if np.max(np.abs(l1 - 1.0)) > 4e-16 or not np.all((b >= 0) & (b <= 1) & (np.abs(a) <= 1)):
                problems.append("prop2 directions, biases or coefficients off the convention")
            if not net["kappa"] <= math.sqrt(d) * norm * (1 + 1e-12):
                problems.append("prop2 kappa above sqrt(d) norm")
            limit = R * net["kappa"] / math.sqrt(len(a))
        if not err < limit:
            problems.append(f"emitted network error {err:.4g} not below {limit:.4g}")
        return problems

    argv = [
        "approximate", "--spectrum", str(spec), "--R", repr(R), "--n", ",".join(map(str, ladder)),
        "--trials", str(TRIALS), "--seed", str(seed), "--convention", convention,
        "--out", str(net_path), "--csv", str(csv_path), "--report", str(rep_path),
    ]
    return _cli_op(name, argv, [net_path, csv_path, rep_path], check)


def decay_ladder(rng: np.random.Generator, work: Path) -> list[Op]:
    ops = []
    for d, factors in ((1, LADDER_FACTORS[1:]), (2, LADDER_FACTORS), (3, LADDER_FACTORS)):
        terms = _terms(rng, d, 1.0, factors)
        ops.append(_approximate_op(work, f"thm2-d{d}", d, terms, 1.0, THM2_LADDER, "thm2", int(rng.integers(2**31))))
    terms = _terms(rng, 2, 0.8, LADDER_FACTORS)
    ops.append(_approximate_op(work, "prop2-d2", 2, terms, 0.8, PROP2_LADDER, "prop2", int(rng.integers(2**31))))
    return ops


# --- null-flat ---------------------------------------------------------------


def _null_term(rng: np.random.Generator, d: int, coeff_range=(0.5, 2.0)) -> dict:
    """A seeded term of the null set: k' < k - 2 with the parity of k."""
    k = int(rng.integers(5, 11))
    kprime = int(rng.choice(range(k % 2, k - 2, 2)))
    j = int(rng.integers(1, 3 if d == 2 else 2 * k + 2))
    coeff = float(rng.choice([-1.0, 1.0]) * rng.uniform(*coeff_range))
    return {"k": k, "j": j, "kprime": kprime, "coeff": coeff, "d": d, "R": 1.0}


def _verify_null_op(work: Path, name: str, term: dict, grid: int, seed: int | None, known_faults=None) -> Op:
    path = _write_json(work / f"{name}.json", term)
    out = work / f"{name}.verdict.json"
    oracle_points = oracles.ball_points(np.random.default_rng(term["k"]), term["d"], term["R"], 16)
    pairing = functools.cache(
        lambda: float(np.max(np.abs(oracles.null_pairing_2d(term["k"], term["j"], term["kprime"], term["coeff"], term["R"], oracle_points))))
    )

    def check(rc) -> list[str]:
        rep = _read_json(out)
        problems = []
        if term["d"] == 2 and pairing() > 1e-10:
            problems.append(f"oracle pairing {pairing():.3g}: the input is not a null term")
        if rc != 0 or rep["verdict"] != "pass" or not rep["max_ramp_integral"] <= rep["tolerance"]:
            problems.append(f"verdict {rep['verdict']} (max_ramp_integral {rep['max_ramp_integral']:.3g}) on a null term")
        if rep["points"] != grid or rep["term"] != term:
            problems.append("grid size or term not echoed")
        return problems

    argv = ["verify-null", "--term", str(path), "--grid", str(grid), "--out", str(out)]
    argv += [] if seed is None else ["--seed", str(seed)]
    return _cli_op(name, argv, [out], check, known_faults)


def _base_network(rng: np.random.Generator, d: int, width: int) -> dict:
    omega = rng.standard_normal((width, d))
    omega /= np.linalg.norm(omega, axis=1)[:, None]
    return {
        "d": d,
        "convention": "thm2",
        "kappa": float(rng.uniform(1.0, 5.0)),
        "neurons": [
            {"a": float(a), "omega": [float(x) for x in w], "b": float(b)}
            for a, w, b in zip(rng.choice([-1.0, 1.0], width), omega, rng.uniform(-1.0, 1.0, width))
        ],
        "v": [float(x) for x in rng.standard_normal(d)],
        "c": float(rng.standard_normal()),
    }


def _modeconnect_op(work: Path, name: str, rng: np.random.Generator, n: int, grid: int) -> Op:
    net = _write_json(work / f"{name}.net.json", _base_network(rng, 2, 256))
    term = _write_json(work / f"{name}.term.json", _null_term(rng, 2, coeff_range=(1.2, 2.0)))
    s = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
    out = work / f"{name}.report.json"

    def check(rc) -> list[str]:
        rep = _read_json(out)
        problems = [] if rc == 0 and rep["passed"] else [f"exit {rc}, passed {rep['passed']}"]
        if not rep["functional_change"] <= abs(s) * 1e-3:
            problems.append(f"functional_change {rep['functional_change']:.3g} above |s| 1e-3")
        if not rep["coefficient_mass"] >= 0.5:
            problems.append(f"coefficient_mass {rep['coefficient_mass']:.3g} below 0.5")
        if _rel_gap(rep["displacement"], abs(s) * rep["coefficient_mass"]) > 1e-12:
            problems.append("displacement differs from |s| coefficient_mass")
        if rep["scale"] != s or rep["grid_size"] != grid or rep["added_neurons"] < 16:
            problems.append("scale, grid or neuron count not echoed")
        return problems

    argv = ["modeconnect", "--network", str(net), "--term", str(term), "--n", str(n), "--s", repr(s),
            "--grid", str(grid), "--out", str(out)]
    return _cli_op(name, argv, [out], check)


def null_flat(rng: np.random.Generator, work: Path) -> list[Op]:
    ops = [_verify_null_op(work, f"null-d2-{i}", _null_term(rng, 2), 400, int(rng.integers(2**31))) for i in range(3)]
    ops += [_verify_null_op(work, f"null-d3-{i}", _null_term(rng, 3), 400, int(rng.integers(2**31))) for i in range(2)]
    ops.append(
        _verify_null_op(
            work, "null-d2-k60", {"k": 60, "j": 1, "kprime": 40, "coeff": 1.0, "d": 2, "R": 1.0}, 400, None,
            known_faults={"verdict": "cli.cmd_verify_null uses a 64-node circle rule in d=2, exact to degree 63 < k + k' + 2"},
        )
    )
    ops += [_modeconnect_op(work, f"modeconnect-n{n}", rng, n, 500) for n in (2000, 4000)]
    return ops


# --- planar-transforms -------------------------------------------------------


def _bump(rng: np.random.Generator) -> tuple[np.ndarray, float, float]:
    return rng.uniform(-0.25, 0.25, 2), float(rng.uniform(0.4, 0.6)), float(rng.uniform(0.5, 2.0))


def _adjointness_op(rng: np.random.Generator, res: int) -> Op:
    center, r, amp = _bump(rng)
    phi = radon2d.BumpFunction(center, r, amp)
    sigma, alpha = float(rng.uniform(0.5, 1.5)), float(rng.uniform(0.2, 1.0))
    e = rng.standard_normal(2)
    e /= np.linalg.norm(e)

    def psi(W, B):  # even on S^1 x R: psi(-w, -b) = psi(w, b)
        return np.exp(-((np.asarray(B) / sigma) ** 2)) * (1.0 + alpha * (np.atleast_2d(W) @ e) ** 2)

    def check(sides) -> list[str]:
        lhs, rhs = sides
        gap = _rel_gap(lhs, rhs)
        return [] if gap <= ADJOINT_TOL[res] and abs(lhs) > 1e-3 else [f"lhs {lhs!r} rhs {rhs!r}: gap {gap:.3g}"]

    return Op(f"adjointness-res{res}", lambda: radon2d.adjointness_check(phi, psi, res), check)


def _pairing_op(rng: np.random.Generator, res: int) -> Op:
    terms = _terms(rng, 2, 1.0, (0.1, 0.2))
    center, r, amp = _bump(rng)
    phi = radon2d.BumpFunction(center, r, amp)

    def run():
        mu = spectrum.from_cosine_sum(2, terms)
        return radon2d.radon_pairing_check(mu, radon_measure.density_from_spectrum(mu, 1.0), phi, res)

    def check(sides) -> list[str]:
        lhs, rhs = sides
        gap = _rel_gap(lhs, rhs)
        return [] if gap <= PAIRING_TOL[res] and abs(lhs) > 1e-3 else [f"lhs {lhs!r} rhs {rhs!r}: gap {gap:.3g}"]

    return Op(f"pairing-res{res}", run, check)


def _spot_op(rng: np.random.Generator, calls: int) -> Op:
    bumps = [_bump(rng) for _ in range(2)]
    phis = [radon2d.BumpFunction(*bump) for bump in bumps]
    theta = rng.uniform(0.0, 2.0 * np.pi, calls)
    omegas = np.column_stack([np.cos(theta), np.sin(theta)])
    spots = [(i % 2, omegas[i], float(omegas[i] @ bumps[i % 2][0] + rng.uniform(-1, 1) * bumps[i % 2][1])) for i in range(calls)]
    expected = functools.cache(lambda: [oracles.chord_integral(*bumps[k], w, b) for k, w, b in spots])

    def check(values) -> list[str]:
        bad = [(v, e) for v, e in zip(values, expected()) if abs(v - e) > SPOT_TOL * abs(e) + 1e-13]
        return [f"{len(bad)} chord integrals off quad, first {bad[0]}"] if bad else []

    return Op(f"spot-{calls}", lambda: [radon2d.radon_transform_2d(phis[k], w, b) for k, w, b in spots], check)


def planar_transforms(rng: np.random.Generator, work: Path) -> list[Op]:
    ops = [_adjointness_op(rng, res) for res in ADJOINT_TOL]
    ops += [_pairing_op(rng, res) for res in PAIRING_TOL]
    ops.append(_spot_op(rng, 64))
    return ops


BUILDERS = {
    "norm-sweep": norm_sweep,
    "decay-ladder": decay_ladder,
    "null-flat": null_flat,
    "planar-transforms": planar_transforms,
}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    """Write the workload's inputs for this seed under ``work``; return one cycle."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[workload](np.random.default_rng([seed, list(BUILDERS).index(workload)]), work)
