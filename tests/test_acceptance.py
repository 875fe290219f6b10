"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.  Tolerances are pinned here, not
configurable: they are the exit criteria of the build.
"""

from __future__ import annotations

import itertools
import json
import math
import time

import numpy as np
import pytest

import radonlab as rl
from radonlab.cli import main
from radonlab.radon_measure import ramp_integral_grid

from conftest import (
    EPS,
    decay_slope,
    funk_hecke_sides,
    near_cancel_fpp,
    norm_and_fourier_bound,
    random_cosine_terms,
    second_derivative_norm_1d,
    threshold_pairing,
    verify_at,
    write_input,
)

NEAR_CANCEL_TERMS = [(1.0, np.array([1.0])), (-1.0, np.array([1.0 + EPS]))]


def report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'} ({detail})", flush=True)
    assert ok, f"criterion {number} ({name}): {detail}"


def test_criterion_1_near_cancel_constants(tmp_path):
    started = time.perf_counter()
    spectrum = tmp_path / "spectrum.json"
    write_input(spectrum, 1, NEAR_CANCEL_TERMS)
    out = tmp_path / "norm_report.json"
    code = main(["norm", "--spectrum", str(spectrum), "--R", "1", "--out", str(out)])
    with open(out) as fh:
        rep = json.load(fh)
    oracle = second_derivative_norm_1d(near_cancel_fpp, 1.0)
    # sharper closed-form bound for the nearly-cancelling pair:
    # |f''| <= eps |b| |sin| + (2 eps + eps^2) |cos| integrates to
    # R (R eps + 4 eps + 2 eps^2) = 0.0502 at R = 1
    perturbation_bound = 1.0 * (1.0 * EPS + 4 * EPS + 2 * EPS**2)
    elapsed = time.perf_counter() - started
    checks = {
        "exit": code == 0,
        "C_f": abs(rep["C_f"] - 2.0201) <= 1e-12,
        "norm_vs_oracle": abs(rep["norm"] - oracle) <= 1e-8,
        "perturbation_bound": rep["norm"] <= perturbation_bound,
        "fourier_bound": rep["norm"] <= rep["bound_2RCf"] == pytest.approx(4.0402, abs=1e-12),
        "runtime": elapsed < 1.0,
    }
    report(
        1,
        "eps-pair constants",
        all(checks.values()),
        f"C_f={rep['C_f']:.6f} norm={rep['norm']:.6e} oracle={oracle:.6e} "
        f"bounds=({perturbation_bound}, {rep['bound_2RCf']:.4f}) t={elapsed:.2f}s "
        f"failed={[k for k, v in checks.items() if not v]}",
    )


def test_criterion_2_fourier_bound_random_spectra():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_slack = -np.inf
    count = 0
    ok = True
    cases = list(itertools.product((1, 2, 3), (0.5, 1.0, 2.0)))
    while count < 25:
        d, R = cases[count % len(cases)]
        terms = random_cosine_terms(rng, d, n_terms=int(rng.integers(1, 5)))
        mu = rl.from_cosine_sum(d, terms)
        norm, bound = norm_and_fourier_bound(mu, R)
        worst_slack = max(worst_slack, norm - bound)
        ok = ok and norm <= bound + 1e-10
        count += 1
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 10.0
    report(2, "fourier upper bound", ok, f"25 spectra, worst norm-bound={worst_slack:.3e}, t={elapsed:.2f}s")


def test_criterion_3_affine_representation():
    started = time.perf_counter()
    rng = np.random.default_rng(77)
    worst_recon = 0.0
    for trial in range(10):
        d = 1 if trial % 2 == 0 else 2
        terms = random_cosine_terms(rng, d, n_terms=int(rng.integers(1, 4)))
        mu = rl.from_cosine_sum(d, terms)
        R = 1.0
        density = rl.density_from_spectrum(mu, R)
        grid = rl.ball_grid(d, R, 200)
        affine = rl.fit_affine(density)
        recon = ramp_integral_grid(density, grid.points) + affine(grid.points)
        worst_recon = max(worst_recon, float(np.max(np.abs(recon - mu.evaluate(grid.points)))))
    elapsed = time.perf_counter() - started
    ok = worst_recon <= 1e-6 and elapsed < 30.0
    report(3, "affine-residual representation", ok,
           f"max |f - ramp - affine|={worst_recon:.3e}, t={elapsed:.2f}s")


def test_criterion_4_sampling_rate():
    started = time.perf_counter()
    mu = rl.from_cosine_sum(1, NEAR_CANCEL_TERMS)
    reports = rl.error_decay_experiment(mu, 1.0, [16, 64, 256, 1024, 4096], trials=20, seed=11)[0]
    min_ok = all(r.min_error <= r.bound for r in reports)
    mean_ok = all(r.mean_error <= 1.1 * r.bound for r in reports)
    slope = decay_slope(reports)
    elapsed = time.perf_counter() - started
    ok = min_ok and mean_ok and slope <= -0.4 and elapsed < 120.0
    report(4, "width-sampling rate", ok,
           f"min<=bound={min_ok}, mean<=1.1*bound={mean_ok}, slope={slope:.3f}, t={elapsed:.2f}s")


def test_criterion_5_l1_convention():
    started = time.perf_counter()
    rng = np.random.default_rng(55)
    ok = True
    details = []
    for trial in range(10):
        terms = random_cosine_terms(rng, 2, n_terms=3)
        mu = rl.from_cosine_sum(2, terms)
        density = rl.density_from_spectrum(mu, 1.0)
        norm = rl.tv_norm(density)
        affine = rl.fit_affine(density)
        net = rl.l1_normalized_network(density, affine, 128, seed=trial)
        ok = ok and bool(np.all(np.abs(net.omegas).sum(axis=1) == 1.0))
        ok = ok and bool(np.all((net.b >= 0.0) & (net.b <= 1.0)))
        ok = ok and bool(np.all(np.abs(net.a) <= 1.0))
        ok = ok and net.kappa <= math.sqrt(2.0) * norm + 1e-10
    # error decreases with width (rate constant is unknowable, trend is not)
    mu = rl.from_cosine_sum(2, random_cosine_terms(np.random.default_rng(5), 2, n_terms=2))
    reps = rl.error_decay_experiment(mu, 1.0, [64, 1024], trials=10, seed=3, convention="prop2")[0]
    trend_ok = reps[1].mean_error < reps[0].mean_error
    elapsed = time.perf_counter() - started
    ok = ok and trend_ok
    report(5, "l1-normalized constraints", ok,
           f"10 spectra exact, error trend {reps[0].mean_error:.3e} -> {reps[1].mean_error:.3e}, t={elapsed:.2f}s")


def test_criterion_6_null_terms_and_witness():
    started = time.perf_counter()
    # bundled d=2 example density (degree-4 harmonic, constant bias profile)
    ex2 = rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=2, R=1.0)
    xs = rl.ball_grid(2, 1.0, 100, seed=99)
    rep = verify_at(ex2, xs, 64)
    worst = rep.max_ramp_integral
    all_terms_ok = rep.max_ramp_integral <= 1e-8
    for d, m in ((2, 64), (3, 16)):
        pts = rl.ball_grid(d, 1.0, 25, seed=d)
        for k in range(3, 9):
            for kprime in range(k % 2, k - 2, 2):
                for j in range(1, rl.harmonic_dim(k, d) + 1):
                    term = rl.HarmonicNullTerm(k=k, j=j, kprime=kprime, coeff=1.0, d=d, R=1.0)
                    r = verify_at(term, pts, m)
                    worst = max(worst, r.max_ramp_integral)
                    all_terms_ok = all_terms_ok and r.max_ramp_integral <= 1e-8
    # threshold witness at 10 generic points (radius in [0.6, 0.95], away from
    # the harmonic's zero set)
    rng = np.random.default_rng(123)
    witness_ok = True
    found = 0
    while found < 10:
        w = rng.normal(size=2)
        w /= np.linalg.norm(w)
        if abs(rl.harmonic_eval(4, 1, 2, w)) < 0.2:
            continue
        x = w * rng.uniform(0.6, 0.95)
        witness_ok = witness_ok and abs(threshold_pairing(4, 1, 2, x)) > 1e-3
        found += 1
    elapsed = time.perf_counter() - started
    ok = all_terms_ok and witness_ok and elapsed < 30.0
    report(6, "null-term verification", ok,
           f"worst pairing={worst:.2e}, witness>{1e-3}={witness_ok}, t={elapsed:.2f}s")


def test_criterion_7_null_invariance_and_flat_direction():
    started = time.perf_counter()
    rng = np.random.default_rng(8)
    terms = random_cosine_terms(rng, 2, n_terms=2)
    mu = rl.from_cosine_sum(2, terms)
    density = rl.density_from_spectrum(mu, 1.0)
    grid = rl.ball_grid(2, 1.0, 200)
    affine = rl.fit_affine(density)
    base_vals = ramp_integral_grid(density, grid.points) + affine(grid.points)
    term = rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=2, R=1.0)
    merged = density.merged_with(rl.null_term_density(term, m=64))
    delta = float(np.max(np.abs(ramp_integral_grid(merged, grid.points) + affine(grid.points) - base_vals)))
    invariance_ok = delta <= 1e-6
    mc = rl.mode_connect_perturb(term, 2000, 1.0, rl.ball_grid(2, 1.0, 500))
    flat_ok = mc.functional_change <= 1e-3 and mc.coefficient_mass >= 0.5
    elapsed = time.perf_counter() - started
    ok = invariance_ok and flat_ok
    report(7, "null invariance / flat direction", ok,
           f"reconstruct delta={delta:.2e}, change={mc.functional_change:.2e}, "
           f"mass={mc.coefficient_mass:.2f}, t={elapsed:.2f}s")


def test_criterion_8_adjointness_and_pairing():
    started = time.perf_counter()
    psi = lambda W, B: (np.atleast_2d(W)[:, 0] ** 2 - np.atleast_2d(W)[:, 1] ** 2) * np.asarray(B) ** 2
    bump = rl.BumpFunction(center=[0.12, -0.07], r=0.55, amplitude=1.1)
    l1, r1 = rl.adjointness_check(bump, psi, resolution=32)
    adj_coarse = abs(l1 - r1) / max(abs(l1), 1e-30)
    l2, r2 = rl.adjointness_check(bump, psi, resolution=64)
    adj_fine = abs(l2 - r2) / max(abs(l2), 1e-30)
    xi0 = 1.3 * np.array([math.cos(0.7), math.sin(0.7)])
    mu = rl.from_cosine_sum(2, [(1.0, xi0)])
    density = rl.density_from_spectrum(mu, 1.0)
    p1 = rl.radon_pairing_check(mu, density, bump, resolution=32)
    pair_coarse = abs(p1[0] - p1[1]) / max(abs(p1[0]), 1.0)
    p2 = rl.radon_pairing_check(mu, density, bump, resolution=64)
    pair_fine = abs(p2[0] - p2[1]) / max(abs(p2[0]), 1.0)
    elapsed = time.perf_counter() - started
    ok = (
        adj_fine <= 1e-4
        and pair_fine <= 1e-4
        and adj_fine <= adj_coarse
        and pair_fine <= pair_coarse
        and elapsed < 60.0
    )
    report(8, "adjointness / pairing identities", ok,
           f"adjoint {adj_coarse:.1e}->{adj_fine:.1e}, pairing {pair_coarse:.1e}->{pair_fine:.1e}, t={elapsed:.2f}s")


def test_criterion_9_infrastructure(tmp_path):
    started = time.perf_counter()
    # Funk-Hecke on 20 mixed cases
    rng = np.random.default_rng(17)
    rules = {2: rl.sphere_rule(2, 64), 3: rl.sphere_rule(3, 24)}
    fh_worst = 0.0
    for case in range(20):
        d = 2 if case % 2 == 0 else 3
        k = int(rng.integers(0, 6))
        j = int(rng.integers(1, rl.harmonic_dim(k, d) + 1))
        coeffs = rng.uniform(-1, 1, size=6)
        eta = lambda t, c=coeffs: np.polynomial.polynomial.polyval(np.asarray(t), c)
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        lhs, rhs = funk_hecke_sides(eta, k, d, w, rules[d], lambda x: rl.harmonic_eval(k, j, d, x))
        fh_worst = max(fh_worst, abs(lhs - rhs))
    fh_ok = fh_worst <= 1e-8
    # orthonormality up to k = 6
    ortho_worst = 0.0
    for d, rule in ((2, rl.sphere_rule(2, 64)), (3, rl.sphere_rule(3, 16))):
        pairs = [(k, j) for k in range(7) for j in range(1, rl.harmonic_dim(k, d) + 1)]
        vals = np.stack([rl.harmonic_eval(k, j, d, rule.nodes) for k, j in pairs])
        gram = (vals * rule.weights) @ vals.T
        ortho_worst = max(ortho_worst, float(np.max(np.abs(gram - np.eye(len(pairs))))))
    ortho_ok = ortho_worst <= 1e-8
    # Gauss-Legendre exactness through 2n-1
    gl_ok = True
    for n in (1, 2, 3, 5, 8, 12):
        rule = rl.gauss_legendre(n, -1.0, 1.0)
        for p in range(2 * n):
            exact = (1 - (-1) ** (p + 1)) / (p + 1)
            if abs(rule.weights @ rule.nodes**p - exact) > 1e-10 * max(1.0, abs(exact)):
                gl_ok = False
    # deterministic reports: byte-identical apart from wall time
    spectrum = tmp_path / "spectrum.json"
    write_input(spectrum, 1, NEAR_CANCEL_TERMS)
    out = tmp_path / "r.json"
    runs = []
    for _ in range(2):
        main(["norm", "--spectrum", str(spectrum), "--R", "1", "--out", str(out)])
        runs.append([l for l in open(out) if "wall_time" not in l])
    net_runs = []
    for _ in range(2):
        main([
            "approximate", "--spectrum", str(spectrum), "--R", "1", "--n", "32",
            "--trials", "5", "--seed", "4", "--out", str(tmp_path / "net.json"),
            "--csv", str(tmp_path / "decay.csv"), "--report", str(out),
        ])
        net_runs.append(
            ((tmp_path / "net.json").read_bytes(), (tmp_path / "decay.csv").read_bytes(),
             tuple(l for l in open(out) if "wall_time" not in l))
        )
    determinism_ok = runs[0] == runs[1] and net_runs[0] == net_runs[1]
    elapsed = time.perf_counter() - started
    ok = fh_ok and ortho_ok and gl_ok and determinism_ok
    report(9, "infrastructure properties", ok,
           f"funk-hecke worst={fh_worst:.1e}, ortho worst={ortho_worst:.1e}, "
           f"GL exact={gl_ok}, deterministic={determinism_ok}, t={elapsed:.2f}s")
