"""Command-line front end: reproducible experiments with JSON/CSV reports.

Subcommands
    norm         spectrum.json -> norm_report.json
    approximate  spectrum.json -> network.json + decay.csv
    verify-null  term.json -> null verification report
    modeconnect  network.json + term.json -> perturbation report

Exit codes: 0 pass, 1 assertion fail, 2 parse error, 3 invariant violation,
4 domain error.  Reports embed the config echo, seed, library version, and
wall time; reruns with identical config are byte-identical except for the
wall-time field.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .config import DEFAULTS
from .errors import EXIT_FAIL, EXIT_PASS, DomainError, InvalidInputError, RadonlabError, exit_code_for
from .nullspace import load_null_term, mode_connect_perturb, verify_null
from .quadrature import ball_grid
from .radon_measure import (
    density_from_spectrum,
    fit_affine,
    ramp_integral_grid,
    spectral_second_moment,
    tv_norm,
)
from .sparsifier import error_decay_experiment, load_network, save_network, write_decay_csv
from .spectrum import from_cosine_sum, fourier_constant_l1, fourier_constant_l2, load_spectrum


def _parse_overrides(pairs):
    out = {}
    for raw in pairs or []:
        if "=" not in raw:
            raise ValueError(f"tolerance override must look like key=value, got {raw!r}")
        key, value = raw.split("=", 1)
        out[key.strip()] = float(value)
    return out


def _write_report(path, payload) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _meta(args, seed, tols, started) -> dict:
    echo = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    return {
        "config": echo,
        "seed": seed,
        "version": __version__,
        "tol_overrides": tols.overrides,
        "wall_time_s": round(time.perf_counter() - started, 6),
    }


def cmd_norm(args) -> int:
    started = time.perf_counter()
    tols = DEFAULTS.apply_overrides(_parse_overrides(args.tol_override))
    d, terms = load_spectrum(args.spectrum)
    mu = from_cosine_sum(d, terms)
    R = args.R
    density = density_from_spectrum(mu, R)
    norm = tv_norm(density)
    c_f = fourier_constant_l2(terms)
    c_tilde = fourier_constant_l1(terms)
    bound = 2.0 * R * c_f
    if not math.isfinite(bound):
        raise DomainError(f"the Fourier bound 2 R C_f = 2 * {R} * {c_f} overflows a float")
    # the whole identity f = ramp pairing + affine part, on points inside the ball
    X = ball_grid(d, R, args.grid, mode="low-discrepancy").points
    residual = float(np.max(np.abs(mu.evaluate(X) - ramp_integral_grid(density, X) - fit_affine(density)(X))))
    ok = norm <= bound + tols.bound_slack
    report = {
        "norm": norm,
        "C_f": c_f,
        "C_tilde": c_tilde,
        "bound_2RCf": bound,
        "bound_ok": ok,
        "R": R,
        "d": d,
        "residual_affine": residual,
        "second_moment_check": spectral_second_moment(mu),
    }
    report.update(_meta(args, None, tols, started))
    _write_report(args.out, report)
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_approximate(args) -> int:
    started = time.perf_counter()
    tols = DEFAULTS.apply_overrides(_parse_overrides(args.tol_override))
    d, terms = load_spectrum(args.spectrum)
    mu = from_cosine_sum(d, terms)
    R = args.R
    try:
        n_list = sorted({int(x) for x in args.n.split(",")})
    except ValueError:
        raise InvalidInputError(f"--n must be a width or comma-separated widths, not {args.n!r}") from None
    # the emitted network: the first best seeded trial at the largest width
    reports, norm, net, emitted_error = error_decay_experiment(
        mu, R, n_list, args.trials, args.seed, args.grid, args.convention
    )
    if args.out:
        save_network(args.out, net)
    if args.csv:
        write_decay_csv(args.csv, reports)
    if args.convention == "prop2":
        net.check_convention(norm=norm)
        passed = True  # constraint satisfaction is the checkable claim here
    else:
        passed = all(r.min_error <= r.bound + tols.bound_slack for r in reports)
    report = {
        "convention": args.convention,
        "norm": norm,
        "kappa": net.kappa,
        "widths": n_list,
        "bounds": [r.bound for r in reports],
        "mean_errors": [r.mean_error for r in reports],
        "min_errors": [r.min_error for r in reports],
        "max_errors": [r.max_error for r in reports],
        "emitted_width": net.n,
        "emitted_sup_error": emitted_error,
        "passed": passed,
    }
    report.update(_meta(args, args.seed, tols, started))
    _write_report(args.report, report)
    return EXIT_PASS if passed else EXIT_FAIL


def cmd_verify_null(args) -> int:
    started = time.perf_counter()
    tols = DEFAULTS.apply_overrides(_parse_overrides(args.tol_override))
    term = load_null_term(args.term)
    xs = ball_grid(term.d, term.R, args.grid, seed=args.seed, mode="uniform" if args.seed is not None else "low-discrepancy")
    result = verify_null(term, xs, tolerance=tols.null_tol)
    report = {
        "term": {"k": term.k, "j": term.j, "kprime": term.kprime, "coeff": term.coeff, "d": term.d, "R": term.R},
        "points": result.points,
        "max_ramp_integral": result.max_ramp_integral,
        "tolerance": result.tolerance,
        "verdict": "pass" if result.verdict else "fail",
    }
    report.update(_meta(args, args.seed, tols, started))
    _write_report(args.out, report)
    return EXIT_PASS if result.verdict else EXIT_FAIL


def cmd_modeconnect(args) -> int:
    started = time.perf_counter()
    tols = DEFAULTS.apply_overrides(_parse_overrides(args.tol_override))
    base = load_network(args.network)
    term = load_null_term(args.term)
    grid = ball_grid(term.d, term.R, args.grid, mode="low-discrepancy")
    result = mode_connect_perturb(base, term, args.n, args.s, grid)
    passed = (
        result.functional_change <= abs(args.s) * tols.modeconnect_func_tol + 1e-15
        and (args.s == 0 or result.coefficient_mass >= tols.modeconnect_mass_min)
    )
    report = {
        "scale": result.scale,
        "added_neurons": result.added_neurons,
        "functional_change": result.functional_change,
        "displacement": result.displacement,
        "coefficient_mass": result.coefficient_mass,
        "grid_size": result.grid_size,
        "passed": passed,
    }
    report.update(_meta(args, None, tols, started))
    _write_report(args.out, report)
    return EXIT_PASS if passed else EXIT_FAIL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every ``main`` call."""
    parser = argparse.ArgumentParser(prog="radonlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol-override", action="append", metavar="k=v", help="override a calibration constant")
        p.add_argument("--out", help="report output path (default: stdout)")

    p = sub.add_parser("norm", help="ball representation norm and Fourier bounds")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--grid", type=int, default=200)
    common(p)
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("approximate", help="sampled finite-width approximants")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--n", required=True, help="width or comma-separated width ladder")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--grid", type=int, default=500)
    p.add_argument("--convention", choices=["thm2", "prop2"], default="thm2")
    p.add_argument("--csv", help="decay curve CSV path")
    p.add_argument("--out", help="network JSON path")
    p.add_argument("--report", help="JSON report path (default: stdout)")
    p.add_argument("--tol-override", action="append", metavar="k=v", help="override a calibration constant")
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("verify-null", help="check a harmonic term represents zero")
    p.add_argument("--term", required=True)
    p.add_argument("--grid", type=int, default=100)
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=cmd_verify_null)

    p = sub.add_parser("modeconnect", help="perturb a network by a null direction")
    p.add_argument("--network", required=True)
    p.add_argument("--term", required=True)
    p.add_argument("--n", type=int, default=2000)
    p.add_argument("--s", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=500)
    common(p)
    p.set_defaults(func=cmd_modeconnect)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except RadonlabError as exc:
        print(f"radonlab: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"radonlab: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
