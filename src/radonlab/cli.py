"""Command-line front end: reproducible experiments with JSON/CSV reports.

Subcommands
    norm         spectrum.json -> norm_report.json
    approximate  spectrum.json -> network.json + decay.csv
    verify-null  term.json -> null verification report
    modeconnect  network.json + term.json -> perturbation report

Each ``cmd_*`` returns its report and verdict; ``main`` alone applies the
overrides, adds the config echo, seed, version and wall time, writes the
report and maps the outcome to the exit code: 0 pass, 1 assertion fail,
2 parse error, 3 invariant violation, 4 domain error.  Reruns with identical
config are byte-identical except for the wall-time field.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .config import DEFAULTS
from .errors import CLI_ERRORS, EXIT_FAIL, EXIT_PASS, DomainError, InvalidInputError, exit_code_for
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


def cmd_norm(args, tols) -> tuple[dict, bool]:
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
    X = ball_grid(d, R, args.grid).points
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
    return report, ok


def cmd_approximate(args, tols) -> tuple[dict, bool]:
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
    return report, passed


def cmd_verify_null(args, tols) -> tuple[dict, bool]:
    term = load_null_term(args.term)
    xs = ball_grid(term.d, term.R, args.grid, seed=args.seed)
    result = verify_null(term, xs, tolerance=tols.null_tol)
    return {**dataclasses.asdict(result), "verdict": "pass" if result.verdict else "fail"}, result.verdict


def cmd_modeconnect(args, tols) -> tuple[dict, bool]:
    base = load_network(args.network)
    term = load_null_term(args.term)
    grid = ball_grid(term.d, term.R, args.grid)
    if base.d != term.d:
        raise InvalidInputError("network and term dimensions differ")
    result = mode_connect_perturb(term, args.n, args.s, grid)
    passed = result.functional_change <= tols.modeconnect_func_tol * result.displacement and (
        args.s == 0 or result.coefficient_mass >= tols.modeconnect_mass_min
    )
    return {**dataclasses.asdict(result), "passed": passed}, passed


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and reused by every ``main`` call."""
    parser = argparse.ArgumentParser(prog="radonlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out="report output path (default: stdout)"):
        p.add_argument("--tol-override", action="append", metavar="k=v", help="override a calibration constant")
        p.add_argument("--out", help=out)

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
    p.add_argument("--report", help="JSON report path (default: stdout)")
    common(p, out="network JSON path")
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
        started = time.perf_counter()
        tols = DEFAULTS.apply_overrides(args.tol_override)
        report, passed = args.func(args, tols)
        report.update(
            config={k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None},
            seed=getattr(args, "seed", None),
            version=__version__,
            tol_overrides=tols.overrides,
            wall_time_s=round(time.perf_counter() - started, 6),
        )
        text = json.dumps(report, indent=2, sort_keys=True) + "\n"
        path = args.report if args.command == "approximate" else args.out
        if path is None:
            sys.stdout.write(text)
        else:
            with open(path, "w") as fh:
                fh.write(text)
    except CLI_ERRORS as exc:
        print(f"radonlab: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    return EXIT_PASS if passed else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
