"""Command-line behavior: reports, exit codes, determinism, file outputs."""

from __future__ import annotations

import dataclasses
import inspect
import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import radonlab as rl
from radonlab import cli
from radonlab.cli import main
from radonlab.errors import (
    EXIT_DOMAIN,
    EXIT_FAIL,
    EXIT_INVARIANT,
    EXIT_PARSE,
    EXIT_PASS,
    InconsistentMeasureError,
    PreconditionError,
    exit_code_for,
)

from conftest import abs_cos_integral


@pytest.fixture
def spectrum_path(tmp_path):
    path = tmp_path / "spectrum.json"
    rl.save_spectrum(path, 1, [(1.0, [1.0]), (-1.0, [1.01])])
    return path


@pytest.fixture
def spectrum2_path(tmp_path):
    path = tmp_path / "spectrum2.json"
    rl.save_spectrum(path, 2, [(1.0, [1.0, 0.5]), (0.5, [-0.3, 1.2])])
    return path


@pytest.fixture
def term_path(tmp_path):
    path = tmp_path / "term.json"
    rl.save_null_term(path, rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=2, R=1.0))
    return path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_wall_time(path):
    return [line for line in open(path) if "wall_time" not in line]


def test_norm_report_contents(tmp_path, spectrum_path):
    out = tmp_path / "norm_report.json"
    code = main(["norm", "--spectrum", str(spectrum_path), "--R", "1", "--out", str(out)])
    assert code == EXIT_PASS
    report = read_json(out)
    assert report["C_f"] == pytest.approx(2.0201, abs=1e-12)
    assert report["C_tilde"] == pytest.approx(2.0201, abs=1e-12)
    assert report["bound_2RCf"] == pytest.approx(4.0402, abs=1e-12)
    assert report["bound_ok"] is True
    assert report["norm"] == pytest.approx(0.0276583565, abs=1e-8)
    assert report["residual_affine"] <= 1e-10
    assert report["d"] == 1 and report["R"] == 1.0
    assert report["version"] == rl.__version__
    assert "config" in report and report["config"]["command"] == "norm"
    assert "wall_time_s" in report


def test_norm_empty_spectrum(tmp_path):
    path = tmp_path / "empty.json"
    rl.save_spectrum(path, 1, [])
    out = tmp_path / "report.json"
    assert main(["norm", "--spectrum", str(path), "--R", "1", "--out", str(out)]) == EXIT_PASS
    report = read_json(out)
    assert report["norm"] == 0.0 and report["bound_2RCf"] == 0.0
    assert report["residual_affine"] == 0.0
    # the grid is refused whether or not there are terms to check on it
    assert main(["norm", "--spectrum", str(path), "--R", "1", "--grid", "0"]) == EXIT_PARSE


def run_cli(*args):
    """The CLI in a child process, so that a run that never ends fails the test instead of stalling it."""
    src = str(Path(rl.__file__).parents[1])
    return subprocess.run([sys.executable, "-m", "radonlab.cli", *map(str, args)], cwd=src, timeout=120)


def cos_norm(t, R):
    """The norm of cos(t x) on (-R, R) in d=1: the integral of |t^2 cos(t b)| over (-R, R)."""
    half_periods, rest = divmod(t * R, math.pi)
    last = math.sin(rest) if rest <= math.pi / 2 else 2.0 - math.sin(rest)
    return 2.0 * t * (2.0 * half_periods + last)


@pytest.fixture
def slow_cos_path(tmp_path):
    path = tmp_path / "slow_cos.json"
    rl.save_spectrum(path, 1, [(1.0, [0.001])])
    return path


@pytest.mark.parametrize("R", [12000.0, 1e5])
def test_norm_ends_with_roots_beyond_8192(tmp_path, slow_cos_path, R):
    # cos(0.001x) has a root at 10996 within R = 12000, where one ulp (1.8e-12)
    # is wider than 1e-12: a bisection to that absolute width never ends there
    out = tmp_path / "report.json"
    assert run_cli("norm", "--spectrum", slow_cos_path, "--R", R, "--out", out).returncode == EXIT_PASS
    assert read_json(out)["norm"] == pytest.approx(cos_norm(0.001, R), rel=1e-12, abs=0)


def test_approximate_ends_with_roots_beyond_8192(tmp_path, slow_cos_path):
    args = ["--n", "16,64", "--trials", "3", "--seed", "1", "--report", tmp_path / "report.json"]
    assert run_cli("approximate", "--spectrum", slow_cos_path, "--R", "1e5", *args).returncode == EXIT_PASS


def test_norm_byte_identical_reruns(tmp_path, spectrum_path):
    out = tmp_path / "report.json"
    main(["norm", "--spectrum", str(spectrum_path), "--R", "1", "--out", str(out)])
    first = strip_wall_time(out)
    main(["norm", "--spectrum", str(spectrum_path), "--R", "1", "--out", str(out)])
    assert strip_wall_time(out) == first


def test_parser_reused_across_calls_keeps_no_state(tmp_path, spectrum_path):
    # one parser serves every main call of a process: neither an earlier
    # override nor a parse error may reach a later report
    out = tmp_path / "report.json"
    norm = ["norm", "--spectrum", str(spectrum_path), "--R", "1", "--out", str(out)]
    assert main([*norm, "--tol-override", "bound_slack=1e-9"]) == EXIT_PASS
    assert main(["norm", "--spectrum", str(spectrum_path), "--R", "not-a-number"]) == EXIT_PARSE
    assert main([*norm, "--tol-override", "null_tol=1e-7"]) == EXIT_PASS
    assert cli.build_parser() is cli.build_parser()
    report = strip_wall_time(out)
    assert read_json(out)["tol_overrides"] == {"null_tol": 1e-7}
    src = str(Path(rl.__file__).parents[1])
    subprocess.run([sys.executable, "-m", "radonlab.cli", *norm, "--tol-override", "null_tol=1e-7"], check=True, cwd=src)
    assert strip_wall_time(out) == report


def test_norm_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["norm", "--spectrum", str(bad), "--R", "1"]) == EXIT_PARSE
    missing_key = tmp_path / "missing.json"
    missing_key.write_text('{"terms": []}')
    assert main(["norm", "--spectrum", str(missing_key), "--R", "1"]) == EXIT_PARSE


def test_approximate_outputs_and_exit(tmp_path, spectrum_path):
    net_path = tmp_path / "network.json"
    csv_path = tmp_path / "decay.csv"
    report_path = tmp_path / "report.json"
    code = main([
        "approximate", "--spectrum", str(spectrum_path), "--R", "1",
        "--n", "16,64,256", "--trials", "10", "--seed", "1",
        "--out", str(net_path), "--csv", str(csv_path), "--report", str(report_path),
    ])
    assert code == EXIT_PASS
    net = rl.load_network(net_path)
    assert net.convention == "thm2" and net.n == 256
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "n,bound,mean_err,min_err,max_err"
    assert len(lines) == 4
    report = read_json(report_path)
    assert report["passed"] is True
    assert report["widths"] == [16, 64, 256]
    assert all(m <= b for m, b in zip(report["min_errors"], report["bounds"]))


def test_approximate_byte_identical_reruns(tmp_path, spectrum_path):
    args = [
        "approximate", "--spectrum", str(spectrum_path), "--R", "1",
        "--n", "16,64", "--trials", "5", "--seed", "7",
        "--out", str(tmp_path / "net.json"), "--csv", str(tmp_path / "decay.csv"),
        "--report", str(tmp_path / "report.json"),
    ]
    main(args)
    first_report = strip_wall_time(tmp_path / "report.json")
    first_net = (tmp_path / "net.json").read_bytes()
    first_csv = (tmp_path / "decay.csv").read_bytes()
    main(args)
    assert strip_wall_time(tmp_path / "report.json") == first_report
    assert (tmp_path / "net.json").read_bytes() == first_net
    assert (tmp_path / "decay.csv").read_bytes() == first_csv


def test_approximate_single_width(tmp_path, spectrum_path):
    code = main([
        "approximate", "--spectrum", str(spectrum_path), "--R", "1",
        "--n", "1", "--trials", "5", "--seed", "3",
        "--report", str(tmp_path / "r.json"),
    ])
    assert code == EXIT_PASS  # bound is very loose at n=1


def test_approximate_prop2_constraints(tmp_path, spectrum2_path):
    net_path = tmp_path / "net.json"
    code = main([
        "approximate", "--spectrum", str(spectrum2_path), "--R", "1",
        "--n", "64", "--trials", "5", "--seed", "2", "--convention", "prop2",
        "--out", str(net_path), "--report", str(tmp_path / "r.json"),
    ])
    assert code == EXIT_PASS
    net = rl.load_network(net_path)
    assert net.convention == "prop2"
    assert np.all(np.abs(net.omegas).sum(axis=1) == 1.0)
    assert np.all((net.b >= 0) & (net.b <= 1))


def test_approximate_prop2_in_d3(tmp_path):
    # the largest coordinate rewritten alone left this direction's row summing to 1 + 2^-52
    path = tmp_path / "spectrum.json"
    path.write_text('{"d": 3, "terms": [{"amplitude": 1.0, "xi": [0.412, 1.043, -0.129]}]}')
    net_path = tmp_path / "net.json"
    code = main([
        "approximate", "--spectrum", str(path), "--R", "1",
        "--n", "16,64", "--trials", "3", "--seed", "1", "--convention", "prop2",
        "--out", str(net_path), "--report", str(tmp_path / "r.json"),
    ])
    assert code == EXIT_PASS
    net = rl.load_network(net_path)
    assert np.all(np.abs(net.omegas).sum(axis=1) == 1.0)


@pytest.mark.parametrize("d", [9, 32])
def test_norm_and_approximate_past_nine_dimensions(tmp_path, d):
    # the Halton grid of d > 3 takes d + 1 prime bases; nine were listed
    xi = np.zeros(d)
    xi[[0, 1, 2, -1]] = [0.412, 1.043, -0.129, 0.7]
    path = tmp_path / "spectrum.json"
    rl.save_spectrum(path, d, [(-1.5, xi)])
    out = tmp_path / "norm.json"
    assert main(["norm", "--spectrum", str(path), "--R", "1.5", "--out", str(out)]) == EXIT_PASS
    report = read_json(out)
    t = float(np.linalg.norm(xi))
    assert report["norm"] == pytest.approx(1.5 * t * abs_cos_integral(1.5 * t), rel=1e-12)
    assert report["residual_affine"] <= 1e-12
    code = main([
        "approximate", "--spectrum", str(path), "--R", "1",
        "--n", "16,64", "--trials", "2", "--seed", "1", "--report", str(tmp_path / "r.json"),
    ])
    assert code == EXIT_PASS


def test_approximate_prop2_radius_domain_error(tmp_path, spectrum_path):
    code = main([
        "approximate", "--spectrum", str(spectrum_path), "--R", "1.5",
        "--n", "16", "--trials", "2", "--seed", "1", "--convention", "prop2",
    ])
    assert code == EXIT_DOMAIN


def test_verify_null_pass_and_fail(tmp_path, term_path):
    out = tmp_path / "verdict.json"
    assert main(["verify-null", "--term", str(term_path), "--out", str(out)]) == EXIT_PASS
    report = read_json(out)
    assert report["verdict"] == "pass"
    assert report["max_ramp_integral"] <= 1e-8
    # impossible tolerance forces an assertion failure (exit 1)
    code = main([
        "verify-null", "--term", str(term_path), "--out", str(out),
        "--tol-override", "null_tol=1e-30",
    ])
    assert code == EXIT_FAIL
    assert read_json(out)["tol_overrides"] == {"null_tol": 1e-30}


def test_verify_null_threshold_term_rejected(tmp_path, capsys):
    edge = tmp_path / "edge.json"
    rl.save_null_term(edge, rl.HarmonicNullTerm(k=4, j=1, kprime=2, coeff=1.0, d=2, R=1.0))
    assert main(["verify-null", "--term", str(edge)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == "radonlab: term is outside the null set (needs k' < k - 2)\n"


@pytest.mark.parametrize("d", [1, 4])
def test_verify_null_refuses_a_term_outside_two_and_three_dimensions(tmp_path, capsys, term_path, d):
    # d=4 exited 4 from the sphere rule, pointing to a Monte Carlo path that null terms do not have
    term = read_json(term_path)
    term["d"] = d
    path = tmp_path / "bad-term.json"
    path.write_text(json.dumps(term))
    out = tmp_path / "report.json"
    assert main(["verify-null", "--term", str(path), "--out", str(out)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == f"radonlab: null terms are supported in d = 2 and d = 3, not d = {d}\n"
    assert not out.exists()


@pytest.mark.parametrize("grid", ["0", "-1"])
@pytest.mark.parametrize("command", ["norm", "approximate", "verify-null"])
def test_commands_refuse_a_grid_without_points(tmp_path, capsys, spectrum_path, term_path, command, grid):
    # norm raised the grid to d + 2 points and exited 0
    out = tmp_path / "report.json"
    if command == "verify-null":
        argv = [command, "--term", str(term_path), "--out", str(out)]
    else:
        argv = [command, "--spectrum", str(spectrum_path), "--R", "1"]
        argv += ["--out", str(out)] if command == "norm" else ["--n", "16", "--seed", "1", "--report", str(out)]
    assert main([*argv, f"--grid={grid}"]) == EXIT_PARSE
    assert capsys.readouterr().err == "radonlab: need at least one grid point\n"
    assert not out.exists()


def test_verify_null_high_degree_d2_passes(tmp_path):
    # k + k' + 2 = 102: the circle rule must grow past 64 nodes
    term = tmp_path / "k60.json"
    rl.save_null_term(term, rl.HarmonicNullTerm(k=60, j=1, kprime=40, coeff=1.0, d=2, R=1.0))
    out = tmp_path / "verdict.json"
    assert main(["verify-null", "--term", str(term), "--grid", "400", "--out", str(out)]) == EXIT_PASS
    assert read_json(out)["verdict"] == "pass"


def save_random_d3_network(path):
    rng = np.random.default_rng(9)
    omegas = rng.normal(size=(32, 3))
    omegas /= np.linalg.norm(omegas, axis=1)[:, None]
    rl.save_network(path, rl.TwoLayerNet(3, np.ones(32), omegas, rng.uniform(-1, 1, 32), 2.0, np.zeros(3), 0.0))


def test_modeconnect_d3_high_degree_term(tmp_path):
    net_path, term_path, out = tmp_path / "net.json", tmp_path / "term.json", tmp_path / "mc.json"
    save_random_d3_network(net_path)
    rl.save_null_term(term_path, rl.HarmonicNullTerm(k=9, j=2, kprime=5, coeff=1.5, d=3, R=1.0))
    code = main(["modeconnect", "--network", str(net_path), "--term", str(term_path), "--n", "3000", "--out", str(out)])
    assert code == EXIT_PASS
    assert read_json(out)["functional_change"] <= 1e-3


def test_modeconnect_d3_term_of_top_azimuthal_order(tmp_path):
    # j = 1 has azimuthal order k = 9: a sphere factor m = 9 put every node on its zeros
    net_path, term_path, out = tmp_path / "net.json", tmp_path / "term.json", tmp_path / "mc.json"
    save_random_d3_network(net_path)
    rl.save_null_term(term_path, rl.HarmonicNullTerm(k=9, j=1, kprime=5, coeff=1.5, d=3, R=1.0))
    code = main(["modeconnect", "--network", str(net_path), "--term", str(term_path), "--n", "3000", "--out", str(out)])
    assert code == EXIT_PASS
    assert read_json(out)["coefficient_mass"] >= 0.5


@pytest.mark.parametrize("command", ["verify-null", "modeconnect"])
def test_d3_term_above_the_degree_cap_is_a_domain_error(tmp_path, capsys, command):
    # a valid term exited 2, as if the file were malformed
    net_path, term_path, out = tmp_path / "net.json", tmp_path / "term.json", tmp_path / "report.json"
    save_random_d3_network(net_path)
    rl.save_null_term(term_path, rl.HarmonicNullTerm(k=14, j=1, kprime=0, coeff=1.0, d=3, R=1.0))
    argv = [command, "--term", str(term_path), "--out", str(out)]
    assert main(argv + (["--network", str(net_path)] if command == "modeconnect" else [])) == EXIT_DOMAIN
    assert capsys.readouterr().err == "radonlab: d=3 harmonics capped at degree 12\n"
    assert not out.exists()


def test_modeconnect_flow(tmp_path, spectrum2_path, term_path):
    net_path = tmp_path / "net.json"
    main([
        "approximate", "--spectrum", str(spectrum2_path), "--R", "1",
        "--n", "128", "--trials", "3", "--seed", "5",
        "--out", str(net_path), "--report", str(tmp_path / "r.json"),
    ])
    out = tmp_path / "mc.json"
    code = main([
        "modeconnect", "--network", str(net_path), "--term", str(term_path),
        "--n", "2000", "--s", "1.0", "--out", str(out),
    ])
    assert code == EXIT_PASS
    report = read_json(out)
    assert report["functional_change"] <= 1e-3
    assert report["coefficient_mass"] >= 0.5
    assert report["added_neurons"] >= 1000
    # s = 0: no functional change, no displacement
    code = main([
        "modeconnect", "--network", str(net_path), "--term", str(term_path),
        "--n", "2000", "--s", "0", "--out", str(out),
    ])
    assert code == EXIT_PASS
    report = read_json(out)
    assert report["functional_change"] == 0.0 and report["displacement"] == 0.0


def test_exit_code_mapping_table():
    assert exit_code_for(PreconditionError("x")) == EXIT_DOMAIN
    assert exit_code_for(InconsistentMeasureError("x")) == EXIT_INVARIANT
    assert exit_code_for(rl.InvalidInputError("x")) == EXIT_PARSE
    assert exit_code_for(ValueError("x")) == EXIT_PARSE
    assert exit_code_for(RuntimeError("x")) == EXIT_FAIL


def test_invariant_violation_exit_path(tmp_path, monkeypatch, spectrum_path):
    # a symmetry-broken measure cannot be written through the cosine schema,
    # so exercise the invariant branch by intercepting validation
    def boom(self):
        raise InconsistentMeasureError("forced")

    monkeypatch.setattr(rl.SpectralMeasure, "validate", boom)
    code = main(["norm", "--spectrum", str(spectrum_path), "--R", "1"])
    assert code == EXIT_INVARIANT


# the five deleted knobs were accepted and echoed, and changed nothing
@pytest.mark.parametrize(
    "key",
    ["definitely_not_a_knob", "symmetry_tol", "affine_residual_tol", "witness_min", "mean_error_slack", "decay_slope_max"],
)
def test_unknown_tol_override_is_parse_error(tmp_path, spectrum_path, key):
    code = main([
        "norm", "--spectrum", str(spectrum_path), "--R", "1",
        "--tol-override", f"{key}=1",
    ])
    assert code == EXIT_PARSE


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, key", [("norm", "bound_slack"), ("verify-null", "null_tol")])
def test_non_finite_tol_override_is_parse_error(tmp_path, capsys, spectrum_path, term_path, command, key, value):
    # null_tol=nan exited 1 and null_tol=inf passed every term, each writing NaN or Infinity into the report
    out = tmp_path / "report.json"
    source = ["--term", str(term_path)] if command == "verify-null" else ["--spectrum", str(spectrum_path), "--R", "1"]
    assert main([command, *source, "--out", str(out), "--tol-override", f"{key}={value}"]) == EXIT_PARSE
    assert capsys.readouterr().err == f"radonlab: tolerance override {key} must be finite, not {float(value)}\n"
    assert not out.exists()


def test_every_calibration_constant_is_read_by_the_cli():
    source = inspect.getsource(cli)
    names = [f.name for f in dataclasses.fields(rl.CalibrationConstants) if f.name != "overrides"]
    assert names
    for name in names:
        assert f"tols.{name}" in source, f"--tol-override {name} would change nothing"


@pytest.mark.parametrize("d, xi", [(2, [60.0, 80.0]), (1, [1000.0])])
def test_norm_affine_residual_at_high_frequency(tmp_path, d, xi):
    path = tmp_path / "spectrum.json"
    rl.save_spectrum(path, d, [(1.0, xi)])
    out = tmp_path / "report.json"
    main(["norm", "--spectrum", str(path), "--R", "1", "--out", str(out)])
    assert read_json(out)["residual_affine"] <= 1e-6


@pytest.mark.parametrize("amplitude", ["NaN", "Infinity", "-Infinity"])
def test_norm_rejects_non_finite_amplitude(tmp_path, capsys, amplitude):
    path = tmp_path / "spectrum.json"
    path.write_text('{"d": 1, "terms": [{"amplitude": %s, "xi": [2.0]}]}' % amplitude)
    out = tmp_path / "report.json"
    assert main(["norm", "--spectrum", str(path), "--R", "1", "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("radonlab: non-finite amplitude")
    assert not out.exists()


@pytest.mark.parametrize("d", [0, -2])
def test_norm_rejects_non_positive_dimension(tmp_path, capsys, d):
    path = tmp_path / "spectrum.json"
    path.write_text('{"d": %d, "terms": []}' % d)
    assert main(["norm", "--spectrum", str(path), "--R", "1", "--out", str(tmp_path / "r.json")]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"radonlab: spectrum dimension d={d}")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_approximate_rejects_non_positive_trials(tmp_path, capsys, spectrum_path, trials):
    code = main([
        "approximate", "--spectrum", str(spectrum_path), "--R", "1",
        "--n", "16", "--trials", trials, "--seed", "1", "--report", str(tmp_path / "r.json"),
    ])
    assert code == EXIT_PARSE
    assert capsys.readouterr().err.startswith("radonlab: need at least one trial")


@pytest.mark.parametrize("convention, R", [("thm2", "1"), ("prop2", "0.8")])
def test_approximate_emitted_error_is_last_min_error(tmp_path, spectrum2_path, convention, R):
    report_path, net_path = tmp_path / "report.json", tmp_path / "net.json"
    code = main([
        "approximate", "--spectrum", str(spectrum2_path), "--R", R, "--n", "16,64,512",
        "--trials", "6", "--seed", "3", "--convention", convention, "--report", str(report_path),
        "--out", str(net_path),
    ])
    assert code == EXIT_PASS
    report = read_json(report_path)
    assert report["emitted_sup_error"] == report["min_errors"][-1]
    # the ladder's own score is the emitted network's sup error on the default grid, to the bit
    mu = rl.from_cosine_sum(*rl.load_spectrum(spectrum2_path))
    grid = rl.ball_grid(2, float(R), 500, mode="low-discrepancy")
    assert report["emitted_sup_error"] == rl.sup_error(rl.load_network(net_path), mu, grid)


def test_norm_refuses_unbounded_root_scan(tmp_path, capsys):
    # |xi| R = 1e8 would ask for a root scan of about 1e9 points
    path = tmp_path / "spectrum.json"
    rl.save_spectrum(path, 1, [(1.0, [1e8])])
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        code = main(["norm", "--spectrum", str(path), "--R", "1", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("radonlab: frequency too high for the ball: |xi| * R = 1e+08")
    assert peak < 16 * 2**20
    assert not out.exists()


def test_import_cli_leaves_scipy_special_unloaded():
    # scipy.special is most of the import time and only the d=3 harmonics
    # and the d>3 Halton grids use it
    code = "import sys, radonlab.cli; print('scipy.special' in sys.modules)"
    src = str(Path(rl.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("convention, R", [("thm2", "1"), ("prop2", "0.8")])
def test_approximate_emits_the_redrawn_best_trial(tmp_path, spectrum2_path, convention, R):
    widths, trials, seed = [16, 64, 512], 6, 4
    net_path = tmp_path / "network.json"
    code = main([
        "approximate", "--spectrum", str(spectrum2_path), "--R", R, "--n", ",".join(map(str, widths)),
        "--trials", str(trials), "--seed", str(seed), "--convention", convention,
        "--out", str(net_path), "--report", str(tmp_path / "report.json"),
    ])
    assert code == EXIT_PASS
    mu = rl.from_cosine_sum(*rl.load_spectrum(spectrum2_path))
    reports = rl.error_decay_experiment(mu, float(R), widths, trials, seed, convention=convention)
    stream = [seed, len(widths) - 1, int(np.argmin(reports[-1].errors))]
    density = rl.density_from_spectrum(mu, float(R))
    affine = rl.fit_affine(density)
    if convention == "prop2":
        net = rl.l1_normalized_network(density, affine, widths[-1], stream)
    else:
        net = rl.sample_network(density, rl.tv_norm(density), affine, widths[-1], stream)
    rl.save_network(tmp_path / "redrawn.json", net)
    assert net_path.read_bytes() == (tmp_path / "redrawn.json").read_bytes()


# --- integer fields of input files -----------------------------------------------


def results_of(path):
    """A report without the echoed paths and the wall time."""
    return {k: v for k, v in read_json(path).items() if k not in ("config", "wall_time_s")}


@pytest.mark.parametrize("d", ["2.5", '"2"', "true", "null"])
def test_norm_rejects_non_integer_dimension(tmp_path, capsys, d):
    path = tmp_path / "spectrum.json"
    path.write_text('{"d": %s, "terms": [{"amplitude": 1.0, "xi": [1.0, 2.0]}]}' % d)
    out = tmp_path / "report.json"
    assert main(["norm", "--spectrum", str(path), "--R", "1", "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("radonlab: malformed spectrum file: 'd' must be an integer")
    assert not out.exists()


def test_norm_accepts_an_integral_float_dimension(tmp_path, spectrum2_path):
    path = tmp_path / "spectrum.json"
    path.write_text(spectrum2_path.read_text().replace('"d": 2', '"d": 2.0'))
    assert '"d": 2.0' in path.read_text()
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for spec, out in zip((spectrum2_path, path), outs):
        assert main(["norm", "--spectrum", str(spec), "--R", "1", "--out", str(out)]) == EXIT_PASS
    assert results_of(outs[0]) == results_of(outs[1])


@pytest.mark.parametrize("field", ["k", "j", "kprime", "d"])
@pytest.mark.parametrize("value", ["6.7", '"2"', "true"])
def test_verify_null_rejects_non_integer_fields(tmp_path, capsys, term_path, field, value):
    term = read_json(term_path)
    term[field] = json.loads(value)
    path = tmp_path / "bad-term.json"
    path.write_text(json.dumps(term))
    out = tmp_path / "report.json"
    assert main(["verify-null", "--term", str(path), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"radonlab: malformed null-term file: {field!r} must be an integer")
    assert not out.exists()


def test_verify_null_rejects_truncatable_indices(tmp_path, capsys):
    # read as int(), k=6.7, j=1.9, kprime=2.2 ran as (6, 1, 2) and passed
    path = tmp_path / "term.json"
    path.write_text('{"k": 6.7, "j": 1.9, "kprime": 2.2, "coeff": 1.0, "d": 2, "R": 1.0}')
    assert main(["verify-null", "--term", str(path), "--out", str(tmp_path / "r.json")]) == EXIT_PARSE
    assert "'k' must be an integer, not 6.7" in capsys.readouterr().err


def test_verify_null_accepts_integral_float_fields(tmp_path, term_path):
    term = {key: float(v) if key in ("k", "j", "kprime", "d") else v for key, v in read_json(term_path).items()}
    path = tmp_path / "float-term.json"
    path.write_text(json.dumps(term))
    outs = [tmp_path / "a.json", tmp_path / "b.json"]
    for spec, out in zip((term_path, path), outs):
        assert main(["verify-null", "--term", str(spec), "--out", str(out)]) == EXIT_PASS
    assert results_of(outs[0]) == results_of(outs[1])


@pytest.mark.parametrize("d", ["2.5", '"2"', "true"])
def test_modeconnect_rejects_non_integer_network_dimension(tmp_path, capsys, term_path, d):
    path = tmp_path / "net.json"
    path.write_text(
        '{"d": %s, "neurons": [{"a": 1.0, "omega": [1.0, 0.0], "b": 0.0}], "kappa": 1.0, '
        '"v": [0.0, 0.0], "c": 0.0, "convention": "thm2"}' % d
    )
    out = tmp_path / "mc.json"
    assert main(["modeconnect", "--network", str(path), "--term", str(term_path), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("radonlab: malformed network file: 'd' must be an integer")
    assert not out.exists()
    path.write_text(path.read_text().replace('"d": %s' % d, '"d": 2.0'))
    assert rl.load_network(path).d == 2


@pytest.mark.parametrize("field", ["coeff", "R"])
def test_verify_null_names_a_non_numeric_field(tmp_path, capsys, term_path, field):
    # float() used to raise through: "radonlab: could not convert string to float: 'abc'"
    term = read_json(term_path)
    term[field] = "abc"
    path = tmp_path / "bad-term.json"
    path.write_text(json.dumps(term))
    out = tmp_path / "report.json"
    assert main(["verify-null", "--term", str(path), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"radonlab: malformed null-term file: {field!r} must be a number: could not convert string to float: 'abc'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("kappa", '"x"', "malformed network file: 'kappa' must be a number: could not convert string to float: 'x'"),
        ("c", "null", "malformed network file: 'c' must be a number: float() argument must be a string or a real number, not 'NoneType'"),
        ("a", '"x"', "malformed network file: 'a' must be numbers: could not convert string to float: 'x'"),
        ("b", '{"x": 1}', "malformed network file: 'b' must be numbers: float() argument must be a string or a real number, not 'dict'"),
        ("omega", '[1.0, "x"]', "malformed network file: 'omega' must be numbers: could not convert string to float: 'x'"),
        ("v", '["x", 0.0]', "malformed network file: 'v' must be numbers: could not convert string to float: 'x'"),
        # the field converts, and the network refuses its shape
        ("v", "[[0.0, 0.0]]", "affine part v of shape (1, 2) does not match d=2"),
        ("omega", "[1.0, 0.0, 0.5]", "neuron directions omega of shape (1, 3) do not form an n x d = 1 x 2 array"),
    ],
)
def test_modeconnect_refuses_a_malformed_network_field(tmp_path, capsys, term_path, field, value, message):
    net = {"d": 2, "neurons": [{"a": 1.0, "omega": [1.0, 0.0], "b": 0.0}], "kappa": 1.0, "v": [0.0, 0.0], "c": 0.0}
    (net["neurons"][0] if field in ("a", "b", "omega") else net)[field] = json.loads(value)
    path = tmp_path / "net.json"
    path.write_text(json.dumps({**net, "convention": "thm2"}))
    out = tmp_path / "mc.json"
    assert main(["modeconnect", "--network", str(path), "--term", str(term_path), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"radonlab: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("d", [0, -1])
def test_modeconnect_refuses_a_non_positive_network_dimension(tmp_path, capsys, term_path, d):
    # the empty network with d=-1 exited 2 with numpy's "cannot reshape array of
    # size 0 into shape (0,newaxis)"; with d=0 it loaded
    path = tmp_path / "net.json"
    path.write_text(json.dumps({"d": d, "neurons": [], "kappa": 1.0, "v": [], "c": 0.0, "convention": "thm2"}))
    out = tmp_path / "mc.json"
    assert main(["modeconnect", "--network", str(path), "--term", str(term_path), "--out", str(out)]) == EXIT_PARSE
    message = f"neuron directions omega of shape (0,) do not form an n x d = 0 x {d} array"
    assert capsys.readouterr().err == f"radonlab: {message}\n"
    assert not out.exists()


# --- non-finite values -----------------------------------------------------------


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("coeff", "nan", "null term coefficient coeff must be finite, not nan"),
        ("coeff", "inf", "null term coefficient coeff must be finite, not inf"),
        ("R", "nan", "ball radius R must be finite, not nan"),
        ("R", "inf", "ball radius R must be finite, not inf"),
    ],
)
def test_verify_null_refuses_a_non_finite_term(tmp_path, capsys, term_path, field, value, message):
    # NaN exited 1 with a NaN report, and an infinite R exited 4 after a numpy warning
    term = read_json(term_path)
    term[field] = float(value)  # written as NaN or Infinity
    path = tmp_path / "bad-term.json"
    path.write_text(json.dumps(term))
    out = tmp_path / "report.json"
    assert main(["verify-null", "--term", str(path), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"radonlab: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("s", ["inf", "nan", "-inf"])
def test_modeconnect_refuses_a_non_finite_scale(tmp_path, capsys, term_path, s):
    # --s inf passed: functional_change inf <= inf * 1e-3
    path = tmp_path / "net.json"
    rl.save_network(path, rl.TwoLayerNet(2, np.ones(1), np.array([[1.0, 0.0]]), np.zeros(1), 1.0, np.zeros(2), 0.0))
    out = tmp_path / "mc.json"
    argv = ["modeconnect", "--network", str(path), "--term", str(term_path), f"--s={s}", "--out", str(out)]
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr().err == f"radonlab: scale s must be finite, not {float(s)}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["norm", "approximate"])
@pytest.mark.parametrize(
    "R, code, message",
    [
        ("inf", EXIT_PARSE, "radonlab: ball radius R must be finite, not inf\n"),
        ("nan", EXIT_PARSE, "radonlab: ball radius R must be finite, not nan\n"),
        # finite, but the root scan's size overflows a float
        ("1e308", EXIT_DOMAIN, "radonlab: frequency too high for the ball: |xi| * R = 1.11803e+308"),
    ],
)
def test_density_commands_refuse_an_unusable_radius(tmp_path, capsys, spectrum2_path, command, R, code, message):
    # inf and 1e308 raised OverflowError from the scan size, nan exited 2 with
    # "cannot convert float NaN to integer"
    out = tmp_path / "report.json"
    argv = [command, "--spectrum", str(spectrum2_path), f"--R={R}"]
    argv += ["--out", str(out)] if command == "norm" else ["--n", "16", "--seed", "1", "--report", str(out)]
    assert main(argv) == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("command", ["norm", "approximate"])
@pytest.mark.parametrize("terms", ["[]", '[{"amplitude": 1.0, "xi": [1.0]}]'])
def test_density_commands_refuse_a_ball_whose_diameter_overflows(tmp_path, capsys, command, terms):
    # the empty spectrum exited 1 from norm with a NaN bound_2RCf, and 2 from
    # approximate with a rank check's "grid points are not in general position"
    path = tmp_path / "spectrum.json"
    path.write_text('{"d": 1, "terms": %s}' % terms)
    out = tmp_path / "report.json"
    argv = [command, "--spectrum", str(path), "--R=1e308"]
    argv += ["--out", str(out)] if command == "norm" else ["--n", "16", "--seed", "1", "--report", str(out)]
    assert main(argv) == EXIT_DOMAIN
    assert capsys.readouterr().err.startswith("radonlab: ")
    assert not out.exists()


def test_norm_of_the_empty_spectrum_on_a_ball_whose_diameter_is_finite(tmp_path):
    path = tmp_path / "empty.json"
    rl.save_spectrum(path, 1, [])
    out = tmp_path / "report.json"
    assert main(["norm", "--spectrum", str(path), "--R=5e307", "--out", str(out)]) == EXIT_PASS
    report = read_json(out)
    assert report["bound_2RCf"] == 0.0 and report["norm"] == 0.0
