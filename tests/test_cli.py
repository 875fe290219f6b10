"""Command-line behavior: reports, exit codes, determinism, file outputs."""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import io
import json
import math
import operator
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

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

from conftest import abs_cos_integral, write_input


@pytest.fixture
def spectrum_path(tmp_path):
    path = tmp_path / "spectrum.json"
    write_input(path, 1, [(1.0, [1.0]), (-1.0, [1.01])])
    return path


@pytest.fixture
def spectrum2_path(tmp_path):
    path = tmp_path / "spectrum2.json"
    write_input(path, 2, [(1.0, [1.0, 0.5]), (0.5, [-0.3, 1.2])])
    return path


@pytest.fixture
def term_path(tmp_path):
    path = tmp_path / "term.json"
    write_input(path, rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=2, R=1.0))
    return path


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_wall_time(path):
    return [line for line in Path(path).read_text().splitlines(keepends=True) if "wall_time" not in line]


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
    write_input(path, 1, [])
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
    write_input(path, 1, [(1.0, [0.001])])
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
    for terms in ('""', "{}"):  # iterated as no terms, these ran as the empty spectrum
        wrong_type = tmp_path / "wrong-type.json"
        wrong_type.write_text(f'{{"d": 1, "terms": {terms}}}')
        assert main(["norm", "--spectrum", str(wrong_type), "--R", "1"]) == EXIT_PARSE


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
    write_input(path, d, [(-1.5, xi)])
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


@pytest.mark.parametrize("R", [10.0, 100.0, 1000.0])
def test_verify_null_judges_relative_to_the_term(tmp_path, R):
    # this null term's largest pairing is 6.4e-8 at R = 100 and 6.4e-4 at R = 1000,
    # rounding on moments of size R^(k'+2): an absolute null_tol of 1e-8 failed both
    path, out = tmp_path / "term.json", tmp_path / "verdict.json"
    write_input(path, rl.HarmonicNullTerm(k=6, j=1, kprime=2, coeff=1.0, d=2, R=R))
    assert main(["verify-null", "--term", str(path), "--out", str(out)]) == EXIT_PASS
    report = read_json(out)
    assert report["verdict"] == "pass" and report["tolerance"] == 1e-8 * R**4


def test_verify_null_refuses_a_tolerance_scale_that_overflows(tmp_path, capsys):
    path = tmp_path / "term.json"
    write_input(path, rl.HarmonicNullTerm(k=6, j=1, kprime=2, coeff=1e300, d=2, R=1000.0))
    assert main(["verify-null", "--term", str(path)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        "radonlab: the tolerance 1e-08 times the term's scale |coeff| R^(k'+2) = inf overflows a float\n"
    )


def test_verify_null_threshold_term_rejected(tmp_path, capsys):
    edge = tmp_path / "edge.json"
    write_input(edge, rl.HarmonicNullTerm(k=4, j=1, kprime=2, coeff=1.0, d=2, R=1.0))
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
    assert capsys.readouterr().err == f"radonlab: grid point count must be positive, not {grid}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "term",
    [
        # k + k' + 2 = 102: the circle rule must grow past 64 nodes
        rl.HarmonicNullTerm(k=60, j=1, kprime=40, coeff=1.0, d=2, R=1.0),
        # d=3 harmonics stopped at degree 12
        rl.HarmonicNullTerm(k=40, j=17, kprime=20, coeff=1.0, d=3, R=1.0),
    ],
)
def test_verify_null_high_degree_passes(tmp_path, term):
    path = tmp_path / "term.json"
    write_input(path, term)
    out = tmp_path / "verdict.json"
    assert main(["verify-null", "--term", str(path), "--grid", "400", "--out", str(out)]) == EXIT_PASS
    report = read_json(out)
    assert report["verdict"] == "pass" and report["max_ramp_integral"] <= 1e-12


def save_random_network(path, d=3):
    rng = np.random.default_rng(9)
    omegas = rng.normal(size=(32, d))
    omegas /= np.linalg.norm(omegas, axis=1)[:, None]
    rl.save_network(path, rl.TwoLayerNet(d, np.ones(32), omegas, rng.uniform(-1, 1, 32), 2.0, np.zeros(d), 0.0))


def test_modeconnect_d3_high_degree_term(tmp_path):
    net_path, term_path, out = tmp_path / "net.json", tmp_path / "term.json", tmp_path / "mc.json"
    save_random_network(net_path)
    write_input(term_path, rl.HarmonicNullTerm(k=9, j=2, kprime=5, coeff=1.5, d=3, R=1.0))
    code = main(["modeconnect", "--network", str(net_path), "--term", str(term_path), "--n", "3000", "--out", str(out)])
    assert code == EXIT_PASS
    assert read_json(out)["functional_change"] <= 1e-3


def test_modeconnect_refuses_a_network_of_another_dimension(tmp_path, capsys, term_path):
    net_path = tmp_path / "net.json"
    save_random_network(net_path, d=3)
    assert main(["modeconnect", "--network", str(net_path), "--term", str(term_path)]) == EXIT_PARSE
    assert capsys.readouterr().err == "radonlab: network and term dimensions differ\n"


def test_modeconnect_d3_term_of_top_azimuthal_order(tmp_path):
    # j = 1 has azimuthal order k = 9: a sphere factor m = 9 put every node on its zeros
    net_path, term_path, out = tmp_path / "net.json", tmp_path / "term.json", tmp_path / "mc.json"
    save_random_network(net_path)
    write_input(term_path, rl.HarmonicNullTerm(k=9, j=1, kprime=5, coeff=1.5, d=3, R=1.0))
    code = main(["modeconnect", "--network", str(net_path), "--term", str(term_path), "--n", "3000", "--out", str(out)])
    assert code == EXIT_PASS
    assert read_json(out)["coefficient_mass"] >= 0.5


@pytest.mark.parametrize("command", ["verify-null", "modeconnect"])
@pytest.mark.parametrize(
    "d, k, kprime, nodes",
    [(2, 10**8, 0, 10**8 + 3), (2, 65000, 534, 65537), (3, 181, 1, 66248), (3, 10**8, 0, 2 * (10**8 + 1) ** 2)],
)
def test_term_past_the_rule_size_bound_is_a_domain_error(tmp_path, capsys, command, d, k, kprime, nodes):
    # the sphere rule exact to degree k + k' + 2 (with m >= k + 1 in d=3) would pass 2^16 nodes;
    # k = 1e8 hung in harmonic_dim's factorials
    net_path, term_path, out = tmp_path / "net.json", tmp_path / "term.json", tmp_path / "report.json"
    save_random_network(net_path, d)
    term_path.write_text(json.dumps({"k": k, "j": 1, "kprime": kprime, "coeff": 1.0, "d": d, "R": 1.0}))
    argv = [command, "--term", str(term_path), "--out", str(out)]
    assert main(argv + (["--network", str(net_path)] if command == "modeconnect" else [])) == EXIT_DOMAIN
    message = f"null term k={k}, k'={kprime} in d={d} needs a sphere rule of {nodes} nodes, above the limit of 65536"
    assert capsys.readouterr().err == f"radonlab: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify-null", "modeconnect"])
def test_term_whose_radius_power_overflows_is_a_domain_error(tmp_path, capsys, command):
    # verify-null died with a raw OverflowError from the closed form's (-R) ** (k' + 2),
    # and modeconnect wrote a report of NaNs after numpy's overflow warnings
    net_path, term_path, out = tmp_path / "net.json", tmp_path / "term.json", tmp_path / "report.json"
    save_random_network(net_path, 2)
    term_path.write_text(json.dumps({"k": 6, "j": 1, "kprime": 2, "coeff": 1.0, "d": 2, "R": 1e100}))
    argv = [command, "--term", str(term_path), "--out", str(out)]
    assert main(argv + (["--network", str(net_path)] if command == "modeconnect" else [])) == EXIT_DOMAIN
    message = "ball radius R = 1e+100 is too large for k' = 2: R^(k'+2) overflows a float"
    assert capsys.readouterr().err == f"radonlab: {message}\n"
    assert not out.exists()
    # the largest R whose fourth power is a float still runs
    term_path.write_text(json.dumps({"k": 6, "j": 1, "kprime": 2, "coeff": 1.0, "d": 2, "R": 1e77}))
    assert main(argv + (["--network", str(net_path)] if command == "modeconnect" else [])) in (EXIT_PASS, EXIT_FAIL)


def test_modeconnect_refuses_a_neuron_budget_past_the_bound_before_building_it(tmp_path, capsys, monkeypatch, term_path):
    # --n 100000000 built 800 MB coefficient arrays and exited 0; nothing is factored or built here
    class Factored(Exception):
        pass

    def factored(*args):
        raise Factored

    monkeypatch.setattr(rl.nullspace, "_factor_neurons", factored)
    net_path, out = tmp_path / "net.json", tmp_path / "mc.json"
    save_random_network(net_path, d=2)
    argv = ["modeconnect", "--network", str(net_path), "--term", str(term_path), "--out", str(out), "--n"]
    assert main([*argv, str(2**24 + 1)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == "radonlab: a null network of n = 16777217 neurons is above the limit of 16777216\n"
    assert not out.exists()
    # the bound itself is a budget the product rule takes
    with pytest.raises(Factored):
        main([*argv, str(2**24)])


def test_modeconnect_refuses_a_scale_whose_displacement_overflows(tmp_path, capsys):
    # --s 1e308 printed numpy's overflow warning, wrote "displacement": Infinity and passed
    net_path, term_path, out = tmp_path / "net.json", tmp_path / "term.json", tmp_path / "mc.json"
    save_random_network(net_path, d=2)
    write_input(term_path, rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.5, d=2, R=1.0))
    argv = ["modeconnect", "--network", str(net_path), "--term", str(term_path), "--out", str(out), "--s"]
    assert main([*argv, "1e308"]) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith("radonlab: the functional change ") and ", displacement inf or coefficient mass " in err
    assert err.endswith(" at scale s = 1e+308 overflows a float\n")
    assert not out.exists()
    assert main([*argv, "1e300"]) == EXIT_PASS
    out.unlink()
    # a coefficient so large that the null network's own mass overflows is refused at any s, 0 too
    write_input(term_path, rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1e308, d=2, R=1.0))
    for s in ("1", "0"):
        assert main([*argv, s]) == EXIT_DOMAIN
        assert capsys.readouterr().err.endswith(f"coefficient mass inf at scale s = {s} overflows a float\n")
    assert not out.exists()


@pytest.mark.parametrize(
    "command, grid, table, fits",
    [
        ("norm", 200, "200 grid points x 8 atoms", 125),
        ("approximate", 500, "500 grid points x 8 atoms", 125),
        ("verify-null", 200, "200 grid points x 7 sphere rule nodes", 142),
        ("modeconnect", 500, "500 grid points x 44 sphere rule nodes", 22),
    ],
)
def test_commands_refuse_a_grid_table_past_the_bound_before_building_it(
    tmp_path, capsys, monkeypatch, spectrum_path, term_path, command, grid, table, fits
):
    # a large --grid asked numpy for a (points, atoms or nodes) table of many GiB and exited 1 with its traceback
    monkeypatch.setattr(rl.errors, "_MAX_TABLE", 1000)
    net_path, out = tmp_path / "net.json", tmp_path / "out.json"
    save_random_network(net_path, d=2)
    inputs = {
        "norm": ["--spectrum", str(spectrum_path), "--R", "1", "--out"],
        "approximate": ["--spectrum", str(spectrum_path), "--R", "1", "--n", "16", "--seed", "1", "--report"],
        "verify-null": ["--term", str(term_path), "--out"],
        "modeconnect": ["--network", str(net_path), "--term", str(term_path), "--out"],
    }[command]
    assert main([command, *inputs, str(out), "--grid", str(grid)]) == EXIT_DOMAIN
    limit = "is above the limit of 1000 entries: use a smaller grid\n"
    assert capsys.readouterr().err == f"radonlab: a table of {table} {limit}"
    assert not out.exists()
    # the largest grid whose table fits the bound runs
    assert main([command, *inputs, str(out), "--grid", str(fits)]) == EXIT_PASS


@pytest.mark.parametrize("xi", [[1.0000000001], [0.9999999999], [1.0 + 1e-14]])
def test_norm_and_approximate_accept_frequencies_a_rounding_apart(tmp_path, xi):
    # both exited 3: "missing symmetry partner for atom (omega=[1.], t=1.0)"
    path = tmp_path / "near.json"
    write_input(path, 1, [(1.0, [1.0]), (1.0, xi)])
    assert main(["norm", "--spectrum", str(path), "--R", "1", "--out", str(tmp_path / "norm.json")]) == EXIT_PASS
    argv = ["approximate", "--spectrum", str(path), "--R", "1", "--n", "16,64", "--trials", "2", "--seed", "1"]
    assert main([*argv, "--report", str(tmp_path / "approx.json")]) == EXIT_PASS
    path2 = tmp_path / "near2.json"
    write_input(path2, 2, [(1.0, [1.0, 0.0]), (1.0, [1.0, xi[0] - 1.0])])
    assert main(["norm", "--spectrum", str(path2), "--R", "1", "--out", str(tmp_path / "norm2.json")]) == EXIT_PASS


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


@pytest.fixture
def network2_path(tmp_path, spectrum2_path):
    path = tmp_path / "net.json"
    argv = ["approximate", "--spectrum", str(spectrum2_path), "--R", "1", "--n", "64", "--trials", "3", "--seed", "5"]
    assert main([*argv, "--out", str(path), "--report", str(tmp_path / "approximate.json")]) == EXIT_PASS
    return path


@pytest.mark.parametrize("coeff", [1.0, 3.5, 10.0])
def test_modeconnect_passes_relative_to_the_coefficient_mass(tmp_path, network2_path, coeff):
    # the added network's quadrature error grows with its coefficients: at 3.5 and 10
    # the change passed |s| 1e-3, the old absolute bound, and exited 1
    term = tmp_path / "term.json"
    write_input(term, rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=coeff, d=2, R=1.0))
    out = tmp_path / "mc.json"
    argv = ["modeconnect", "--network", str(network2_path), "--term", str(term), "--n", "2000", "--s", "1"]
    assert main([*argv, "--out", str(out)]) == EXIT_PASS
    report = read_json(out)
    assert report["passed"] is True
    assert report["functional_change"] / report["coefficient_mass"] == pytest.approx(7.0e-5, rel=0.01)
    assert (report["functional_change"] > 1e-3) == (coeff > 1.0)
    # a tolerance just below the measured ratio fails the same run
    tight = report["functional_change"] / report["displacement"] * 0.99
    assert main([*argv, "--out", str(out), "--tol-override", f"modeconnect_func_tol={tight!r}"]) == EXIT_FAIL
    assert read_json(out)["passed"] is False


def test_exit_code_mapping_table():
    assert exit_code_for(PreconditionError("x")) == EXIT_DOMAIN
    assert exit_code_for(InconsistentMeasureError("x")) == EXIT_INVARIANT
    assert exit_code_for(rl.InvalidInputError("x")) == EXIT_PARSE
    assert exit_code_for(ValueError("x")) == EXIT_PARSE
    assert exit_code_for(RuntimeError("x")) == EXIT_FAIL


def test_main_reports_every_error_it_maps_to_an_exit_code(monkeypatch, capsys, spectrum_path):
    # main caught no TypeError, which exit_code_for maps to 2: it ended in a traceback
    def refuse(path):
        raise TypeError("boom")

    monkeypatch.setattr(cli, "load_spectrum", refuse)
    assert main(["norm", "--spectrum", str(spectrum_path), "--R", "1"]) == EXIT_PARSE
    assert capsys.readouterr().err == "radonlab: boom\n"


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
def test_unknown_tol_override_is_parse_error(tmp_path, capsys, spectrum_path, key):
    code = main([
        "norm", "--spectrum", str(spectrum_path), "--R", "1",
        "--tol-override", f"{key}=1",
    ])
    assert code == EXIT_PARSE
    # printed as a KeyError's quoted repr: radonlab: "unknown tolerance override(s): ['foo']"
    assert capsys.readouterr().err == (
        f"radonlab: unknown tolerance override {key!r}; the known keys are "
        "bound_slack, null_tol, modeconnect_func_tol, modeconnect_mass_min\n"
    )


@pytest.mark.parametrize(
    "override, message",
    [
        ("bound_slack=x", "tolerance override bound_slack must be a number, not 'x'"),
        ("null_tol=", "tolerance override null_tol must be a number, not ''"),
        ("bound_slack", "tolerance override must look like key=value, got 'bound_slack'"),
    ],
)
def test_malformed_tol_override_names_the_key(tmp_path, capsys, spectrum_path, override, message):
    # bound_slack=x printed float()'s "could not convert string to float: 'x'"
    out = tmp_path / "report.json"
    assert main(["norm", "--spectrum", str(spectrum_path), "--R", "1", "--out", str(out), "--tol-override", override]) == EXIT_PARSE
    assert capsys.readouterr().err == f"radonlab: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["approximate", "verify-null"])
def test_commands_name_a_negative_seed(tmp_path, capsys, spectrum_path, term_path, command):
    # numpy refused it as "expected non-negative integer", naming no seed
    out = tmp_path / "report.json"
    if command == "verify-null":
        argv = [command, "--term", str(term_path), "--out", str(out)]
    else:
        argv = [command, "--spectrum", str(spectrum_path), "--R", "1", "--n", "16", "--report", str(out)]
    assert main([*argv, "--seed", "-1"]) == EXIT_PARSE
    assert capsys.readouterr().err == "radonlab: seed must be non-negative, not -1\n"
    assert not out.exists()


def test_norm_refuses_an_oversized_grid_before_building_it(tmp_path, capsys):
    # numpy failed to allocate 2.60 TiB for the Halton bases: a traceback and exit 1
    path = tmp_path / "spectrum.json"
    path.write_text('{"d": 100000000000, "terms": []}')
    out = tmp_path / "report.json"
    assert main(["norm", "--spectrum", str(path), "--R", "1", "--out", str(out)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        "radonlab: a ball grid of m = 200 points in d = 100000000000 takes more than 4194304 uniforms\n"
    )
    assert not out.exists()


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
    write_input(path, d, [(1.0, xi)])
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


@pytest.mark.parametrize("widths", [",", "", "16,,64", "16.5"])
def test_approximate_refuses_a_width_list_without_widths(tmp_path, capsys, spectrum_path, widths):
    # "--n ," printed int()'s "invalid literal for int() with base 10: ''"
    argv = ["approximate", "--spectrum", str(spectrum_path), "--R", "1", "--n", widths, "--seed", "1"]
    assert main(argv + ["--report", str(tmp_path / "r.json")]) == EXIT_PARSE
    assert capsys.readouterr().err == f"radonlab: --n must be a width or comma-separated widths, not {widths!r}\n"


def test_approximate_refuses_a_ladder_past_the_bound_before_drawing_it(tmp_path, capsys, monkeypatch, spectrum_path):
    # --n 99999999999 asked numpy for 745 GiB and exited 1 with its traceback
    drawn = []
    draw = rl.sparsifier._draw
    monkeypatch.setattr(rl.sparsifier, "_draw", lambda plan, streams: drawn.append(len(streams)) or draw(plan, streams))
    out = tmp_path / "net.json"
    argv = ["approximate", "--spectrum", str(spectrum_path), "--R", "1", "--seed", "1", "--out", str(out)]
    assert main([*argv, "--n", "99999999999", "--trials", "1"]) == EXIT_DOMAIN
    limit = "is above the limit of 16777216\n"
    assert capsys.readouterr().err == f"radonlab: a ladder of 99999999999 neurons over its widths and trials {limit}"
    # a trial count whose streams alone would fill memory is refused as early
    assert main([*argv, "--n", "1", "--trials", str(2**40)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == f"radonlab: a ladder of {2**40} neurons over its widths and trials {limit}"
    assert not drawn and not out.exists()
    # the bound counts every width's trials, and a ladder of exactly the bound runs
    monkeypatch.setattr(rl.sparsifier, "_MAX_NEURONS", 100)
    assert main([*argv, "--n", "8,43", "--trials", "2"]) == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        "radonlab: a ladder of 102 neurons over its widths and trials is above the limit of 100\n"
    )
    assert not drawn and not out.exists()
    assert main([*argv, "--n", "8,42", "--trials", "2"]) == EXIT_PASS
    assert drawn and out.exists()


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
    grid = rl.ball_grid(2, float(R), 500)
    assert report["emitted_sup_error"] == rl.sup_error(rl.load_network(net_path), mu, grid)


def test_norm_refuses_unbounded_root_scan(tmp_path, capsys):
    # |xi| R = 1e8 would ask for a root scan of about 1e9 points
    path = tmp_path / "spectrum.json"
    write_input(path, 1, [(1.0, [1e8])])
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


def test_import_cli_leaves_scipy_special_unloaded(tmp_path):
    # the library is numpy-only: the d=3 harmonics and the d > 3 ball grids,
    # scipy's last two callers, run without loading any scipy module
    term, spectrum = tmp_path / "term.json", tmp_path / "spectrum.json"
    write_input(term, rl.HarmonicNullTerm(k=7, j=3, kprime=1, coeff=1.0, d=3, R=1.0))
    write_input(spectrum, 8, [(1.0, [0.5, 0.0, 0.3, 0.0, 0.0, 0.2, 0.0, 0.1])])
    code = (
        "import sys, radonlab.cli as c\n"
        f"assert c.main(['verify-null', '--term', {str(term)!r}, '--out', {str(tmp_path / 'null.json')!r}]) == 0\n"
        f"assert c.main(['norm', '--spectrum', {str(spectrum)!r}, '--R', '1', '--out', {str(tmp_path / 'norm.json')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    src = str(Path(rl.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, cwd=src)
    assert out.stdout.strip() == "[]"


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
    reports = rl.error_decay_experiment(mu, float(R), widths, trials, seed, convention=convention)[0]
    stream = [seed, len(widths) - 1, int(np.argmin(reports[-1].errors))]
    density = rl.density_from_spectrum(mu, float(R))
    affine = rl.fit_affine(density)
    if convention == "prop2":
        net = rl.l1_normalized_network(density, affine, widths[-1], stream)
    else:
        net = rl.sample_network(density, affine, widths[-1], stream)
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
        ("amplitude", True, "'amplitude' must be a number, not True"),
        ("amplitude", "1", "'amplitude' must be a number, not '1'"),
        ("xi", [True], "'xi' must be numbers, not True"),
        ("xi", ["1"], "'xi' must be numbers, not '1'"),
        ("xi", True, "'xi' must be numbers, not True"),
    ],
)
def test_norm_refuses_a_boolean_or_a_string_for_a_number(tmp_path, capsys, field, value, message):
    # read as float(), true and "1" ran as 1.0 and exited 0
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps({"d": 1, "terms": [{"amplitude": 1.0, "xi": [1.0], field: value}]}))
    out = tmp_path / "report.json"
    assert main(["norm", "--spectrum", str(path), "--R", "1", "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"radonlab: malformed spectrum file: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("xi, shape", [(2.0, "()"), ([1.0, 2.0], "(2,)"), ([[1.0]], "(1, 1)")])
def test_norm_refuses_an_xi_of_the_wrong_shape(tmp_path, capsys, xi, shape):
    # a number for xi raised len()'s TypeError past the CLI: a traceback and exit 1
    path = tmp_path / "spectrum.json"
    path.write_text(json.dumps({"d": 1, "terms": [{"amplitude": 1.0, "xi": xi}]}))
    assert main(["norm", "--spectrum", str(path), "--R", "1", "--out", str(tmp_path / "r.json")]) == EXIT_PARSE
    assert capsys.readouterr().err == f"radonlab: xi entry of shape {shape} does not match d=1\n"


@pytest.mark.parametrize("field, value", [("coeff", True), ("coeff", "1"), ("R", True)])
def test_verify_null_refuses_a_boolean_or_a_string_for_a_number(tmp_path, capsys, term_path, field, value):
    term = read_json(term_path)
    term[field] = value
    path = tmp_path / "bad-term.json"
    path.write_text(json.dumps(term))
    out = tmp_path / "report.json"
    assert main(["verify-null", "--term", str(path), "--out", str(out)]) == EXIT_PARSE
    assert capsys.readouterr().err == f"radonlab: malformed null-term file: {field!r} must be a number, not {value!r}\n"
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
        ("kappa", "true", "malformed network file: 'kappa' must be a number, not True"),
        ("omega", '[1.0, "0"]', "malformed network file: 'omega' must be numbers, not '0'"),
        # the field converts, and the network refuses its shape
        ("v", "[[0.0, 0.0]]", "affine part v of shape (1, 2) does not match d=2"),
        ("omega", "[1.0, 0.0, 0.5]", "neuron directions omega of shape (1, 3) do not form an n x d = 1 x 2 array"),
        # a one-neuron list loaded as a 1 x 1 array, and an object iterated as no neurons
        ("a", "[1.0]", "coefficients a of shape (1, 1) and biases b of shape (1,) must be one number per neuron"),
        ("neurons", "{}", "malformed network file: 'neurons' must be a list, not {}"),
        # a number, boolean or null was iterated, and an entry subscripted: Python's own text
        ("neurons", "5", "malformed network file: 'neurons' must be a list, not 5"),
        ("neurons", "true", "malformed network file: 'neurons' must be a list, not True"),
        ("neurons", "null", "malformed network file: 'neurons' must be a list, not None"),
        ("neurons", '"ab"', "malformed network file: 'neurons' must be a list, not 'ab'"),
        ("neurons", "[5]", "malformed network file: 'neurons' entries must be objects, not 5"),
        ("neurons", "[[1.0, 0.0]]", "malformed network file: 'neurons' entries must be objects, not [1.0, 0.0]"),
        # a number that is not finite: a file with a and kappa NaN and c infinite exited 0
        ("a", "NaN", "malformed network file: 'a' must be finite, not nan"),
        ("omega", "[1.0, Infinity]", "malformed network file: 'omega' must be finite, not inf"),
        ("b", "-Infinity", "malformed network file: 'b' must be finite, not -inf"),
        ("kappa", "NaN", "malformed network file: 'kappa' must be finite, not nan"),
        ("v", "[0.0, NaN]", "malformed network file: 'v' must be finite, not nan"),
        ("c", "Infinity", "malformed network file: 'c' must be finite, not inf"),
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


@pytest.mark.parametrize("command", ["norm", "approximate"])
@pytest.mark.parametrize(
    "spectrum, message",
    [
        # amplitude * |xi|^2 overflows: norm exited 1 with a NaN report and
        # approximate 2 with numpy's "Probabilities contain NaN"
        ('{"d": 2, "terms": [{"amplitude": 1e308, "xi": [1.0, 2.0]}]}', "radonlab: spectrum too large: "),
        # only the weight i t^3 c of g' overflows: norm exited 0 with an infinite norm
        ('{"d": 2, "terms": [{"amplitude": 4e307, "xi": [1.0, 2.0]}]}', "radonlab: spectrum too large: "),
        # |xi|^2 overflowed to a zero direction: both exited 2 with "atom direction not unit length"
        ('{"d": 1, "terms": [{"amplitude": 1.0, "xi": [1e200]}]}', "radonlab: frequency too high for the ball: "),
        ('{"d": 2, "terms": [{"amplitude": 1.0, "xi": [1.7e308, -1.7e308]}]}', "radonlab: frequency too high: |xi| of "),
        # each term passes, their masses overflow the norm's sum: norm exited 0
        # with "norm": Infinity and "bound_ok": true, after numpy's overflow warning
        (
            '{"d": 2, "terms": [{"amplitude": 3e307, "xi": [1, 2]}, {"amplitude": 3e307, "xi": [2, -1]},'
            ' {"amplitude": 3e307, "xi": [-1.5, 0.3]}]}',
            "radonlab: density norm too large: ",
        ),
        # rounding |xi| to 15 decimals for its key overflowed, with numpy's warning
        ('{"d": 1, "terms": [{"amplitude": 1.0, "xi": [1e300]}]}', "radonlab: frequency too high for the ball: "),
    ],
)
def test_density_commands_refuse_a_spectrum_too_large_for_a_float(tmp_path, capsys, command, spectrum, message):
    path = tmp_path / "spectrum.json"
    path.write_text(spectrum)
    out = tmp_path / "report.json"
    argv = [command, "--spectrum", str(path), "--R=1"]
    argv += ["--out", str(out)] if command == "norm" else ["--n", "16", "--seed", "1", "--report", str(out)]
    assert main(argv) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "spectrum, R, message",
    [
        # norm and C_f are finite: exited 0 with "C_tilde": Infinity and "bound_ok": true
        ('{"d": 2, "terms": [{"amplitude": 3e307, "xi": [1, 2]}]}', "1", "Fourier constant C_tilde = inf overflows a float"),
        ('{"d": 1, "terms": [{"amplitude": 1e308, "xi": [1]}, {"amplitude": 1e308, "xi": [1.5]}]}', "0.01",
         "Fourier constant C_f = inf overflows a float"),
        # |xi|_1 squared past the float range: Python's float ** raised a raw OverflowError
        ('{"d": 2, "terms": [{"amplitude": 1e-300, "xi": [9e153, 9e153]}]}', "1e-160",
         "Fourier constant C_tilde = inf overflows a float"),
        ('{"d": 1, "terms": [{"amplitude": 1e308, "xi": [1e-4]}]}', "1e8",
         "the Fourier bound 2 R C_f = 2 * 100000000.0 * 1e+300 overflows a float"),
    ],
)
def test_norm_refuses_a_fourier_constant_past_the_float_range(tmp_path, capsys, spectrum, R, message):
    path = tmp_path / "spectrum.json"
    path.write_text(spectrum)
    out = tmp_path / "report.json"
    assert main(["norm", "--spectrum", str(path), f"--R={R}", "--out", str(out)]) == EXIT_DOMAIN
    assert capsys.readouterr().err == f"radonlab: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "spectrum, R, message",
    [
        # the norm is finite, the affine constant is not: exited 0 with
        # "emitted_sup_error": NaN and "passed": true, after numpy's overflow warnings
        ('{"d": 1, "terms": [{"amplitude": 1e308, "xi": [1e-4]}]}', "1e8",
         "the affine part (v, c) = ([0.0], -inf) of f overflows a float on the ball"),
        # f itself overflows: exited 1 with NaN errors
        ('{"d": 1, "terms": [{"amplitude": 1e308, "xi": [1]}, {"amplitude": 1e308, "xi": [1.5]}]}', "0.01",
         "f overflows a float on the ball of radius R = 0.01"),
    ],
)
def test_approximate_refuses_values_past_the_float_range(tmp_path, capsys, spectrum, R, message):
    path = tmp_path / "spectrum.json"
    path.write_text(spectrum)
    outputs = report, net, csv = tmp_path / "report.json", tmp_path / "net.json", tmp_path / "decay.csv"
    argv = ["approximate", "--spectrum", str(path), f"--R={R}", "--n", "16", "--seed", "1"]
    argv += ["--report", str(report), "--out", str(net), "--csv", str(csv)]
    assert main(argv) == EXIT_DOMAIN
    assert capsys.readouterr().err == f"radonlab: {message}\n"
    assert not any(p.exists() for p in outputs)


@pytest.mark.parametrize("command", ["norm", "approximate"])
def test_density_commands_run_a_large_finite_amplitude(tmp_path, command):
    path = tmp_path / "spectrum.json"
    path.write_text('{"d": 2, "terms": [{"amplitude": 1e307, "xi": [1.0, 2.0]}]}')
    out = tmp_path / "report.json"
    argv = [command, "--spectrum", str(path), "--R=1"]
    argv += ["--out", str(out)] if command == "norm" else ["--n", "16,64", "--seed", "1", "--report", str(out)]
    assert main(argv) == EXIT_PASS
    report = read_json(out)
    numbers = [v for key, v in report.items() if key != "wall_time_s" and isinstance(v, (float, list))]
    assert all(math.isfinite(x) for v in numbers for x in (v if isinstance(v, list) else [v]))
    assert report["norm"] > 1e307


def test_norm_of_the_empty_spectrum_on_a_ball_whose_diameter_is_finite(tmp_path):
    path = tmp_path / "empty.json"
    write_input(path, 1, [])
    out = tmp_path / "report.json"
    assert main(["norm", "--spectrum", str(path), "--R=5e307", "--out", str(out)]) == EXIT_PASS
    report = read_json(out)
    assert report["bound_2RCf"] == 0.0 and report["norm"] == 0.0


# --- one command path: main times, echoes, writes and exits --------------------

META = {"config", "seed", "version", "tol_overrides", "wall_time_s"}
REPORT_KEYS = {
    "norm": {"norm", "C_f", "C_tilde", "bound_2RCf", "bound_ok", "R", "d", "residual_affine", "second_moment_check"},
    "approximate": {
        "convention", "norm", "kappa", "widths", "bounds", "mean_errors", "min_errors", "max_errors",
        "emitted_width", "emitted_sup_error", "passed",
    },
    "verify-null": {"term", "points", "max_ramp_integral", "tolerance", "verdict"},
    "modeconnect": {"scale", "added_neurons", "functional_change", "displacement", "coefficient_mass", "grid_size", "passed"},
}


def command_argv(command, tmp_path, spectrum2_path, term_path, network2_path):
    """A quick run of ``command``, and the path its report goes to."""
    out = tmp_path / f"{command}.report.json"
    argv = {
        "norm": ["--spectrum", str(spectrum2_path), "--R", "1", "--out", str(out)],
        "approximate": [
            "--spectrum", str(spectrum2_path), "--R", "1", "--n", "16,32", "--trials", "2", "--seed", "3",
            "--out", str(tmp_path / "emitted.json"), "--report", str(out),
        ],
        "verify-null": ["--term", str(term_path), "--grid", "50", "--seed", "4", "--out", str(out)],
        "modeconnect": [
            "--network", str(network2_path), "--term", str(term_path), "--n", "400", "--s", "-0.5", "--out", str(out),
        ],
    }[command]
    return [command, *argv], out


@pytest.mark.parametrize("command", list(REPORT_KEYS))
def test_report_keys_of_each_command(tmp_path, spectrum2_path, term_path, network2_path, command):
    argv, out = command_argv(command, tmp_path, spectrum2_path, term_path, network2_path)
    assert main([*argv, "--tol-override", "bound_slack=1e-9"]) == EXIT_PASS
    report = read_json(out)
    assert set(report) == REPORT_KEYS[command] | META
    assert report["config"]["command"] == command and "func" not in report["config"]
    assert report["version"] == rl.__version__ and report["tol_overrides"] == {"bound_slack": 1e-9}
    assert report["seed"] == {"approximate": 3, "verify-null": 4}.get(command)
    if command == "verify-null":
        assert report["term"] == {"k": 4, "j": 1, "kprime": 0, "coeff": 1.0, "d": 2, "R": 1.0}


@pytest.mark.parametrize("command", list(REPORT_KEYS))
def test_report_goes_to_stdout_without_its_path(tmp_path, capsys, spectrum2_path, term_path, network2_path, command):
    # the report's path is --report for approximate, whose --out is the network, and --out for the others
    argv, out = command_argv(command, tmp_path, spectrum2_path, term_path, network2_path)
    i = argv.index(str(out))
    capsys.readouterr()
    assert main(argv[: i - 1] + argv[i + 1 :]) == EXIT_PASS
    assert set(json.loads(capsys.readouterr().out)) == REPORT_KEYS[command] | META
    assert not out.exists()
    assert (tmp_path / "emitted.json").exists() == (command == "approximate")


def test_verify_null_byte_identical_reruns(tmp_path, spectrum2_path, term_path, network2_path):
    argv, out = command_argv("verify-null", tmp_path, spectrum2_path, term_path, network2_path)
    main(argv)
    first = strip_wall_time(out)
    main(argv)
    assert strip_wall_time(out) == first


def test_modeconnect_byte_identical_reruns(tmp_path, spectrum2_path, term_path, network2_path):
    argv, out = command_argv("modeconnect", tmp_path, spectrum2_path, term_path, network2_path)
    main(argv)
    first = strip_wall_time(out)
    main(argv)
    assert strip_wall_time(out) == first


# --- corrupted input files -------------------------------------------------------


def json_kind(value) -> str:
    """The JSON type of a loaded value; integers and floats are both numbers."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    return {int: "number", float: "number", str: "string", list: "array", dict: "object"}[type(value)]


# one value of each JSON type, drawn per example
WRONG_TYPED = st.fixed_dictionaries({
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.integers(-3, 3) | st.floats(-10, 10),
    "string": st.text(max_size=2),
    "array": st.lists(st.integers(-3, 3), max_size=2),
    "object": st.dictionaries(st.text(max_size=2), st.integers(-3, 3), max_size=1),
})


def paths(value, prefix=()):
    """The path of every key and list item inside a loaded JSON value."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        yield prefix + (key,)
        yield from paths(item, prefix + (key,))


def corruptions(payload, values):
    """``payload`` as JSON bytes with one key dropped, or one value replaced by the ``values`` of each other type."""
    for where in paths(payload):
        old = functools.reduce(operator.getitem, where, payload)
        for kind, value in [("drop", None), *values.items()]:
            if kind == json_kind(old) or (kind == "drop" and not isinstance(where[-1], str)):
                continue
            changed = json.loads(json.dumps(payload))
            parent = functools.reduce(operator.getitem, where[:-1], changed)
            if kind == "drop":
                del parent[where[-1]]
            else:
                parent[where[-1]] = value
            yield json.dumps(changed).encode()


def not_json(raw: bytes) -> bool:
    try:
        json.loads(raw)
    except ValueError:
        return True
    return False


UNIT = st.floats(-2, 2).filter(lambda x: abs(x) > 0.1)
VALID = {
    "spectrum": st.integers(1, 3).flatmap(
        lambda d: st.fixed_dictionaries({
            "d": st.just(d),
            "terms": st.lists(
                st.fixed_dictionaries({"amplitude": UNIT, "xi": st.lists(UNIT, min_size=d, max_size=d)}),
                min_size=1, max_size=3,
            ),
        })
    ),
    "term": st.fixed_dictionaries(
        {"k": st.just(4), "j": st.integers(1, 2), "kprime": st.just(0), "coeff": UNIT, "d": st.just(2), "R": st.just(1.0)}
    ),
    "network": st.fixed_dictionaries({
        "d": st.just(2),
        "convention": st.just("thm2"),
        "kappa": UNIT,
        "neurons": st.lists(
            st.fixed_dictionaries({"a": UNIT, "omega": st.lists(UNIT, min_size=2, max_size=2), "b": UNIT}),
            min_size=1, max_size=3,
        ),
        "v": st.lists(UNIT, min_size=2, max_size=2),
        "c": UNIT,
    }),
}  # fmt: skip


@pytest.mark.parametrize(
    "command, corrupt", [("norm", "spectrum"), ("verify-null", "term"), ("modeconnect", "term"), ("modeconnect", "network")]
)
def test_a_corrupted_input_file_exits_2_with_one_message(tmp_path_factory, command, corrupt):
    # every dropped key and every value of another JSON type in a generated input file, and non-JSON bytes;
    # a "terms" or "neurons" string or object iterated as no terms or neurons, and a single neuron's
    # list-valued a or b loaded as an array of another shape
    work = tmp_path_factory.mktemp(f"{command}-{corrupt}")
    files = {kind: work / f"{kind}.json" for kind in VALID}
    out = work / "report.json"
    sources = {
        "norm": ["--spectrum", files["spectrum"], "--R", "1", "--grid", "8"],
        "verify-null": ["--term", files["term"], "--grid", "8"],
        "modeconnect": ["--network", files["network"], "--term", files["term"], "--n", "16", "--grid", "8"],
    }
    argv = [command, *map(str, sources[command]), "--out", str(out)]

    # no shrinking: each example runs about a hundred files, and the failing file is in the message
    @settings(max_examples=15, deadline=None, database=None, phases=[Phase.generate])
    @given(payloads=st.fixed_dictionaries(VALID), values=WRONG_TYPED, junk=st.binary(max_size=40).filter(not_json))
    def run(payloads, values, junk):
        for kind, payload in payloads.items():
            files[kind].write_text(json.dumps(payload))
        assert main(argv) in (EXIT_PASS, EXIT_FAIL)  # the uncorrupted files run
        out.unlink()
        for raw in [junk, *corruptions(payloads[corrupt], values)]:
            files[corrupt].write_bytes(raw)
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main(argv)
            lines = err.getvalue().splitlines()
            assert code == EXIT_PARSE and len(lines) == 1 and lines[0].startswith("radonlab: "), (raw, err.getvalue())
            assert not out.exists(), raw

    run()
