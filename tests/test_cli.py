"""Command-line behavior: reports, exit codes, determinism, file outputs."""

from __future__ import annotations

import json

import numpy as np
import pytest

import radonlab as rl
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


def test_norm_byte_identical_reruns(tmp_path, spectrum_path):
    out = tmp_path / "report.json"
    main(["norm", "--spectrum", str(spectrum_path), "--R", "1", "--out", str(out)])
    first = strip_wall_time(out)
    main(["norm", "--spectrum", str(spectrum_path), "--R", "1", "--out", str(out)])
    assert strip_wall_time(out) == first


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


def test_verify_null_threshold_term_rejected(tmp_path):
    edge = tmp_path / "edge.json"
    rl.save_null_term(edge, rl.HarmonicNullTerm(k=4, j=1, kprime=2, coeff=1.0, d=2, R=1.0))
    assert main(["verify-null", "--term", str(edge)]) == EXIT_DOMAIN


def test_verify_null_high_degree_d2_passes(tmp_path):
    # k + k' + 2 = 102: the circle rule must grow past 64 nodes
    term = tmp_path / "k60.json"
    rl.save_null_term(term, rl.HarmonicNullTerm(k=60, j=1, kprime=40, coeff=1.0, d=2, R=1.0))
    out = tmp_path / "verdict.json"
    assert main(["verify-null", "--term", str(term), "--grid", "400", "--out", str(out)]) == EXIT_PASS
    assert read_json(out)["verdict"] == "pass"


def test_modeconnect_d3_high_degree_term(tmp_path):
    net_path, term_path, out = tmp_path / "net.json", tmp_path / "term.json", tmp_path / "mc.json"
    rng = np.random.default_rng(9)
    omegas = rng.normal(size=(32, 3))
    omegas /= np.linalg.norm(omegas, axis=1)[:, None]
    rl.save_network(net_path, rl.TwoLayerNet(3, np.ones(32), omegas, rng.uniform(-1, 1, 32), 2.0, np.zeros(3), 0.0))
    rl.save_null_term(term_path, rl.HarmonicNullTerm(k=9, j=2, kprime=5, coeff=1.5, d=3, R=1.0))
    code = main(["modeconnect", "--network", str(net_path), "--term", str(term_path), "--n", "3000", "--out", str(out)])
    assert code == EXIT_PASS
    assert read_json(out)["functional_change"] <= 1e-3


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


def test_unknown_tol_override_is_parse_error(tmp_path, spectrum_path):
    code = main([
        "norm", "--spectrum", str(spectrum_path), "--R", "1",
        "--tol-override", "definitely_not_a_knob=1",
    ])
    assert code == EXIT_PARSE


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
