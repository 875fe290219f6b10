"""Sampled networks: conventions, determinism, decay experiments, file formats."""

from __future__ import annotations

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

import radonlab as rl
import radonlab.sparsifier as sparsifier
from scipy.optimize import brentq

from radonlab.errors import DegenerateMeasureError, DomainError, InvalidInputError
from radonlab.radon_measure import RadonDensity
from radonlab.sparsifier import (
    _by_direction,
    _draw,
    _draw_biases,
    _draw_plan,
    _exact_l1_unit,
    _group_rows,
    _project,
    _ramp_sums,
    _sorted_projections,
)

from conftest import decay_slope, lattice_grid, padded_density, random_cosine_terms


@pytest.fixture
def near_cancel_setup(near_cancel_measure):
    R = 1.0
    density = rl.density_from_spectrum(near_cancel_measure, R)
    norm = rl.tv_norm(density)
    affine = rl.fit_affine(density)
    return near_cancel_measure, density, norm, affine


def test_single_neuron_sign_from_cosine(cos_measure):
    # g = -cos(b)/2 < 0 on (-pi/2, pi/2), so the sampled sign must be -1
    R = math.pi / 2
    density = rl.density_from_spectrum(cos_measure, R)
    norm = rl.tv_norm(density)
    net = rl.sample_network(density, rl.AffinePart.zero(1), 1, seed=0)
    assert net.a.tolist() == [-1.0]
    assert -R < net.b[0] < R
    assert net.kappa == norm


def test_sampling_determinism(near_cancel_setup):
    mu, density, norm, affine = near_cancel_setup
    n1 = rl.sample_network(density, affine, 64, seed=123)
    n2 = rl.sample_network(density, affine, 64, seed=123)
    assert np.array_equal(n1.a, n2.a) and np.array_equal(n1.b, n2.b)
    assert np.array_equal(n1.omegas, n2.omegas)
    n3 = rl.sample_network(density, affine, 64, seed=124)
    assert not np.array_equal(n1.b, n3.b)


def test_thm2_convention_invariants(near_cancel_setup):
    mu, density, norm, affine = near_cancel_setup
    net = rl.sample_network(density, affine, 512, seed=9)
    net.check_convention(R=density.R, norm=norm)
    assert set(np.unique(net.a)) <= {-1.0, 1.0}
    assert np.all((net.b > -density.R) & (net.b < density.R))
    assert np.max(np.abs(np.linalg.norm(net.omegas, axis=1) - 1.0)) <= 1e-12


def test_thm2_biases_inside_ball_and_signs_follow_profile():
    # many sign changes per profile, so draws land on every panel and next
    # to the roots, where a sign read off a stale panel would be wrong
    mu = rl.from_cosine_sum(2, [(1.0, [30.0, 40.0]), (-0.8, [-12.0, 5.0]), (0.4, [0.5, 2.0])])
    R = 1.0
    density = rl.density_from_spectrum(mu, R)
    net = rl.sample_network(density, rl.AffinePart.zero(2), 4096, seed=17)
    assert np.all((net.b > -R) & (net.b < R))
    for r, w in enumerate(density.directions):
        sel = np.all(net.omegas == w, axis=1)
        assert sel.any()
        assert np.array_equal(net.a[sel], np.where(density.antiderivative(net.b[sel], 0, r) >= 0, 1.0, -1.0))


def test_bias_histogram_tracks_density(near_cancel_setup):
    # chi-square sanity: sampled biases follow |g| / norm across 8 bins
    mu, density, norm, affine = near_cancel_setup
    n = 4000
    net = rl.sample_network(density, affine, n, seed=21)
    edges = np.linspace(-1.0, 1.0, 9)
    counts, _ = np.histogram(net.b, bins=edges)
    rule = rl.gauss_legendre(48, -1, 1)
    probs = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        nodes, weights = map(np.asarray, np.polynomial.legendre.leggauss(64))
        nodes = 0.5 * (hi - lo) * nodes + 0.5 * (hi + lo)
        weights = 0.5 * (hi - lo) * weights
        mass = sum(float(weights @ np.abs(density.antiderivative(nodes, 0, r))) for r in range(len(density)))
        probs.append(mass / norm)
    probs = np.array(probs)
    chi2 = float(np.sum((counts - n * probs) ** 2 / np.maximum(n * probs, 1e-12)))
    # 7 dof; 40 is far beyond any reasonable quantile, catches gross errors
    assert chi2 < 40.0


def test_degenerate_density_rejected():
    mu = rl.SpectralMeasure(d=1)
    density = rl.density_from_spectrum(mu, 1.0)
    with pytest.raises(DegenerateMeasureError):
        rl.sample_network(density, rl.AffinePart.zero(1), 4, seed=0)


def test_sup_error_zero_network():
    mu = rl.SpectralMeasure(d=1)
    net = rl.TwoLayerNet(
        d=1, a=np.zeros(0), omegas=np.zeros((0, 1)), b=np.zeros(0),
        kappa=0.0, v=np.zeros(1), c=0.0, convention="quadrature",
    )
    grid = lattice_grid(1, 1.0, 50)
    assert rl.sup_error(net, mu, grid) == 0.0


def test_quadrature_network_converges_to_reconstruction(cos_measure):
    # a dense product-quadrature net approaches the ramp pairing
    R = math.pi / 2
    density = rl.density_from_spectrum(cos_measure, R)
    grid = lattice_grid(1, R, 100)
    affine = rl.fit_affine(density)
    errors = {}
    for m in (32, 128):
        rule = rl.gauss_legendre(m, -R, R)
        a, omegas, b = [], [], []
        for r, w in enumerate(density.directions):
            a.extend(density.antiderivative(rule.nodes, 0, r) * rule.weights)
            omegas.extend([w] * m)
            b.extend(rule.nodes)
        net = rl.TwoLayerNet(
            d=1, a=np.array(a), omegas=np.array(omegas), b=np.array(b),
            kappa=float(2 * m), v=affine.v, c=affine.c, convention="quadrature",
        )
        errors[m] = rl.sup_error(net, cos_measure, grid)
    assert errors[128] < errors[32]
    assert errors[128] < 1e-3


def test_l1_network_constraints_exact_d1(near_cancel_setup):
    mu, density, norm, affine = near_cancel_setup
    net = rl.l1_normalized_network(density, affine, 256, seed=3)
    assert np.all(np.abs(net.omegas).sum(axis=1) == 1.0)
    assert np.all((net.b >= 0.0) & (net.b <= 1.0))
    assert np.all(np.abs(net.a) <= 1.0)
    net.check_convention(norm=norm)


def test_l1_network_constraints_exact_d2_random_spectra():
    rng = np.random.default_rng(31)
    for trial in range(10):
        terms = random_cosine_terms(rng, 2, n_terms=3)
        mu = rl.from_cosine_sum(2, terms)
        density = rl.density_from_spectrum(mu, 1.0)
        norm = rl.tv_norm(density)
        affine = rl.fit_affine(density)
        net = rl.l1_normalized_network(density, affine, 64, seed=trial)
        assert np.all(np.abs(net.omegas).sum(axis=1) == 1.0)
        assert np.all((net.b >= 0.0) & (net.b <= 1.0))
        assert np.all(np.abs(net.a) <= 1.0)
        assert net.kappa <= math.sqrt(2.0) * norm + 1e-10


def test_l1_network_requires_unit_ball():
    mu = rl.from_cosine_sum(1, [(1.0, [1.0])])
    density = rl.density_from_spectrum(mu, 1.5)
    with pytest.raises(DomainError):
        rl.l1_normalized_network(density, rl.AffinePart.zero(1), 8, seed=0)


def test_l1_network_represents_f(near_cancel_setup):
    # folding the negative biases into (v, c) must preserve the function:
    # a wrong fold shows up as an O(norm) offset, far above sampling noise
    mu, density, norm, affine = near_cancel_setup
    grid = rl.ball_grid(1, 1.0, 200)
    errs = [
        rl.sup_error(rl.l1_normalized_network(density, affine, 2048, seed=s), mu, grid)
        for s in range(5)
    ]
    assert min(errs) < 3.0 * density.R * norm / math.sqrt(2048)


def test_error_decay_experiment_small(near_cancel_measure):
    reports = rl.error_decay_experiment(near_cancel_measure, 1.0, [16, 64, 256], trials=10, seed=1)[0]
    for r in reports:
        assert r.min_error <= r.bound
        assert r.mean_error <= 1.1 * r.bound
        assert r.min_error <= r.mean_error <= r.max_error
        assert r.trials == 10 and r.grid_size == 500
    assert decay_slope(reports) < 0.0


def test_approx_report_of_equal_errors_keeps_their_value():
    # the float mean of eight copies rounded one ulp below them, and the
    # report refused itself: "min error cannot exceed the mean"
    e = 198952082502.4874
    assert rl.ApproxReport(16, 8, 1, 1.0, (e,) * 8, 500).mean_error == e
    rng = np.random.default_rng(3)
    below = 0
    for e in 10.0 ** rng.uniform(-3, 12, size=300):
        for trials in range(2, 31):
            report = rl.ApproxReport(16, trials, 1, 1.0, (float(e),) * trials, 500)
            assert report.min_error == report.mean_error == report.max_error == e
            below += float(np.mean([e] * trials)) < e
    assert below > 0  # the rounded mean does fall outside; the report holds it in range


def test_approx_report_mean_of_differing_errors_keeps_its_bits():
    rng = np.random.default_rng(4)
    for trials in range(2, 31):
        errors = tuple((10.0 ** rng.uniform(-3, 12)) * rng.uniform(0.5, 2.0, size=trials))
        assert rl.ApproxReport(16, trials, 1, 1.0, errors, 500).mean_error == float(np.mean(errors))
    # with the mean held in range, only a NaN error leaves it outside
    with pytest.raises(InvalidInputError, match="mean error nan lies outside the errors' range"):
        rl.ApproxReport(16, 2, 1, 1.0, (1.0, math.nan), 500)


def test_error_decay_deterministic_and_schedule_independent(near_cancel_measure):
    r1 = rl.error_decay_experiment(near_cancel_measure, 1.0, [16, 64], trials=4, seed=5)[0]
    r2 = rl.error_decay_experiment(near_cancel_measure, 1.0, [16, 64], trials=4, seed=5)[0]
    assert [r.errors for r in r1] == [r.errors for r in r2]


def test_error_decay_requires_increasing_widths(near_cancel_measure):
    with pytest.raises(InvalidInputError):
        rl.error_decay_experiment(near_cancel_measure, 1.0, [64, 64], trials=2, seed=0)


def test_error_decay_requires_a_width(near_cancel_measure):
    # an empty list raised "not enough values to unpack (expected 2, got 0)"
    with pytest.raises(InvalidInputError, match="need at least one width"):
        rl.error_decay_experiment(near_cancel_measure, 1.0, [], trials=2, seed=1)


@pytest.mark.parametrize("convention", ["foo", "quadrature", "THM2"])
def test_error_decay_refuses_an_unknown_convention(near_cancel_measure, convention):
    # any convention but prop2 ran as thm2
    with pytest.raises(InvalidInputError, match=f"unknown convention {convention!r}"):
        rl.error_decay_experiment(near_cancel_measure, 1.0, [16], trials=2, seed=1, convention=convention)


@pytest.mark.parametrize("seed", [-1, 1.5, True, None], ids=["negative", "fraction", "bool", "none"])
def test_error_decay_names_a_refused_seed(near_cancel_measure, seed):
    with pytest.raises(InvalidInputError, match="^seed must be"):
        rl.error_decay_experiment(near_cancel_measure, 1.0, [16], trials=2, seed=seed)


@pytest.mark.parametrize("trials", [2.5, 2.0, True, "2"], ids=["fraction", "whole-float", "bool", "str"])
def test_error_decay_refuses_a_trial_count_that_is_not_an_integer(near_cancel_measure, trials):
    # trials=2.5 raised "'float' object cannot be interpreted as an integer"
    with pytest.raises(InvalidInputError, match="^trial count must be an integer"):
        rl.error_decay_experiment(near_cancel_measure, 1.0, [16], trials=trials, seed=1)


@pytest.mark.parametrize("widths", [[16.5], [16, 64.0], [True, 16]], ids=["fraction", "whole-float", "bool"])
def test_error_decay_refuses_a_width_that_is_not_an_integer(near_cancel_measure, widths):
    # int() turned a width of 16.5 into 16
    with pytest.raises(InvalidInputError, match="^width must be an integer"):
        rl.error_decay_experiment(near_cancel_measure, 1.0, widths, trials=2, seed=1)


def test_network_json_roundtrip(tmp_path, near_cancel_setup):
    mu, density, norm, affine = near_cancel_setup
    net = rl.sample_network(density, affine, 32, seed=2)
    path = tmp_path / "network.json"
    rl.save_network(path, net)
    loaded = rl.load_network(path)
    assert loaded.convention == "thm2"
    assert np.array_equal(loaded.a, net.a)
    assert np.array_equal(loaded.omegas, net.omegas)
    assert np.array_equal(loaded.b, net.b)
    assert loaded.kappa == net.kappa
    x = np.array([[0.4]])
    assert loaded.evaluate(x)[0] == pytest.approx(net.evaluate(x)[0], abs=1e-15)


def json_dump_network(net) -> str:
    """The network file as json.dump(indent=2, sort_keys=True) writes it."""
    payload = {
        "d": net.d,
        "convention": net.convention,
        "kappa": net.kappa,
        "neurons": [
            {"a": float(a), "omega": [float(x) for x in w], "b": float(b)} for a, w, b in zip(net.a, net.omegas, net.b)
        ],
        "v": [float(x) for x in net.v],
        "c": float(net.c),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def network_cases():
    rng = np.random.default_rng(12)
    wide = 4096
    yield rl.TwoLayerNet(2, [], np.zeros((0, 2)), [], 1.5, [0.0, -0.0], 0.0)
    yield rl.TwoLayerNet(1, [1.0, -1.0], [[1.0], [-1.0]], [-0.0, 1e-300], 3, [2.0], 5e-324)
    yield rl.TwoLayerNet(
        3, rng.choice([-1.0, 1.0], wide), rng.normal(size=(wide, 3)), rng.uniform(-1, 1, wide), 2.75, rng.normal(size=3), 0.1
    )
    yield rl.TwoLayerNet(2, [0.5, 1.0], [[3.0, -4.0], [1e16, 1e-7]], [1.0, 2.0], 7.0, [1e22, 123456789.0], -1.0)
    yield rl.TwoLayerNet(2, [float("nan")], [[np.inf, -np.inf]], [1.0], float("inf"), [0.0, float("nan")], float("-inf"))
    # 0.0 and -0.0 compare equal but are written apart
    yield rl.TwoLayerNet(2, [0.0, -0.0, 1.0], [[-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]], [-0.0, 0.0, -0.0], 1.0, [-0.0, 0.0], -0.0)
    # a repeated NaN, one of them with a payload and its sign bit set, among repeated finite values
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000001], dtype=np.uint64).view(np.float64)
    yield rl.TwoLayerNet(2, [nans[0], 1.0, nans[1]], [[nans[1], 0.5], [0.5, nans[0]], [1.0, 1.0]], [nans[0], nans[0], 0.5], 2.0, [0.0, 0.0], 0.0)
    # a ladder's net: 6 direction rows repeated over 4096 neurons, coefficients +-1
    rows = rng.normal(size=(6, 3))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    yield rl.TwoLayerNet(
        3, rng.choice([-1.0, 1.0], wide), rows[rng.integers(0, 6, wide)], rng.uniform(-1, 1, wide), 2.5, rng.normal(size=3), 0.3
    )


@pytest.mark.parametrize("case", range(8))
def test_save_network_writes_the_bytes_of_json_dump(tmp_path, case):
    net = list(network_cases())[case]
    path = tmp_path / "network.json"
    rl.save_network(path, net)
    assert path.read_text() == json_dump_network(net)


def test_decay_csv_format(tmp_path, near_cancel_measure):
    reports = rl.error_decay_experiment(near_cancel_measure, 1.0, [16, 64], trials=3, seed=8)[0]
    path = tmp_path / "decay.csv"
    rl.write_decay_csv(path, reports)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "n,bound,mean_err,min_err,max_err"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert int(first[0]) == 16
    assert float(first[1]) == pytest.approx(reports[0].bound)


# --- per-direction ramp sums against the dense sum ---------------------------


def dense_ramp_sum(X, omegas, a, b):
    """sum_i a_i max(<w_i, x> - b_i, 0) at every row x of X, one neuron at a time."""
    out = np.zeros(len(X))
    for ai, wi, bi in zip(a, omegas, b):
        out += ai * np.maximum(X @ wi - bi, 0.0)
    return out


def assert_matches_dense(got, want):
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)


def one_stream(a, b, labels, proj):
    """``_ramp_sums`` of one stream, its neurons in ``_by_direction``'s order of their labels and biases."""
    return _ramp_sums(a, b, labels, *_sorted_projections(proj), [len(a)], _by_direction(labels, b))[0]


def kernel_ramp_sum(net, X):
    _, first, labels = np.unique(net.omegas, axis=0, return_index=True, return_inverse=True)
    return one_stream(net.a, net.b, labels.ravel(), _project(X, net.omegas[first]))


def dense_evaluate(net, X):
    """kappa/n sum_i a_i (<w_i, x> - b_i)_+ + <v, x> + c, one neuron at a time."""
    values = X @ net.v + net.c
    if net.n:
        values = values + net.kappa / net.n * dense_ramp_sum(X, net.omegas, net.a, net.b)
    return values


def dense_sup_error(net, mu, X):
    return float(np.max(np.abs(dense_evaluate(net, X) - mu.evaluate(X))))


@pytest.fixture
def axis_measure():
    # the direction (1, 0) is l1-unit exactly, so prop2 keeps it as drawn
    return rl.from_cosine_sum(2, [(1.0, [4.0, 0.0]), (-0.7, [1.5, 2.0]), (0.4, [-0.5, 1.0])])


def test_ramp_sums_match_dense_thm2(axis_measure):
    density = rl.density_from_spectrum(axis_measure, 1.0)
    affine = rl.fit_affine(density)
    X = rl.ball_grid(2, 1.0, 500).points
    for n in (1, 37, 4096):
        net = rl.sample_network(density, affine, n, seed=n)
        assert_matches_dense(kernel_ramp_sum(net, X), dense_ramp_sum(X, net.omegas, net.a, net.b))
        assert rl.sup_error(net, axis_measure, rl.BallGrid(2, 1.0, X)) == pytest.approx(
            dense_sup_error(net, axis_measure, X), rel=1e-12
        )


def test_ramp_sums_match_dense_prop2_with_clamped_biases(axis_measure):
    density = rl.density_from_spectrum(axis_measure, 1.0)
    affine = rl.fit_affine(density)
    net = rl.l1_normalized_network(density, affine, 2048, seed=4)
    # pin every tenth bias at the clamp b = 1 and put points where <w, x> = 1 exactly
    b = net.b.copy()
    b[::10] = 1.0
    net = rl.TwoLayerNet(2, net.a, net.omegas, b, net.kappa, net.v, net.c, convention="prop2")
    net.check_convention()
    X = np.vstack([rl.ball_grid(2, 1.0, 300).points, [[1.0, 0.0], [-1.0, 0.0]]])
    assert 1.0 in (X @ net.omegas.T)
    assert_matches_dense(kernel_ramp_sum(net, X), dense_ramp_sum(X, net.omegas, net.a, net.b))
    assert rl.sup_error(net, axis_measure, rl.BallGrid(2, 1.0, X)) == pytest.approx(
        dense_sup_error(net, axis_measure, X), rel=1e-12
    )


def test_ramp_sums_ties_and_repeated_directions_out_of_order():
    rng = np.random.default_rng(5)
    dirs = np.array([[0.6, 0.8], [-1.0, 0.0], [0.0, 1.0]])
    order = [2, 0, 2, 1, 0, 1, 2, 0, 0, 2]
    X = np.array([[0.5, 0.0], [0.0, 0.25], [-0.25, 0.5], [0.3, -0.4], [0.0, 0.0], [-0.5, -0.5]])
    proj = X @ dirs.T
    # every bias is a projection of some point on its own direction: all ties
    b = np.array([proj[i % len(X), k] for i, k in enumerate(order)])
    a = rng.normal(size=len(order))
    net = rl.TwoLayerNet(2, a, dirs[order], b, 3.0, np.array([0.2, -0.1]), 0.3, convention="quadrature")
    want = dense_ramp_sum(X, net.omegas, a, b)
    assert_matches_dense(kernel_ramp_sum(net, X), want)
    # labels in any numbering give the same sums
    relabel = np.array([1, 2, 0])
    assert_matches_dense(one_stream(a, b, relabel[order], _project(X, dirs[[2, 0, 1]])), want)
    mu = rl.from_cosine_sum(2, [(1.0, [1.0, 2.0])])
    assert rl.sup_error(net, mu, rl.BallGrid(2, 1.0, X)) == pytest.approx(dense_sup_error(net, mu, X), rel=1e-12)


def test_ramp_sums_with_undrawn_directions(axis_measure):
    density = rl.density_from_spectrum(axis_measure, 1.0)
    X = rl.ball_grid(2, 1.0, 200).points
    plan = _draw_plan(density, rl.AffinePart.zero(2), "thm2")
    idx, a, b, _ = _draw(plan, [(3, 1)])
    net = plan.net(idx, a, b)
    assert len(np.unique(idx)) < len(density)
    got = one_stream(net.a, net.b, idx, _project(X, density.directions))
    assert_matches_dense(got, dense_ramp_sum(X, net.omegas, net.a, net.b))


@pytest.mark.parametrize("b", [[0.25] * 6, [-1e308, 0.5, 1e308, -0.5, 0.0, 1e308]])
def test_evaluate_orders_biases_without_a_range(b):
    # equal biases have no range to take shares of, and +-1e308 one that
    # overflows; both only leave evaluate's slot searches in another order
    dirs = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.6, 0.8], [0.0, 1.0], [1.0, 0.0]])
    a = np.array([1.0, -2.0, 0.5, 1.5, 3.0, -1.0])
    net = rl.TwoLayerNet(2, a, dirs, b, 6.0, np.zeros(2), 0.0, convention="quadrature")
    X = rl.ball_grid(2, 1.0, 50).points
    assert_matches_dense(net.evaluate(X), dense_ramp_sum(X, dirs, a, net.b))


def test_ramp_sums_empty_network():
    X = lattice_grid(2, 1.0, 50).points
    assert np.array_equal(one_stream(np.zeros(0), np.zeros(0), np.zeros(0, int), np.zeros((0, len(X)))), np.zeros(len(X)))
    mu = rl.from_cosine_sum(2, [(1.0, [1.0, 2.0])])
    net = rl.TwoLayerNet(2, np.zeros(0), np.zeros((0, 2)), np.zeros(0), 0.0, np.array([0.5, 1.0]), -0.25, "quadrature")
    assert rl.sup_error(net, mu, rl.BallGrid(2, 1.0, X)) == pytest.approx(dense_sup_error(net, mu, X), rel=1e-12)


def stream_case(rng, ties):
    """Neurons of consecutive streams on five directions, and the projections of 40 points.

    Stream 1 and 4 hold one neuron, stream 2 none and stream 5 a single
    direction, so most streams lack some direction.  With ``ties``, points
    and directions are dyadic, so the projections are exact; every third
    bias is a projection of a point on its own direction and every fourth
    repeats the bias before it with another coefficient.  Stream 7 puts,
    on every direction, a bias below all projections, one equal to the
    least, one equal to the greatest and one above all; the neurons of
    stream 8 share one bias, a projection on direction 0.
    """
    if ties:
        dirs = np.array([[1.0, 0.0], [0.0, -1.0], [0.5, 0.5], [-0.25, 0.75], [1.0, 1.0]])
        X = rng.integers(-8, 9, size=(40, 2)) / 16
    else:
        dirs = rng.normal(size=(5, 2))
        X = rng.uniform(-1.0, 1.0, size=(40, 2))
    sizes = [9, 1, 0, 23, 1, 12, 40]
    labels = rng.integers(0, 5, sum(sizes))
    labels[sizes[0] + sizes[1] + sizes[3] + sizes[4] :][: sizes[5]] = 3
    proj = _project(X, dirs)
    b = rng.uniform(-1.0, 1.0, len(labels))
    a = rng.normal(size=len(labels))
    if ties:
        b[::3] = proj[labels[::3], rng.integers(0, len(X), len(b[::3]))]
        b[4::4] = b[3::4][: len(b[4::4])]
    low, high = proj.min(axis=1), proj.max(axis=1)
    edges = np.column_stack([low - 1.0, low, high, high + 1.0]).ravel()
    shared = np.full(7, np.sort(proj[0])[20])
    sizes = sizes + [len(edges), len(shared)]
    labels = np.concatenate([labels, np.repeat(np.arange(5), 4), rng.integers(0, 5, len(shared))])
    b = np.concatenate([b, edges, shared])
    a = np.concatenate([a, rng.normal(size=len(edges) + len(shared))])
    return a, b, labels, proj, sizes, X, dirs


@pytest.mark.parametrize("ties", [False, True])
def test_ramp_sums_rows_equal_one_stream_calls_bit_for_bit(ties):
    rng = np.random.default_rng(17)
    a, b, labels, proj, sizes, X, dirs = stream_case(rng, ties)
    assert not ties or np.isin(b, proj).sum() >= 20 and len(np.unique(b)) < len(b)
    want = _ramp_sums(a, b, labels, *_sorted_projections(proj), sizes, _by_direction(labels, b))
    assert want.shape == (len(sizes), len(X))
    cuts = np.cumsum(sizes)[:-1]
    for row, a_t, b_t, l_t in zip(want, np.split(a, cuts), np.split(b, cuts), np.split(labels, cuts)):
        assert np.array_equal(row, one_stream(a_t, b_t, l_t, proj))
        assert_matches_dense(row, dense_ramp_sum(X, dirs[l_t], a_t, b_t))


def test_ramp_sums_with_more_labels_than_a_byte_holds():
    # labels up to 299 are grouped as uint16, while a stream whose labels
    # stay below 256 is grouped as uint8 in its own call
    rng = np.random.default_rng(23)
    dirs = rng.normal(size=(300, 2))
    X = rng.uniform(-1.0, 1.0, size=(30, 2))
    proj = _project(X, dirs)
    sizes = [500, 200, 1]
    labels = np.concatenate([rng.integers(0, 300, 500), rng.integers(0, 256, 200), [299]])
    assert len(np.unique(labels)) > 256 and labels[500:700].max() < 256
    b = rng.uniform(-1.5, 1.5, len(labels))
    a = rng.normal(size=len(labels))
    want = _ramp_sums(a, b, labels, *_sorted_projections(proj), sizes, _by_direction(labels, b))
    cuts = np.cumsum(sizes)[:-1]
    for row, a_t, b_t, l_t in zip(want, np.split(a, cuts), np.split(b, cuts), np.split(labels, cuts)):
        assert np.array_equal(row, one_stream(a_t, b_t, l_t, proj))
        assert_matches_dense(row, dense_ramp_sum(X, dirs[l_t], a_t, b_t))


@pytest.mark.parametrize(
    "weights",
    [[0.2, 0.5, 0.3], [1.0, 0.0, 2.5, 0.0, 1e-12], [3.0], [0.0, 7.0], np.random.default_rng(3).random(40)],
)
def test_direction_draws_are_generator_choice(monkeypatch, weights):
    # _draw searches one CDF per call; Generator.choice builds and checks it per stream
    seen = []

    def uniforms(density, idx, u, lo, hi, order):
        seen.append(u)
        return np.zeros(len(idx)), np.ones(len(idx))

    monkeypatch.setattr(sparsifier, "_draw_biases", uniforms)
    weights = np.asarray(weights, dtype=float)
    plan = sparsifier._DrawPlan(None, "thm2", -1.0, 1.0, weights, np.zeros(1), 0.0, np.ones((len(weights), 1)), None)
    streams = [(1, 0), (7, 11), (300, [4, 1, 2]), (64, 2**40)]
    idx, _, _, _ = _draw(plan, streams)
    p = weights / weights.sum()
    want = []
    for n, seed in streams:
        rng = np.random.default_rng(seed)
        want.append((rng.choice(len(p), size=n, p=p), rng.random(n)))
    want_idx, want_u = (np.concatenate(x) for x in zip(*want))
    assert idx.dtype == want_idx.dtype and np.array_equal(idx, want_idx)
    assert np.array_equal(seen[0], want_u)


@pytest.mark.parametrize(
    "m, crowded", [(1, False), (2, False), (255, False), (256, False), (257, False), (4097, False), (4097, True)]
)
def test_draw_order_affects_speed_only(monkeypatch, m, crowded):
    # the key rank * B + floor(u B) leaves u fewer bits the more directions
    # there are: B = 2^16 for one, 2^8 for 256, 2^7 for 257 and 8 for 4097
    rng = np.random.default_rng(m)
    angles = np.linspace(0.0, np.pi, m, endpoint=False)
    profiles = [([f], [w], []) for f, w in zip(rng.uniform(2.0, 6.0, m), rng.normal(size=m) + 1j * rng.normal(size=m))]
    density = padded_density(np.column_stack([np.cos(angles), np.sin(angles)]), profiles)
    plan = _draw_plan(density, rl.AffinePart.zero(2), "thm2")
    if crowded:  # one direction draws most neurons, about a thousand to each of its 8 buckets
        plan = dataclasses.replace(plan, weights=np.where(np.arange(m) == 7, 1e5, plan.weights))
    assert len(plan.first) == m
    streams = [(3000, 1), (1, 2), (5000, [3, 4])]
    idx, a, b, order = _draw(plan, streams)
    # each rank one contiguous run, in rank order, and its uniforms in order of their buckets
    rank, u = plan.rank[idx], rng.random(len(idx))
    assert np.all(np.diff(rank[order]) >= 0)
    B = 2 ** (16 - (m - 1).bit_length())
    by_u = _by_direction(rank, u)
    assert np.all(np.diff(rank[by_u] * B + np.floor(u[by_u] * B)) >= 0)
    if crowded:
        assert np.bincount(rank[by_u] * B + np.floor(u[by_u] * B).astype(int)).max() > 500
    # the same neurons, to the bit, as drawn in the exact (rank, u) order
    monkeypatch.setattr(sparsifier, "_by_direction", lambda rank, u: np.lexsort((u, rank)))
    exact = _draw(plan, streams)
    assert not np.array_equal(exact[3], order)  # the draws ran in another order
    for got, want in zip((idx, a, b), exact):
        assert got.dtype == want.dtype and np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_draw_refuses_a_non_finite_total_mass(axis_measure, bad):
    density = rl.density_from_spectrum(axis_measure, 1.0)
    plan = _draw_plan(density, rl.AffinePart.zero(2), "thm2")
    weights = plan.weights.copy()
    weights[1] = bad
    with pytest.raises(DomainError, match="total mass"):
        _draw(dataclasses.replace(plan, weights=weights), [(4, 1)])


@pytest.mark.parametrize("convention", ["thm2", "prop2"])
def test_a_zero_mass_plan_is_refused_before_any_stream_is_drawn(monkeypatch, convention):
    # the plan sums, checks and normalizes its mass once; _draw did it again on every batch,
    # and a prop2 plan of an empty spectrum died on numpy's "axis 1 is out of bounds" first
    empty = rl.from_cosine_sum(2, [])
    with pytest.raises(DegenerateMeasureError, match=r"^cannot sample from a zero-mass density$"):
        _draw_plan(rl.density_from_spectrum(empty, 1.0), rl.AffinePart.zero(2), convention)
    drawn = []
    monkeypatch.setattr(sparsifier, "_draw", lambda plan, streams: drawn.append(streams))
    with pytest.raises(DegenerateMeasureError, match=r"^cannot sample from a zero-mass density$"):
        rl.error_decay_experiment(empty, 1.0, [4, 8], 2, 0, grid_size=10, convention=convention)
    assert not drawn


def test_one_neuron_budget_bounds_ladders_and_null_networks(monkeypatch):
    monkeypatch.setattr(sparsifier, "_MAX_NEURONS", 100)
    mu = rl.from_cosine_sum(1, [(1.0, [1.0])])
    limit = "is above the limit of 100$"
    with pytest.raises(DomainError, match=rf"^a ladder of 102 neurons over its widths and trials {limit}"):
        rl.error_decay_experiment(mu, 1.0, [17, 34], 2, 0, grid_size=10)
    rl.error_decay_experiment(mu, 1.0, [16, 34], 2, 0, grid_size=10)
    term = rl.HarmonicNullTerm(k=4, j=1, kprime=0, coeff=1.0, d=2, R=1.0)
    grid = rl.ball_grid(2, 1.0, 10)
    for build in (lambda n: rl.discretize_null(term, n), lambda n: rl.mode_connect_perturb(term, n, 1.0, grid)):
        with pytest.raises(DomainError, match=rf"^a null network of n = 101 neurons {limit}"):
            build(101)
        build(100)


def ramp_points_per_draw(monkeypatch, freq):
    density = rl.density_from_spectrum(rl.from_cosine_sum(1, [(1.0, [freq])]), 1.0)
    points = []
    values = RadonDensity._values

    def counted(self, b, *args):
        points.append(np.size(b))
        return values(self, b, *args)

    monkeypatch.setattr(RadonDensity, "_values", counted)
    u = np.random.default_rng(0).random(10_000)
    draw_one(density, u, -1.0, 1.0)
    return len(one_profile_edges(density, -1.0, 1.0)) - 2, sum(points) / len(u)


def test_inverse_cdf_starts_from_the_lobe_of_its_panel(monkeypatch):
    # cos(5x) on (-1, 1) has four roots, so most draws lie in panels with a
    # root at both edges, where a sine lobe is the profile itself; the
    # linear start took 4.67 profile points per draw
    roots, per_draw = ramp_points_per_draw(monkeypatch, 5.0)
    assert roots == 4 and per_draw <= 2.0
    # cos(0.7x) has none: its start is still linear (3.36 points per draw)
    roots, per_draw = ramp_points_per_draw(monkeypatch, 0.7)
    assert roots == 0 and per_draw <= 3.5


def newton_points_per_draw(monkeypatch, density, u):
    """Profile points that the Newton pass of draws u from the density's first profile
    on (-1, 1) evaluates, per draw; its panels and start table are built beforehand."""
    draw_one(density, u[:1], -1.0, 1.0)
    points = []
    values = RadonDensity._values

    def counted(self, b, *args):
        points.append(np.size(b))
        return values(self, b, *args)

    monkeypatch.setattr(RadonDensity, "_values", counted)
    draw_one(density, u, -1.0, 1.0)
    monkeypatch.undo()
    return sum(points) / len(u)


def test_a_draw_starting_from_the_table_makes_one_profile_evaluation(monkeypatch):
    rng = np.random.default_rng(0)
    # from the sine-lobe start, this two-term profile took 3.2 points per draw
    two_terms = rl.density_from_spectrum(rl.from_cosine_sum(1, [(1.0, [5.0]), (-0.6, [13.0])]), 1.0)
    assert newton_points_per_draw(monkeypatch, two_terms, rng.random(10_000)) <= 1.1
    # and the two end panels of cos(5x), between an end of (-1, 1) and its nearest root, 3.8
    cos5 = rl.density_from_spectrum(rl.from_cosine_sum(1, [(1.0, [5.0])]), 1.0)
    starts, _, _, cum = cos5.panels(-1.0, 1.0)
    share = cum[1] / cum[starts[1] - 1]
    u = np.concatenate([rng.uniform(0.0, share, 5000), rng.uniform(1.0 - share, 1.0, 5000)])
    assert newton_points_per_draw(monkeypatch, cos5, u) <= 1.1


@pytest.mark.parametrize("xi, cells", [(2000.0, 1), (300.0, 20), (5.0, sparsifier._TABLE_CELLS)])
def test_start_table_node_solves_stay_within_the_budget(monkeypatch, xi, cells):
    # at xi = 2000 the density has 2548 panels: 129 nodes per panel took 330k
    # solves and made a 16..4096 x 20-trial ladder 3.6 times slower, and on the
    # full lobes of a single cosine the linear start is already the answer
    density = rl.density_from_spectrum(rl.from_cosine_sum(1, [(1.0, [xi])]), 1.0)
    panels = len(density.panels(-1.0, 1.0)[1]) - len(density)
    solved = []
    newton = sparsifier._bracketed_newton
    monkeypatch.setattr(sparsifier, "_bracketed_newton", lambda fn, x, *a: solved.append(len(x)) or newton(fn, x, *a))
    _, M, coef = sparsifier._start_table(density, -1.0, 1.0)
    assert M == cells and coef.shape == (4, cells * (len(density.panels(-1.0, 1.0)[1]) - 1))
    assert sum(solved) == panels * (cells - 1) and len(solved) == (cells > 1)
    assert cells == 1 or (cells + 1) * panels <= sparsifier._TABLE_NODES


# --- TwoLayerNet.evaluate against the dense sum -------------------------------


def assert_evaluates_as_dense(net, X):
    X = np.asarray(X, dtype=float)
    # relative to the size of the terms: a null net's values are 1e-4 of
    # them, so its cancellation leaves rounding far above 1e-12 of its
    # values, in the oracle as in the kernel
    terms = np.abs(X @ net.v + net.c)
    if net.n:
        terms = terms + abs(net.kappa) / net.n * dense_ramp_sum(X, net.omegas, np.abs(net.a), net.b)
    assert np.max(np.abs(net.evaluate(X) - dense_evaluate(net, X))) <= 1e-12 * np.max(terms)


def test_evaluate_matches_dense_on_a_null_net():
    net = rl.discretize_null(rl.HarmonicNullTerm(k=6, j=1, kprime=0, coeff=1.0, d=2, R=1.0), 4000)
    assert len(np.unique(net.omegas, axis=0)) == 63 and net.n == 3969
    assert_evaluates_as_dense(net, rl.ball_grid(2, 1.0, 500).points)


def test_evaluate_matches_dense_on_distinct_directions_with_ties():
    # dyadic directions and points project exactly, so the biases copied
    # from projections tie with them in the kernel and the oracle alike
    rng = np.random.default_rng(7)
    X = rng.integers(-8, 9, size=(60, 3)) / 16
    omegas = np.unique(rng.integers(-4, 5, size=(400, 3)) / 4, axis=0)
    rng.shuffle(omegas)
    b = rng.uniform(-1.0, 1.0, len(omegas))
    tied = np.arange(0, len(b), 3)
    b[tied] = np.sum(omegas[tied] * X[tied % len(X)], axis=1)
    net = rl.TwoLayerNet(3, rng.normal(size=len(b)), omegas, b, 2.5, np.array([0.5, -0.25, 1.0]), 0.125, "quadrature")
    assert len(np.unique(net.omegas, axis=0)) == net.n
    assert np.any(np.isin(net.b, X @ net.omegas.T))
    assert_evaluates_as_dense(net, X)


def grouping_cases():
    rng = np.random.default_rng(19)
    repeated = np.repeat(rng.normal(size=(40, 3)), rng.integers(1, 6, 40), axis=0)
    rng.shuffle(repeated)
    signed_zeros = np.array([[0.0, 1.0], [-0.0, 1.0], [0.5, -0.0], [-1.0, 0.0], [0.5, 0.0], [-0.0, -0.0], [0.0, 0.0]])
    return {
        "null-d2": rl.discretize_null(rl.HarmonicNullTerm(k=6, j=2, kprime=2, coeff=1.0, d=2, R=1.0), 2000).omegas,
        "null-d3": rl.discretize_null(rl.HarmonicNullTerm(k=6, j=3, kprime=2, coeff=1.0, d=3, R=1.0), 4000).omegas,
        "shuffled-repeats": repeated,
        "all-distinct": rng.normal(size=(300, 2)),
        "signed-zeros": signed_zeros,
    }


def unique_evaluate(net, X):
    """TwoLayerNet.evaluate with its directions grouped by np.unique."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    _, first, labels = np.unique(net.omegas, axis=0, return_index=True, return_inverse=True)
    ramps = one_stream(net.a, net.b, labels.ravel(), _project(X, net.omegas[first]))
    return _project(X, net.v[None, :])[0] + net.c + (net.kappa / net.n) * ramps


@pytest.mark.parametrize("case", list(grouping_cases()))
def test_group_rows_matches_np_unique(case):
    rows = grouping_cases()[case]
    _, first, labels = np.unique(rows, axis=0, return_index=True, return_inverse=True)
    got_first, got_labels = _group_rows(rows)
    assert np.array_equal(got_first, first) and np.array_equal(got_labels, labels.ravel())


@pytest.mark.parametrize("case", list(grouping_cases()))
def test_evaluate_is_bitwise_the_np_unique_grouping(case):
    omegas = grouping_cases()[case]
    n, d = omegas.shape
    rng = np.random.default_rng(n)
    net = rl.TwoLayerNet(d, rng.normal(size=n), omegas, rng.uniform(-1.0, 1.0, n), 1.5, rng.normal(size=d), 0.25, "quadrature")
    X = rl.ball_grid(d, 1.0, 200).points
    assert net.evaluate(X).tobytes() == unique_evaluate(net, X).tobytes()


def test_evaluate_d1_point_shapes():
    net = rl.TwoLayerNet(1, [1.0, -2.0, 0.5, 0.75], [[1.0], [-1.0], [1.0], [1.0]], [0.25, -0.5, 0.0, 0.25], 3.0, [0.5], -0.25, "quadrature")
    X = np.linspace(-1.0, 1.0, 9)[:, None]
    want = dense_evaluate(net, X)
    got = net.evaluate(X)
    assert got.shape == (9,)
    assert_evaluates_as_dense(net, X)
    for x, w in zip(X[:, 0], want):
        for point in (x, np.array(x), [x], np.array([x])):
            value = net.evaluate(point)
            assert isinstance(value, float)
            assert abs(value - w) <= 1e-12 * max(1.0, abs(w))


def test_evaluate_empty_network():
    net = rl.TwoLayerNet(2, np.zeros(0), np.zeros((0, 2)), np.zeros(0), 0.0, np.array([0.5, 1.0]), -0.25, "quadrature")
    X = lattice_grid(2, 1.0, 50).points
    assert_evaluates_as_dense(net, X)
    assert net.evaluate([0.5, 0.25]) == 0.25


def test_evaluate_rejects_points_of_the_wrong_width():
    net = rl.TwoLayerNet(2, [1.0], [[0.6, 0.8]], [0.1], 1.0, [0.0, 0.0], 0.0)
    for X in (np.zeros((5, 3)), np.zeros(3), np.zeros((5, 1)), 0.5):
        with pytest.raises(InvalidInputError):
            net.evaluate(X)
    # nor can the affine part have the wrong width
    with pytest.raises(InvalidInputError):
        rl.TwoLayerNet(2, [1.0], [[0.6, 0.8]], [0.1], 1.0, [0.0], 0.0)


def test_evaluate_null_net_memory():
    # the dense N x n ramp matrix of this net peaked at about 30 MiB
    net = rl.discretize_null(rl.HarmonicNullTerm(k=6, j=1, kprime=0, coeff=1.0, d=2, R=1.0), 4000)
    X = rl.ball_grid(2, 1.0, 500).points
    net.evaluate(X[:1])
    tracemalloc.start()
    try:
        net.evaluate(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# in d=3, l1 rescaling reorders directions: (0.5, 0.86, 0) sorts before
# (0.51, 0.6, 0.62), but its l1-unit form sorts after
D3_TERMS = [(1.0, [1.5, 2.58, 0.0]), (-0.8, [1.53, 1.8, 1.86]), (0.5, [0.0, 0.6, -0.8])]


@pytest.mark.parametrize("convention, R, d", [("thm2", 1.0, 2), ("prop2", 0.8, 2), ("thm2", 1.0, 3), ("prop2", 1.0, 3)])
def test_error_decay_trials_equal_sup_error_bit_for_bit(axis_measure, convention, R, d):
    mu = axis_measure if d == 2 else rl.from_cosine_sum(3, D3_TERMS)
    reports = rl.error_decay_experiment(mu, R, [16, 256], trials=3, seed=11, convention=convention)[0]
    density = rl.density_from_spectrum(mu, R)
    affine = rl.fit_affine(density)
    grid = rl.ball_grid(d, R, 500)
    for ni, report in enumerate(reports):
        for t, err in enumerate(report.errors):
            if convention == "prop2":
                net = rl.l1_normalized_network(density, affine, report.n, [11, ni, t])
            else:
                net = rl.sample_network(density, affine, report.n, [11, ni, t])
            assert rl.sup_error(net, mu, grid) == err


def test_error_decay_adds_directions_in_the_order_evaluate_does():
    # prop2 in d=3 draws l1-unit rows whose sorted order is not the
    # density's; at these widths, labelling them in the density's order
    # moves 2 of the 18 errors off sup_error in the last bit
    mu, R = rl.from_cosine_sum(3, D3_TERMS), 1.0
    reports = rl.error_decay_experiment(mu, R, [16, 256, 1024], trials=6, seed=11, convention="prop2")[0]
    density = rl.density_from_spectrum(mu, R)
    affine = rl.fit_affine(density)
    grid = rl.ball_grid(3, R, 500)
    for ni, report in enumerate(reports):
        for t, err in enumerate(report.errors):
            assert rl.sup_error(rl.l1_normalized_network(density, affine, report.n, [11, ni, t]), mu, grid) == err


# --- one draw pass per batch of streams --------------------------------------

LADDER = [16, 64, 256, 1024, 4096]


@pytest.mark.parametrize("convention, d", [("thm2", 1), ("thm2", 3), ("prop2", 2)])
@pytest.mark.parametrize("cap", [1, 100, 2**22])
def test_error_decay_reports_do_not_depend_on_the_batch_cap(
    monkeypatch, near_cancel_measure, axis_measure, convention, d, cap
):
    # cap 1: every stream its own batch; 100: a width-256 stream over the
    # cap among smaller ones; 2**22: the whole ladder in one batch
    mu = {1: near_cancel_measure, 2: axis_measure, 3: rl.from_cosine_sum(3, D3_TERMS)}[d]
    R = 0.8 if convention == "prop2" else 1.0
    args = (mu, R, [16, 100, 256], 4, 13)
    want = rl.error_decay_experiment(*args, convention=convention)
    monkeypatch.setattr(sparsifier, "_BATCH_DRAWS", cap)
    got = rl.error_decay_experiment(*args, convention=convention)
    assert got[:2] == want[:2] and got[3] == want[3]
    assert np.array_equal(got[2].b, want[2].b) and np.array_equal(got[2].omegas, want[2].omegas)


def test_error_decay_memory_stays_bounded(near_cancel_measure):
    # drawn as one batch, the 109,120 neurons peaked at 15.6 MiB
    rl.error_decay_experiment(near_cancel_measure, 1.0, [16], trials=1, seed=0)
    tracemalloc.start()
    try:
        rl.error_decay_experiment(near_cancel_measure, 1.0, LADDER, trials=20, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_error_decay_of_many_narrow_streams_stays_bounded(near_cancel_measure):
    # 8,000 streams of one or two neurons fit one draw batch; their ramp
    # sums as one (streams, points) table would take 32 MiB
    rl.error_decay_experiment(near_cancel_measure, 1.0, [1], trials=1, seed=0)
    tracemalloc.start()
    try:
        reports = rl.error_decay_experiment(near_cancel_measure, 1.0, [1, 2], trials=4000, seed=3)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(r.errors) for r in reports] == [4000, 4000]
    assert peak < 10 * 2**20


def test_error_decay_makes_one_newton_call_per_batch(monkeypatch, axis_measure):
    # every direction's draws of a batch are solved together, and the start
    # table's nodes of every direction in one more pass per ladder
    newton, scored = [], []
    bracketed_newton, ramp_sums = sparsifier._bracketed_newton, sparsifier._ramp_sums
    monkeypatch.setattr(sparsifier, "_bracketed_newton", lambda *args: newton.append(1) or bracketed_newton(*args))
    monkeypatch.setattr(sparsifier, "_ramp_sums", lambda *args: scored.append(1) or ramp_sums(*args))
    trials, grid_size = 20, 500
    rl.error_decay_experiment(axis_measure, 1.0, LADDER, trials=trials, seed=2, grid_size=grid_size)
    # whole streams, in order, packed greedily under both caps
    batches, size, streams = 0, None, 0
    for n in (n for n in LADDER for _ in range(trials)):
        if size is None or size + n > sparsifier._BATCH_DRAWS or streams * grid_size >= sparsifier._SCORE_BLOCK:
            batches, size, streams = batches + 1, 0, 0
        size, streams = size + n, streams + 1
    assert len(rl.density_from_spectrum(axis_measure, 1.0)) == 6
    assert len(newton) - 1 == len(scored) == batches < len(LADDER) * trials


# --- inverse CDF against brentq on the exact CDF -----------------------------


def random_terms(rng, n_terms, poly_degree):
    """A profile's (freqs, weights, poly) with these terms and degree."""
    freqs = rng.uniform(1.0, 25.0, n_terms) * rng.choice([-1.0, 1.0], n_terms)
    weights = rng.normal(size=n_terms) + 1j * rng.normal(size=n_terms)
    return freqs, weights, rng.normal(size=poly_degree + 1)


def random_profile(rng, n_terms, poly_degree):
    """A density on the unit ball of one direction, whose profile has these terms and degree."""
    return padded_density([[1.0]], [random_terms(rng, n_terms, poly_degree)])


def exact_cdf(profile, lo, hi):
    """b -> integral of |g| from lo, from roots found by brentq and G_1 written out here."""
    t, w = profile.freqs[:, 0], profile.weights[:, 0]
    p = np.polynomial.Polynomial(profile.poly[:, 0])
    g = lambda b: np.real(np.exp(-1j * np.multiply.outer(b, t)) @ w) + p(b)
    G1 = lambda b: float(np.real(w @ (np.exp(-1j * t * b) / (-1j * t))) + p.integ()(b))
    xs = np.linspace(lo, hi, 20001)
    vals = g(xs)
    cross = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    roots = [brentq(g, xs[i], xs[i + 1], xtol=1e-15, rtol=4 * np.finfo(float).eps) for i in cross]
    edges = np.array([lo, *roots, hi])
    cum = np.concatenate([[0.0], np.cumsum(np.abs(np.diff([G1(e) for e in edges])))])

    def cdf(b):
        k = min(int(np.searchsorted(edges, b, side="right")) - 1, len(edges) - 2)
        return cum[k] + abs(G1(b) - G1(edges[k]))

    return cdf, np.array(roots), cum[-1]


def one_profile_edges(density, lo, hi):
    """The panel edges on (lo, hi) of the density's first profile."""
    starts, edges, _, _ = density.panels(lo, hi)
    return edges[starts[0] : starts[1]]


def draw_biases(density, idx, u, lo, hi):
    """``_draw_biases`` in the (direction, u) order a ladder batch draws in."""
    return _draw_biases(density, idx, u, lo, hi, _by_direction(idx, u))


def draw_one(density, u, lo, hi):
    """Biases and signs of draws u from the density's first profile on (lo, hi)."""
    return draw_biases(density, np.zeros(len(u), dtype=np.intp), u, lo, hi)


@pytest.mark.parametrize("seed", range(6))
def test_inverse_cdf_matches_brentq(seed):
    rng = np.random.default_rng(seed)
    profile = random_profile(rng, n_terms=int(rng.integers(1, 5)), poly_degree=int(rng.integers(0, 3)))
    R = 1.0
    near_roots = 0
    for lo, hi in ((-R, R), (0.0, R)):
        cdf, roots, total = exact_cdf(profile, lo, hi)
        # draws 1e-6 from each sign-change root, where g -> 0 and Newton falls
        # back to bisection.  Closer in, the CDF is flat to second order and a
        # rounding error e in the target moves the root by e / |g(b)|, for
        # either root finder, so the two could no longer be told apart.
        near = np.concatenate([roots - 1e-6, roots + 1e-6])
        near = near[(near > lo) & (near < hi)]
        near_roots += len(near)
        u = np.concatenate([rng.random(200), [cdf(b) / total for b in near]])
        got, _ = draw_one(profile, u, lo, hi)
        want = [brentq(lambda b: cdf(b) - ui * total, lo, hi, xtol=1e-13, maxiter=500) for ui in u]
        assert np.max(np.abs(got - want)) <= 1e-9 * 2 * R
        assert np.array_equal(got, draw_one(profile, u, lo, hi)[0])
    assert near_roots >= 2


@pytest.mark.parametrize("seed", range(6))
def test_inverse_cdf_sign_is_the_sign_of_the_profile(seed):
    rng = np.random.default_rng(seed)
    profile = random_profile(rng, n_terms=int(rng.integers(1, 5)), poly_degree=int(rng.integers(0, 3)))
    for lo, hi in ((-1.0, 1.0), (0.0, 1.0)):
        b, a = draw_one(profile, rng.random(2000), lo, hi)
        # away from the panel edges, where g vanishes and its sign is rounding noise
        away = np.min(np.abs(b[:, None] - one_profile_edges(profile, lo, hi)[None, :]), axis=1) > 1e-9 * (hi - lo)
        assert away.sum() >= 1990
        assert np.array_equal(a[away], np.where(profile.antiderivative(b[away], 0, 0) >= 0, 1.0, -1.0))


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 1.0)])
def test_a_batch_draws_each_direction_as_it_would_alone(lo, hi):
    # profiles of different term counts and degrees, padded into one density
    rng = np.random.default_rng(11)
    profiles = [random_terms(rng, int(rng.integers(1, 5)), int(rng.integers(0, 3))) for _ in range(4)]
    rows = rng.normal(size=(4, 2))
    density = padded_density(rows / np.linalg.norm(rows, axis=1, keepdims=True), profiles)
    idx, u = rng.integers(0, 4, 4000), rng.random(4000)
    b, a = draw_biases(density, idx, u, lo, hi)
    for r, profile in enumerate(profiles):
        sel = idx == r
        alone = padded_density(density.directions[r : r + 1], [profile])
        for got in (draw_biases(density, idx[sel], u[sel], lo, hi), draw_one(alone, u[sel], lo, hi)):
            assert np.array_equal(got[0], b[sel]) and np.array_equal(got[1], a[sel])


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 1.0)])
def test_64_padded_profiles_draw_as_each_would_alone(monkeypatch, lo, hi):
    # a start table whose coefficients came from a tiled BLAS product could
    # differ with a profile's place in the density; with the node budget out
    # of the way every density here gets the same 128 cells per panel
    monkeypatch.setattr(sparsifier, "_TABLE_NODES", 2**40)
    rng = np.random.default_rng(12)
    profiles = [random_terms(rng, int(rng.integers(1, 5)), int(rng.integers(0, 3))) for _ in range(64)]
    rows = rng.normal(size=(64, 2))
    density = padded_density(rows / np.linalg.norm(rows, axis=1, keepdims=True), profiles)
    idx, u = rng.integers(0, 64, 16_000), rng.random(16_000)
    b, a = draw_biases(density, idx, u, lo, hi)
    assert sparsifier._start_table(density, lo, hi)[1] == sparsifier._TABLE_CELLS
    for r, profile in enumerate(profiles):
        sel = idx == r
        got = draw_one(padded_density(density.directions[r : r + 1], [profile]), u[sel], lo, hi)
        assert np.array_equal(got[0], b[sel]) and np.array_equal(got[1], a[sel])


@pytest.fixture(scope="module")
def many_panels():
    """f(x) = cos(2000 x) in d=1: two directions of 1276 panel edges each on (-1, 1),
    too many panels for the start table to hold cubics, so each panel's one cell
    holds the line in theta from its left edge to its right."""
    mu = rl.from_cosine_sum(1, [(1.0, [2000.0])])
    density = rl.density_from_spectrum(mu, 1.0)
    starts, edges = density.panels(-1.0, 1.0)[:2]
    assert np.array_equal(np.diff(starts), [1276, 1276])
    _, M, coef = sparsifier._start_table(density, -1.0, 1.0)
    assert M == 1 and np.array_equal(coef[:2], [edges[:-1], np.diff(edges)]) and not coef[2:].any()
    return mu, density


@pytest.mark.parametrize("lo, hi", [(-1.0, 1.0), (0.0, 1.0)])
def test_many_panel_draws_keep_each_neurons_bits(many_panels, lo, hi):
    # a shuffled batch of both directions is drawn in (direction, u) order,
    # each direction's targets searched over its own ~1276 running masses
    _, density = many_panels
    rng = np.random.default_rng(21)
    idx, u = rng.integers(0, 2, 300), rng.random(300)
    u[:4] = [0.0, 1e-12, 0.5, 1.0 - 1e-12]
    b, a = draw_biases(density, idx, u, lo, hi)
    assert len(np.unique(idx)) == 2 and np.all((b > lo) & (b < hi))
    for i in range(len(u)):
        alone = draw_biases(density, idx[i : i + 1], u[i : i + 1], lo, hi)
        assert alone[0][0] == b[i] and alone[1][0] == a[i], i
    # an order listing each direction's neurons in one run gives the same bits however u runs in it
    order = np.argsort(idx, kind="stable")
    for got in (_draw_biases(density, idx, u, lo, hi, order), _draw_biases(density, idx, u, lo, hi, order[::-1])):
        assert np.array_equal(got[0], b) and np.array_equal(got[1], a)


def test_many_panel_ladder_scores_are_sup_errors_of_their_nets(many_panels):
    mu, density = many_panels
    widths, trials, seed, grid_size = [16, 300], 3, 8, 200
    reports = rl.error_decay_experiment(mu, 1.0, widths, trials, seed, grid_size)[0]
    affine, grid = rl.fit_affine(density), rl.ball_grid(1, 1.0, grid_size)
    for ni, n in enumerate(widths):
        for t in range(trials):
            net = rl.sample_network(density, affine, n, [seed, ni, t])
            assert reports[ni].errors[t] == rl.sup_error(net, mu, grid)


@pytest.mark.parametrize("d", range(2, 11))
def test_exact_l1_unit_rows_sum_to_one_in_every_d(d):
    rng = np.random.default_rng(d)
    W = rng.normal(size=(2000, d))
    W[::7, -1] = 0.0  # some rows on a coordinate hyperplane
    rows = np.array([_exact_l1_unit(w) for w in W])
    assert np.all(np.abs(rows).sum(axis=1) == 1.0)
    unit = W / np.abs(W).sum(axis=1)[:, None]
    assert np.all(np.abs(rows - unit) <= 4 * d * np.finfo(float).eps)
    assert np.array_equal(np.sign(rows), np.sign(unit))
    # a row whose rewritten largest coordinate already sums to 1.0 keeps its bits
    for w, row in zip(W, rows):
        plain = w / np.abs(w).sum()
        k = np.argmax(np.abs(plain))
        plain[k] = math.copysign(1.0 - np.abs(np.delete(plain, k)).sum(), plain[k])
        if np.abs(plain).sum() == 1.0:
            assert plain.tobytes() == row.tobytes()
