"""Sampled networks: conventions, determinism, decay experiments, file formats."""

from __future__ import annotations

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
from radonlab.sparsifier import _draw, _draw_biases, _draw_plan, _exact_l1_unit, _project, _ramp_sums

from conftest import decay_slope, padded_density, random_cosine_terms


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
    net = rl.sample_network(density, norm, rl.AffinePart.zero(1), 1, seed=0)
    assert net.a.tolist() == [-1.0]
    assert -R < net.b[0] < R
    assert net.kappa == norm


def test_sampling_determinism(near_cancel_setup):
    mu, density, norm, affine = near_cancel_setup
    n1 = rl.sample_network(density, norm, affine, 64, seed=123)
    n2 = rl.sample_network(density, norm, affine, 64, seed=123)
    assert np.array_equal(n1.a, n2.a) and np.array_equal(n1.b, n2.b)
    assert np.array_equal(n1.omegas, n2.omegas)
    n3 = rl.sample_network(density, norm, affine, 64, seed=124)
    assert not np.array_equal(n1.b, n3.b)


def test_thm2_convention_invariants(near_cancel_setup):
    mu, density, norm, affine = near_cancel_setup
    net = rl.sample_network(density, norm, affine, 512, seed=9)
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
    net = rl.sample_network(density, rl.tv_norm(density), rl.AffinePart.zero(2), 4096, seed=17)
    assert np.all((net.b > -R) & (net.b < R))
    for r, w in enumerate(density.directions):
        sel = np.all(net.omegas == w, axis=1)
        assert sel.any()
        assert np.array_equal(net.a[sel], np.where(density.antiderivative(net.b[sel], 0, r) >= 0, 1.0, -1.0))


def test_bias_histogram_tracks_density(near_cancel_setup):
    # chi-square sanity: sampled biases follow |g| / norm across 8 bins
    mu, density, norm, affine = near_cancel_setup
    n = 4000
    net = rl.sample_network(density, norm, affine, n, seed=21)
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
        rl.sample_network(density, 0.0, rl.AffinePart.zero(1), 4, seed=0)


def test_sup_error_zero_network():
    mu = rl.SpectralMeasure(d=1)
    net = rl.TwoLayerNet(
        d=1, a=np.zeros(0), omegas=np.zeros((0, 1)), b=np.zeros(0),
        kappa=0.0, v=np.zeros(1), c=0.0, convention="quadrature",
    )
    grid = rl.ball_grid(1, 1.0, 50, mode="lattice")
    assert rl.sup_error(net, mu, grid) == 0.0


def test_quadrature_network_converges_to_reconstruction(cos_measure):
    # a dense product-quadrature net approaches the ramp pairing
    R = math.pi / 2
    density = rl.density_from_spectrum(cos_measure, R)
    grid = rl.ball_grid(1, R, 100, mode="lattice")
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
    grid = rl.ball_grid(1, 1.0, 200, mode="low-discrepancy")
    errs = [
        rl.sup_error(rl.l1_normalized_network(density, affine, 2048, seed=s), mu, grid)
        for s in range(5)
    ]
    assert min(errs) < 3.0 * density.R * norm / math.sqrt(2048)


def test_error_decay_experiment_small(near_cancel_measure):
    reports = rl.error_decay_experiment(near_cancel_measure, 1.0, [16, 64, 256], trials=10, seed=1)
    for r in reports:
        assert r.min_error <= r.bound
        assert r.mean_error <= 1.1 * r.bound
        assert r.min_error <= r.mean_error <= r.max_error
        assert r.trials == 10 and r.grid_size == 500
    assert decay_slope(reports) < 0.0


def test_error_decay_deterministic_and_schedule_independent(near_cancel_measure):
    r1 = rl.error_decay_experiment(near_cancel_measure, 1.0, [16, 64], trials=4, seed=5)
    r2 = rl.error_decay_experiment(near_cancel_measure, 1.0, [16, 64], trials=4, seed=5)
    assert [r.errors for r in r1] == [r.errors for r in r2]


def test_error_decay_requires_increasing_widths(near_cancel_measure):
    with pytest.raises(InvalidInputError):
        rl.error_decay_experiment(near_cancel_measure, 1.0, [64, 64], trials=2, seed=0)


def test_network_json_roundtrip(tmp_path, near_cancel_setup):
    mu, density, norm, affine = near_cancel_setup
    net = rl.sample_network(density, norm, affine, 32, seed=2)
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


@pytest.mark.parametrize("case", range(5))
def test_save_network_writes_the_bytes_of_json_dump(tmp_path, case):
    net = list(network_cases())[case]
    path = tmp_path / "network.json"
    rl.save_network(path, net)
    assert path.read_text() == json_dump_network(net)


def test_decay_csv_format(tmp_path, near_cancel_measure):
    reports = rl.error_decay_experiment(near_cancel_measure, 1.0, [16, 64], trials=3, seed=8)
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


def kernel_ramp_sum(net, X):
    _, first, labels = np.unique(net.omegas, axis=0, return_index=True, return_inverse=True)
    return _ramp_sums(net.a, net.b, labels.ravel(), _project(X, net.omegas[first]))


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
    X = rl.ball_grid(2, 1.0, 500, mode="low-discrepancy").points
    for n in (1, 37, 4096):
        net = rl.sample_network(density, rl.tv_norm(density), affine, n, seed=n)
        assert_matches_dense(kernel_ramp_sum(net, X), dense_ramp_sum(X, net.omegas, net.a, net.b))
        assert rl.sup_error(net, axis_measure, rl.BallGrid(2, 1.0, X, "lattice")) == pytest.approx(
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
    X = np.vstack([rl.ball_grid(2, 1.0, 300, mode="low-discrepancy").points, [[1.0, 0.0], [-1.0, 0.0]]])
    assert 1.0 in (X @ net.omegas.T)
    assert_matches_dense(kernel_ramp_sum(net, X), dense_ramp_sum(X, net.omegas, net.a, net.b))
    assert rl.sup_error(net, axis_measure, rl.BallGrid(2, 1.0, X, "lattice")) == pytest.approx(
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
    assert_matches_dense(_ramp_sums(a, b, relabel[order], _project(X, dirs[[2, 0, 1]])), want)
    mu = rl.from_cosine_sum(2, [(1.0, [1.0, 2.0])])
    assert rl.sup_error(net, mu, rl.BallGrid(2, 1.0, X, "lattice")) == pytest.approx(dense_sup_error(net, mu, X), rel=1e-12)


def test_ramp_sums_with_undrawn_directions(axis_measure):
    density = rl.density_from_spectrum(axis_measure, 1.0)
    X = rl.ball_grid(2, 1.0, 200, mode="low-discrepancy").points
    plan = _draw_plan(density, rl.AffinePart.zero(2), "thm2", rl.tv_norm(density))
    idx, a, b = _draw(plan, [(3, 1)])
    net = plan.net(idx, a, b)
    assert len(np.unique(idx)) < len(density)
    got = _ramp_sums(net.a, net.b, idx, _project(X, density.directions))
    assert_matches_dense(got, dense_ramp_sum(X, net.omegas, net.a, net.b))


def test_ramp_sums_empty_network():
    X = rl.ball_grid(2, 1.0, 50, mode="lattice").points
    assert np.array_equal(_ramp_sums(np.zeros(0), np.zeros(0), np.zeros(0, int), np.zeros((0, len(X)))), np.zeros(len(X)))
    mu = rl.from_cosine_sum(2, [(1.0, [1.0, 2.0])])
    net = rl.TwoLayerNet(2, np.zeros(0), np.zeros((0, 2)), np.zeros(0), 0.0, np.array([0.5, 1.0]), -0.25, "quadrature")
    assert rl.sup_error(net, mu, rl.BallGrid(2, 1.0, X, "lattice")) == pytest.approx(dense_sup_error(net, mu, X), rel=1e-12)


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
    want = _ramp_sums(a, b, labels, proj, sizes)
    assert want.shape == (len(sizes), len(X))
    cuts = np.cumsum(sizes)[:-1]
    for row, a_t, b_t, l_t in zip(want, np.split(a, cuts), np.split(b, cuts), np.split(labels, cuts)):
        assert np.array_equal(row, _ramp_sums(a_t, b_t, l_t, proj))
        assert_matches_dense(row, dense_ramp_sum(X, dirs[l_t], a_t, b_t))


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
    assert_evaluates_as_dense(net, rl.ball_grid(2, 1.0, 500, mode="low-discrepancy").points)


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
    X = rl.ball_grid(2, 1.0, 50, mode="lattice").points
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
    X = rl.ball_grid(2, 1.0, 500, mode="low-discrepancy").points
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
    reports = rl.error_decay_experiment(mu, R, [16, 256], trials=3, seed=11, convention=convention)
    density = rl.density_from_spectrum(mu, R)
    affine = rl.fit_affine(density)
    grid = rl.ball_grid(d, R, 500, mode="low-discrepancy")
    for ni, report in enumerate(reports):
        for t, err in enumerate(report.errors):
            if convention == "prop2":
                net = rl.l1_normalized_network(density, affine, report.n, [11, ni, t])
            else:
                net = rl.sample_network(density, rl.tv_norm(density), affine, report.n, [11, ni, t])
            assert rl.sup_error(net, mu, grid) == err


def test_error_decay_adds_directions_in_the_order_evaluate_does():
    # prop2 in d=3 draws l1-unit rows whose sorted order is not the
    # density's; at these widths, labelling them in the density's order
    # moves 2 of the 18 errors off sup_error in the last bit
    mu, R = rl.from_cosine_sum(3, D3_TERMS), 1.0
    reports = rl.error_decay_experiment(mu, R, [16, 256, 1024], trials=6, seed=11, convention="prop2")
    density = rl.density_from_spectrum(mu, R)
    affine = rl.fit_affine(density)
    grid = rl.ball_grid(3, R, 500, mode="low-discrepancy")
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
    assert rl.error_decay_experiment(*args, convention=convention) == want


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
        reports = rl.error_decay_experiment(near_cancel_measure, 1.0, [1, 2], trials=4000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(r.errors) for r in reports] == [4000, 4000]
    assert peak < 10 * 2**20


def test_error_decay_makes_one_newton_call_per_batch(monkeypatch, axis_measure):
    # every direction's draws of a batch are solved together
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
    assert len(newton) == len(scored) == batches < len(LADDER) * trials


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


def draw_one(density, u, lo, hi):
    """Biases and signs of draws u from the density's first profile on (lo, hi)."""
    return _draw_biases(density, np.zeros(len(u), dtype=np.intp), u, lo, hi)


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
    density = padded_density(rng.normal(size=(4, 2)), profiles)
    idx, u = rng.integers(0, 4, 4000), rng.random(4000)
    b, a = _draw_biases(density, idx, u, lo, hi)
    for r, profile in enumerate(profiles):
        sel = idx == r
        alone = padded_density(density.directions[r : r + 1], [profile])
        for got in (_draw_biases(density, idx[sel], u[sel], lo, hi), draw_one(alone, u[sel], lo, hi)):
            assert np.array_equal(got[0], b[sel]) and np.array_equal(got[1], a[sel])


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
