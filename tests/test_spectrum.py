"""Spectral measures of cosine sums: symmetry, evaluation, Fourier constants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import radonlab as rl
from radonlab.errors import InconsistentMeasureError, InvalidInputError
from radonlab.spectrum import SpectralMeasure

from conftest import EPS, random_cosine_terms, write_input


def test_single_cosine_has_four_quarter_atoms(cos_measure):
    assert len(cos_measure) == 4
    assert all(c == pytest.approx(0.25) for c in cos_measure.coefs)
    keys = sorted(zip(cos_measure.omegas[:, 0].tolist(), cos_measure.freqs.tolist()))
    assert keys == [(-1.0, -1.0), (-1.0, 1.0), (1.0, -1.0), (1.0, 1.0)]


def test_two_term_sum_has_eight_atoms(near_cancel_measure):
    assert len(near_cancel_measure) == 8
    near_cancel_measure.validate()


def test_d2_term_normalization():
    mu = rl.from_cosine_sum(2, [(2.0, np.array([3.0, 4.0]))])
    assert len(mu) == 4
    for omega, t, c in zip(mu.omegas, mu.freqs, mu.coefs):
        assert abs(t) == pytest.approx(5.0, abs=1e-12)
        assert np.allclose(np.abs(omega), [0.6, 0.8], atol=1e-12)
        assert c == pytest.approx(0.5)


def test_zero_frequency_rejected():
    with pytest.raises(InvalidInputError):
        rl.from_cosine_sum(2, [(1.0, np.zeros(2))])


def test_evaluate_cosines(cos_measure, near_cancel_measure):
    assert cos_measure.evaluate(0.0) == pytest.approx(1.0, abs=1e-14)
    assert near_cancel_measure.evaluate(0.0) == pytest.approx(0.0, abs=1e-14)
    # direct cosine oracle
    assert near_cancel_measure.evaluate(1.0) == pytest.approx(math.cos(1.0) - math.cos(1.0 + EPS), abs=1e-13)


def test_evaluate_matches_cosine_sum_on_batches():
    rng = np.random.default_rng(1)
    terms = random_cosine_terms(rng, 2, n_terms=4)
    mu = rl.from_cosine_sum(2, terms)
    X = rng.uniform(-1, 1, size=(50, 2))
    direct = sum(a * np.cos(X @ xi) for a, xi in terms)
    assert np.allclose(mu.evaluate(X), direct, atol=1e-12)


def test_evaluate_order_independent(near_cancel_measure):
    mu = near_cancel_measure
    flipped = SpectralMeasure(d=1, omegas=mu.omegas[::-1], freqs=mu.freqs[::-1], coefs=mu.coefs[::-1])
    x = 0.731
    assert flipped.evaluate(x) == pytest.approx(near_cancel_measure.evaluate(x), abs=1e-15)


def test_inconsistent_measure_detected():
    lonely = SpectralMeasure(d=1, omegas=[[1.0]], freqs=[1.0], coefs=[1.0])
    with pytest.raises(InconsistentMeasureError):
        lonely.validate()
    with pytest.raises(InconsistentMeasureError):
        lonely.evaluate(0.5)


def test_atom_requires_unit_direction():
    with pytest.raises(InvalidInputError):
        SpectralMeasure(d=2, omegas=[[0.5, 0.5]], freqs=[1.0], coefs=[1.0])


def test_fourier_constant_l2_closed_form(near_cancel_terms):
    # 2 + 2 eps + eps^2 at eps = 0.01
    expected = 2 + 2 * EPS + EPS**2
    assert rl.fourier_constant_l2(near_cancel_terms) == pytest.approx(expected, abs=1e-14)
    assert rl.fourier_constant_l2(near_cancel_terms) == pytest.approx(2.0201, abs=1e-12)


def test_fourier_constant_trivia():
    assert rl.fourier_constant_l2([(1.0, [1.0])]) == pytest.approx(1.0)
    assert rl.fourier_constant_l2([(3.0, [0.0, 2.0])]) == pytest.approx(12.0)
    assert rl.fourier_constant_l1([(1.0, [1.0, 1.0])]) == pytest.approx(4.0)


def test_fourier_constants_coincide_in_d1(near_cancel_terms):
    assert rl.fourier_constant_l1(near_cancel_terms) == pytest.approx(
        rl.fourier_constant_l2(near_cancel_terms), abs=1e-14
    )
    assert rl.fourier_constant_l1(near_cancel_terms) == pytest.approx(2.0201, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=10_000),
    n_terms=st.integers(min_value=1, max_value=5),
)
def test_norm_equivalence_between_constants(d, seed, n_terms):
    rng = np.random.default_rng(seed)
    terms = random_cosine_terms(rng, d, n_terms=n_terms)
    c2 = rl.fourier_constant_l2(terms)
    c1 = rl.fourier_constant_l1(terms)
    assert c2 <= c1 + 1e-12
    assert c1 <= d * c2 + 1e-12


@settings(max_examples=20, deadline=None)
@given(d=st.integers(min_value=1, max_value=3), seed=st.integers(min_value=0, max_value=10_000))
def test_cosine_sum_always_symmetry_closed(d, seed):
    rng = np.random.default_rng(seed)
    mu = rl.from_cosine_sum(d, random_cosine_terms(rng, d))
    mu.validate()
    x = rng.uniform(-0.5, 0.5, size=d)
    mu.evaluate(x)  # must not raise


def test_spectrum_json_roundtrip(tmp_path, near_cancel_terms):
    path = tmp_path / "spectrum.json"
    write_input(path, 1, near_cancel_terms)
    d, terms = rl.load_spectrum(path)
    assert d == 1
    assert [(a, xi.tolist()) for a, xi in terms] == [(1.0, [1.0]), (-1.0, [1.01])]


def test_spectrum_json_rejects_malformed(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"d": 2, "terms": [{"amplitude": 1.0}]}')
    with pytest.raises(InvalidInputError):
        rl.load_spectrum(path)
    path.write_text('{"d": 2, "terms": [{"amplitude": 1.0, "xi": [1.0]}]}')
    with pytest.raises(InvalidInputError):
        rl.load_spectrum(path)


def test_measure_arrays_are_read_only_copies():
    omegas = np.array([[1.0], [-1.0]])
    mu = SpectralMeasure(d=1, omegas=omegas, freqs=[2.0, -2.0], coefs=[0.5, 0.5])
    omegas[0, 0] = 7.0
    assert mu.omegas.tolist() == [[1.0], [-1.0]]
    assert mu.freqs.dtype == float and mu.coefs.dtype == complex
    for arr in (mu.omegas, mu.freqs, mu.coefs):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    empty = SpectralMeasure(d=3)
    assert len(empty) == 0 and empty.omegas.shape == (0, 3)


@pytest.mark.parametrize(
    "omegas, freqs, coefs",
    [
        ([[1.0, 0.0]], [1.0], [1.0]),  # direction of the wrong dimension
        ([1.0], [1.0], [1.0]),  # directions not a matrix
        ([[1.0]], [1.0, -1.0], [1.0, 1.0]),  # one direction for two atoms
        ([[1.0], [-1.0]], [1.0, -1.0], [1.0]),  # one coefficient for two atoms
    ],
)
def test_measure_rejects_mismatched_arrays(omegas, freqs, coefs):
    with pytest.raises(InvalidInputError):
        SpectralMeasure(d=1, omegas=omegas, freqs=freqs, coefs=coefs)


# --- loading --------------------------------------------------------------------


def test_spectrum_dimension_may_be_an_integral_float(tmp_path):
    path = tmp_path / "spectrum.json"
    path.write_text('{"d": 2.0, "terms": [{"amplitude": 1.0, "xi": [1.0, 2.0]}]}')
    d, terms = rl.load_spectrum(path)
    assert d == 2 and type(d) is int
    assert [(a, xi.tolist()) for a, xi in terms] == [(1.0, [1.0, 2.0])]


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"d": 1, "terms": 5}', "'terms' must be a list, not 5"),
        ('{"d": 1, "terms": [3.0]}', "'terms' entries must be objects, not 3.0"),
        ('{"d": 1, "terms": null}', "'terms' must be a list, not None"),
        ('{"d": 1, "terms": true}', "'terms' must be a list, not True"),
        ('{"d": 1, "terms": "ab"}', "'terms' must be a list, not 'ab'"),
        ('{"d": 1, "terms": {}}', "'terms' must be a list, not {}"),
        ('{"d": 1, "terms": [{"amplitude": 1.0, "xi": [1.0]}, [5]]}', "'terms' entries must be objects, not [5]"),
        ('{"d": 1, "terms": [null]}', "'terms' entries must be objects, not None"),
        ('{"d": 1, "terms": [{"amplitude": "one", "xi": [1.0]}]}', "'amplitude' must be a number: could not convert string"),
        ('{"d": 1, "terms": [{"xi": [1.0]}]}', "missing 'amplitude'"),
        ('{"terms": []}', "missing 'd'"),
    ],
)
def test_spectrum_loader_names_the_fault(tmp_path, text, message):
    path = tmp_path / "spectrum.json"
    path.write_text(text)
    with pytest.raises(InvalidInputError) as info:
        rl.load_spectrum(path)
    assert str(info.value).startswith(f"malformed spectrum file: {message}")


# --- oracle: the per-atom code the arrays replaced --------------------------------
#
# reference_atoms, reference_validate and reference_groups are the per-atom
# from_cosine_sum, SpectralMeasure.validate and density_from_spectrum grouping
# as they were before the measure became three arrays.  Keys still round
# frequencies with Python's round.  Three changes: the profile weight squares
# t as t * t, which numpy's t**2 also does (Python's t**2 calls libm pow,
# which can be 1 ulp off); directions are grouped to 12 decimals, keeping the
# first seen, where they were grouped by exact value, which split parallel
# frequencies whose directions differ in the last bit; and each group's
# terms fold by reference_fold, as the density stores them.


def reference_atoms(terms):
    merged: dict = {}
    store: dict = {}
    for amp, xi in terms:
        xi = np.atleast_1d(np.asarray(xi, dtype=float))
        norm = float(np.linalg.norm(xi))
        omega = xi / norm
        quarter = complex(amp) / 4.0
        for w, t in ((omega, norm), (-omega, -norm), (omega, -norm), (-omega, norm)):
            k = (tuple(np.round(w, 15)), round(t, 15))
            merged[k] = merged.get(k, 0.0) + quarter
            store[k] = (w, t)
    return [(store[k][0], store[k][1], c) for k, c in merged.items()]


def reference_validate(atoms, tol=1e-12) -> bool:
    key = lambda w, t: (tuple(np.round(w, 9)), round(t, 9))
    table: dict = {}
    for w, t, c in atoms:
        table[key(w, t)] = table.get(key(w, t), 0) + c
    for w, t, c in atoms:
        for pw, pt, pc in ((-w, -t, c), (-w, t, c.conjugate()), (w, -t, c.conjugate())):
            got = table.get(key(pw, pt))
            if got is None or abs(got - pc) > tol * max(1.0, abs(pc)):
                return False
    return True


def reference_groups(atoms):
    groups: dict = {}
    first: dict = {}
    for w, t, c in atoms:
        key = tuple(np.round(w, 12).tolist())
        first.setdefault(key, tuple(w.tolist()))
        groups.setdefault(key, []).append((t, -(t * t) * c))
    return sorted((first[key], reference_fold(members)) for key, members in groups.items())


def reference_fold(members):
    """The terms in order, each with its first unused exact partner (-t, conj w)
    after it taken in as (t, 2 w)."""
    folded, used = [], [False] * len(members)
    for i, (t, w) in enumerate(members):
        if used[i]:
            continue
        for j in range(i + 1, len(members)):
            if not used[j] and members[j] == (-t, w.conjugate()):
                used[j] = True
                w = 2 * w
                break
        folded.append((t, w))
    return folded


def as_measure(d, atoms):
    return SpectralMeasure(
        d,
        np.array([w for w, _, _ in atoms]).reshape(len(atoms), d),
        [t for _, t, _ in atoms],
        [c for _, _, c in atoms],
    )


def accepts(mu) -> bool:
    try:
        mu.validate()
    except InconsistentMeasureError:
        return False
    return True


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def cosine_sums(draw):
    """Cosine sums in d = 1..3 with repeated, negated, rescaled and axis-aligned
    frequencies: the spectra whose atoms merge, and whose directions hold -0.0."""
    d = draw(st.integers(1, 3))
    nonzero = st.integers(-6, 6).filter(bool)
    vector = st.lists(st.integers(-6, 6), min_size=d, max_size=d).filter(any).map(lambda v: np.array(v) / 2)
    axis = st.tuples(st.integers(0, d - 1), nonzero).map(lambda jk: jk[1] * np.eye(d)[jk[0]])
    xis = draw(st.lists(st.one_of(vector, axis), min_size=1, max_size=4))
    for i, scale in draw(st.lists(st.tuples(st.integers(0, len(xis) - 1), st.sampled_from([1, -1, 2, -2])), max_size=5)):
        xis.append(scale * xis[i])
    amplitude = st.floats(-3, 3, allow_nan=False, allow_infinity=False)
    return d, [(draw(amplitude), xi) for xi in draw(st.permutations(xis))]


def assert_matches_reference(d, terms, pick=0):
    mu = rl.from_cosine_sum(d, terms)
    atoms = reference_atoms(terms)
    assert same_bits(mu.omegas, np.array([w for w, _, _ in atoms]))
    assert same_bits(mu.freqs, np.array([t for _, t, _ in atoms]))
    assert same_bits(mu.coefs, np.array([c for _, _, c in atoms]))
    # accept/reject: the measure, one atom dropped, one coefficient off by 2e-12 |c|
    i = pick % len(atoms)
    w, t, c = atoms[i]
    variants = [atoms, atoms[:i] + atoms[i + 1 :], atoms[:i] + [(w, t, c * (1 + 2e-12))] + atoms[i + 1 :]]
    for variant in variants:
        assert accepts(as_measure(d, variant)) == reference_validate(variant)
    assert accepts(mu)
    density = rl.density_from_spectrum(mu, 1.0)
    groups = reference_groups(atoms)
    assert same_bits(density.directions, np.array([key for key, _ in groups]).reshape(len(groups), d))
    # column r holds direction r's folded atoms in atom order, then empty slots
    for r, (_, members) in enumerate(groups):
        empty = [0.0] * (len(density.freqs) - len(members))
        assert same_bits(density.freqs[:, r], np.array([t for t, _ in members] + empty))
        assert same_bits(density.weights[:, r], np.array([weight for _, weight in members] + empty, dtype=complex))
    moment = sum(abs(c) * (t * t) for _, t, c in atoms)
    assert rl.radon_measure.spectral_second_moment(mu) == moment


@settings(max_examples=200, deadline=None)
@given(spectrum=cosine_sums(), pick=st.integers(0, 10**6))
def test_arrays_match_per_atom_reference(spectrum, pick):
    assert_matches_reference(*spectrum, pick)


@pytest.mark.parametrize(
    "d, terms",
    [
        # frequencies one ulp apart share a key: the atoms keep the last term's t
        (1, [(1.0, [1.0]), (2.0, [np.nextafter(1.0, 2.0)])]),
        # coefficients add in term order: (c + 1/4) - c = 0, not 1/4
        (1, [(1e17, [2.0]), (1.0, [2.0]), (-1e17, [-2.0])]),
        (2, [(1.0, [3.0, 0.0]), (0.5, [-6.0, 0.0]), (-1.0, [0.0, -2.0])]),
        (3, [(1.0, [0.0, 0.0, 1.0]), (1.0, [0.0, 0.0, 1.0]), (-2.0, [0.0, 0.0, -1.0])]),
    ],
)
def test_crafted_spectra_match_per_atom_reference(d, terms):
    for pick in range(4 * len(terms)):
        assert_matches_reference(d, terms, pick)


@pytest.mark.parametrize("gap", [1e-10, -1e-10, 1e-12, -1e-12, 1e-14, -1e-14])
@pytest.mark.parametrize("d", [1, 2])
def test_frequencies_a_rounding_apart_close_as_one_key(d, gap):
    # validate compared a partner key's summed coefficient with one atom's own, so
    # cos(x) + cos(x'), with x' a 9-decimal rounding from x, was a "missing symmetry partner"
    base, near = ([1.0], [1.0 + gap]) if d == 1 else ([1.0, 0.0], [1.0, gap])
    mu = rl.from_cosine_sum(d, [(1.0, base), (1.0, near)])
    mu.validate()
    doubled = rl.tv_norm(rl.density_from_spectrum(rl.from_cosine_sum(d, [(2.0, base)]), 1.0))
    assert rl.tv_norm(rl.density_from_spectrum(mu, 1.0)) == pytest.approx(doubled, rel=1e-6)


def test_a_key_whose_partner_sums_differ_is_refused():
    # two atoms a rounding apart share the key (1, 1); the partner key (-1, -1) holds only one of them
    mu = rl.from_cosine_sum(1, [(1.0, [1.0]), (1.0, [1.0 + 1e-10])])
    keep = ~(mu.freqs < -1.0)
    assert np.count_nonzero(~keep) == 2
    with pytest.raises(InconsistentMeasureError, match="missing symmetry partner"):
        SpectralMeasure(1, mu.omegas[keep], mu.freqs[keep], mu.coefs[keep]).validate()


def test_validate_rejects_a_coefficient_off_by_two_tolerances():
    mu = rl.from_cosine_sum(1, [(8.0, [1.0]), (-4.0, [1.01])])  # |c| >= 1: the tolerance is 1e-12 |c|
    coefs = mu.coefs.copy()
    coefs[3] *= 1 + 2e-12
    with pytest.raises(InconsistentMeasureError, match="missing symmetry partner"):
        SpectralMeasure(1, mu.omegas, mu.freqs, coefs).validate()
    coefs[3] = mu.coefs[3] * (1 + 0.5e-12)
    SpectralMeasure(1, mu.omegas, mu.freqs, coefs).validate()


def test_axis_aligned_partners_hold_negative_zero():
    # (3, 0) and (-6, 0): the direction (1, 0) is also met as (1, -0.0)
    mu = rl.from_cosine_sum(2, [(1.0, [3.0, 0.0]), (0.5, [-6.0, 0.0])])
    mu.validate()
    assert np.signbit(mu.omegas[:, 1]).any()
    density = rl.density_from_spectrum(mu, 1.0)
    assert density.directions.tolist() == [[-1.0, 0.0], [1.0, 0.0]]
    # each direction's four atoms are two conjugate pairs, each one slot
    assert np.count_nonzero(density.freqs, axis=0).tolist() == [2, 2]


def test_frequencies_too_large_to_round_keep_their_own_keys():
    # rounding to 15 decimals overflowed above about 1.8e293 (9 decimals in
    # validate: 1.8e299), with numpy's warning, and every such frequency had the key inf
    mu = rl.from_cosine_sum(1, [(1.0, [1e300]), (2.0, [1.5e300])])
    assert sorted(mu.freqs.tolist()) == [-1.5e300, -1.5e300, -1e300, -1e300, 1e300, 1e300, 1.5e300, 1.5e300]
    assert sorted(mu.coefs.real.tolist()) == [0.25] * 4 + [0.5] * 4
    mu.validate()


def test_parallel_frequencies_share_one_direction():
    # (0.5, 0.5) and (1.5, 1.5) normalise to directions one ulp apart; as two
    # directions the density failed its evenness check (exit 3)
    t1, t2 = math.sqrt(0.5), math.sqrt(4.5)
    density = rl.density_from_spectrum(rl.from_cosine_sum(2, [(1.0, [0.5, 0.5]), (1.0, [1.5, 1.5])]), 1.0)
    assert len(density) == 2
    # each conjugate pair of atoms is one slot, with the sign of t seen first
    assert density.freqs.tolist() == [[-t1, t1], [-t2, t2]]
    on_axis = rl.density_from_spectrum(rl.from_cosine_sum(2, [(1.0, [t1, 0.0]), (1.0, [t2, 0.0])]), 1.0)
    assert rl.tv_norm(density) == pytest.approx(rl.tv_norm(on_axis), rel=1e-12)
