"""The public API, pinned: adding or removing a public name edits this list."""

from __future__ import annotations

import radonlab as rl

PUBLIC_API = [
    "AffinePart", "ApproxReport", "BallGrid", "BumpFunction", "CalibrationConstants",
    "DegenerateMeasureError", "DirectionProfile", "DomainError", "HarmonicNullTerm",
    "InconsistentMeasureError", "InvalidInputError", "InvariantViolationError", "LegendrePoly",
    "ModeConnectReport", "NullVerificationReport", "PreconditionError", "QuadratureRule",
    "RadonDensity", "RadonlabError", "SpectralMeasure", "SphericalHarmonic", "TwoLayerNet",
    "UnsupportedDimensionError", "__version__", "adjointness_check", "ball_grid",
    "check_fourier_bound", "density_from_spectrum", "discretize_null", "dual_radon_transform",
    "error_decay_experiment", "fit_affine", "fourier_constant_l1", "fourier_constant_l2",
    "from_cosine_sum", "funk_hecke_check", "gauss_legendre", "harmonic_dim", "harmonic_eval",
    "harmonic_moment", "l1_normalized_network", "legendre_eval", "load_network", "load_null_term",
    "load_spectrum", "mode_connect_perturb", "null_term_density", "radon_pairing_check",
    "radon_transform_2d", "ramp_moment_closed_form", "reconstruct_grid", "sample_network",
    "save_network", "save_null_term", "save_spectrum", "sphere_rule", "sup_error", "tv_norm",
    "verify_null", "witness_nonzero", "write_decay_csv",
]  # fmt: skip


def test_public_api_is_pinned():
    assert sorted(rl.__all__) == PUBLIC_API
    assert len(PUBLIC_API) == 61
    assert all(hasattr(rl, name) for name in PUBLIC_API)
