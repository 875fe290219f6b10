"""Radon-density norms, sparse ReLU approximants, and null measures on balls."""

__version__ = "0.1.0"

from .errors import (
    DegenerateMeasureError,
    DomainError,
    InconsistentMeasureError,
    InvalidInputError,
    InvariantViolationError,
    PreconditionError,
    RadonlabError,
    UnsupportedDimensionError,
)
from .quadrature import BallGrid, QuadratureRule, ball_grid, gauss_legendre, sphere_rule
from .harmonics import (
    LegendrePoly,
    SphericalHarmonic,
    funk_hecke_check,
    harmonic_dim,
    harmonic_eval,
    legendre_eval,
)
from .spectrum import (
    SpectralMeasure,
    fourier_constant_l1,
    fourier_constant_l2,
    from_cosine_sum,
    load_spectrum,
    save_spectrum,
)
from .radon_measure import (
    AffinePart,
    DirectionProfile,
    RadonDensity,
    check_fourier_bound,
    density_from_spectrum,
    fit_affine,
    harmonic_moment,
    reconstruct_grid,
    tv_norm,
)
from .sparsifier import (
    ApproxReport,
    TwoLayerNet,
    error_decay_experiment,
    l1_normalized_network,
    load_network,
    sample_network,
    save_network,
    sup_error,
    write_decay_csv,
)
from .nullspace import (
    HarmonicNullTerm,
    ModeConnectReport,
    NullVerificationReport,
    discretize_null,
    load_null_term,
    mode_connect_perturb,
    null_term_density,
    ramp_moment_closed_form,
    save_null_term,
    verify_null,
    witness_nonzero,
)
from .radon2d import (
    BumpFunction,
    adjointness_check,
    dual_radon_transform,
    radon_pairing_check,
    radon_transform_2d,
)
from .config import CalibrationConstants

__all__ = [
    "__version__",
    # errors
    "RadonlabError",
    "InvalidInputError",
    "InvariantViolationError",
    "InconsistentMeasureError",
    "DomainError",
    "PreconditionError",
    "UnsupportedDimensionError",
    "DegenerateMeasureError",
    # quadrature
    "QuadratureRule",
    "BallGrid",
    "gauss_legendre",
    "sphere_rule",
    "ball_grid",
    # harmonics
    "SphericalHarmonic",
    "LegendrePoly",
    "harmonic_dim",
    "legendre_eval",
    "harmonic_eval",
    "funk_hecke_check",
    # spectrum
    "SpectralMeasure",
    "from_cosine_sum",
    "fourier_constant_l2",
    "fourier_constant_l1",
    "load_spectrum",
    "save_spectrum",
    # radon densities
    "DirectionProfile",
    "RadonDensity",
    "AffinePart",
    "density_from_spectrum",
    "tv_norm",
    "check_fourier_bound",
    "reconstruct_grid",
    "fit_affine",
    "harmonic_moment",
    # sparsifier
    "TwoLayerNet",
    "ApproxReport",
    "sample_network",
    "sup_error",
    "l1_normalized_network",
    "error_decay_experiment",
    "save_network",
    "load_network",
    "write_decay_csv",
    # nullspace
    "HarmonicNullTerm",
    "NullVerificationReport",
    "ModeConnectReport",
    "ramp_moment_closed_form",
    "verify_null",
    "witness_nonzero",
    "discretize_null",
    "mode_connect_perturb",
    "null_term_density",
    "load_null_term",
    "save_null_term",
    # radon transforms in the plane
    "BumpFunction",
    "radon_transform_2d",
    "dual_radon_transform",
    "adjointness_check",
    "radon_pairing_check",
    # config
    "CalibrationConstants",
]
