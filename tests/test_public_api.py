"""The public API, pinned: adding or removing a public name edits this list."""

from __future__ import annotations

import ast
from pathlib import Path

import radonlab as rl
from radonlab import cli

PUBLIC_API = [
    "AffinePart", "ApproxReport", "BallGrid", "BumpFunction", "CalibrationConstants",
    "DegenerateMeasureError", "DomainError", "HarmonicNullTerm",
    "InconsistentMeasureError", "InvalidInputError", "InvariantViolationError",
    "ModeConnectReport", "NullVerificationReport", "PreconditionError", "QuadratureRule",
    "RadonDensity", "RadonlabError", "SpectralMeasure", "TwoLayerNet",
    "UnsupportedDimensionError", "__version__", "adjointness_check", "ball_grid",
    "density_from_spectrum", "discretize_null", "dual_radon_transform",
    "error_decay_experiment", "fit_affine", "fourier_constant_l1", "fourier_constant_l2",
    "from_cosine_sum", "gauss_legendre", "harmonic_dim", "harmonic_eval",
    "l1_normalized_network", "load_network", "load_null_term",
    "load_spectrum", "mode_connect_perturb", "null_term_density", "radon_pairing_check",
    "radon_transform_2d", "ramp_moment_closed_form", "sample_network",
    "save_network", "save_null_term", "save_spectrum", "sphere_rule", "sup_error", "tv_norm",
    "verify_null", "write_decay_csv",
]  # fmt: skip


def test_public_api_is_pinned():
    assert sorted(rl.__all__) == PUBLIC_API
    assert len(PUBLIC_API) == 52
    assert all(hasattr(rl, name) for name in PUBLIC_API)


def test_cli_imports_no_private_name():
    # the CLI is built on the public surface, so a name it needs is a public name
    tree = ast.parse(Path(cli.__file__).read_text())
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "radonlab")
        for alias in node.names
    ]
    assert ("sparsifier", "error_decay_experiment") in imported
    # __version__ is public: a dunder, and in __all__
    assert [name for name in imported if name[1].startswith("_") and not name[1].endswith("__")] == []


def _writer_names(fn: ast.FunctionDef) -> set[str]:
    """The names in ``fn`` that write a report or choose an exit code: ``open``, ``sys.stdout``, ``EXIT_*``."""
    found = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and (node.id == "open" or node.id.startswith("EXIT_")):
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr == "stdout" and getattr(node.value, "id", None) == "sys":
            found.add("sys.stdout")
    return found


def test_commands_leave_writing_and_exit_codes_to_main():
    # each command returns its report and verdict; main alone writes the report and maps the verdict
    tree = ast.parse(Path(cli.__file__).read_text())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    commands = [name for name in functions if name.startswith("cmd_")]
    assert commands == ["cmd_norm", "cmd_approximate", "cmd_verify_null", "cmd_modeconnect"]
    for name in commands:
        assert _writer_names(functions[name]) == set(), name
    assert _writer_names(functions["main"]) == {"open", "sys.stdout", "EXIT_PASS", "EXIT_FAIL"}
