"""The public API, pinned: adding or removing a public name edits this list."""

from __future__ import annotations

import ast
import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest

import radonlab as rl
from radonlab import cli
from radonlab.errors import InvalidInputError
from radonlab.radon_measure import ramp_integral_grid
from radonlab.spectrum import SpectralMeasure

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
    "save_network", "sphere_rule", "sup_error", "tv_norm",
    "verify_null", "write_decay_csv",
]  # fmt: skip


def test_public_api_is_pinned():
    assert sorted(rl.__all__) == PUBLIC_API
    assert len(PUBLIC_API) == 50
    assert all(hasattr(rl, name) for name in PUBLIC_API)


def test_each_job_has_one_path():
    # the sphere rule of verify_null and the base network of mode_connect_perturb
    # were options only tests set, as was QuadratureRule.integrate a method only tests called
    assert list(inspect.signature(rl.verify_null).parameters) == ["term", "xs", "tolerance"]
    assert list(inspect.signature(rl.mode_connect_perturb).parameters) == ["term", "n", "s", "grid"]
    assert not hasattr(rl.QuadratureRule, "integrate")


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


def _freezing_calls(path: Path) -> list[int]:
    """Lines of the ``setflags(...)`` and ``object.__setattr__(...)`` calls in a module."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner = getattr(node.func.value, "id", None)
            if node.func.attr == "setflags" or (node.func.attr, owner) == ("__setattr__", "object"):
                found.append(node.lineno)
    return found


def test_arrays_are_frozen_in_errors_alone():
    # every record keeps its arrays through errors.freeze, so no module grows a freezing policy of its own
    modules = sorted(Path(rl.__file__).parent.glob("*.py"))
    assert [path.name for path in modules if _freezing_calls(path)] == ["errors.py"]


# --- the intake: records keep read-only copies, evaluators read points one way ---

RECORDS = {
    "QuadratureRule": lambda: (
        rl.QuadratureRule,
        dict(nodes=np.array([-0.5, 0.5]), weights=np.ones(2), exactness_degree=1),
    ),
    "BallGrid": lambda: (rl.BallGrid, dict(d=2, R=1.0, points=np.array([[0.1, 0.2], [-0.3, 0.0]]))),
    "RadonDensity": lambda: (
        rl.RadonDensity,
        dict(d=1, R=1.0, directions=np.array([[1.0], [-1.0]]), freqs=np.ones((1, 2)), weights=np.full((1, 2), 0.5j)),
    ),
    "AffinePart": lambda: (rl.AffinePart, dict(v=np.array([1.0, -2.0]), c=0.5)),
    "TwoLayerNet": lambda: (
        rl.TwoLayerNet,
        dict(d=2, a=np.ones(2), omegas=np.eye(2), b=np.array([0.1, -0.1]), kappa=1.0, v=np.array([0.5, 0.0]), c=0.0),
    ),
    "SpectralMeasure": lambda: (
        rl.SpectralMeasure,
        dict(d=1, omegas=np.array([[1.0], [-1.0]]), freqs=np.array([2.0, -2.0]), coefs=np.full(2, 0.5 + 0j)),
    ),
    "BumpFunction": lambda: (rl.BumpFunction, dict(center=np.array([0.1, -0.2]), r=0.5)),
}


@pytest.mark.parametrize("make", RECORDS.values(), ids=RECORDS.keys())
def test_records_hold_read_only_copies_and_leave_the_callers_arrays_writable(make):
    # BallGrid, QuadratureRule, RadonDensity.directions, AffinePart.v and
    # TwoLayerNet.a and .b made the caller's own array read-only
    record, kwargs = make()
    held = record(**kwargs)
    for name, given in kwargs.items():
        if isinstance(given, np.ndarray):
            kept = getattr(held, name)
            assert given.flags.writeable, name
            assert not kept.flags.writeable and not np.shares_memory(kept, given), name
            assert np.array_equal(kept.ravel(), given.ravel()), name


def _evaluators() -> dict:
    """Each point intake, as (d, a function of the points)."""
    mu = rl.from_cosine_sum(1, [(1.0, [2.0]), (-0.5, [0.7])])
    density = rl.density_from_spectrum(mu, 1.0)
    net = rl.TwoLayerNet(1, np.array([1.0, -0.5]), np.array([[1.0], [-1.0]]), np.array([0.1, -0.2]), 2.0, [0.3], 0.1)
    return {
        "SpectralMeasure.evaluate": (1, mu.evaluate),
        "TwoLayerNet.evaluate": (1, net.evaluate),
        "BumpFunction._u": (1, rl.BumpFunction(center=[0.1], r=0.5)._u),
        # the test point (0.2, 0.4) times sqrt(5) is a unit vector, which harmonic_eval requires
        "harmonic_eval": (2, lambda x: rl.harmonic_eval(3, 2, 2, np.multiply(x, math.sqrt(5.0)))),
        "AffinePart.__call__": (1, rl.fit_affine(density)),
        "ramp_integral_grid": (1, lambda x: ramp_integral_grid(density, x)),
        "BallGrid": (3, lambda x: rl.BallGrid(3, 1.0, x).points),
        # the same unit vector, as RadonDensity reads its directions through as_directions
        "RadonDensity": (2, lambda x: rl.RadonDensity(2, 1.0, np.multiply(x, math.sqrt(5.0))).directions),
    }


@pytest.mark.parametrize("name", list(_evaluators()))
def test_points_are_read_one_way(name):
    # a number (d = 1 only), a (d,) vector and an (N, d) batch give the same values,
    # and a batch of another d is refused: AffinePart and ramp_integral_grid raised
    # numpy's matmul mismatch, and BallGrid and RadonDensity kept the wrong columns
    d, evaluate = _evaluators()[name]
    point = np.linspace(0.2, 0.4, d)
    want = np.ravel(evaluate(point[None, :])).tolist()
    assert np.ravel(evaluate(point)).tolist() == want
    if d == 1:
        assert np.ravel(evaluate(0.2)).tolist() == want
    else:
        with pytest.raises(InvalidInputError, match=rf"^points of shape \(\) do not match d={d}$"):
            evaluate(0.2)
    with pytest.raises(InvalidInputError, match=rf"^points of shape \(3, {d + 1}\) do not match d={d}$"):
        evaluate(np.full((3, d + 1), 0.1))


DIRECTION_READERS = {
    "SpectralMeasure": lambda w: SpectralMeasure(2, [w], [1.0], [1.0]),
    "RadonDensity": lambda w: rl.RadonDensity(2, 1.0, [w]),
    "thm2 check_convention": lambda w: rl.TwoLayerNet(2, [1.0], [w], [0.0], 1.0, [0.0, 0.0], 0.0).check_convention(),
    "radon_transform_2d": lambda w: rl.radon_transform_2d(rl.BumpFunction(center=[0.0, 0.0], r=0.5), w, 0.0),
}


@pytest.mark.parametrize("row", [[math.nan, 0.0], [1.0 + 2e-12, 0.0]], ids=["nan", "norm-1+2e-12"])
@pytest.mark.parametrize("reader", list(DIRECTION_READERS))
def test_directions_are_read_one_way(reader, row):
    # each reader tested |w| - 1 its own way, and RadonDensity not at all; a NaN
    # direction passed SpectralMeasure and was blamed on a missing symmetry partner
    norm = float(np.linalg.norm(row))
    message = rf"^directions must be unit vectors, not of norm {re.escape(repr(norm))} at row 0$"
    with pytest.raises(InvalidInputError, match=message):
        DIRECTION_READERS[reader](np.array(row))
