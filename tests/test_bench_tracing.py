"""The benchmark's tracer wraps radonlab functions by name; each name must resolve.

A deleted or renamed function would otherwise only show when the traced
benchmark run fails.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import radonlab as rl
from radonlab.cli import main

_SPEC = importlib.util.spec_from_file_location("tracing", Path(__file__).resolve().parents[1] / "bench" / "tracing.py")
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


def test_traced_names_resolve_on_radonlab():
    for table in (tracing.SPANNED, tracing.COUNTED):
        for module, names in table.items():
            mod = importlib.import_module(f"radonlab.{module}")
            for name in names:
                assert callable(getattr(mod, name, None)), f"radonlab.{module}.{name}"
    for module, cls, attr in tracing.METHODS.values():
        assert attr in vars(getattr(importlib.import_module(f"radonlab.{module}"), cls)), f"{cls}.{attr}"


def test_observed_arguments_exist():
    traced = {f"{m}.{n}" for table in (tracing.SPANNED, tracing.COUNTED) for m, names in table.items() for n in names}
    assert set(tracing.OBSERVERS) <= traced
    # the ramp-bytes observer reads these arguments by name
    assert {"net", "grid"} <= set(inspect.signature(rl.sup_error).parameters)


def test_traced_norm_run(tmp_path):
    spectrum = tmp_path / "spectrum.json"
    rl.save_spectrum(spectrum, 2, [(1.0, [3.0, 4.0]), (-0.5, [1.0, -2.0])])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = main(["norm", "--spectrum", str(spectrum), "--R", "1", "--out", str(tmp_path / "r.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    snap = tracer.snapshot()
    assert snap["radon_measure.tv_norm.calls"] == 1
    assert snap["radon_measure.roots_found"] > 0
    # one root pass per density, and it sees every interior panel edge
    assert snap["radon_measure.sign_change_roots.calls"] == 1
    density = rl.density_from_spectrum(rl.from_cosine_sum(*rl.load_spectrum(spectrum)), 1.0)
    assert snap["radon_measure.roots_found"] == sum(len(edges) - 2 for edges, _, _ in density.panels(-1.0, 1.0))


def test_traced_approximate_run(tmp_path):
    spectrum = tmp_path / "spectrum.json"
    rl.save_spectrum(spectrum, 2, [(1.0, [3.0, 4.0]), (-0.5, [1.0, -2.0])])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        argv = ["approximate", "--spectrum", str(spectrum), "--R", "1", "--n", "16,64", "--trials", "3", "--seed", "1"]
        code = main(argv + ["--report", str(tmp_path / "r.json")])
    finally:
        tracer.uninstall()
    assert code == 0
    snap = tracer.snapshot()
    assert snap["radon_measure.fit_affine.calls"] == 1
    # the scoring grid is the only grid: the affine part needs none
    assert snap["quadrature.ball_grid.calls"] == 1
