"""Spans and counters around radonlab's public functions, for the traced run.

The tracer replaces each traced function on every ``radonlab`` module that
bound it (``from .quadrature import ball_grid`` makes a second binding in
``radonlab.cli``), so calls made inside the library are seen too.  A span
records its name, its parent span, start and end; a function's self time is
its span's duration minus the time its child spans cover.  Hot scalar
functions are only counted.  Spans stay in memory; the run writes those of
its first cycle when it ends.
"""

from __future__ import annotations

import inspect
import resource
import sys
import time
from collections import Counter, defaultdict

# functions that get a span, by module
SPANNED = {
    "cli": ("cmd_norm", "cmd_approximate", "cmd_verify_null", "cmd_modeconnect"),
    "spectrum": ("load_spectrum",),
    "radon_measure": ("density_from_spectrum", "tv_norm", "fit_affine", "ramp_integral_grid"),
    "quadrature": ("ball_grid", "sphere_rule"),
    "harmonics": ("harmonic_eval",),
    "sparsifier": ("sample_network", "l1_normalized_network", "sup_error", "error_decay_experiment", "save_network"),
    "nullspace": ("verify_null", "discretize_null", "mode_connect_perturb"),
    "radon2d": ("adjointness_check", "radon_pairing_check", "radon_transform_2d", "dual_radon_transform"),
}
# methods that get a span: metric prefix -> (module, class, method)
METHODS = {
    "sparsifier.TwoLayerNet.evaluate": ("sparsifier", "TwoLayerNet", "evaluate"),
    "spectrum.evaluate": ("spectrum", "SpectralMeasure", "evaluate"),
}
# hot functions that are counted without a span
COUNTED = {
    "radon_measure": ("direction_masses", "sign_change_roots", "profile_moment"),
    "nullspace": ("ramp_moment_closed_form",),
    "quadrature": ("gauss_legendre",),
}

def _minflt() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _neurons_sampled(counts, bound, net):
    counts["sparsifier.neurons_sampled"] += net.n


def _ramp_bytes(counts, bound, _):
    # sup_error evaluates a dense points x neurons ramp matrix of float64
    counts["sparsifier.sup_error.ramp_bytes"] += len(bound["grid"].points) * bound["net"].n * 8


def _roots_found(counts, bound, found):
    counts["radon_measure.roots_found"] += len(found)


# counters read from a call's bound arguments and its result
OBSERVERS = {
    "sparsifier.sample_network": _neurons_sampled,
    "sparsifier.l1_normalized_network": _neurons_sampled,
    "sparsifier.sup_error": _ramp_bytes,
    "radon_measure.sign_change_roots": _roots_found,
}


class Tracer:
    """Wraps radonlab's functions while installed; accumulates per-name totals."""

    def __init__(self):
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []  # (id, parent id, name, start, end)
        self.recording = False
        self._stack: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._undo: list[tuple] = []

    def _wrap(self, name, fn, spanned: bool):
        observe = OBSERVERS.get(name)
        signature = inspect.signature(fn)
        faults = name == "sparsifier.sup_error"
        clock = time.perf_counter
        tracer = self

        def counted(*args, **kwargs):
            tracer.calls[name] += 1
            result = fn(*args, **kwargs)
            if observe:
                observe(tracer.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        def span(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            stack.append(frame)
            flt = _minflt() if faults else 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                if faults:
                    tracer.counts["sparsifier.sup_error.minflt"] += _minflt() - flt
                stack.pop()
                tracer.self_s[name] += end - start - frame[1]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[1] += end - start
                if tracer.recording:
                    tracer.spans.append((frame[0], parent[0] if parent else None, name, start, end))
            if observe:
                observe(tracer.counts, signature.bind(*args, **kwargs).arguments, result)
            return result

        return span if spanned else counted

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if key == "radonlab" or key.startswith("radonlab.")]
        for spanned, table in ((True, SPANNED), (False, COUNTED)):
            for module, names in table.items():
                for attr in names:
                    target = getattr(sys.modules[f"radonlab.{module}"], attr)
                    wrapper = self._wrap(f"{module}.{attr}", target, spanned)
                    for mod in modules:
                        for key, value in list(vars(mod).items()):
                            if value is target:
                                self._undo.append((mod, key, value))
                                setattr(mod, key, wrapper)
        for name, (module, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules[f"radonlab.{module}"], cls_name)
            self._undo.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, self._wrap(name, cls.__dict__[attr], True))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    def snapshot(self) -> dict[str, float]:
        """Totals so far, under the per-layer metric names."""
        out: dict[str, float] = dict(self.counts)
        out.update({f"{name}.calls": float(v) for name, v in self.calls.items()})
        out.update({f"{name}.self_s": v for name, v in self.self_s.items()})
        return out
