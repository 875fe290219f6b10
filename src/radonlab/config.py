"""Calibration constants and tolerances.

The values below fall in two groups.  The *identity tolerances* bound
floating-point and quadrature error on relations that hold exactly in the
continuum (the Fourier and sampling bounds, null-measure integrals).  The
*calibration constants* are artifact choices with no analytic status: the
mode-connectivity thresholds were fixed by convergence runs on the bundled
examples and are only meaningful for the default resolutions.  Both groups
can be overridden per run (CLI ``--tol-override key=value``); every report
echoes the overrides that were applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import InvalidInputError


@dataclass
class CalibrationConstants:
    # identity tolerances
    bound_slack: float = 1e-10
    null_tol: float = 1e-8
    # calibration constants (empirical, see module docstring)
    modeconnect_func_tol: float = 1e-3
    modeconnect_mass_min: float = 0.5
    overrides: dict = field(default_factory=dict)

    def apply_overrides(self, pairs: dict[str, float]) -> "CalibrationConstants":
        """Return a copy with the given fields replaced by finite numbers; remembers what changed."""
        valid = {f.name for f in fields(self) if f.name != "overrides"}
        unknown = set(pairs) - valid
        if unknown:
            raise KeyError(f"unknown tolerance override(s): {sorted(unknown)}")
        out = CalibrationConstants(**{f.name: getattr(self, f.name) for f in fields(self) if f.name != "overrides"})
        for key, value in pairs.items():
            value = float(value)
            if not math.isfinite(value):
                raise InvalidInputError(f"tolerance override {key} must be finite, not {value}")
            setattr(out, key, value)
        out.overrides = dict(pairs)
        return out


DEFAULTS = CalibrationConstants()
