"""Calibration constants and tolerances.

The values below fall in two groups.  The *identity tolerances* bound
floating-point and quadrature error on relations that hold exactly in the
continuum (the Fourier and sampling bounds, null-measure integrals);
``null_tol`` is relative to a null term's scale max(1, |coeff| R^(k'+2)),
the size of the moments its pairings sum.  The
*calibration constants* are artifact choices with no analytic status: the
mode-connectivity thresholds were fixed by convergence runs on the bundled
examples and are only meaningful for the default resolutions.
``modeconnect_func_tol`` bounds the functional change relative to the
displacement sum |s a_i| of the added null network, whose quadrature error
grows with its coefficients; ``modeconnect_mass_min`` is the least
coefficient mass that network must carry when s is not 0.  Both groups
can be overridden per run (CLI ``--tol-override key=value``); every report
echoes the overrides that were applied.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .errors import InvalidInputError, check_finite


@dataclass
class CalibrationConstants:
    # identity tolerances
    bound_slack: float = 1e-10
    null_tol: float = 1e-8
    # calibration constants (empirical, see module docstring)
    modeconnect_func_tol: float = 1e-3
    modeconnect_mass_min: float = 0.5
    overrides: dict = field(default_factory=dict)

    def apply_overrides(self, pairs: list[str] | None) -> "CalibrationConstants":
        """Return a copy with the ``key=value`` pairs applied as finite numbers; remembers what changed."""
        valid = [f.name for f in fields(self) if f.name != "overrides"]
        parsed = {}
        for raw in pairs or []:
            if "=" not in raw:
                raise InvalidInputError(f"tolerance override must look like key=value, got {raw!r}")
            key, value = raw.split("=", 1)
            key = key.strip()
            if key not in valid:
                raise InvalidInputError(f"unknown tolerance override {key!r}; the known keys are {', '.join(valid)}")
            try:
                parsed[key] = float(value)
            except ValueError:
                raise InvalidInputError(f"tolerance override {key} must be a number, not {value!r}") from None
            check_finite(parsed[key], f"tolerance override {key}")
        return CalibrationConstants(**({key: getattr(self, key) for key in valid} | parsed), overrides=parsed)


DEFAULTS = CalibrationConstants()
