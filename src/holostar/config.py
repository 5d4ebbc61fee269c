"""Centralized certification thresholds.

Every threshold a ``verify`` check compares against lives in one frozen
record so the defaults are auditable in a single place.  Library code always
uses :data:`DEFAULT_TOLERANCES`; the CLI may override a copy for exploratory
runs.  The construction invariants of :mod:`holostar.qcore`
(Hermitian, unitary, normalized) are fixed constants there, not settings.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

from .qcore import _shown


@dataclass(frozen=True)
class Tolerances:
    # single-qubit protocol checks
    synthesis_distance: float = 1e-9
    dynamical_integrand: float = 1e-9
    cyclicity: float = 1e-10
    # two-qubit gate checks
    off_block: float = 1e-10
    holonomy_reconstruction: float = 1e-10
    transport_residual: float = 1e-9
    # end-to-end simulation checks
    aux_restoration: float = 1e-10
    compiler_fidelity: float = 1e-9

    def with_overrides(self, overrides: dict[str, float]) -> "Tolerances":
        """Return a copy with named thresholds replaced; unknown names and
        non-finite or negative values raise."""
        known = {f.name for f in dataclasses.fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise ValueError(f"unknown tolerance name(s): {_shown(sorted(unknown))}")
        for name, value in overrides.items():
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"tolerance {name} must be finite and nonnegative, got {value}")
        return dataclasses.replace(self, **overrides)


DEFAULT_TOLERANCES = Tolerances()

