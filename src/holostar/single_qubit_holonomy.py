"""Three-step synthesis of holonomic single-qubit rotations.

A rotation R_m(dphi) about the Bloch axis m = (sin t cos p, sin t sin p,
cos t) is realized by driving the qubit along two meridians of the Bloch
sphere that differ in azimuth by dphi: rotate the target eigenstate down to
|0>, swing it to |1> along the shifted meridian, and bring it back.  The
drive phase of each leg is held a quarter turn off the state's azimuth, which
keeps the instantaneous energy expectation at zero, so the accumulated phase
is purely geometric (the solid angle of the enclosed wedge).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pulse import Envelope, FieldSegment, PulseSchedule, evolve, expectation_trace, segment_unitary
from .qcore import Operator, StateVector, _isfinite, phase_invariant_distance, wrap_phase

__all__ = [
    "RotationTarget",
    "GeometricPhaseReport",
    "synthesize",
    "target_unitary",
    "verify_synthesis",
    "geometric_phase",
]


@dataclass(frozen=True)
class RotationTarget:
    """Rotation axis polar angles (theta, phi) and geometric phase dphi.

    At the poles (theta = 0 or pi) phi is degenerate; any value yields the
    same gate and the default 0 is used when the caller has no preference.
    """

    theta: float
    phi: float = 0.0
    dphi: float = 0.0

    def __post_init__(self):
        if not -1e-12 <= self.theta <= math.pi + 1e-12:
            raise ValueError(f"polar angle must lie in [0, pi], got {self.theta}")
        for name in ("phi", "dphi"):
            if not _isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        object.__setattr__(self, "theta", min(max(float(self.theta), 0.0), math.pi))
        object.__setattr__(self, "phi", float(self.phi) % math.tau)
        d = wrap_phase(float(self.dphi))
        object.__setattr__(self, "dphi", d)

    @property
    def axis(self) -> tuple[float, float, float]:
        """Unit Bloch vector of the rotation axis."""
        st = math.sin(self.theta)
        return st * math.cos(self.phi), st * math.sin(self.phi), math.cos(self.theta)

    def bloch_state(self) -> StateVector:
        """The +1 eigenstate cos(t/2)|0> + e^{i p} sin(t/2)|1> of the axis."""
        return StateVector(np.array([math.cos(self.theta / 2),
                                     math.sin(self.theta / 2) * np.exp(1j * self.phi)]))

    def orthogonal_state(self) -> StateVector:
        """The antipodal state sin(t/2)|0> - e^{i p} cos(t/2)|1>."""
        return StateVector(np.array([math.sin(self.theta / 2),
                                     -math.cos(self.theta / 2) * np.exp(1j * self.phi)]))


@dataclass(frozen=True)
class GeometricPhaseReport:
    """Phase bookkeeping for one transported state.

    ``total_phase`` is arg<psi|psi_final>; ``dynamical_phase`` is minus the
    time integral of the energy expectation; ``geometric_phase`` is their
    difference wrapped to (-pi, pi]; ``max_integrand`` is the supremum of
    |<H>| along the way; ``cyclicity_deviation`` is 1 - |<psi|psi_final>|,
    how far the state is from returning to itself.
    """

    total_phase: float
    dynamical_phase: float
    geometric_phase: float
    max_integrand: float
    cyclicity_deviation: float


def synthesize(target: RotationTarget, qubit: int = 0, n_register: int | None = None,
               shape: str = "constant") -> PulseSchedule:
    """Three-segment meridian schedule realizing the target rotation.

    Segment areas are (theta, pi, pi - theta); drive phases are phi - pi/2
    for the outer legs and phi + dphi + pi/2 for the middle leg.  Zero-area
    segments are kept so the schedule always has exactly three segments.
    """
    if n_register is None:
        n_register = qubit + 1
    t, p, d = target.theta, target.phi, target.dphi
    segs = (
        FieldSegment(qubit, p - math.pi / 2, Envelope(t, shape)),
        FieldSegment(qubit, p + d + math.pi / 2, Envelope(math.pi, shape)),
        FieldSegment(qubit, p - math.pi / 2, Envelope(math.pi - t, shape)),
    )
    return PulseSchedule(segs, n_register)


def target_unitary(target: RotationTarget) -> Operator:
    """The rotation matrix cos(dphi) I + i sin(dphi) (m . sigma)."""
    mx, my, mz = target.axis
    c, s = math.cos(target.dphi), math.sin(target.dphi)
    # entry by entry, the bits the matrix sum gives, up to the sign of an exact zero
    return Operator(np.array([[complex(c, s * mz), complex(s * my, s * mx)],
                              [complex(-(s * my), s * mx), complex(c, -(s * mz))]]),
                    unitary=True)


def verify_synthesis(target: RotationTarget) -> float:
    """Distance (up to global phase) between the composed schedule and the target."""
    sched = synthesize(target)
    u = np.eye(2, dtype=np.complex128)
    for seg in sched.segments:
        u = segment_unitary(seg).matrix @ u
    return phase_invariant_distance(u, target_unitary(target).matrix)


def geometric_phase(schedule: PulseSchedule, state: StateVector) -> GeometricPhaseReport:
    """Transport a state through a schedule of field segments and split its phase.

    Through :func:`synthesize`'s schedule the target's Bloch state returns to
    itself with phase +dphi and its orthogonal partner acquires -dphi.  The
    dynamical part, minus the time integral of the energy expectation,
    vanishes for the synthesized drive phases; it and the largest |<H>| are
    exact, read off :func:`expectation_trace`'s pairs.
    """
    overlap = complex(np.vdot(state.amplitudes, evolve(schedule, state)))
    total = float(np.angle(overlap))
    trace = expectation_trace(schedule, state)
    dyn = -sum(integral for _, integral in trace)
    return GeometricPhaseReport(
        total_phase=total,
        dynamical_phase=dyn,
        geometric_phase=wrap_phase(total - dyn),
        max_integrand=max(abs(peak) for peak, _ in trace),
        cyclicity_deviation=abs(1.0 - abs(overlap)),
    )
