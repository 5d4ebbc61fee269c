"""Pulse envelopes, schedule segments, and time evolution.

A schedule is a sequence of segments.  Each field segment drives one register
qubit through the auxiliary-mediated transition with an in-plane drive phase;
each coupling segment turns on simultaneous XY exchange between two register
qubits and the auxiliary.  Within a segment the Hamiltonian direction is
fixed and only the envelope amplitude varies, so the segment propagator
depends on the pulse only through its time-integrated area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .qcore import _EYE, _PAULI, Operator, StateVector, _isfinite, _shown

__all__ = [
    "Envelope",
    "FieldSegment",
    "CouplingSegment",
    "PulseSchedule",
    "coupling_hamiltonian",
    "segment_unitary",
    "evolve",
    "expectation_trace",
]

ENVELOPE_SHAPES = ("constant", "sin_squared")


@dataclass(frozen=True)
class Envelope:
    """A nonnegative pulse shape with a fixed time-integrated area."""

    area: float
    shape: str = "constant"
    duration: float = 1.0

    def __post_init__(self):
        if self.shape not in ENVELOPE_SHAPES:
            raise ValueError(f"unknown envelope shape {_shown(self.shape)}")
        if not (_isfinite(self.area) and self.area >= 0):
            raise ValueError(f"envelope area must be finite and nonnegative, got {self.area}")
        if not (_isfinite(self.duration) and self.duration > 0):
            raise ValueError(f"envelope duration must be finite and positive, got {self.duration}")
        if not math.isfinite(2.0 * self.area / self.duration):
            raise ValueError(f"envelope duration {self.duration} is too short for area "
                             f"{self.area}: the peak amplitude overflows")

    @property
    def peak(self) -> float:
        """The largest amplitude, held throughout a constant envelope and
        reached at t = duration/2 by sin_squared (twice the mean amplitude)."""
        return (1.0 if self.shape == "constant" else 2.0) * self.area / self.duration


@dataclass(frozen=True)
class FieldSegment:
    """Drive one register qubit; ``beta`` is the in-plane drive phase."""

    qubit: int
    beta: float
    envelope: Envelope

    def __post_init__(self):
        if self.qubit < 0:
            raise ValueError(f"qubit index must be nonnegative, got {self.qubit}")
        if not _isfinite(self.beta):
            raise ValueError(f"drive phase beta must be finite, got {self.beta}")
        object.__setattr__(self, "beta", self.beta % math.tau)


def _coupling_pair(pair, mix_theta: float) -> tuple[int, int]:
    """The validity rule of every coupling record: ``pair`` as two ints."""
    k, l = pair
    if k == l or k < 0 or l < 0:
        raise ValueError(f"coupling pair must be two distinct qubits, got {pair}")
    if not 0 <= mix_theta <= math.pi:
        raise ValueError(f"mixing angle must lie in [0, pi], got {mix_theta}")
    return int(k), int(l)


@dataclass(frozen=True)
class CouplingSegment:
    """Couple two register qubits to the auxiliary with mixing angle ``mix_theta``.

    The two exchange strengths are (cos(theta/2), sin(theta/2)) times the
    envelope amplitude, for qubits ``pair[0]`` and ``pair[1]`` respectively.
    """

    pair: tuple[int, int]
    mix_theta: float
    envelope: Envelope

    def __post_init__(self):
        object.__setattr__(self, "pair", _coupling_pair(self.pair, self.mix_theta))


Segment = FieldSegment | CouplingSegment


@dataclass(frozen=True)
class PulseSchedule:
    """An ordered sequence of segments acting on an n-qubit register plus auxiliary."""

    segments: tuple[Segment, ...]
    n_register: int

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.n_register < 1:
            raise ValueError(f"register needs at least one qubit, got {self.n_register}")
        for seg in self.segments:
            if isinstance(seg, FieldSegment):
                if seg.qubit >= self.n_register:
                    raise ValueError(f"segment qubit {seg.qubit} outside register of {self.n_register}")
            elif isinstance(seg, CouplingSegment):
                if max(seg.pair) >= self.n_register:
                    raise ValueError(f"coupling pair {seg.pair} outside register of {self.n_register}")
            else:
                raise TypeError(f"unknown segment type {type(seg).__name__}")


_SX, _SY = 0.5 * _PAULI["x"], 0.5 * _PAULI["y"]
_EYE2 = np.eye(2, dtype=np.complex128)
# Sx Sx + Sy Sy exchange of register spin k, and of l, with the auxiliary.
_EXCHANGE_K = np.kron(np.kron(_SX, _SX), _EYE2) + np.kron(np.kron(_SY, _SY), _EYE2)
_EXCHANGE_L = np.kron(_EYE2, np.kron(_SX, _SX)) + np.kron(_EYE2, np.kron(_SY, _SY))


def coupling_hamiltonian(j_k: float, j_l: float) -> np.ndarray:
    """XY exchange of two register spins with a shared auxiliary spin.

    Basis order (k, a, l) with k the most significant qubit:
    J_k (Sx_k Sx_a + Sy_k Sy_a) + J_l (Sx_l Sx_a + Sy_l Sy_a).
    """
    return j_k * _EXCHANGE_K + j_l * _EXCHANGE_L


def _unit_hamiltonian(seg: Segment) -> np.ndarray:
    """Segment direction at unit amplitude: cos(beta) Sx + sin(beta) Sy on the
    driven qubit, or the exchange with strengths (cos(mix/2), sin(mix/2))."""
    if isinstance(seg, FieldSegment):
        return math.cos(seg.beta) * _SX + math.sin(seg.beta) * _SY
    if isinstance(seg, CouplingSegment):
        half = seg.mix_theta / 2.0
        return coupling_hamiltonian(math.cos(half), math.sin(half))
    raise TypeError(f"unknown segment type {type(seg).__name__}")


def _propagator(h_unit: np.ndarray, area: float) -> np.ndarray:
    """exp(-i area H_unit) for a direction whose doubled spectrum lies in
    {-1, 0, 1} (a spin-1/2 drive, or the exchange at unit strength), so that
    (2H)^3 = 2H and the exponential series sums to the closed form below."""
    g = 2.0 * h_unit
    return (_EYE[g.shape[0]] + (math.cos(area / 2.0) - 1.0) * (g @ g)
            - 1j * math.sin(area / 2.0) * g)


def segment_unitary(seg: Segment) -> Operator:
    """Propagator of a segment over its whole duration.

    The direction is constant within a segment, so the time-ordered integral
    collapses to exp(-i A H_unit) regardless of envelope shape.  In closed form
    that is su2(A, beta) = cos(A/2) I - i sin(A/2)(cos(beta) sx + sin(beta) sy)
    for a field segment, and I + (cos(A/2) - 1)(2H)^2 - i sin(A/2)(2H) for a
    coupling segment.
    """
    return Operator(_propagator(_unit_hamiltonian(seg), seg.envelope.area), unitary=True)


def _register_copy(schedule: PulseSchedule, psi: StateVector) -> np.ndarray:
    """A working copy of ``psi``, which must be the schedule's n-qubit register."""
    if psi.n_qubits != schedule.n_register:
        raise ValueError(f"expected the register of {schedule.n_register} qubits, "
                         f"got {psi.n_qubits} qubits")
    return np.array(psi.amplitudes, copy=True)


def evolve(schedule: PulseSchedule, psi: StateVector, aux_state: int = 0) -> np.ndarray:
    """Apply every segment propagator of the schedule to the register, in order.

    ``psi`` is the n-qubit register and the auxiliary sits in ``|aux_state>``:
    a field segment applies its 2x2 propagator to its qubit, and a coupling
    segment the 4x4 block of its own (k, aux, l) propagator that takes the
    auxiliary from ``|aux_state>`` back to it, to (k, l).  The returned
    amplitudes are those left in that block, not renormalized: their squared
    norm is the probability of finding the auxiliary back in its prepared
    state.  (For one segment the block D and the leak B out of it satisfy
    D^dag D = I - B^dag B; leaked amplitude that a later segment would carry
    back is dropped.)  Field segments alone never touch the auxiliary.
    """
    if aux_state not in (0, 1):
        raise ValueError(f"expected auxiliary state 0 or 1, got {aux_state}")
    amps = _register_copy(schedule, psi)
    for seg in schedule.segments:
        u = segment_unitary(seg).matrix
        if isinstance(seg, FieldSegment):
            targets = (seg.qubit,)
        else:  # the aux-to-aux block of the (k, aux, l) propagator, on (k, l)
            u = u.reshape((2,) * 6)[:, aux_state, :, :, aux_state, :].reshape(4, 4)
            targets = seg.pair
        kernels.apply_gate_inplace(amps, u, targets)
    return amps


def expectation_trace(schedule: PulseSchedule, psi: StateVector) -> list[tuple[float, float]]:
    """The energy <psi(t)| H(t) |psi(t)> on the register along a schedule of
    field segments, as one exact ``(peak * E_k, area * E_k)`` pair per segment.

    Within a segment H(t) = a(t) H_unit and U(t) = exp(-i A(t) H_unit)
    commutes with H_unit, so <psi(t)|H(t)|psi(t)> = a(t) E_k, with
    E_k = <psi_k|H_unit|psi_k> the energy of the segment's start state: its
    largest magnitude is at the envelope's peak and its integral is the area
    times E_k, with no time grid.  A coupling segment is refused.
    """
    amps = _register_copy(schedule, psi)
    out: list[tuple[float, float]] = []
    for seg in schedule.segments:
        if not isinstance(seg, FieldSegment):
            raise ValueError(f"expected field segments only, got a {type(seg).__name__}")
        h_unit = _unit_hamiltonian(seg)
        energy = float(np.vdot(amps, kernels.apply_gate(amps, h_unit, (seg.qubit,))).real)
        env = seg.envelope
        out.append((env.peak * energy, env.area * energy))
        kernels.apply_gate_inplace(amps, _propagator(h_unit, env.area), (seg.qubit,))
    return out
