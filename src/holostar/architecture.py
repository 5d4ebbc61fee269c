"""Star-shaped machine model: n register qubits around one auxiliary qubit.

The auxiliary sits on every coupling path, is prepared in a fixed basis
state, and is measured in that same state at the end; the holonomic pulses
return it there deterministically, so post-selection succeeds with
probability one for exact pulses.  Circuits of abstract rotation/entangling
gates are lowered to pulse schedules and simulated on the n-qubit register
vector alone, each coupling pulse through the block of its own propagator
that returns the auxiliary, then checked against the pulse-free gate-matrix
reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .pulse import PulseSchedule, evolve
from .qcore import StateVector, basis_state
from .single_qubit_holonomy import RotationTarget, synthesize, target_unitary
from .two_qubit_holonomy import EntanglingGate, ideal_block

__all__ = [
    "StarArchitecture",
    "RotationGate",
    "Circuit",
    "SimulationResult",
    "PostSelectionError",
    "compile_circuit",
    "simulate",
    "random_circuit",
    "sample_auxiliary",
]

POST_SELECTION_FLOOR = 1e-12
MAX_REGISTER = 20  # 2^20 amplitudes: 16 MiB per state vector


class PostSelectionError(RuntimeError):
    """Raised when the auxiliary is essentially never found in its prepared state."""

    def __init__(self, probability: float):
        super().__init__(
            f"auxiliary match probability {probability:.3e} below {POST_SELECTION_FLOOR}"
        )
        self.probability = probability


@dataclass(frozen=True)
class StarArchitecture:
    """Register size plus the basis state the auxiliary is prepared/measured in."""

    n_register: int
    auxiliary_state: int = 0

    def __post_init__(self):
        if not 1 <= self.n_register <= MAX_REGISTER:
            raise ValueError(f"register must have 1 to {MAX_REGISTER} qubits, got {self.n_register}")
        if self.auxiliary_state not in (0, 1):
            raise ValueError(f"auxiliary basis state must be 0 or 1, got {self.auxiliary_state}")


@dataclass(frozen=True)
class RotationGate:
    """Holonomic single-qubit rotation on one register qubit."""

    qubit: int
    target: RotationTarget

    def __post_init__(self):
        if self.qubit < 0:
            raise ValueError(f"qubit index must be nonnegative, got {self.qubit}")


Gate = RotationGate | EntanglingGate


@dataclass(frozen=True)
class Circuit:
    """An ordered gate list; strictly serialized, no simultaneous gates."""

    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if not isinstance(g, (RotationGate, EntanglingGate)):
                raise TypeError(f"unknown gate type {type(g).__name__}")


@dataclass(frozen=True)
class SimulationResult:
    """Auxiliary statistics, post-selected register, and fidelity to the gate-matrix reference."""

    aux_match_probability: float
    register_state: StateVector
    ideal_fidelity: float


def compile_circuit(circuit: Circuit, arch: StarArchitecture,
                    shape: str = "constant") -> PulseSchedule:
    """Lower a circuit to its pulse schedule: 3 field segments per rotation,
    one area-2pi coupling segment per entangling gate, in circuit order."""
    segments = []
    for g in circuit.gates:
        if isinstance(g, RotationGate):
            segments.extend(synthesize(g.target, g.qubit, arch.n_register, shape).segments)
        else:
            segments.append(g.segment(shape))
    return PulseSchedule(tuple(segments), arch.n_register)


def _ideal_vector(circuit: Circuit, arch: StarArchitecture, amps: np.ndarray) -> np.ndarray:
    """Gate-matrix reference: apply ideal 2x2/4x4 matrices directly to the
    register vector, never touching the auxiliary dimension."""
    out = np.array(amps, copy=True)
    for g in circuit.gates:
        if isinstance(g, RotationGate):
            kernels.apply_gate_inplace(out, target_unitary(g.target).matrix, (g.qubit,))
        else:
            kernels.apply_gate_inplace(out, ideal_block(g.mix_theta, arch.auxiliary_state), g.pair)
    return out


def simulate(circuit: Circuit, arch: StarArchitecture,
             input_state: StateVector | None = None,
             shape: str = "constant") -> SimulationResult:
    """Run the full protocol on the register: evolve the compiled pulses with
    the auxiliary held in its prepared state, take the squared norm left as
    the probability of measuring it back there, and compare the renormalized
    (post-selected) register against the gate-matrix reference."""
    if input_state is None:
        input_state = basis_state(arch.n_register, 0)
    if input_state.n_qubits != arch.n_register:
        raise ValueError(
            f"input has {input_state.n_qubits} qubits, register expects {arch.n_register}"
        )
    phi = evolve(compile_circuit(circuit, arch, shape), input_state, arch.auxiliary_state)
    p = float(np.vdot(phi, phi).real)
    if p < POST_SELECTION_FLOOR:
        raise PostSelectionError(p)
    phi /= math.sqrt(p)
    register_state = StateVector._adopt(phi)
    ideal = _ideal_vector(circuit, arch, input_state.amplitudes)
    fidelity = float(abs(np.vdot(register_state.amplitudes, ideal)) ** 2)
    return SimulationResult(
        aux_match_probability=p,
        register_state=register_state,
        ideal_fidelity=fidelity,
    )


def random_circuit(n_register: int, n_gates: int, rng: np.random.Generator) -> Circuit:
    """Uniformly random circuit mixing rotations and (if possible) entangling gates."""
    gates: list[Gate] = []
    for _ in range(n_gates):
        if n_register >= 2 and rng.random() < 0.5:
            k, l = rng.choice(n_register, size=2, replace=False)
            gates.append(EntanglingGate((int(k), int(l)), float(rng.uniform(0, math.pi))))
        else:
            gates.append(RotationGate(
                int(rng.integers(n_register)),
                RotationTarget(
                    float(rng.uniform(0, math.pi)),
                    float(rng.uniform(0, math.tau)),
                    float(rng.uniform(-math.pi, math.pi)),
                ),
            ))
    return Circuit(tuple(gates))


def sample_auxiliary(result: SimulationResult, shots: int, seed: int | None = None) -> int:
    """Number of shots (binomially sampled) finding the auxiliary in its
    prepared state; all verification paths use the exact probability instead."""
    if shots < 0:
        raise ValueError(f"shot count must be nonnegative, got {shots}")
    rng = np.random.default_rng(seed)
    return int(rng.binomial(shots, min(result.aux_match_probability, 1.0)))
