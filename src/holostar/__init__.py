"""holostar: pulse-level simulation, compilation and verification of
holonomic gates on a star-shaped spin-qubit register."""

from .architecture import (
    Circuit,
    EntanglingGate,
    PostSelectionError,
    RotationGate,
    SimulationResult,
    StarArchitecture,
    compile_circuit,
    ideal_unitary,
    random_circuit,
    simulate,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .kernels import BACKEND
from .pulse import (
    CouplingSegment,
    Envelope,
    FieldSegment,
    PulseSchedule,
    evolve,
    expectation_trace,
    segment_unitary,
)
from .qcore import (
    Operator,
    StateVector,
    basis_state,
    ket,
    partial_trace,
    phase_invariant_distance,
    tensor,
    wrap_phase,
)
from .single_qubit_holonomy import (
    GeometricPhaseReport,
    RotationTarget,
    geometric_phase,
    synthesize,
    target_unitary,
    verify_synthesis,
)
from .two_qubit_holonomy import (
    BlockDecomposition,
    CouplingGateSpec,
    HolonomyReport,
    build_hkl,
    entangling_power,
    entangling_power_law,
    holonomy_decompose,
    two_qubit_gate,
    verify_parallel_transport,
)

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "BlockDecomposition",
    "Circuit",
    "CouplingGateSpec",
    "CouplingSegment",
    "DEFAULT_TOLERANCES",
    "EntanglingGate",
    "Envelope",
    "FieldSegment",
    "GeometricPhaseReport",
    "HolonomyReport",
    "Operator",
    "PostSelectionError",
    "PulseSchedule",
    "RotationGate",
    "RotationTarget",
    "SimulationResult",
    "StarArchitecture",
    "StateVector",
    "Tolerances",
    "basis_state",
    "build_hkl",
    "compile_circuit",
    "entangling_power",
    "entangling_power_law",
    "evolve",
    "expectation_trace",
    "geometric_phase",
    "holonomy_decompose",
    "ideal_unitary",
    "ket",
    "partial_trace",
    "phase_invariant_distance",
    "random_circuit",
    "segment_unitary",
    "simulate",
    "synthesize",
    "target_unitary",
    "tensor",
    "two_qubit_gate",
    "verify_parallel_transport",
    "verify_synthesis",
    "wrap_phase",
]
