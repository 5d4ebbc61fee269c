"""Certification against the holonomy conditions (Sjoqvist et al., NJP 14,
103035 (2012)) and, for circuits, against the gate-matrix reference.

A schedule is read back as the protocols it was built from: three field
segments on one qubit as a meridian rotation, one coupling segment as a
two-qubit holonomy.  Every check is a plain record ``{"name", "value",
"tolerance", "pass"}`` plus where it applies (``segments`` or ``circuit``).
"""

from __future__ import annotations

import math

import numpy as np

from . import architecture as arch_mod
from . import single_qubit_holonomy as sq
from . import two_qubit_holonomy as tq
from .config import DEFAULT_TOLERANCES, Tolerances
from .pulse import (
    CouplingSegment,
    FieldSegment,
    PulseSchedule,
    _unit_hamiltonian,
    evolve,
    expectation_trace,
    segment_unitary,
)
from .qcore import Operator, wrap_phase
from .single_qubit_holonomy import RotationTarget

__all__ = ["verify_schedule", "verify_circuit", "verify_random_circuits"]


def _check(name: str, value: float, tolerance: float, **extra) -> dict:
    return {"name": name, "value": float(value), "tolerance": float(tolerance),
            "pass": bool(value <= tolerance), **extra}


def _verify_field_chunk(chunk, index: int, tol: Tolerances) -> list[dict]:
    """Certify three consecutive field segments as one meridian protocol."""
    where = {"segments": [index, index + 1, index + 2]}
    s1, s2, s3 = chunk
    structure = max(
        abs(s2.envelope.area - math.pi),
        abs(s1.envelope.area + s3.envelope.area - math.pi),
        abs(wrap_phase(s1.beta - s3.beta)),
    )
    if not (s1.qubit == s2.qubit == s3.qubit) or structure > 1e-9 \
            or s1.envelope.area > math.pi + 1e-9:
        return [_check("field_pattern_recognized", 1.0, 0.0, **where,
                       detail="not a three-segment meridian rotation")]
    theta = min(s1.envelope.area, math.pi)
    phi = wrap_phase(s1.beta + math.pi / 2)
    dphi = wrap_phase((s2.beta - math.pi / 2) - phi)
    target = RotationTarget(theta, phi, dphi)
    state = target.bloch_state()
    local = PulseSchedule(tuple(FieldSegment(0, s.beta, s.envelope) for s in chunk), 1)

    distance = sq.verify_synthesis(target)
    # the supremum over each leg, a(t) |<H_unit>| at the envelope's peak
    max_integrand = max(abs(peak) for peak, _ in expectation_trace(local, state))
    cyc = abs(1.0 - abs(np.vdot(state.amplitudes, evolve(local, state))))
    return [
        _check("synthesis_distance", distance, tol.synthesis_distance, **where),
        _check("max_integrand", max_integrand, tol.dynamical_integrand, **where),
        _check("cyclicity_deviation", cyc, tol.cyclicity, **where),
    ]


def _verify_coupling_segment(seg: CouplingSegment, index: int, tol: Tolerances) -> list[dict]:
    """Certify one coupling pulse: block structure, transport, holonomy.

    A leaky propagator stops after the block check: its blocks are not
    unitary, so there is no holonomy to decompose.
    """
    where = {"segments": [index]}
    u0, u1, off = tq.split_blocks(segment_unitary(seg).matrix)
    checks = [_check("off_block_residual", off, tol.off_block, **where)]
    if off > tol.off_block:
        return checks

    # the supremum over the pulse, a(t) ||P H_unit P|| at the envelope's peak
    worst = seg.envelope.peak * tq.transport_norm(_unit_hamiltonian(seg))
    checks.append(_check("transport_residual", worst, tol.transport_residual, **where))

    dec = tq.BlockDecomposition(Operator(u0, unitary=True), Operator(u1, unitary=True), off)
    sub = tq.holonomy_decompose(dec)
    checks.append(_check("holonomy_reconstruction", sub.reconstruction_residual,
                         tol.holonomy_reconstruction, **where))
    return checks


def verify_schedule(schedule: PulseSchedule, tol: Tolerances = DEFAULT_TOLERANCES) -> list[dict]:
    """Checks for every protocol in the schedule, in segment order."""
    checks: list[dict] = []
    segments = schedule.segments
    i = 0
    while i < len(segments):
        chunk = segments[i:i + 3]
        if isinstance(chunk[0], CouplingSegment):
            checks.extend(_verify_coupling_segment(chunk[0], i, tol))
            i += 1
        elif len(chunk) == 3 and all(isinstance(s, FieldSegment) for s in chunk):
            checks.extend(_verify_field_chunk(tuple(chunk), i, tol))
            i += 3
        else:
            checks.append(_check("field_pattern_recognized", 1.0, 0.0, segments=[i],
                                 detail="field segments not in groups of three"))
            i += 1
    return checks


def verify_circuit(circuit: arch_mod.Circuit, arch: arch_mod.StarArchitecture,
                   tol: Tolerances = DEFAULT_TOLERANCES, shape: str = "constant") -> list[dict]:
    """Auxiliary restoration and fidelity to the gate-matrix reference."""
    result = arch_mod.simulate(circuit, arch, shape=shape)
    return [
        _check("aux_restoration_deficit", 1.0 - result.aux_match_probability,
               tol.aux_restoration),
        _check("infidelity", 1.0 - result.ideal_fidelity, tol.compiler_fidelity),
    ]


def verify_random_circuits(arch: arch_mod.StarArchitecture, n_circuits: int, n_gates: int,
                           seed: int | None = None, tol: Tolerances = DEFAULT_TOLERANCES,
                           shape: str = "constant") -> list[dict]:
    """:func:`verify_circuit` on seeded random circuits, each check tagged
    with the index of its circuit."""
    rng = np.random.default_rng(seed)
    checks = []
    for i in range(n_circuits):
        circuit = arch_mod.random_circuit(arch.n_register, n_gates, rng)
        checks.extend({**c, "circuit": i} for c in verify_circuit(circuit, arch, tol, shape))
    return checks
