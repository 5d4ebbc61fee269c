"""Certification gate for the whole stack.

Eleven end-to-end criteria, each with an explicit numeric threshold and (where
stated) a wall-clock budget.  Each checks the route a command runs against an
oracle the tests own: ``conftest.py``'s, and for circuits the benchmark's
gate-matrix product in ``perfbench/workloads.py``.  Every test prints exactly
one summary line, so running this file directly gives a compact report:

    python3 tests/test_acceptance.py

Pytest runs the same functions (use -s to see the lines while passing).
"""

import math
import sys
import time
from itertools import product

import numpy as np

from holostar.architecture import (
    Circuit,
    EntanglingGate,
    RotationGate,
    StarArchitecture,
    random_circuit,
    simulate,
)
from holostar.certify import verify_schedule
from holostar.pulse import PulseSchedule, coupling_hamiltonian, expectation_trace, segment_unitary
from holostar.qcore import (
    basis_state,
    density,
    partial_trace,
    phase_invariant_distance,
    purity,
    wrap_phase,
)
from holostar.single_qubit_holonomy import (
    RotationTarget,
    geometric_phase,
    synthesize,
    target_unitary,
)
from holostar.two_qubit_holonomy import (
    CouplingGateSpec,
    entangling_power,
    entangling_power_law,
    holonomy_decompose,
    ideal_block,
    two_qubit_gate,
)

from conftest import double_lambda_matrix, gate_product, static_transport_residual

PI = math.pi

ROTATION_GRID = tuple(product(
    (0.0, PI / 4, PI / 2, 3 * PI / 4, PI),
    (0.0, PI / 3, PI, 5 * PI / 3),
    (0.0, PI / 4, -PI / 4, PI / 2, -PI / 2, PI),
))
MIX_GRID = np.linspace(0.0, PI, 32)


def _report(index: int, label: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {index:02d} {status} {label}: {detail}", flush=True)


def _rotation_sweep(shape: str):
    """Composed 3-segment unitary and its distance to the closed form, per target."""
    out = {}
    for theta, phi, dphi in ROTATION_GRID:
        target = RotationTarget(theta, phi, dphi)
        u = np.eye(2, dtype=np.complex128)
        for seg in synthesize(target, shape=shape).segments:
            u = segment_unitary(seg).matrix @ u
        dist = phase_invariant_distance(u, target_unitary(target).matrix)
        out[(theta, phi, dphi)] = (u, dist)
    return out


def _block_sweep(shape: str):
    """Per mixing angle: off-block leakage, block-vs-closed-form error, blocks."""
    out = {}
    for theta in MIX_GRID:
        dec = two_qubit_gate(CouplingGateSpec(float(theta)), shape)
        match = max(
            float(np.max(np.abs(dec.u0.matrix - ideal_block(float(theta), 0)))),
            float(np.max(np.abs(dec.u1.matrix - ideal_block(float(theta), 1)))),
        )
        out[float(theta)] = (dec.off_block_residual, match, dec.u0.matrix, dec.u1.matrix)
    return out


def test_criterion_01_single_qubit_synthesis():
    start = time.perf_counter()
    worst = max(dist for _, dist in _rotation_sweep("constant").values())
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    _report(1, "single-qubit synthesis", ok,
            f"max distance {worst:.3e} over {len(ROTATION_GRID)} targets, {elapsed:.2f} s")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_geometric_phase_identity():
    start = time.perf_counter()
    worst_geo = worst_dyn = worst_ortho = 0.0
    for theta, phi, dphi in ROTATION_GRID:
        target = RotationTarget(theta, phi, dphi)
        rep = geometric_phase(target)
        worst_geo = max(worst_geo, abs(wrap_phase(rep.geometric_phase - dphi)))
        worst_dyn = max(worst_dyn, abs(rep.dynamical_phase))
        ortho = geometric_phase(target, state=target.orthogonal_state())
        worst_ortho = max(worst_ortho, abs(wrap_phase(ortho.geometric_phase + dphi)))
        worst_dyn = max(worst_dyn, abs(ortho.dynamical_phase))
    elapsed = time.perf_counter() - start
    ok = worst_geo <= 1e-6 and worst_dyn <= 1e-6 and worst_ortho <= 1e-6 and elapsed < 2.0
    _report(2, "geometric phase identity", ok,
            f"|geo-dphi| {worst_geo:.3e}, |dyn| {worst_dyn:.3e}, "
            f"orthogonal {worst_ortho:.3e}, {elapsed:.2f} s")
    assert worst_geo <= 1e-6
    assert worst_dyn <= 1e-6
    assert worst_ortho <= 1e-6
    assert elapsed < 2.0


def test_criterion_03_dynamical_phase_detection():
    target = RotationTarget(PI / 3, PI / 4, PI / 2)
    state = target.bloch_state()
    good = synthesize(target)
    good_max = max(abs(p) for p, _ in expectation_trace(good, state))

    # same areas, but every drive phase set to phi itself: condition violated
    from holostar.pulse import FieldSegment, PulseSchedule
    bad = PulseSchedule(tuple(
        FieldSegment(s.qubit, target.phi, s.envelope) for s in good.segments
    ), good.n_register)
    bad_max = max(abs(p) for p, _ in expectation_trace(bad, state))

    ok = good_max <= 1e-9 and bad_max > 0.1
    _report(3, "dynamical-phase detection", ok,
            f"compliant {good_max:.3e}, violated {bad_max:.3f}")
    assert good_max <= 1e-9
    assert bad_max > 0.1


def test_criterion_04_two_qubit_block_structure():
    start = time.perf_counter()
    sweep = _block_sweep("constant")
    worst_off = max(off for off, _, _, _ in sweep.values())
    worst_match = max(match for _, match, _, _ in sweep.values())
    elapsed = time.perf_counter() - start
    ok = worst_off <= 1e-10 and worst_match <= 1e-10 and elapsed < 1.0
    _report(4, "two-qubit block structure", ok,
            f"off-block {worst_off:.3e}, block match {worst_match:.3e} "
            f"over {len(sweep)} angles, {elapsed:.2f} s")
    assert worst_off <= 1e-10
    assert worst_match <= 1e-10
    assert elapsed < 1.0


def _mc_entangling_power(u: np.ndarray, n_samples: int, seed: int) -> float:
    """Monte Carlo linear-entropy average over Haar-random product states."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n_samples, 2)) + 1j * rng.normal(size=(n_samples, 2))
    b = rng.normal(size=(n_samples, 2)) + 1j * rng.normal(size=(n_samples, 2))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    psi = np.einsum("ni,nj->nij", a, b).reshape(n_samples, 4)
    phi = (psi @ u.T).reshape(n_samples, 2, 2)
    rho = np.einsum("nij,nkj->nik", phi, phi.conj())
    purities = np.einsum("nik,nki->n", rho, rho).real
    return float(np.mean(1.0 - purities))


def test_criterion_05_entangling_power_law():
    worst_law = worst_pair = 0.0
    for theta in MIX_GRID:
        dec = two_qubit_gate(CouplingGateSpec(float(theta)))
        ep0 = entangling_power(dec.u0)
        ep1 = entangling_power(dec.u1)
        worst_law = max(worst_law, abs(ep0 - entangling_power_law(float(theta))))
        worst_pair = max(worst_pair, abs(ep0 - ep1))

    from holostar.qcore import Operator
    cnot = Operator(np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
                             dtype=np.complex128), unitary=True)
    exact = entangling_power(cnot)
    mc = _mc_entangling_power(cnot.matrix, n_samples=120_000, seed=5)
    mc_err = abs(exact - mc)

    ok = (worst_law <= 1e-10 and worst_pair <= 1e-12
          and abs(exact - 2 / 9) <= 1e-12 and mc_err <= 1e-3)
    _report(5, "entangling power law", ok,
            f"law {worst_law:.3e}, u0-u1 gap {worst_pair:.3e}, "
            f"CNOT exact {exact:.12f}, MC gap {mc_err:.2e}")
    assert worst_law <= 1e-10
    assert worst_pair <= 1e-12
    assert abs(exact - 2 / 9) <= 1e-12
    assert mc_err <= 1e-3


def test_criterion_06_holonomy_certification():
    worst_static = worst_dynamic = worst_rebuild = worst_loop = 0.0
    for theta in (PI / 6, PI / 2, 2.2):
        spec = CouplingGateSpec(theta)
        # no energy inside any invariant subspace, over the test's own projectors
        h = coupling_hamiltonian(math.cos(theta / 2), math.sin(theta / 2))
        worst_static = max(worst_static, static_transport_residual(h))
        # the supremum over the pulse that ``verify`` reports for the segment
        checks = verify_schedule(PulseSchedule((spec.segment(),), 2))
        worst_dynamic = max(worst_dynamic, next(c["value"] for c in checks
                                                if c["name"] == "transport_residual"))
        sub = holonomy_decompose(two_qubit_gate(spec))
        worst_rebuild = max(worst_rebuild, sub.reconstruction_residual)
        worst_loop = max(worst_loop, abs(sub.blocks["C_0^1"][0, 0] + 1.0))
    ok = (worst_static < 1e-15 and worst_dynamic <= 1e-9
          and worst_rebuild <= 1e-10 and worst_loop <= 1e-12)
    _report(6, "holonomy certification", ok,
            f"static {worst_static:.1e}, dynamic {worst_dynamic:.3e}, "
            f"rebuild {worst_rebuild:.3e}, loop phase {worst_loop:.1e}")
    assert worst_static < 1e-15
    assert worst_dynamic <= 1e-9
    assert worst_rebuild <= 1e-10
    assert worst_loop <= 1e-12


def test_criterion_07_hamiltonian_equivalence():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(10):
        j_k, j_l = rng.uniform(-2.0, 2.0, size=2)
        diff = np.max(np.abs(coupling_hamiltonian(j_k, j_l) - double_lambda_matrix(j_k, j_l)))
        worst = max(worst, float(diff))
    ok = worst <= 1e-15
    _report(7, "Hamiltonian equivalence", ok, f"max entry gap {worst:.1e} over 10 pairs")
    assert worst <= 1e-15


def test_criterion_08_compiler_soundness():
    start = time.perf_counter()
    arch = StarArchitecture(3)
    rng = np.random.default_rng(8)
    worst_aux = worst_fid = worst_oracle = 0.0
    for _ in range(100):
        n_gates = int(rng.integers(1, 21))
        circuit = random_circuit(3, n_gates, rng)
        result = simulate(circuit, arch)
        worst_aux = max(worst_aux, 1.0 - result.aux_match_probability)
        worst_fid = max(worst_fid, 1.0 - result.ideal_fidelity)
        # the benchmark's gate-matrix oracle for the same run, which shares
        # no gate matrix with holostar
        ideal = gate_product(circuit, arch.auxiliary_state, basis_state(3, 0).amplitudes)
        fid = abs(np.vdot(result.register_state.amplitudes, ideal)) ** 2
        worst_oracle = max(worst_oracle, 1.0 - fid)
    elapsed = time.perf_counter() - start
    ok = (worst_aux <= 1e-10 and worst_fid <= 1e-9 and worst_oracle <= 1e-9
          and elapsed < 30.0)
    _report(8, "compiler soundness", ok,
            f"aux deficit {worst_aux:.3e}, infidelity {worst_fid:.3e}, "
            f"oracle infidelity {worst_oracle:.3e}, 100 circuits in {elapsed:.1f} s")
    assert worst_aux <= 1e-10
    assert worst_fid <= 1e-9
    assert worst_oracle <= 1e-9
    assert elapsed < 30.0


def test_criterion_09_entanglement_generation():
    # quarter-turn rotations on both qubits, then the theta = pi/2 coupling gate
    circuit = Circuit((
        RotationGate(0, RotationTarget(PI / 2, 0.0, PI / 4)),
        RotationGate(1, RotationTarget(PI / 2, 0.0, PI / 4)),
        EntanglingGate((0, 1), PI / 2),
    ))
    result = simulate(circuit, StarArchitecture(2))
    rho = density(result.register_state)
    worst = max(abs(purity(partial_trace(rho, (q,), 2)) - 0.5) for q in (0, 1))
    ok = worst <= 1e-9
    _report(9, "entanglement generation", ok, f"reduced purity gap {worst:.3e}")
    assert worst <= 1e-9


def test_criterion_10_scale():
    circuit = random_circuit(10, 50, np.random.default_rng(10))
    start = time.perf_counter()
    result = simulate(circuit, StarArchitecture(10))
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0 and result.aux_match_probability > 1.0 - 1e-9
    _report(10, "scale (n=10, 50 gates)", ok,
            f"simulated 2^10 register in {elapsed:.2f} s, "
            f"aux probability {result.aux_match_probability:.12f}")
    assert elapsed < 10.0
    assert result.aux_match_probability > 1.0 - 1e-9


def test_criterion_11_envelope_invariance():
    rot_const = _rotation_sweep("constant")
    rot_sin = _rotation_sweep("sin_squared")
    worst_rot_dist = max(dist for _, dist in rot_sin.values())
    worst_rot_diff = max(
        float(np.max(np.abs(rot_const[k][0] - rot_sin[k][0]))) for k in rot_const
    )
    blk_const = _block_sweep("constant")
    blk_sin = _block_sweep("sin_squared")
    worst_blk = max(max(off, match) for off, match, _, _ in blk_sin.values())
    worst_blk_diff = max(
        max(float(np.max(np.abs(blk_const[t][2] - blk_sin[t][2]))),
            float(np.max(np.abs(blk_const[t][3] - blk_sin[t][3]))))
        for t in blk_const
    )
    ok = (worst_rot_dist <= 1e-9 and worst_rot_diff <= 1e-10
          and worst_blk <= 1e-10 and worst_blk_diff <= 1e-10)
    _report(11, "envelope invariance", ok,
            f"sin^2 distance {worst_rot_dist:.3e}, 1q diff {worst_rot_diff:.1e}, "
            f"2q residual {worst_blk:.3e}, 2q diff {worst_blk_diff:.1e}")
    assert worst_rot_dist <= 1e-9
    assert worst_rot_diff <= 1e-10
    assert worst_blk <= 1e-10
    assert worst_blk_diff <= 1e-10


_CRITERIA = [
    test_criterion_01_single_qubit_synthesis,
    test_criterion_02_geometric_phase_identity,
    test_criterion_03_dynamical_phase_detection,
    test_criterion_04_two_qubit_block_structure,
    test_criterion_05_entangling_power_law,
    test_criterion_06_holonomy_certification,
    test_criterion_07_hamiltonian_equivalence,
    test_criterion_08_compiler_soundness,
    test_criterion_09_entanglement_generation,
    test_criterion_10_scale,
    test_criterion_11_envelope_invariance,
]


if __name__ == "__main__":
    failures = 0
    for criterion in _CRITERIA:
        try:
            criterion()
        except AssertionError:
            failures += 1
    sys.exit(1 if failures else 0)
