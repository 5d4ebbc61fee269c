"""The four benchmark workloads: input generation and output oracles.

Everything the program is fed is written here from the benchmark's own
seeded RNG, following the published synthesis rule and document formats
(PAPER.md, README.md), never by calling holostar's own generators.  Every
output is checked against an oracle owned by this file: the closed-form
rotation and the coupling block derived here from the exchange Hamiltonian,
applied with this file's own tensor contraction, and the entangling-power
law.  Nothing here imports holostar.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# Default thresholds of holostar.config.Tolerances when the benchmark was
# defined; written out so a later change to the defaults cannot loosen the check.
AUX_RESTORATION_TOL = 1e-10
COMPILER_FIDELITY_TOL = 1e-9
STATE_MATCH_TOL = 1e-9
EP_ABS_DIFF_TOL = 1e-10

_I2 = np.eye(2, dtype=np.complex128)
_SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
_SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass
class Op:
    """One closed-loop request: CLI arguments, stdin text, and what to expect."""

    argv: list[str]
    stdin: str = ""
    expect: dict = field(default_factory=dict)
    # Call counts the tracer must observe for this op (completeness self-check).
    predicted: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Closed-form gates and the reference contraction

def rotation_matrix(theta: float, phi: float, dphi: float) -> np.ndarray:
    """cos(dphi) I + i sin(dphi) (m . sigma), m the (theta, phi) Bloch axis."""
    m = (math.sin(theta) * math.cos(phi), math.sin(theta) * math.sin(phi), math.cos(theta))
    m_sigma = m[0] * _SX + m[1] * _SY + m[2] * _SZ
    return math.cos(dphi) * _I2 + 1j * math.sin(dphi) * m_sigma


def reflection_block(mix_theta: float, aux_state: int) -> np.ndarray:
    """The 4x4 block a coupling pulse leaves on the register pair (k, l).

    Derived from the published physics, not copied: XY exchange of k and l
    with the auxiliary a, strengths (cos theta/2, sin theta/2), spin-1/2
    operators, pulse area 2 pi, basis (k, a, l) with k most significant.
    The block is the propagator restricted to the auxiliary in |aux_state>.
    """
    sx, sy = _SX / 2, _SY / 2
    j_k, j_l = math.cos(mix_theta / 2), math.sin(mix_theta / 2)
    h = (j_k * (np.kron(np.kron(sx, sx), _I2) + np.kron(np.kron(sy, sy), _I2))
         + j_l * (np.kron(_I2, np.kron(sx, sx)) + np.kron(_I2, np.kron(sy, sy))))
    w, v = np.linalg.eigh(h)
    u = (v * np.exp(-2j * math.pi * w)) @ v.conj().T
    rows = [(k << 2) | (aux_state << 1) | l for k in (0, 1) for l in (0, 1)]
    return u[np.ix_(rows, rows)]


def contract(state: np.ndarray, gate: np.ndarray, targets: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a gate to ``targets`` of an n-qubit vector (qubit 0 most significant)."""
    m = len(targets)
    t = state.reshape((2,) * n)
    g = gate.reshape((2,) * (2 * m))
    t = np.tensordot(g, t, axes=(list(range(m, 2 * m)), list(targets)))
    return np.moveaxis(t, list(range(m)), list(targets)).reshape(-1)


def entangling_power_law(mix_theta: float) -> float:
    return (2.0 / 9.0) * (1.0 - math.cos(mix_theta) ** 4)


# ---------------------------------------------------------------------------
# Documents

def _rotation_gate(rng) -> tuple[float, float, float]:
    return (float(rng.uniform(0, math.pi)), float(rng.uniform(0, math.tau)),
            float(rng.uniform(-math.pi, math.pi)))


def _simulate_op(n_register: int, gates: list[dict], rng) -> Op:
    aux = int(rng.integers(2))
    bits = "".join(str(int(b)) for b in rng.integers(2, size=n_register))
    n_rot = sum("qubit" in g for g in gates)
    n_cpl = len(gates) - n_rot
    return Op(
        argv=["simulate", "--circuit", "-", "--input", bits],
        stdin=json.dumps({"n_register": n_register, "auxiliary_state": aux, "gates": gates},
                         sort_keys=True),
        expect={"n_register": n_register, "aux": aux, "bits": bits, "gates": gates},
        # evolve: one propagator and one kernel apply per segment (3 per
        # rotation, 1 per coupling); the gate-matrix reference: one ideal
        # matrix and one apply per gate.  Each count goes through a name that
        # another module imported, so a binding the tracer missed shows here.
        predicted={"cli.main": 1, "serialization.circuit_from_dict": 1,
                   "serialization.dumps": 1, "architecture.simulate": 1,
                   "architecture.compile_circuit": 1, "pulse.evolve": 1,
                   "single_qubit_holonomy.synthesize": n_rot,
                   "single_qubit_holonomy.target_unitary": n_rot,
                   "two_qubit_holonomy.ideal_block": n_cpl,
                   "pulse.segment_unitary": 3 * n_rot + n_cpl,
                   "kernels.apply_gate_inplace": 4 * n_rot + 2 * n_cpl,
                   "kernels.apply_gate_inplace@evolve": 3 * n_rot + n_cpl,
                   "kernels.apply_gate_inplace@reference": n_rot + n_cpl},
    )


def _random_pair(rng, n_register: int) -> tuple[int, int]:
    k, l = rng.choice(n_register, size=2, replace=False)
    return int(k), int(l)


def sim_small_op(rng) -> Op:
    """n_register 10, 50 gates, every angle drawn from a continuum."""
    n, gates = 10, []
    for _ in range(50):
        if rng.random() < 0.5:
            k, l = _random_pair(rng, n)
            gates.append({"k": k, "l": l, "theta": float(rng.uniform(0, math.pi))})
        else:
            theta, phi, dphi = _rotation_gate(rng)
            gates.append({"qubit": int(rng.integers(n)), "theta": theta, "phi": phi,
                          "dphi": dphi})
    return _simulate_op(n, gates, rng)


SIM_WIDE_MIX = (math.pi / 2, math.pi / 4)


def sim_wide_gate_set(rng) -> list[tuple[float, float, float]]:
    """The four rotation targets a sim-wide run draws its gates from."""
    return [_rotation_gate(rng) for _ in range(4)]


def sim_wide_op(rng, gate_set) -> Op:
    """n_register 14, 200 gates drawn from a fixed small gate set."""
    n, gates = 14, []
    for _ in range(200):
        if rng.random() < 0.5:
            k, l = _random_pair(rng, n)
            gates.append({"k": k, "l": l, "theta": SIM_WIDE_MIX[int(rng.integers(2))]})
        else:
            theta, phi, dphi = gate_set[int(rng.integers(len(gate_set)))]
            gates.append({"qubit": int(rng.integers(n)), "theta": theta, "phi": phi,
                          "dphi": dphi})
    return _simulate_op(n, gates, rng)


def verify_schedule_op(rng) -> Op:
    """Schedule document of a 3-qubit, 20-gate circuit, written by the
    published synthesis rule: a rotation is three field segments of areas
    (theta, pi, pi - theta) with drive phases (phi - pi/2, phi + dphi + pi/2,
    phi - pi/2); a coupling gate is one segment of area 2 pi."""
    n = 3
    shape = ("constant", "sin_squared")[int(rng.integers(2))]
    segments, n_rot, n_cpl = [], 0, 0
    for _ in range(20):
        if rng.random() < 0.5:
            k, l = _random_pair(rng, n)
            segments.append({"kind": "coupling", "pair": [k, l],
                             "mix_theta": float(rng.uniform(0, math.pi)),
                             "shape": shape, "duration": 1.0, "area": math.tau})
            n_cpl += 1
        else:
            q = int(rng.integers(n))
            theta, phi, dphi = _rotation_gate(rng)
            legs = ((theta, phi - math.pi / 2), (math.pi, phi + dphi + math.pi / 2),
                    (math.pi - theta, phi - math.pi / 2))
            for area, beta in legs:
                segments.append({"kind": "field", "qubit": q, "beta": beta % math.tau,
                                 "shape": shape, "duration": 1.0, "area": area})
            n_rot += 1
    doc = json.dumps({"n_register": n, "segments": segments}, sort_keys=True)
    return Op(
        argv=["verify", "-"],
        stdin=doc,
        # three checks per meridian rotation, three per coupling pulse
        expect={"n_checks": 3 * n_rot + 3 * n_cpl},
        # per rotation: verify_synthesis builds its 3 propagators, then the
        # CLI traces and evolves the 3 segments; per coupling: one propagator
        predicted={"cli.main": 1, "serialization.schedule_from_dict": 1,
                   "single_qubit_holonomy.verify_synthesis": n_rot,
                   "single_qubit_holonomy.synthesize": n_rot,
                   "pulse.expectation_trace": n_rot, "pulse.evolve": n_rot,
                   "pulse.segment_unitary": 6 * n_rot + n_cpl,
                   "two_qubit_holonomy.holonomy_decompose": n_cpl},
    )


def ep_sweep_op(rng) -> Op:
    """Entangling-power table on a grid of 60..70 angles, drawn per op so
    consecutive ops share almost no angles."""
    grid = int(rng.integers(60, 71))
    return Op(
        argv=["ep-sweep", "--grid", str(grid)],
        expect={"grid": grid},
        # per angle: one coupling propagator, and 36 product inputs with one
        # partial trace each
        predicted={"cli.main": 1, "two_qubit_holonomy.two_qubit_gate": grid,
                   "pulse.segment_unitary": grid,
                   "two_qubit_holonomy.entangling_power": grid,
                   "two_qubit_holonomy.entangling_power_law": grid,
                   "qcore.partial_trace": 36 * grid},
    )


# ---------------------------------------------------------------------------
# Oracles: each returns None when the output is right, else a one-line reason

def check_simulate(op: Op, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    e = op.expect
    n = e["n_register"]
    if doc.get("n_register") != n or doc.get("auxiliary_state") != e["aux"]:
        return "register size or auxiliary state not echoed"
    if not 1.0 - doc["aux_match_probability"] <= AUX_RESTORATION_TOL:
        return f"aux restoration deficit {1.0 - doc['aux_match_probability']:.3e}"
    if not 1.0 - doc["ideal_fidelity"] <= COMPILER_FIDELITY_TOL:
        return f"infidelity {1.0 - doc['ideal_fidelity']:.3e}"
    got = np.array([complex(re, im) for re, im in doc["register_state"]])
    ref = np.zeros(1 << n, dtype=np.complex128)
    ref[int(e["bits"], 2)] = 1.0
    for g in e["gates"]:
        if "qubit" in g:
            ref = contract(ref, rotation_matrix(g["theta"], g["phi"], g["dphi"]),
                           (g["qubit"],), n)
        else:
            ref = contract(ref, reflection_block(g["theta"], e["aux"]), (g["k"], g["l"]), n)
    if got.shape != ref.shape:
        return f"register state has {got.size} amplitudes, expected {ref.size}"
    overlap = np.vdot(ref, got)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    dev = float(np.max(np.abs(got - phase * ref)))
    if not dev <= STATE_MATCH_TOL:
        return f"register state off the gate-matrix product by {dev:.3e}"
    return None


def check_verify(op: Op, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    doc = json.loads(out)
    if doc.get("passed") is not True:
        failing = [c["name"] for c in doc.get("checks", []) if not c.get("pass")]
        return f"verify did not pass: {failing[:3]}"
    if len(doc["checks"]) != op.expect["n_checks"]:
        return f"{len(doc['checks'])} checks, expected {op.expect['n_checks']}"
    return None


def check_ep_sweep(op: Op, code: int, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    rows = json.loads(out)["rows"]
    grid = op.expect["grid"]
    if len(rows) != grid:
        return f"{len(rows)} rows, expected {grid}"
    for i, r in enumerate(rows):
        theta = math.pi * i / (grid - 1)
        if abs(r["theta"] - theta) > 1e-12:
            return f"row {i}: theta {r['theta']} expected {theta}"
        if not r["abs_diff"] <= EP_ABS_DIFF_TOL:
            return f"row {i}: abs_diff {r['abs_diff']:.3e}"
        if not abs(r["ep_computed"] - entangling_power_law(theta)) <= EP_ABS_DIFF_TOL:
            return f"row {i}: entangling power off the (2/9)(1 - cos^4) law"
    return None


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    """A named op stream; why each exists is in BENCHMARK.json and README.md."""

    name: str
    make: object    # (seed, rng) -> Op
    check: object   # (op, exit code, stdout text) -> None | reason
    tail_percentile: int  # op_ms_tail; a run times enough ops to leave >= 10 beyond it


def _sim_wide(seed: int, rng) -> Op:
    # the gate set is fixed for the whole run, so propagators repeat across ops too
    return sim_wide_op(rng, sim_wide_gate_set(np.random.default_rng([seed, 0])))


WORKLOADS = {w.name: w for w in (
    Workload("sim-small", lambda seed, rng: sim_small_op(rng), check_simulate, 95),
    Workload("sim-wide", _sim_wide, check_simulate, 75),
    Workload("verify-schedule", lambda seed, rng: verify_schedule_op(rng), check_verify, 75),
    Workload("ep-sweep", lambda seed, rng: ep_sweep_op(rng), check_ep_sweep, 75),
)}


def make_op(workload: Workload, seed: int, index: int) -> Op:
    """Op ``index`` of a run: made from the RNG seeded by (seed, index) alone."""
    return workload.make(seed, np.random.default_rng([seed, 1, index]))
