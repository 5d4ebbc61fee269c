import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from holostar.architecture import RotationGate
from holostar.pulse import FieldSegment, segment_unitary
from holostar.qcore import Operator

# Only ``workloads`` is imported from the benchmark: ``run.py`` sets BLAS
# environment variables on import.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

settings.register_profile(
    "default", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("default")

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)


def su2(area, beta):
    """Closed-form exp(-i (area/2) (cos b sx + sin b sy)); independent oracle
    for every field-segment propagator."""
    n_sigma = math.cos(beta) * SX + math.sin(beta) * SY
    return math.cos(area / 2) * I2 - 1j * math.sin(area / 2) * n_sigma


def envelope_amplitude(env, t):
    """a(t) of a constant or sin^2 envelope, written from the two shape
    formulas: area/duration throughout, or twice that times sin^2(pi t/duration)."""
    if env.shape == "constant":
        return env.area / env.duration
    return 2.0 * env.area / env.duration * math.sin(math.pi * t / env.duration) ** 2


def envelope_partial_area(env, t):
    """The integral of :func:`envelope_amplitude` from 0 to t."""
    x = t / env.duration
    if env.shape == "constant":
        return env.area * x
    return env.area * (x - math.sin(2.0 * math.pi * x) / (2.0 * math.pi))


def matrix_exponential_hermitian(h, t):
    """exp(-i t H) for Hermitian-flagged H by eigendecomposition: the spectral
    oracle the closed-form propagators are checked against."""
    if not h.hermitian:
        raise ValueError("matrix_exponential_hermitian requires a Hermitian-flagged operator")
    evals, evecs = np.linalg.eigh(h.matrix)
    return Operator((evecs * np.exp(-1j * t * evals)) @ evecs.conj().T, unitary=True)


def protocol_product(theta, phi, dphi):
    """Oracle for the composed three-segment meridian protocol."""
    u1 = su2(theta, phi - math.pi / 2)
    u2 = su2(math.pi, phi + dphi + math.pi / 2)
    u3 = su2(math.pi - theta, phi - math.pi / 2)
    return u3 @ u2 @ u1


def einsum_partial_trace(m, keep, n_qubits):
    """The route ``qcore.partial_trace`` took before it reduced with
    ``ndarray.trace``: the kept qubits' block traces summed by ``np.einsum``,
    then the Hermitian part when ``m`` is not exactly Hermitian.  Its oracle,
    without the input check."""
    kept = sorted(keep)
    order = kept + [q for q in range(n_qubits) if q not in kept]
    t = m.reshape((2,) * (2 * n_qubits)).transpose(order + [n_qubits + q for q in order])
    dk, rest = 1 << len(kept), 1 << (n_qubits - len(kept))
    r = np.einsum("itjt->ij", t.reshape(dk, rest, dk, rest))
    if np.abs(m - m.conj().T).max():
        r = 0.5 * (r + r.conj().T)
    return r


def dense_post_selected(schedule, amps, aux_state):
    """The route ``simulate`` took before it evolved the register alone: the
    register times the auxiliary's basis state |aux_state> as qubit n, each
    segment propagator contracted by ``np.tensordot`` into (qubit,) or
    (k, n, l) of those n + 1 qubits, then the auxiliary projected back onto
    |aux_state>.  Returns the register amplitudes left there, not renormalized."""
    n = schedule.n_register
    state = np.kron(amps, np.eye(2)[aux_state]).reshape((2,) * (n + 1))
    for seg in schedule.segments:
        targets = (seg.qubit,) if isinstance(seg, FieldSegment) else (seg.pair[0], n, seg.pair[1])
        m = len(targets)
        g = segment_unitary(seg).matrix.reshape((2,) * (2 * m))
        state = np.moveaxis(np.tensordot(g, state, axes=(range(m, 2 * m), targets)),
                            range(m), targets)
    return np.ascontiguousarray(state[..., aux_state]).reshape(-1)


def embed_operator(gate, targets, n_qubits):
    """Full 2^n x 2^n matrix for a small gate acting on the given qubits.

    Gate qubit j (most significant first) lands on global qubit ``targets[j]``;
    all other qubits get identity factors.  The dense oracle of the kernel and
    pulse tests.
    """
    g = np.asarray(gate, dtype=np.complex128)
    m = len(targets)
    if g.shape != (1 << m, 1 << m):
        raise ValueError(f"gate shape {g.shape} does not match {m} target qubits")
    if len(set(targets)) != m or any(not 0 <= q < n_qubits for q in targets):
        raise ValueError(f"invalid target qubits {targets} for {n_qubits} qubits")
    dim = 1 << n_qubits
    full = np.eye(dim, dtype=np.complex128).reshape((2,) * n_qubits + (dim,))
    full = np.moveaxis(full, list(targets), range(m))
    shape = full.shape
    full = (g @ full.reshape(1 << m, -1)).reshape(shape)
    full = np.moveaxis(full, range(m), list(targets))
    return full.reshape(dim, dim)


def double_lambda_matrix(j_k, j_l):
    """The (k, a, l) XY exchange Hamiltonian written directly as its two
    coupling ladders: one lambda links |001> and |100> to the apex |010>, the
    mirrored one links |011> and |110> to |101>.  The independent construction
    ``pulse.coupling_hamiltonian`` is checked against, entry by entry."""
    h = np.zeros((8, 8), dtype=np.complex128)
    ket = {"010": 2, "001": 1, "100": 4, "101": 5, "011": 3, "110": 6}
    for apex, base, j in (
        ("010", "001", j_l),
        ("010", "100", j_k),
        ("101", "011", j_k),
        ("101", "110", j_l),
    ):
        h[ket[apex], ket[base]] += j / 2.0
        h[ket[base], ket[apex]] += j / 2.0
    return h


# The six invariant-subspace projectors of a coupling pulse in (k, a, l)
# order, written out independently of the package: the whole aux=0 / aux=1
# blocks, then the bright pair and opposite-corner singlet inside each.
ORACLE_PROJECTORS = {name: np.diag([1.0 if i in idx else 0.0 for i in range(8)])
                     for name, idx in {"P_0": (0, 1, 4, 5), "P_1": (2, 3, 6, 7),
                                       "P_0^1": (5,), "P_0^2": (1, 4),
                                       "P_1^1": (2,), "P_1^2": (3, 6)}.items()}


def static_transport_residual(h):
    """max_P ||P H P||_2 over :data:`ORACLE_PROJECTORS`: zero when no
    invariant subspace holds energy of its own."""
    return max(float(np.linalg.norm(p @ h @ p, ord=2)) for p in ORACLE_PROJECTORS.values())


def gate_product(circuit, aux_state, amps):
    """The benchmark's reference for a circuit on the register vector ``amps``:
    ``perfbench/workloads.py``'s closed-form rotation and its coupling block
    exponentiated from the XY Hamiltonian by ``eigh``, contracted gate by gate
    by ``tensordot``.  It shares no gate matrix with holostar."""
    n = (amps.size - 1).bit_length()
    for g in circuit.gates:
        if isinstance(g, RotationGate):
            t = g.target
            amps = workloads.contract(amps, workloads.rotation_matrix(t.theta, t.phi, t.dphi),
                                      (g.qubit,), n)
        else:
            amps = workloads.contract(amps, workloads.reflection_block(g.mix_theta, aux_state),
                                      g.pair, n)
    return amps


def phase_aligned_deviation(got, want):
    """Largest entry of |got - e^{i a} want|, with the global phase a taken
    from their overlap."""
    overlap = np.vdot(want, got)
    phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
    return float(np.max(np.abs(got - phase * want)))


def haar_state(dim, rng):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_unitary(dim, rng):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)
