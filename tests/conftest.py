import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from holostar.pulse import FieldSegment, segment_unitary
from holostar.qcore import Operator

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
