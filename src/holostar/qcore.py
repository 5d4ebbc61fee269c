"""Dense complex linear algebra and quantum-state primitives.

Operators and state vectors are immutable wrappers around complex128 numpy
arrays.  Role flags (``hermitian`` / ``unitary``) are verified at construction
time, so a flagged operator can be trusted downstream without re-checking.

Every check is written so that a NaN deviation fails it: a state vector, a
flagged operator or the density operator handed to ``partial_trace``
holding a NaN or infinite entry is refused.  (An operator without role
flags is not checked, so it may hold any value.)  Under ``python -W error``
the RuntimeWarning numpy raises on inf input or overflow fails the check too,
so the caller gets the same ValueError either way.

A wrapper's array cannot be changed through a reference the caller keeps.
An array the wrapper is handed whole becomes its own and is frozen in place,
so a later write through the caller's name raises; an array that views
memory belonging to another object (a reshape, a slice, a buffer) is copied
first.  Handing over a fresh array therefore costs no copy, which is how
``evolve`` returns its state.  (Views the caller took of an array before
handing it over are not tracked.)

Qubit convention: qubit 0 is the most significant bit of the basis index, so
``tensor(a, b)`` puts ``a`` on the most significant positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Operator",
    "StateVector",
    "basis_state",
    "ket",
    "tensor",
    "partial_trace",
    "phase_invariant_distance",
    "density",
    "purity",
    "embed_operator",
    "permute_basis",
    "wrap_phase",
]

# Construction invariants: how far a flagged matrix or a state may deviate
# from its role before it is refused.
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
STATE_NORM_TOL = 1e-12
DENSITY_TOL = 1e-12


def _as_complex_matrix(m) -> np.ndarray:
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` made read-only, copied first when it views another object's memory
    (which the caller may still write through)."""
    if a.base is not None:
        a = a.copy()
    a.setflags(write=False)
    return a


# Read-only identities for the small dimensions every gate and block check
# uses; a larger unitary check builds its identity per call.
_EYE = {d: _frozen(np.eye(d, dtype=np.complex128)) for d in (1, 2, 4, 8, 16)}


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense complex square matrix with verified role flags."""

    matrix: np.ndarray
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        m = _as_complex_matrix(self.matrix)
        if self.hermitian:
            try:
                dev = np.abs(m - m.conj().T).max()
            except RuntimeWarning:  # inf - inf under -W error
                dev = math.nan
            if not dev <= HERMITIAN_TOL:
                raise ValueError(f"operator flagged Hermitian deviates by {dev:.3e}")
        if self.unitary:
            d = m.shape[0]
            eye = _EYE[d] if d in _EYE else np.eye(d, dtype=np.complex128)
            try:
                dev = np.abs(m.conj().T @ m - eye).max()
            except RuntimeWarning:  # inf * 0, or overflow, under -W error
                dev = math.nan
            if not dev <= UNITARY_TOL:
                raise ValueError(f"operator flagged unitary deviates by {dev:.3e}")
        object.__setattr__(self, "matrix", _frozen(m))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized complex amplitude vector over a qubit register."""

    amplitudes: np.ndarray

    def __post_init__(self):
        # asarray, unlike ascontiguousarray, keeps a 0-D input 0-D for the check below
        a = np.asarray(self.amplitudes, dtype=np.complex128, order="C")
        if a.ndim != 1:
            raise ValueError(f"amplitudes must be a 1-D vector, got shape {a.shape}")
        n = (a.size - 1).bit_length()
        if a.size != 1 << n:
            raise ValueError(f"amplitude count must be a power of two, got {a.size}")
        # the sum numpy.linalg.norm forms for a complex vector, without its dispatch
        try:
            nrm = math.sqrt(a.real.dot(a.real) + a.imag.dot(a.imag))
        except RuntimeWarning:  # overflow under -W error
            nrm = math.inf
        if not abs(nrm - 1.0) <= STATE_NORM_TOL:
            raise ValueError(f"state norm deviates from 1 by {abs(nrm - 1.0):.3e}")
        object.__setattr__(self, "amplitudes", _frozen(a))

    @property
    def n_qubits(self) -> int:
        return (self.amplitudes.size - 1).bit_length()

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def basis_state(n_qubits: int, index: int) -> StateVector:
    """Computational basis state |index> on ``n_qubits`` qubits."""
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    a = np.zeros(dim, dtype=np.complex128)
    a[index] = 1.0
    return StateVector(a)


def ket(bits: str) -> StateVector:
    """Basis state from a bit string, e.g. ``ket("010")``; leftmost bit is qubit 0."""
    if not bits or set(bits) - {"0", "1"}:
        raise ValueError(f"invalid bit string {bits!r}")
    return basis_state(len(bits), int(bits, 2))


def tensor(a, b):
    """Kronecker product of two operators or two state vectors."""
    if isinstance(a, Operator) and isinstance(b, Operator):
        return Operator(
            np.kron(a.matrix, b.matrix),
            hermitian=a.hermitian and b.hermitian,
            unitary=a.unitary and b.unitary,
        )
    if isinstance(a, StateVector) and isinstance(b, StateVector):
        return StateVector(np.kron(a.amplitudes, b.amplitudes))
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def density(psi: StateVector) -> Operator:
    """Rank-one density operator |psi><psi|."""
    a = psi.amplitudes
    return Operator(a[:, None] * a.conj(), hermitian=True)


def purity(rho) -> float | np.ndarray:
    """tr(rho^2) as a float, or as an array for a stack of matrices."""
    m = rho.matrix if isinstance(rho, Operator) else np.asarray(rho)
    p = (m @ m).trace(axis1=-2, axis2=-1).real
    return float(p) if p.ndim == 0 else p


def partial_trace(rho: Operator, keep: Iterable[int], n_qubits: int) -> Operator:
    """Reduced density operator on the kept qubits (ascending index order)."""
    m = rho.matrix
    dim = 1 << n_qubits
    if m.shape != (dim, dim):
        raise ValueError(f"density matrix shape {m.shape} does not match {n_qubits} qubits")
    keep = sorted(set(keep))
    if keep and not (0 <= keep[0] and keep[-1] < n_qubits):
        raise ValueError(f"kept qubit indices {keep} out of range for {n_qubits} qubits")
    try:
        dev = np.abs(m - m.conj().T).max()
    except RuntimeWarning:  # inf - inf under -W error
        dev = math.nan
    if not dev <= HERMITIAN_TOL:
        raise ValueError("partial_trace requires a Hermitian density operator")
    tr = m.trace()
    if not (abs(tr.real - 1.0) <= DENSITY_TOL and abs(tr.imag) <= DENSITY_TOL):
        raise ValueError("partial_trace requires a unit-trace density operator")
    traced = [q for q in range(n_qubits) if q not in keep]
    t = m.reshape((2,) * (2 * n_qubits))
    row = keep + traced
    col = [n_qubits + q for q in row]
    t = t.transpose(row + col)
    dk, dt = 1 << len(keep), 1 << len(traced)
    t = t.reshape(dk, dt, dk, dt)
    return Operator(np.einsum("itjt->ij", t), hermitian=True)


def phase_invariant_distance(u, v) -> float:
    """Distance sqrt(1 - |tr(U^dag V)| / d) between equal-size unitaries.

    Evaluated as the phase-aligned Frobenius norm ||U - e^{i a} V||_F /
    sqrt(2d) with a = arg tr(U^dag V), which is the same function but does not
    bottom out near sqrt(machine eps) the way the trace form does.
    """
    mu = u.matrix if isinstance(u, Operator) else np.asarray(u, dtype=np.complex128)
    mv = v.matrix if isinstance(v, Operator) else np.asarray(v, dtype=np.complex128)
    if mu.shape != mv.shape:
        raise ValueError(f"dimension mismatch: {mu.shape} vs {mv.shape}")
    d = mu.shape[0]
    alpha = np.angle(np.trace(mu.conj().T @ mv))
    dist = np.linalg.norm(mu - np.exp(-1j * alpha) * mv) / math.sqrt(2 * d)
    return float(min(dist, 1.0))


def embed_operator(gate: np.ndarray, targets: Sequence[int], n_qubits: int) -> np.ndarray:
    """Full 2^n x 2^n matrix for a small gate acting on the given qubits.

    Gate qubit j (most significant first) lands on global qubit ``targets[j]``;
    all other qubits get identity factors.
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


def permute_basis(matrix: np.ndarray, order: Sequence[int]) -> np.ndarray:
    """Reorder basis states: output[i, j] = matrix[order[i], order[j]]."""
    idx = np.asarray(order)
    m = np.asarray(matrix)
    if sorted(idx.tolist()) != list(range(m.shape[0])):
        raise ValueError(f"order {order} is not a permutation of 0..{m.shape[0] - 1}")
    return m[np.ix_(idx, idx)]


def _isfinite(x) -> bool:
    """math.isfinite, but False rather than OverflowError for an int beyond float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def wrap_phase(x: float) -> float:
    """Map an angle to the principal interval (-pi, pi]."""
    y = math.remainder(x, math.tau)
    if y <= -math.pi:
        y += math.tau
    return y
