"""Dense complex linear algebra and quantum-state primitives.

Operators and state vectors are immutable wrappers around complex128 numpy
arrays.  Role flags (``hermitian`` / ``unitary``) are verified at construction
time, so a flagged operator can be trusted downstream without re-checking.

Every check is written so that a NaN deviation fails it: a state vector, a
flagged operator or the density matrix handed to ``partial_trace`` (an
``Operator`` or an array, checked alike) holding a NaN or infinite entry is
refused.  (An operator without role flags is not checked, so it may hold any
value.)  Under ``python -W error`` the RuntimeWarning numpy raises on inf
input or overflow fails the check too, so the caller gets the same ValueError
either way.

A wrapper's array cannot be changed through a reference the caller keeps:
the wrapper converts its input with one copying ``np.array`` call and makes
the copy read-only, so no name or view the caller holds reaches it.  (The
one exception, ``StateVector._adopt``, takes a fresh array its caller drops.)

Qubit convention: qubit 0 is the most significant bit of the basis index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

__all__ = [
    "Operator",
    "StateVector",
    "basis_state",
    "ket",
    "partial_trace",
    "phase_invariant_distance",
    "density",
    "purity",
    "wrap_phase",
]

# Construction invariants: how far a flagged matrix or a state may deviate
# from its role before it is refused.
HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-10
STATE_NORM_TOL = 1e-12
DENSITY_TOL = 1e-12


def _own_copy(x) -> np.ndarray:
    """A read-only C-contiguous complex128 copy of ``x`` that nothing else references."""
    a = np.array(x, dtype=np.complex128, order="C")
    a.setflags(write=False)
    return a


# Read-only identities for the small dimensions every gate and block check
# uses; a larger unitary check builds its identity per call.
_EYE = {d: _own_copy(np.eye(d)) for d in (1, 2, 4, 8, 16)}


def _deviation(m: np.ndarray, unitary: bool = False) -> float:
    """Largest entry of |m^dag m - I| (``unitary``) or of |m - m^dag|; NaN, which
    fails every check, where numpy's RuntimeWarning (inf - inf, overflow) is an error."""
    try:
        if unitary:
            d = m.shape[0]
            diff = m.conj().T @ m - (_EYE[d] if d in _EYE else np.eye(d))
        else:
            diff = m - m.conj().T
        return np.maximum.reduce(np.abs(diff), axis=None)
    except RuntimeWarning:
        return math.nan


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense complex square matrix with verified role flags."""

    matrix: np.ndarray
    hermitian: bool = False
    unitary: bool = False

    def __post_init__(self):
        m = _own_copy(self.matrix)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {m.shape}")
        if self.hermitian:
            dev = _deviation(m)
            if not dev <= HERMITIAN_TOL:
                raise ValueError(f"operator flagged Hermitian deviates by {dev:.3e}")
        if self.unitary:
            dev = _deviation(m, unitary=True)
            if not dev <= UNITARY_TOL:
                raise ValueError(f"operator flagged unitary deviates by {dev:.3e}")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized complex amplitude vector over a qubit register."""

    amplitudes: np.ndarray

    def __post_init__(self):
        self._take(_own_copy(self.amplitudes))

    @classmethod
    def _adopt(cls, a: np.ndarray) -> "StateVector":
        """The state over the fresh complex128 vector ``a`` itself, frozen and
        checked like any other: how ``simulate`` hands over its working vector.
        (A copy made ``sim-wide`` 6-10% slower, through glibc heap trimming.)"""
        a.setflags(write=False)
        psi = cls.__new__(cls)
        psi._take(a)
        return psi

    def _take(self, a: np.ndarray):
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
        object.__setattr__(self, "amplitudes", a)

    @property
    def n_qubits(self) -> int:
        return (self.amplitudes.size - 1).bit_length()


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


def density(psi: StateVector) -> Operator:
    """Rank-one density operator |psi><psi|."""
    a = psi.amplitudes
    return Operator(a[:, None] * a.conj(), hermitian=True)


def purity(rho) -> float | np.ndarray:
    """tr(rho^2) as a float, or as an array for a stack of matrices."""
    m = rho.matrix if isinstance(rho, Operator) else np.asarray(rho)
    p = (m @ m).trace(axis1=-2, axis2=-1).real
    return float(p) if p.ndim == 0 else p


def partial_trace(rho, keep: Iterable[int], n_qubits: int) -> Operator:
    """Reduced density operator on the kept qubits (ascending index order).

    ``rho`` is an ``Operator`` or a complex matrix, checked alike: its shape,
    Hermiticity within HERMITIAN_TOL, unit trace within DENSITY_TOL, and
    integer ``keep`` indices in range.  Tracing can add up the tolerated
    Hermitian deviation, so a deviating input gives the Hermitian part of its
    trace; an exactly Hermitian input keeps its bits.
    """
    m = rho.matrix if isinstance(rho, Operator) else np.asarray(rho, dtype=np.complex128)
    dim = 1 << n_qubits
    if m.shape != (dim, dim):
        raise ValueError(f"density matrix shape {m.shape} does not match {n_qubits} qubits")
    try:
        kept = sorted(set(keep))
        if kept and not (0 <= kept[0] and kept[-1] < n_qubits):
            raise ValueError(f"kept qubit indices {kept} out of range for {n_qubits} qubits")
        row = kept + [q for q in range(n_qubits) if q not in kept]
        t = m.reshape((2,) * (2 * n_qubits)).transpose(row + [n_qubits + q for q in row])
    except TypeError:  # from sorted or transpose, on an index that is no integer
        raise ValueError(f"kept qubit indices {keep!r} are not all integers") from None
    dev = _deviation(m)
    if not dev <= HERMITIAN_TOL:
        raise ValueError("partial_trace requires a Hermitian density operator")
    tr = m.trace()
    if not (abs(tr.real - 1.0) <= DENSITY_TOL and abs(tr.imag) <= DENSITY_TOL):
        raise ValueError("partial_trace requires a unit-trace density operator")
    dk = 1 << len(kept)
    r = t.reshape(dk, dim // dk, dk, dim // dk).trace(axis1=1, axis2=3)
    if dev:
        r = 0.5 * (r + r.conj().T)
    return Operator(r, hermitian=True)


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


def _isfinite(x) -> bool:
    """math.isfinite, but False rather than OverflowError for an int beyond float range."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _shown(value) -> str:
    """repr(value) for an error line, cut to 60 characters and an ellipsis."""
    r = repr(value)
    return r if len(r) <= 60 else r[:60] + "..."


def wrap_phase(x: float) -> float:
    """Map an angle to the principal interval (-pi, pi]."""
    y = math.remainder(x, math.tau)
    if y <= -math.pi:
        y += math.tau
    return y
