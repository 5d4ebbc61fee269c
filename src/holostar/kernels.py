"""State-vector gate application: a numpy tensor contraction on the target axes."""

import numpy as np

BACKEND = "numpy"

__all__ = ["BACKEND", "apply_gate", "apply_gate_inplace"]


def apply_gate_inplace(state, gate, targets):
    """Apply a 2^m x 2^m gate to qubits ``targets`` of ``state``, in place.

    ``state`` must be a writable C-contiguous complex128 vector of length 2^n;
    qubit 0 is the most significant bit of the basis index.
    """
    if not (isinstance(state, np.ndarray) and state.dtype == np.complex128
            and state.ndim == 1 and state.flags.c_contiguous and state.flags.writeable):
        raise ValueError("state must be a writable C-contiguous complex128 vector")
    n = (state.size - 1).bit_length()
    if state.size != 1 << n:
        raise ValueError(f"state length {state.size} is not a power of two")
    targets = tuple(int(q) for q in targets)
    m = len(targets)
    if len(set(targets)) != m or any(not 0 <= q < n for q in targets):
        raise ValueError(f"invalid target qubits {targets} for {n} qubits")
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (1 << m, 1 << m):
        raise ValueError(f"gate shape {gate.shape} does not match {m} target qubits")
    t = np.moveaxis(state.reshape((2,) * n), targets, range(m))
    out = (gate @ t.reshape(1 << m, -1)).reshape(t.shape)
    state[:] = np.moveaxis(out, range(m), targets).reshape(-1)


def apply_gate(state, gate, targets):
    """Copying variant of :func:`apply_gate_inplace`."""
    out = np.array(state, dtype=np.complex128, copy=True, order="C").reshape(-1)
    apply_gate_inplace(out, gate, targets)
    return out
