"""State-vector gate application: a numpy contraction on the target axes.

A one-qubit gate on qubit q sees the state as (L, 2, R), L = 2^q, R = 2^(n-q-1).
Per-apply costs on a 2-vCPU Xeon (in-process timeit, over q and five runs) at
n = 11, a 10-qubit simulation's state (a copy of it takes 2 us), / at n = 15:
- L <= R or R >= 64: ``gate @ view`` batched over L, 13-34 us / 0.09-0.28 ms.
  BLAS pays per batch, so this shape takes 1.1 ms at n = 15, R = 8.
- R <= 8: the (L, 2R) view times (gate (x) I_R)^T, one GEMM, 20-31 us /
  0.10-0.28 ms.  The factor is built by broadcasting (~7 us; ``np.kron`` ~30 us).
- otherwise (R = 16, 32), and for m > 1: the targets transposed to the front
  of the (2,)*n view, one ``gate @`` product, assigned back through that view.
  One qubit 18-28 us / 0.47-0.83 ms, at n = 15 with ~220 minor page faults
  for the two temporaries; three qubits 33-38 us (44-51 us with
  ``np.moveaxis``) / 0.6-0.9 ms.
"""

import numpy as np

BACKEND = "numpy"

__all__ = ["BACKEND", "apply_gate", "apply_gate_inplace"]

# I_R for the (gate (x) I_R) factor, shaped (R, 1, R) to broadcast against gate^T
_EYE_R = {r: np.eye(r)[:, None] for r in (1, 2, 4, 8)}


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
    targets = [int(q) for q in targets]
    m = len(targets)
    # n - m qubits are left over exactly when the targets are distinct and in range
    rest = [q for q in range(n) if q not in targets]
    if len(rest) != n - m:
        raise ValueError(f"invalid target qubits {tuple(targets)} for {n} qubits")
    gate = np.asarray(gate, dtype=np.complex128)
    if gate.shape != (1 << m, 1 << m):
        raise ValueError(f"gate shape {gate.shape} does not match {m} target qubits")
    if m == 1:
        lo, r = 1 << targets[0], 1 << (n - 1 - targets[0])
        if lo <= r or r >= 64:
            v = state.reshape(lo, 2, r)
            v[...] = gate @ v
            return
        if r <= 8:
            v = state.reshape(lo, 2 * r)
            v[...] = v @ (gate.T[:, None, :, None] * _EYE_R[r]).reshape(2 * r, 2 * r)
            return
    t = state.reshape((2,) * n).transpose(targets + rest)  # the targets moved to the front
    t[...] = (gate @ t.reshape(1 << m, -1)).reshape(t.shape)


def apply_gate(state, gate, targets):
    """Copying variant of :func:`apply_gate_inplace`, for a 1-D ``state``."""
    out = np.array(state, dtype=np.complex128, copy=True, order="C")
    apply_gate_inplace(out, gate, targets)
    return out
