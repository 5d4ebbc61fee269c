"""Holonomic two-qubit gates from a shared-auxiliary XY coupling pulse.

Two register spins k and l exchange-couple to the auxiliary spin a with
strengths (J_k, J_l) = Omega (cos(mix/2), sin(mix/2)).  The total XY spin
projection is conserved, so the 8-dimensional (k, a, l) space splits into two
invariant 4-dimensional subspaces labeled by the auxiliary's state at the
ends of the pulse.  When half the pulse area of Omega equals pi each
subspace completes a cyclic evolution and the restriction of the propagator
to it is a real reflection matrix u0 / u1 — a non-Abelian holonomy with
entangling power (2/9)(1 - cos^4 mix).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .pulse import CouplingSegment, Envelope, _coupling_pair, segment_unitary
from .qcore import Operator, partial_trace, purity

__all__ = [
    "EntanglingGate",
    "SubHolonomies",
    "split_blocks",
    "two_qubit_gate",
    "ideal_block",
    "entangling_power",
    "entangling_power_law",
    "transport_norm",
    "holonomy_decompose",
]

@dataclass(frozen=True)
class EntanglingGate:
    """Holonomic two-qubit gate on a register pair: one coupling pulse with
    mixing angle ``mix_theta`` (a distinct nonnegative pair, mix in [0, pi])."""

    pair: tuple[int, int]
    mix_theta: float

    def __post_init__(self):
        object.__setattr__(self, "pair", _coupling_pair(self.pair, self.mix_theta))

    def segment(self, shape: str = "constant") -> CouplingSegment:
        """The area-2pi coupling segment (half the Omega area equals pi)."""
        return CouplingSegment(self.pair, self.mix_theta, Envelope(math.tau, shape))


@dataclass(frozen=True)
class SubHolonomies:
    """The 1x1 and 2x2 loop holonomies inside each block, plus how well the
    direct sum of the extracted pieces rebuilds the block it came from."""

    blocks: dict[str, np.ndarray]
    reconstruction_residual: float


def split_blocks(u: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """The aux=0 and aux=1 blocks of an 8x8 (k, a, l) propagator, and the
    largest entry outside them (the leakage between the blocks).

    Read from ``u`` reordered to (a, a', k, l, k', l'), one 4x4 block per
    (a, a').  Leakage is reported, not raised on, so a leaky propagator
    (whose blocks are not unitary) can still be certified as failing.
    """
    b = u.reshape((2,) * 6).transpose(1, 4, 0, 2, 3, 5).reshape(4, 4, 4)
    return b[0], b[3], float(np.abs(b[1:3]).max())


def two_qubit_gate(gate: EntanglingGate,
                   shape: str = "constant") -> tuple[np.ndarray, np.ndarray, float]:
    """The gate's pulse propagator, split by :func:`split_blocks`."""
    return split_blocks(segment_unitary(gate.segment(shape)).matrix)


def ideal_block(mix_theta: float, aux_state: int) -> np.ndarray:
    """Closed-form 4x4 block for auxiliary prepared in |aux_state>."""
    c, s = math.cos(mix_theta), math.sin(mix_theta)
    if aux_state == 0:
        m = [[1, 0, 0, 0], [0, c, -s, 0], [0, -s, -c, 0], [0, 0, 0, -1]]
    elif aux_state == 1:
        m = [[-1, 0, 0, 0], [0, -c, -s, 0], [0, -s, c, 0], [0, 0, 0, 1]]
    else:
        raise ValueError(f"auxiliary basis state must be 0 or 1, got {aux_state}")
    return np.array(m, dtype=np.complex128)


# The six single-qubit states whose uniform average reproduces Haar averages
# of quadratic functionals exactly: the Pauli eigenstate 2-design.
_S2 = 1.0 / math.sqrt(2.0)
_PAULI_EIGENSTATES = (
    np.array([1, 0], dtype=np.complex128),
    np.array([0, 1], dtype=np.complex128),
    np.array([_S2, _S2], dtype=np.complex128),
    np.array([_S2, -_S2], dtype=np.complex128),
    np.array([_S2, 1j * _S2], dtype=np.complex128),
    np.array([_S2, -1j * _S2], dtype=np.complex128),
)
# Their 36 products a (x) b, one per row, built once.
_PRODUCT_INPUTS = np.array([np.kron(a, b) for a, b in product(_PAULI_EIGENSTATES, repeat=2)])
_PRODUCT_INPUTS.setflags(write=False)


def entangling_power(u: np.ndarray) -> float:
    """Mean linear entropy a two-qubit gate generates from product inputs.

    Averages E = 1 - tr(rho_A^2) over the 36 products of Pauli eigenstates,
    which equals the Haar product-state average exactly.  One batched product
    of column vectors maps the 36 inputs, rounding as each ``u @ ab`` does,
    and ``partial_trace`` checks each output density once, as a plain array.
    """
    if np.shape(u) != (4, 4):
        raise ValueError(f"entangling power requires a 4x4 unitary, got shape {np.shape(u)}")
    phi = Operator(u, unitary=True).matrix @ _PRODUCT_INPUTS[:, :, None]
    rho = phi * phi.conj().transpose(0, 2, 1)
    rho_a = np.array([partial_trace(r, keep=(0,), n_qubits=2).matrix for r in rho])
    total = 0.0
    for p in purity(rho_a).tolist():
        total += 1.0 - p
    return total / 36.0


def entangling_power_law(mix_theta: float) -> float:
    """(2/9)(1 - cos^4 mix_theta), the entangling power of either block."""
    return (2.0 / 9.0) * (1.0 - math.cos(mix_theta) ** 4)


# The six invariant-subspace projectors in lexicographic (k, a, l) order, as one
# (6, 8, 8) stack of 0/1 diagonals: the whole aux=0 / aux=1 blocks, then their
# refinement into the loops that generate the sub-holonomies (bright pair and
# opposite-corner singlet per block).
PROJECTOR_INDEX_SETS = {"P_0": (0, 1, 4, 5), "P_1": (2, 3, 6, 7), "P_0^1": (5,),
                        "P_0^2": (1, 4), "P_1^1": (2,), "P_1^2": (3, 6)}
_PROJECTOR_STACK = np.array([np.diag(np.isin(np.arange(8), idx))
                             for idx in PROJECTOR_INDEX_SETS.values()], dtype=np.complex128)
_PROJECTOR_STACK.setflags(write=False)


def transport_norm(h_unit: np.ndarray) -> float:
    """max_P ||P H_unit P||_2 over the six projectors, from one batched SVD.

    U(t) = exp(-i A(t) H_unit) commutes with H(t) = a(t) H_unit, so the transport
    residual at t, max_P ||U P U^dag H(t) U P U^dag||_2, is a(t) times this norm,
    and the envelope's peak times it at most.
    """
    stack = _PROJECTOR_STACK @ h_unit @ _PROJECTOR_STACK
    return float(np.linalg.svd(stack, compute_uv=False).max())


def holonomy_decompose(u0: np.ndarray, u1: np.ndarray) -> SubHolonomies:
    """Extract the loop holonomies sitting on the diagonal of each block.

    In the aux=0 block the corners |000> and |101> carry 1x1 holonomies (the
    trivial one and the loop phase -1) around the 2x2 bright-pair holonomy on
    {|001>, |100>}; the aux=1 block mirrors this.  The direct sum of the
    extracted pieces must rebuild the blocks they came from.  Leakage between
    the blocks is not judged here (:func:`split_blocks` reports it), and
    neither is the unitarity of a leaky block.
    """
    blocks = {
        "C_0^1": u0[3:4, 3:4].copy(),
        "C_0^2": u0[1:3, 1:3].copy(),
        "C_1^1": u1[0:1, 0:1].copy(),
        "C_1^2": u1[1:3, 1:3].copy(),
    }
    # What the direct sum leaves unexplained: each block with its extracted
    # pieces zeroed and the trivial corner's 1 subtracted.
    rest0, rest1 = u0.copy(), u1.copy()
    rest0[1:3, 1:3] = rest0[3, 3] = 0.0
    rest1[0, 0] = rest1[1:3, 1:3] = 0.0
    rest0[0, 0] -= 1.0
    rest1[3, 3] -= 1.0
    residual = max(float(np.max(np.abs(rest0))), float(np.max(np.abs(rest1))))
    return SubHolonomies(blocks=blocks, reconstruction_residual=residual)
