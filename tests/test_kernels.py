import numpy as np
import pytest

from holostar import kernels
from holostar.qcore import embed_operator

from conftest import haar_state, random_unitary


def _oracle(state, gate, targets, n):
    return embed_operator(gate, targets, n) @ state


@pytest.mark.parametrize("m, n", [(m, n) for m in (1, 2, 3) for n in (1, 2, 3, 5, 7) if m <= n]
                         + [(7, 7)])
def test_apply_gate_matches_embedding(m, n, rng):
    for _ in range(5):
        state = haar_state(1 << n, rng)
        gate = random_unitary(1 << m, rng)
        targets = tuple(rng.permutation(n)[:m])
        got = kernels.apply_gate(state, gate, targets)
        assert np.allclose(got, _oracle(state, gate, targets, n), atol=1e-13)


def test_target_order_semantics():
    # gate qubit 0 (msb) lands on targets[0]: a CNOT with control listed
    # second flips depending on the *second* target's bit.
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    state = np.zeros(4, dtype=complex)
    state[1] = 1.0  # |01>
    got = kernels.apply_gate(state, cnot, (1, 0))  # control = qubit 1, target = qubit 0
    want = np.zeros(4)
    want[3] = 1.0  # |11>
    assert np.allclose(got, want)


def test_apply_gate_inplace_mutates(rng):
    state = haar_state(2, rng).astype(np.complex128)
    before = state.copy()
    kernels.apply_gate_inplace(state, np.array([[0, 1], [1, 0]], dtype=complex), (0,))
    assert np.allclose(state, before[::-1])


def test_validation_errors(rng):
    state = haar_state(4, rng)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError, match="complex128"):
        kernels.apply_gate_inplace(state.real.copy(), x, (0,))
    with pytest.raises(ValueError, match="writable"):
        frozen = state.copy()
        frozen.setflags(write=False)
        kernels.apply_gate_inplace(frozen, x, (0,))
    with pytest.raises(ValueError, match="power of two"):
        kernels.apply_gate_inplace(np.ones(3, dtype=np.complex128) / np.sqrt(3), x, (0,))
    with pytest.raises(ValueError, match="target"):
        kernels.apply_gate(state, x, (2,))
    with pytest.raises(ValueError, match="target"):
        kernels.apply_gate(state, np.eye(4, dtype=complex), (0, 0))
    with pytest.raises(ValueError, match="gate shape"):
        kernels.apply_gate(state, x, (0, 1))


def test_backend_name_reported():
    assert kernels.BACKEND == "numpy"
