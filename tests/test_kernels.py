import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

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


def _gate(kind, rng):
    if kind == "unitary":
        return random_unitary(2, rng)
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    # expectation_trace applies a Hermitian, non-unitary h_unit through apply_gate
    return z + z.conj().T if kind == "hermitian" else z


# Every target of n = 1, 4 and 10 qubits reaches each one-qubit contraction
# shape (L = 2^q, R = 2^(n-q-1)): batched (L <= R or R >= 64), moveaxis
# (n = 10, R = 16) and the (gate x I_R) GEMM (R <= 8), plus the 1-qubit
# states verify evolves.
@pytest.mark.parametrize("n, q", [(n, q) for n in (1, 4, 10) for q in range(n)])
@pytest.mark.parametrize("kind", ["unitary", "hermitian", "general"])
def test_every_target_position_matches_embedding(n, q, kind, rng):
    state, gate = haar_state(1 << n, rng), _gate(kind, rng)
    want = _oracle(state, gate, (q,), n)

    frozen = state.copy()
    got = kernels.apply_gate(state, gate, (q,))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    assert np.array_equal(state, frozen) and not np.shares_memory(got, state)

    buf = state.copy()
    view = buf[:]
    assert kernels.apply_gate_inplace(view, gate, (q,)) is None
    assert view.base is buf and np.shares_memory(view, buf)
    np.testing.assert_allclose(buf, want, rtol=0, atol=1e-13)


@st.composite
def _applies(draw, min_m=1):
    n = draw(st.integers(min_m, 12))
    m = draw(st.integers(min_m, min(3, n)))
    targets = tuple(draw(st.permutations(range(n)))[:m])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gate = rng.uniform(-1, 1, (1 << m, 1 << m)) + 1j * rng.uniform(-1, 1, (1 << m, 1 << m))
    return haar_state(1 << n, rng), gate, targets


@given(_applies())
def test_apply_gate_matches_tensordot(case):
    state, gate, targets = case
    n, m = state.size.bit_length() - 1, len(targets)
    # contract the gate's input legs with the target axes; its output legs
    # come first and are moved back to the target positions
    psi = np.tensordot(gate.reshape((2,) * 2 * m), state.reshape((2,) * n),
                       axes=(list(range(m, 2 * m)), list(targets)))
    want = np.moveaxis(psi, range(m), targets).reshape(-1)
    np.testing.assert_allclose(kernels.apply_gate(state, gate, targets), want,
                               rtol=0, atol=1e-13)


@given(_applies(min_m=2))
def test_multi_qubit_apply_is_the_moveaxis_contraction_bit_for_bit(case):
    # the route every multi-qubit apply took before the kernel transposed
    # the targets to the front: the same view, so the same bits
    state, gate, targets = case
    n, m = state.size.bit_length() - 1, len(targets)
    want = state.copy()
    t = np.moveaxis(want.reshape((2,) * n), targets, range(m))
    t[...] = (gate @ t.reshape(1 << m, -1)).reshape(t.shape)
    assert np.array_equal(kernels.apply_gate(state, gate, targets), want)


def test_public_names_and_inplace_dispatch(monkeypatch, rng):
    # perfbench/tracer.py wraps exactly the names in __all__ and counts
    # trace-side applies only because apply_gate reaches apply_gate_inplace
    # through the module global.
    assert kernels.__all__ == ["BACKEND", "apply_gate", "apply_gate_inplace"]
    calls = []
    inner = kernels.apply_gate_inplace

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(kernels, "apply_gate_inplace", counting)
    kernels.apply_gate(haar_state(8, rng), random_unitary(2, rng), (1,))
    assert len(calls) == 1


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


def test_apply_gate_refuses_a_state_that_is_not_a_vector():
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    with pytest.raises(ValueError, match="vector"):
        kernels.apply_gate(np.eye(2, dtype=complex), x, (0,))


def test_backend_name_reported():
    assert kernels.BACKEND == "numpy"
