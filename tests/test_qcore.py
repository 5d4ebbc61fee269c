import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holostar.qcore import (
    DENSITY_TOL,
    HERMITIAN_TOL,
    STATE_NORM_TOL,
    UNITARY_TOL,
    _PAULI,
    Operator,
    StateVector,
    basis_state,
    density,
    embed_operator,
    ket,
    partial_trace,
    phase_invariant_distance,
    purity,
    tensor,
    wrap_phase,
)

from conftest import (SX, SY, SZ, einsum_partial_trace, matrix_exponential_hermitian,
                      random_unitary)

angles = st.floats(-10.0, 10.0, allow_nan=False)


def pauli(axis):
    return Operator({"x": SX, "y": SY, "z": SZ}[axis], hermitian=True, unitary=True)


def identity(dim):
    return Operator(np.eye(dim), hermitian=True, unitary=True)


def test_pauli_matrices():
    # the table the drive and exchange Hamiltonians are built from
    assert np.array_equal(_PAULI["x"], [[0, 1], [1, 0]])
    assert np.array_equal(_PAULI["z"], [[1, 0], [0, -1]])
    assert np.array_equal(_PAULI["y"], [[0, -1j], [1j, 0]])


def test_operator_flag_validation():
    with pytest.raises(ValueError, match="Hermitian"):
        Operator(np.array([[0, 1], [0, 0]]), hermitian=True)
    with pytest.raises(ValueError, match="unitary"):
        Operator(np.array([[1, 0], [0, 2]]), unitary=True)


def test_operator_matrix_is_frozen():
    op = pauli("x")
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 5.0


def test_wrapper_copies_a_view_of_writable_memory():
    a = np.eye(2, dtype=complex)
    op = Operator(a.reshape(2, 2), unitary=True)
    a[0, 0] = 5
    assert op.matrix[0, 0] == 1
    b = np.array([1, 0, 0], dtype=complex)
    psi = StateVector(b[:2])
    b[0] = 7
    assert psi.amplitudes[0] == 1
    buf = bytearray(np.array([1, 0], dtype=complex).tobytes())
    psi = StateVector(np.frombuffer(buf, dtype=complex))
    buf[:16] = np.array([7], dtype=complex).tobytes()
    assert psi.amplitudes[0] == 1


def test_wrapper_copies_an_array_the_caller_took_a_view_of():
    # a view taken before construction reaches neither the wrapper's array nor
    # its flags: the array stays the caller's, writable, and changes nothing
    b = np.array([1, 0], dtype=complex)
    v = b[:]
    psi = StateVector(b)
    v[0] = 7
    b[1] = 7
    assert psi.amplitudes.tolist() == [1, 0]
    assert not np.shares_memory(psi.amplitudes, b)
    a = np.eye(2, dtype=complex)
    w = a[:]
    op = Operator(a, unitary=True)
    w[0, 0] = 5
    a[1, 1] = 5
    assert op.matrix.tolist() == [[1, 0], [0, 1]]
    assert not np.shares_memory(op.matrix, a)
    for arr in (psi.amplitudes, op.matrix):
        assert arr.flags.c_contiguous and arr.dtype == np.complex128
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0


def test_an_adopted_vector_is_frozen_and_checked_without_a_copy():
    a = np.array([1, 0], dtype=complex)
    psi = StateVector._adopt(a)
    assert psi.amplitudes is a and not a.flags.writeable
    for bad in (np.array([1, 1], dtype=complex), np.ones((2, 2), dtype=complex) / 2):
        with pytest.raises(ValueError, match="norm|1-D"):
            StateVector._adopt(bad)


# numpy warns on inf - inf, inf * 0 and overflow along the way; pyproject.toml
# makes its RuntimeWarning an error, so these also check the refusal under -W error
NON_FINITE = [math.nan, math.inf, -math.inf, complex(0, math.nan), complex(0, math.inf)]


@pytest.mark.parametrize("bad", NON_FINITE + [1e200])  # 1e200: the squared norm overflows
def test_statevector_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="norm"):
        StateVector(np.array([bad, 0]))


@pytest.mark.parametrize("bad", NON_FINITE)
@pytest.mark.parametrize("flag, message", [("hermitian", "Hermitian"), ("unitary", "unitary")])
def test_flagged_operator_refuses_non_finite(bad, flag, message):
    with pytest.raises(ValueError, match=message):
        Operator(np.array([[bad, 0], [0, 1]]), **{flag: True})


@pytest.mark.parametrize("bad", NON_FINITE)
def test_partial_trace_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="Hermitian"):
        partial_trace(Operator(np.full((4, 4), bad, dtype=complex)), keep=(0,), n_qubits=2)


# Each builder hands its check a deviation of ``d``, up to rounding far below d.
@pytest.mark.parametrize("tol, rejected, message, build", [
    pytest.param(HERMITIAN_TOL, 2, "Hermitian",
                 lambda d: Operator(np.array([[0, d], [0, 0]]), hermitian=True), id="hermitian"),
    pytest.param(UNITARY_TOL, 2, "unitary",
                 lambda d: Operator(np.diag([math.sqrt(1 + d), 1.0]), unitary=True),
                 id="unitary"),
    pytest.param(STATE_NORM_TOL, 2, "norm", lambda d: StateVector(np.array([1 + d, 0])),
                 id="state-norm"),
    pytest.param(DENSITY_TOL, 2, "unit-trace",
                 lambda d: partial_trace(Operator(np.diag([1 + d, 0, 0, 0])), keep=(0,),
                                         n_qubits=2), id="density-trace"),
    # Hermiticity keeps each diagonal imaginary part within HERMITIAN_TOL / 2,
    # so four entries of 0.4 tol give the largest reachable trace, 1.6 tol.
    pytest.param(DENSITY_TOL, 1.6, "unit-trace",
                 lambda d: partial_trace(Operator(np.diag([1, 0, 0, 0]) + 0.25j * d * np.eye(4)),
                                         keep=(0,), n_qubits=2), id="density-trace-imag"),
])
def test_check_threshold_from_both_sides(tol, rejected, message, build):
    build(0.5 * tol)
    with pytest.raises(ValueError, match=message):
        build(rejected * tol)


def test_statevector_validation():
    with pytest.raises(ValueError, match="norm"):
        StateVector(np.array([1.0, 1.0]))
    with pytest.raises(ValueError, match="power of two"):
        StateVector(np.array([1.0, 0.0, 0.0]))
    assert StateVector(np.array([1.0, 0.0])).n_qubits == 1
    # a matrix, a column or a row is not flattened into a larger register,
    # and a scalar is not promoted to a 0-qubit state
    for amps in (np.eye(2) / math.sqrt(2), np.array([[1.0], [0], [0], [0]]),
                 np.array([[1.0, 0.0]]), np.array(1.0)):
        with pytest.raises(ValueError, match="1-D"):
            StateVector(amps)


def test_basis_state_and_ket():
    assert np.array_equal(basis_state(2, 1).amplitudes, [0, 1, 0, 0])
    assert np.array_equal(ket("01").amplitudes, [0, 1, 0, 0])
    assert np.array_equal(ket("110").amplitudes, basis_state(3, 6).amplitudes)
    with pytest.raises(ValueError):
        ket("021")
    with pytest.raises(ValueError):
        basis_state(1, 2)


def test_exponential_examples():
    zero = Operator(np.zeros((2, 2)), hermitian=True)
    assert np.allclose(matrix_exponential_hermitian(zero, 3.0).matrix, np.eye(2))

    half_sx = Operator(SX / 2, hermitian=True)
    got = matrix_exponential_hermitian(half_sx, math.pi).matrix
    assert np.allclose(got, -1j * SX, atol=1e-15)

    sz = Operator(SZ, hermitian=True)
    got = matrix_exponential_hermitian(sz, math.pi / 4).matrix
    assert np.allclose(got, np.diag([np.exp(-1j * math.pi / 4), np.exp(1j * math.pi / 4)]))


def test_exponential_requires_hermitian_flag():
    with pytest.raises(ValueError, match="Hermitian"):
        matrix_exponential_hermitian(Operator(SX), 1.0)


@given(angles, angles)
def test_exponential_additivity(s, t):
    h = Operator(0.7 * SX + 0.2 * SY + 1.1 * SZ, hermitian=True)
    us = matrix_exponential_hermitian(h, s).matrix
    ut = matrix_exponential_hermitian(h, t).matrix
    ust = matrix_exponential_hermitian(h, s + t).matrix
    assert np.max(np.abs(us @ ut - ust)) < 1e-10


@given(angles)
def test_exponential_always_unitary(t):
    h = Operator(SX + 0.3 * SZ, hermitian=True)
    u = matrix_exponential_hermitian(h, t).matrix
    assert np.max(np.abs(u.conj().T @ u - np.eye(2))) < 1e-10


def test_tensor():
    assert np.array_equal(tensor(basis_state(1, 0), basis_state(1, 1)).amplitudes,
                          [0, 1, 0, 0])


def test_partial_trace_product_state():
    rho = density(ket("00"))
    reduced = partial_trace(rho, keep=(0,), n_qubits=2)
    assert np.allclose(reduced.matrix, [[1, 0], [0, 0]])
    assert abs(purity(reduced) - 1.0) < 1e-10


def test_purity_of_a_stack_is_each_matrix_purity(rng):
    for d in (2, 4):
        a = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
        stack = a @ a.conj().transpose(0, 2, 1)
        stack /= np.trace(stack, axis1=1, axis2=2)[:, None, None]
        got = purity(stack)
        assert isinstance(got, np.ndarray) and got.shape == (5,)
        assert got.tolist() == [float(np.trace(r @ r).real) for r in stack]
        assert [purity(Operator(r)) for r in stack] == got.tolist()
        assert type(purity(stack[0])) is float


def test_partial_trace_bell():
    bell = StateVector(np.array([1, 0, 0, 1]) / math.sqrt(2))
    for q in (0, 1):
        reduced = partial_trace(density(bell), keep=(q,), n_qubits=2)
        assert np.allclose(reduced.matrix, np.eye(2) / 2)


@given(st.floats(0.0, math.pi / 2))
def test_partial_trace_schmidt_form(a):
    psi = StateVector(np.array([math.cos(a), 0, 0, math.sin(a)]))
    reduced = partial_trace(density(psi), keep=(0,), n_qubits=2)
    assert np.allclose(reduced.matrix, np.diag([math.cos(a) ** 2, math.sin(a) ** 2]))


def test_partial_trace_validation():
    rho = density(ket("00"))
    with pytest.raises(ValueError, match="out of range"):
        partial_trace(rho, keep=(2,), n_qubits=2)
    with pytest.raises(ValueError, match="Hermitian"):
        partial_trace(Operator(np.triu(np.ones((4, 4)))), keep=(0,), n_qubits=2)
    with pytest.raises(ValueError, match="unit-trace"):
        partial_trace(Operator(np.eye(4)), keep=(0,), n_qubits=2)


def test_partial_trace_rejects_non_integer_indices():
    rho = density(ket("00"))
    for keep in [(0.5,), ("0",), (True,), (1.0,), (0, "1")]:
        with pytest.raises(ValueError, match="integers"):
            partial_trace(rho, keep=keep, n_qubits=2)


def _random_density(n_qubits, rng):
    dim = 1 << n_qubits
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def test_partial_trace_takes_a_matrix_as_it_takes_an_operator(rng):
    for n in (1, 2, 3):
        for _ in range(5):
            rho = _random_density(n, rng)
            for k in range(n + 1):
                for keep in itertools.combinations(range(n), k):
                    want = partial_trace(Operator(rho), keep=keep, n_qubits=n).matrix
                    got = partial_trace(rho, keep=keep, n_qubits=n).matrix
                    assert np.array_equal(got, want)


def test_partial_trace_matches_the_einsum_route(rng):
    for n in (1, 2, 3):
        for _ in range(5):
            rho = _random_density(n, rng)
            for k in range(n + 1):
                for keep in itertools.combinations(range(n), k):
                    got = partial_trace(rho, keep=keep, n_qubits=n).matrix
                    want = einsum_partial_trace(rho, keep, n)
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("m, message", [
    pytest.param(np.full((4, 2), 0.25), "shape", id="4x2"),
    pytest.param(np.full((4, 4, 1), 0.25), "shape", id="4x4x1"),
    pytest.param(np.diag([1.0, 0.0]), "shape", id="one-qubit"),
    pytest.param(np.diag([1.0, math.nan, 0, 0]), "Hermitian", id="nan"),
    pytest.param(np.diag([1.0, math.inf, 0, 0]), "Hermitian", id="inf"),
    pytest.param(np.triu(np.ones((4, 4))) / 4, "Hermitian", id="non-hermitian"),
    pytest.param(np.eye(4), "unit-trace", id="trace-4"),
])
def test_partial_trace_refuses_a_bad_matrix(m, message):
    with pytest.raises(ValueError, match=message):
        partial_trace(m, keep=(0,), n_qubits=2)


@pytest.mark.parametrize("wrap", [Operator, np.asarray], ids=["operator", "ndarray"])
def test_partial_trace_accepts_what_its_input_check_accepts(wrap):
    # each entry deviates from Hermitian by 0.9 HERMITIAN_TOL, and tracing
    # qubit 1 out adds the two: the result is the Hermitian part of the sum
    m = np.diag([0.25] * 4).astype(complex)
    m[0, 2] = m[1, 3] = 0.9e-12
    got = partial_trace(wrap(m), keep=(0,), n_qubits=2).matrix
    assert np.array_equal(got, [[0.5, 0.9e-12], [0.9e-12, 0.5]])
    assert np.array_equal(got, got.conj().T)


def test_phase_invariant_distance_examples():
    eye = identity(2)
    assert phase_invariant_distance(eye, eye) == 0.0
    assert phase_invariant_distance(eye, Operator(np.exp(1j * math.pi / 7) * np.eye(2))) < 1e-15
    assert abs(phase_invariant_distance(eye, pauli("x")) - 1.0) < 1e-15


@given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi))
def test_phase_invariant_distance_phase_invariance(a, b):
    u = np.diag([1.0, np.exp(0.3j)])
    v = np.array([[0, 1j], [1j, 0]])
    d0 = phase_invariant_distance(u, v)
    d1 = phase_invariant_distance(np.exp(1j * a) * u, np.exp(1j * b) * v)
    assert abs(d0 - d1) < 1e-12
    assert abs(phase_invariant_distance(v, u) - d0) < 1e-12


def test_phase_invariant_distance_no_rounding_floor(rng):
    # A long product of rotations drifts from its closed form only by
    # accumulated rounding; the reported distance must stay at that scale
    # instead of bottoming out near sqrt(machine eps).
    u = np.eye(2, dtype=complex)
    factors = [random_unitary(2, rng) for _ in range(60)]
    for f in factors:
        u = f @ u
    v = np.linalg.multi_dot(factors[::-1])
    assert phase_invariant_distance(u, v) < 1e-12


def test_phase_invariant_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        phase_invariant_distance(np.eye(2), np.eye(4))


def test_embed_operator_against_kron():
    g = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.allclose(embed_operator(g, (0,), 2), np.kron(g, np.eye(2)))
    assert np.allclose(embed_operator(g, (1,), 2), np.kron(np.eye(2), g))
    cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    # control on qubit 1, target on qubit 0 == swapped-wire CNOT
    got = embed_operator(cnot, (1, 0), 2)
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert np.allclose(got, swap @ cnot @ swap)
    with pytest.raises(ValueError):
        embed_operator(g, (0, 1), 2)
    with pytest.raises(ValueError):
        embed_operator(g, (2,), 2)


def test_wrap_phase():
    assert wrap_phase(0.0) == 0.0
    assert wrap_phase(math.pi) == math.pi
    assert wrap_phase(-math.pi) == math.pi
    assert abs(wrap_phase(3 * math.pi) - math.pi) < 1e-15
    assert abs(wrap_phase(-0.1) + 0.1) < 1e-15


@given(angles)
def test_wrap_phase_range_and_congruence(x):
    y = wrap_phase(x)
    assert -math.pi < y <= math.pi
    assert abs(math.remainder(x - y, 2 * math.pi)) < 1e-9
