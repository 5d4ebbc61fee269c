import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holostar import architecture, kernels, pulse
from holostar.architecture import (
    MAX_REGISTER,
    Circuit,
    PostSelectionError,
    RotationGate,
    StarArchitecture,
    compile_circuit,
    random_circuit,
    sample_auxiliary,
    simulate,
)
from holostar.pulse import CouplingSegment, FieldSegment
from holostar.qcore import StateVector, basis_state, density, ket, partial_trace, purity
from holostar.single_qubit_holonomy import RotationTarget, target_unitary
from holostar.two_qubit_holonomy import EntanglingGate, ideal_block

from conftest import dense_post_selected, gate_product, haar_state, phase_aligned_deviation


def rot(q, theta, phi, dphi):
    return RotationGate(q, RotationTarget(theta, phi, dphi))


def bell_circuit():
    """Two superposition-creating rotations followed by the mixing-angle pi/2
    coupling gate; prepares a maximally entangled register state from |00>."""
    return Circuit((
        rot(0, math.pi / 2, 0.0, math.pi / 4),
        rot(1, math.pi / 2, 0.0, math.pi / 4),
        EntanglingGate((0, 1), math.pi / 2),
    ))


def test_architecture_validation():
    assert StarArchitecture(3).n_register == 3
    with pytest.raises(ValueError):
        StarArchitecture(0)
    with pytest.raises(ValueError):
        StarArchitecture(2, auxiliary_state=2)
    assert StarArchitecture(MAX_REGISTER).n_register == MAX_REGISTER
    with pytest.raises(ValueError, match="1 to 20 qubits"):
        StarArchitecture(MAX_REGISTER + 1)


def test_gate_validation():
    with pytest.raises(ValueError):
        RotationGate(-1, RotationTarget(1.0))
    with pytest.raises(ValueError):
        EntanglingGate((0, 0), 1.0)
    with pytest.raises(TypeError):
        Circuit(("not a gate",))


def test_compile_structure():
    arch = StarArchitecture(2)
    assert compile_circuit(Circuit(()), arch).segments == ()
    one = compile_circuit(Circuit((rot(0, 1.0, 0.0, 0.5),)), arch)
    assert len(one.segments) == 3
    assert all(isinstance(s, FieldSegment) for s in one.segments)
    mixed = compile_circuit(Circuit((
        rot(0, 1.0, 0.0, 0.5),
        EntanglingGate((0, 1), 1.0),
        rot(1, 2.0, 1.0, -0.5),
    )), arch)
    assert len(mixed.segments) == 7
    assert isinstance(mixed.segments[3], CouplingSegment)


def test_compile_rejects_out_of_range_gates():
    arch = StarArchitecture(2)
    with pytest.raises(ValueError):
        compile_circuit(Circuit((rot(2, 1.0, 0.0, 0.0),)), arch)
    with pytest.raises(ValueError):
        compile_circuit(Circuit((EntanglingGate((0, 3), 1.0),)), arch)


def test_simulate_empty_circuit(rng):
    arch = StarArchitecture(2)
    psi = StateVector(haar_state(4, rng))
    res = simulate(Circuit(()), arch, psi)
    assert abs(res.aux_match_probability - 1.0) < 1e-12
    assert np.allclose(res.register_state.amplitudes, psi.amplitudes)
    assert abs(res.ideal_fidelity - 1.0) < 1e-12


def test_simulate_coupling_swaps_pair_states():
    # the mixing-angle pi/2 gate sends |10> to -|01> with the auxiliary restored
    res = simulate(Circuit((EntanglingGate((0, 1), math.pi / 2),)),
                   StarArchitecture(2), ket("10"))
    assert abs(res.aux_match_probability - 1.0) < 1e-10
    assert np.allclose(res.register_state.amplitudes, [0, -1, 0, 0], atol=1e-10)


def test_simulate_bell_circuit():
    res = simulate(bell_circuit(), StarArchitecture(2), ket("00"))
    rho = density(res.register_state)
    assert abs(purity(partial_trace(rho, (0,), 2)) - 0.5) < 1e-9
    assert abs(purity(partial_trace(rho, (1,), 2)) - 0.5) < 1e-9
    assert res.ideal_fidelity > 1 - 1e-9


def test_simulate_validates_input_size():
    with pytest.raises(ValueError):
        simulate(Circuit(()), StarArchitecture(2), ket("0"))


def test_simulate_default_input_is_all_zeros():
    res = simulate(Circuit(()), StarArchitecture(3))
    assert np.allclose(res.register_state.amplitudes, basis_state(3, 0).amplitudes)


def test_auxiliary_state_one_realizes_the_other_block():
    theta = 1.1
    arch = StarArchitecture(2, auxiliary_state=1)
    u1 = ideal_block(theta, 1)
    for idx in range(4):
        res = simulate(Circuit((EntanglingGate((0, 1), theta),)), arch,
                       basis_state(2, idx))
        assert abs(res.aux_match_probability - 1.0) < 1e-10
        overlap = np.vdot(u1[:, idx], res.register_state.amplitudes)
        assert abs(abs(overlap) - 1.0) < 1e-9


def oracle_unitary(circuit, arch):
    """The circuit's ideal unitary, column by column from the benchmark's
    gate-matrix oracle."""
    dim = 1 << arch.n_register
    return np.column_stack([gate_product(circuit, arch.auxiliary_state, col)
                            for col in np.eye(dim, dtype=np.complex128)])


def test_ideal_unitary_examples():
    # the oracle's gate product against the package's own gate matrices
    arch = StarArchitecture(2)
    assert np.allclose(oracle_unitary(Circuit(()), arch), np.eye(4))

    t = RotationTarget(1.0, 0.3, 0.8)
    got = oracle_unitary(Circuit((rot(1, 1.0, 0.3, 0.8),)), arch)
    assert np.allclose(got, np.kron(np.eye(2), target_unitary(t).matrix))

    got = oracle_unitary(Circuit((EntanglingGate((0, 1), 0.0),)), arch)
    assert np.allclose(got, np.diag([1, 1, -1, -1]))
    for aux in (0, 1):
        got = oracle_unitary(Circuit((EntanglingGate((0, 1), 1.1),)), StarArchitecture(2, aux))
        assert np.allclose(got, ideal_block(1.1, aux))


def test_ideal_unitary_matches_simulation(rng):
    arch = StarArchitecture(3)
    circuit = random_circuit(3, 8, rng)
    psi = StateVector(haar_state(8, rng))
    res = simulate(circuit, arch, psi)
    want = oracle_unitary(circuit, arch) @ psi.amplitudes
    overlap = abs(np.vdot(res.register_state.amplitudes, want))
    assert abs(overlap - 1.0) < 1e-9


@given(st.integers(1, 6), st.sampled_from([0, 1]), st.sampled_from(["constant", "sin_squared"]),
       st.integers(0, 30), st.integers(0, 2**32 - 1), st.data())
def test_simulate_matches_the_benchmark_gate_matrix_oracle(n, aux, shape, n_gates, seed, data):
    circuit = random_circuit(n, n_gates, np.random.default_rng(seed))
    psi = basis_state(n, data.draw(st.integers(0, 2**n - 1)))
    res = simulate(circuit, StarArchitecture(n, aux), psi, shape)
    want = gate_product(circuit, aux, psi.amplitudes)
    assert phase_aligned_deviation(res.register_state.amplitudes, want) <= 1e-12


def test_a_mutant_that_moves_both_routes_passes_simulate_but_not_the_oracle(monkeypatch):
    # flip the sign of the J_l exchange term in the pulse Hamiltonian, and
    # the matching closed-form block simulate's own reference reads (J_l ->
    # -J_l is mix_theta -> -mix_theta there): the self-check cannot see it
    hamiltonian, block = pulse.coupling_hamiltonian, architecture.ideal_block
    monkeypatch.setattr(pulse, "coupling_hamiltonian", lambda j_k, j_l: hamiltonian(j_k, -j_l))
    monkeypatch.setattr(architecture, "ideal_block", lambda mix, aux: block(-mix, aux))
    circuit = random_circuit(3, 20, np.random.default_rng(8))
    res = simulate(circuit, StarArchitecture(3))
    assert 1.0 - res.aux_match_probability <= 1e-10
    assert 1.0 - res.ideal_fidelity <= 1e-9
    want = gate_product(circuit, 0, basis_state(3, 0).amplitudes)
    assert 1.0 - abs(np.vdot(res.register_state.amplitudes, want)) ** 2 > 0.5


@given(st.integers(1, 6), st.sampled_from([0, 1]), st.sampled_from(["constant", "sin_squared"]),
       st.integers(0, 30), st.integers(0, 2**32 - 1), st.data())
def test_simulate_matches_the_dense_register_plus_auxiliary_route(n, aux, shape, n_gates,
                                                                  seed, data):
    arch = StarArchitecture(n, aux)
    circuit = random_circuit(n, n_gates, np.random.default_rng(seed))
    psi = basis_state(n, data.draw(st.integers(0, 2**n - 1)))
    res = simulate(circuit, arch, psi, shape)
    phi = dense_post_selected(compile_circuit(circuit, arch, shape), psi.amplitudes, aux)
    p = float(np.vdot(phi, phi).real)
    # each route's rounding moves the norm: two implementations of the dense
    # route alone differ by up to 1.8e-15 on p over seeded 30-gate circuits
    assert abs(res.aux_match_probability - p) <= 1e-14
    assert np.max(np.abs(res.register_state.amplitudes - phi / math.sqrt(p))) <= 1e-14


def _relabelled(circuit, perm):
    return Circuit(tuple(
        RotationGate(perm[g.qubit], g.target) if isinstance(g, RotationGate)
        else EntanglingGate((perm[g.pair[0]], perm[g.pair[1]]), g.mix_theta)
        for g in circuit.gates))


@given(st.integers(2, 8).flatmap(lambda n: st.permutations(range(n))),
       st.integers(0, 2**32 - 1))
def test_simulate_commutes_with_qubit_relabelling(perm, seed):
    # up to n = 8 every one-qubit kernel shape is reached at every position
    n = len(perm)
    rng = np.random.default_rng(seed)
    circuit = random_circuit(n, 12, rng)
    order = np.argsort(perm)  # new qubit perm[q] holds old qubit q

    def relabel(a):
        return a.reshape((2,) * n).transpose(order).reshape(-1)

    psi = haar_state(2**n, rng)
    res = simulate(circuit, StarArchitecture(n), StateVector(psi))
    moved = simulate(_relabelled(circuit, perm), StarArchitecture(n), StateVector(relabel(psi)))
    assert np.max(np.abs(moved.register_state.amplitudes
                         - relabel(res.register_state.amplitudes))) <= 1e-13
    assert abs(moved.aux_match_probability - res.aux_match_probability) <= 1e-14
    assert abs(moved.ideal_fidelity - res.ideal_fidelity) <= 1e-13


def test_simulate_applies_every_gate_to_the_register_alone(monkeypatch):
    sizes = []
    apply = kernels.apply_gate_inplace

    def recording(state, gate, targets):
        sizes.append(state.size)
        apply(state, gate, targets)

    monkeypatch.setattr(kernels, "apply_gate_inplace", recording)
    circuit = random_circuit(5, 20, np.random.default_rng(16))
    simulate(circuit, StarArchitecture(5))
    n_rot = sum(isinstance(g, RotationGate) for g in circuit.gates)
    # evolve: three field segments per rotation, one coupling per entangling
    # gate; the reference: one matrix per gate
    assert len(sizes) == 4 * n_rot + 2 * (len(circuit.gates) - n_rot) > 0
    assert set(sizes) == {2**5}


def test_post_selection_error_carries_probability():
    err = PostSelectionError(3e-15)
    assert err.probability == 3e-15
    assert "3.000e-15" in str(err)


def test_random_circuit_is_seeded():
    a = random_circuit(3, 12, np.random.default_rng(5))
    b = random_circuit(3, 12, np.random.default_rng(5))
    assert a == b
    assert len(a.gates) == 12


def test_random_circuit_single_qubit_register():
    c = random_circuit(1, 6, np.random.default_rng(0))
    assert all(isinstance(g, RotationGate) for g in c.gates)


def test_sample_auxiliary():
    res = simulate(Circuit(()), StarArchitecture(1), ket("0"))
    assert sample_auxiliary(res, 1000, seed=1) == 1000
    assert sample_auxiliary(res, 0, seed=1) == 0
    with pytest.raises(ValueError):
        sample_auxiliary(res, -1)


def test_moderate_register_runs_quickly(rng):
    arch = StarArchitecture(6)
    circuit = random_circuit(6, 10, rng)
    res = simulate(circuit, arch)
    assert res.aux_match_probability > 1 - 1e-10
    assert res.ideal_fidelity > 1 - 1e-9
