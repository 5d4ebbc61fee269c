import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holostar.certify import verify_schedule
from holostar.pulse import (CouplingSegment, Envelope, PulseSchedule, coupling_hamiltonian,
                            segment_unitary)
from holostar.qcore import StateVector, density, partial_trace, purity
from holostar.two_qubit_holonomy import (
    _PRODUCT_INPUTS,
    EntanglingGate,
    entangling_power,
    entangling_power_law,
    holonomy_decompose,
    ideal_block,
    split_blocks,
    transport_norm,
    two_qubit_gate,
)

from conftest import (ORACLE_PROJECTORS, double_lambda_matrix, einsum_partial_trace,
                      envelope_amplitude, envelope_partial_area, random_unitary,
                      static_transport_residual)

mix_angles = st.floats(0.0, math.pi)

_S = 1.0 / math.sqrt(2.0)
PAULI_EIGENSTATES = [np.array(v, dtype=complex) for v in
                     ([1, 0], [0, 1], [_S, _S], [_S, -_S], [_S, 1j * _S], [_S, -1j * _S])]


def kron_loop_entangling_power(u):
    """The per-input route: np.kron each Pauli-eigenstate product, map it
    through u and trace qubit 1 out by einsum.  Oracle for entangling_power."""
    total = 0.0
    for a, b in product(PAULI_EIGENSTATES, repeat=2):
        phi = u @ np.kron(a, b)
        rho_a = np.einsum("itjt->ij", np.outer(phi, phi.conj()).reshape(2, 2, 2, 2))
        total += 1.0 - float(np.trace(rho_a @ rho_a).real)
    return total / 36.0


def checked_route_entangling_power(u):
    """The per-input checked route: each output state through StateVector,
    density, partial_trace and purity.  Oracle for entangling_power, which
    must give the same float to the last bit."""
    total = 0.0
    for ab in _PRODUCT_INPUTS:
        rho_a = partial_trace(density(StateVector(u @ ab)), keep=(0,), n_qubits=2)
        total += 1.0 - purity(rho_a)
    return total / 36.0


def test_spec_validation():
    with pytest.raises(ValueError):
        EntanglingGate((0, 1), -0.1)
    with pytest.raises(ValueError):
        EntanglingGate((0, 1), math.pi + 0.1)
    with pytest.raises(ValueError):
        EntanglingGate((2, 2), 1.0)
    seg = EntanglingGate((0, 1), 1.0).segment()
    assert seg.envelope.area == math.tau  # half the coupling area equals pi


def test_coupling_hamiltonian_zero():
    assert np.max(np.abs(coupling_hamiltonian(0.0, 0.0))) == 0.0


def test_coupling_hamiltonian_ladder_entries():
    h = coupling_hamiltonian(2.0, 0.0)
    assert h[2, 4] == 1.0  # <010|H|100> = J_k/2
    assert h[5, 3] == 1.0  # <101|H|011> = J_k/2
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    # J_l entries absent
    assert h[2, 1] == 0.0 and h[5, 6] == 0.0


def test_corner_states_decouple():
    h = coupling_hamiltonian(1.7, 0.9)
    assert np.max(np.abs(h[0, :])) == 0.0 and np.max(np.abs(h[:, 0])) == 0.0
    assert np.max(np.abs(h[7, :])) == 0.0 and np.max(np.abs(h[:, 7])) == 0.0


def test_spin_form_equals_ladder_form(rng):
    for _ in range(10):
        j_k, j_l = rng.uniform(-3, 3, size=2)
        diff = coupling_hamiltonian(j_k, j_l) - double_lambda_matrix(j_k, j_l)
        assert np.max(np.abs(diff)) <= 1e-15


def test_block_structure_theta_zero():
    u0, u1, _ = two_qubit_gate(EntanglingGate((0, 1), 0.0))
    assert np.allclose(u0, np.diag([1, 1, -1, -1]), atol=1e-10)
    assert np.allclose(u1, np.diag([-1, -1, 1, 1]), atol=1e-10)


def test_block_structure_theta_half_pi():
    u0, u1, _ = two_qubit_gate(EntanglingGate((0, 1), math.pi / 2))
    mid = np.array([[0, -1], [-1, 0]])
    assert np.allclose(u0[1:3, 1:3], mid, atol=1e-10)
    assert abs(u0[0, 0] - 1) < 1e-10 and abs(u0[3, 3] + 1) < 1e-10
    assert np.allclose(u1[1:3, 1:3], mid, atol=1e-10)
    assert abs(u1[0, 0] + 1) < 1e-10 and abs(u1[3, 3] - 1) < 1e-10


@pytest.mark.parametrize("theta", np.linspace(0, math.pi, 32))
def test_blocks_match_closed_form_across_grid(theta):
    u0, u1, off = two_qubit_gate(EntanglingGate((0, 1), float(theta)))
    assert off <= 1e-10
    assert np.max(np.abs(u0 - ideal_block(theta, 0))) <= 1e-10
    assert np.max(np.abs(u1 - ideal_block(theta, 1))) <= 1e-10


def test_split_blocks_reports_leakage_without_raising():
    # half the gate area leaves the auxiliary half flipped: the propagator is
    # unitary but its blocks are not, and the leakage is sqrt(1/2)
    u = segment_unitary(CouplingSegment((0, 1), math.pi / 2, Envelope(math.pi))).matrix
    u0, u1, off = split_blocks(u)
    flips = [abs(u[i, j]) for i in range(8) for j in range(8) if (i ^ j) & 0b010]
    assert off == max(flips)
    assert off == pytest.approx(math.sqrt(0.5), abs=1e-12)
    aux0, aux1 = [0, 1, 4, 5], [2, 3, 6, 7]
    assert np.array_equal(u0, u[np.ix_(aux0, aux0)])
    assert np.array_equal(u1, u[np.ix_(aux1, aux1)])


# Lexicographic (k, a, l) indices reordered to the aux-blocked order
# {|000>,|001>,|100>,|101>, |010>,|011>,|110>,|111>}, in which the propagator
# is block diagonal (the auxiliary bit is the middle one).
AUX_BLOCK_ORDER = (0, 1, 4, 5, 2, 3, 6, 7)


def permuted_split_blocks(u):
    """The fancy-index route: permute the basis to the aux-blocked order and
    slice.  Oracle for split_blocks, which must give the same bits."""
    ordered = u[np.ix_(AUX_BLOCK_ORDER, AUX_BLOCK_ORDER)]
    off = float(np.maximum(np.abs(ordered[:4, 4:]).max(), np.abs(ordered[4:, :4]).max()))
    return ordered[:4, :4], ordered[4:, 4:], off


def test_split_blocks_matches_the_permuted_route(rng):
    leaky = [segment_unitary(CouplingSegment((0, 1), mix, Envelope(area))).matrix
             for mix, area in ((math.pi / 2, math.pi), (1.0, math.tau + 2e-8), (0.3, 2.0))]
    unitaries = [random_unitary(8, rng) for _ in range(10)]
    general = [rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(10)]
    for u in leaky + unitaries + general:
        u0, u1, off = split_blocks(u)
        w0, w1, woff = permuted_split_blocks(u)
        assert np.array_equal(u0, w0) and np.array_equal(u1, w1)
        assert off == woff


@given(mix_angles)
def test_involution(theta):
    u0, u1, _ = two_qubit_gate(EntanglingGate((0, 1), theta))
    assert np.max(np.abs(u0 @ u0 - np.eye(4))) < 1e-10
    assert np.max(np.abs(u1 @ u1 - np.eye(4))) < 1e-10


def test_envelope_profile_invariance():
    for theta in (0.4, math.pi / 2, 2.8):
        a = two_qubit_gate(EntanglingGate((0, 1), theta), shape="constant")
        b = two_qubit_gate(EntanglingGate((0, 1), theta), shape="sin_squared")
        assert np.max(np.abs(a[0] - b[0])) <= 1e-10
        assert np.max(np.abs(a[1] - b[1])) <= 1e-10


def test_ideal_block_rejects_bad_aux():
    with pytest.raises(ValueError):
        ideal_block(1.0, 2)


class TestEntanglingPower:
    def test_identity(self):
        assert entangling_power(np.eye(4)) < 1e-15

    def test_cnot(self):
        cnot = np.eye(4)[[0, 1, 3, 2]]
        ep = entangling_power(cnot)
        assert abs(ep - 2.0 / 9.0) < 1e-12

    def test_u0_values(self):
        u0, _, _ = two_qubit_gate(EntanglingGate((0, 1), math.pi / 2))
        assert abs(entangling_power(u0) - 2.0 / 9.0) < 1e-10
        u0, _, _ = two_qubit_gate(EntanglingGate((0, 1), math.pi / 3))
        assert abs(entangling_power(u0) - 5.0 / 24.0) < 1e-10

    @pytest.mark.parametrize("theta", np.linspace(0, math.pi, 16))
    def test_law_and_block_equality(self, theta):
        u0, u1, _ = two_qubit_gate(EntanglingGate((0, 1), float(theta)))
        e0, e1 = entangling_power(u0), entangling_power(u1)
        assert abs(e0 - entangling_power_law(theta)) <= 1e-10
        assert abs(e0 - e1) <= 1e-12

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError, match="unitary"):
            entangling_power(np.eye(4) * 2)
        with pytest.raises(ValueError, match="4x4"):
            entangling_power(np.eye(8))

    def test_product_table_is_the_kron_products(self):
        expected = [np.kron(a, b) for a, b in product(PAULI_EIGENSTATES, repeat=2)]
        assert len(_PRODUCT_INPUTS) == 36
        for got, want in zip(_PRODUCT_INPUTS, expected):
            assert np.array_equal(got, want)

    def test_kron_loop_oracle_on_random_unitaries(self, rng):
        for _ in range(20):
            u = random_unitary(4, rng)
            assert abs(entangling_power(u) - kron_loop_entangling_power(u)) <= 1e-15
            assert entangling_power(u) == checked_route_entangling_power(u)

    @pytest.mark.parametrize("block", [0, 1], ids=["u0", "u1"])
    def test_kron_loop_oracle_on_angle_grid(self, block):
        for theta in np.linspace(0, math.pi, 32):
            u = two_qubit_gate(EntanglingGate((0, 1), float(theta)))[block]
            assert abs(entangling_power(u) - kron_loop_entangling_power(u)) <= 1e-15
            assert entangling_power(u) == checked_route_entangling_power(u)

    @pytest.mark.parametrize("block", [0, 1], ids=["u0", "u1"])
    def test_partial_trace_of_each_product_density_is_the_einsum_route(self, block):
        # bit for bit on the 36 densities entangling_power hands partial_trace
        for theta in np.linspace(0, math.pi, 65):
            u = two_qubit_gate(EntanglingGate((0, 1), float(theta)))[block]
            phi = u @ _PRODUCT_INPUTS[:, :, None]
            for rho in phi * phi.conj().transpose(0, 2, 1):
                for keep in ((0,), (1,)):
                    got = partial_trace(rho, keep=keep, n_qubits=2).matrix
                    assert np.array_equal(got, einsum_partial_trace(rho, keep, 2))

    def test_monte_carlo_oracle_agrees(self, rng):
        # Haar product-state average via sampling; the 36-state average must
        # sit inside the Monte Carlo error bar.
        n = 100_000
        a = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        b = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        prod = np.einsum("ni,nj->nij", a, b).reshape(n, 4)
        cnot = np.eye(4)[[0, 1, 3, 2]]
        m = (prod @ cnot.T).reshape(n, 2, 2)
        rho = np.einsum("nij,nkj->nik", m, m.conj())
        pur = np.einsum("nik,nki->n", rho, rho).real
        mc = float(np.mean(1.0 - pur))
        assert abs(mc - 2.0 / 9.0) < 1e-3


class TestParallelTransport:
    def test_statics_are_exact(self):
        h = coupling_hamiltonian(math.cos(1.234 / 2), math.sin(1.234 / 2))
        assert static_transport_residual(h) == 0.0

    def test_transport_residuals(self):
        # the exact supremum over the pulse, as ``verify`` reports it
        for shape in ("constant", "sin_squared"):
            schedule = PulseSchedule((EntanglingGate((0, 1), math.pi / 4).segment(shape),), 2)
            [record] = [c for c in verify_schedule(schedule)
                        if c["name"] == "transport_residual"]
            assert record["pass"] and record["value"] <= 1e-9

    def test_sub_holonomy_values(self):
        u0, u1, _ = two_qubit_gate(EntanglingGate((0, 1), math.pi / 2))
        sub = holonomy_decompose(u0, u1)
        assert np.allclose(sub.blocks["C_0^1"], [[-1]], atol=1e-10)
        assert np.allclose(sub.blocks["C_1^1"], [[-1]], atol=1e-10)
        assert np.allclose(sub.blocks["C_0^2"], [[0, -1], [-1, 0]], atol=1e-10)
        assert abs(entangling_power(u0) - 2.0 / 9.0) < 1e-10


def _sampled_transport_oracle(h_unit, env, samples):
    """The brute-force certificate: at each sampled time build the partial-area
    propagator by eigendecomposition, evolve every projector, and take the
    spectral norm of U P U^dag H(t) U P U^dag.  Returns per-sample worst
    residuals and, per sample, the projector that attained it."""
    evals, evecs = np.linalg.eigh(h_unit)
    worst, argmax = [], []
    for t in np.linspace(0.0, env.duration, samples):
        u_t = (evecs * np.exp(-1j * envelope_partial_area(env, t) * evals)) @ evecs.conj().T
        h_t = envelope_amplitude(env, t) * h_unit
        norms = {}
        for name, p in ORACLE_PROJECTORS.items():
            p_t = u_t @ p @ u_t.conj().T
            norms[name] = float(np.linalg.norm(p_t @ h_t @ p_t, ord=2))
        argmax.append(max(norms, key=norms.get))
        worst.append(norms[argmax[-1]])
    return worst, argmax


def _seeded_directions():
    """Twelve seeded random Hermitian directions, each with an envelope area
    and duration."""
    rng = np.random.default_rng(4417)
    out = []
    for _ in range(12):
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        out.append(((z + z.conj().T) / 2, float(rng.uniform(0.1, 4 * math.pi)),
                    float(rng.uniform(0.1, 3.0))))
    return out


@pytest.mark.parametrize("shape", ["constant", "sin_squared"])
def test_transport_residuals_match_sampled_propagation(shape):
    # A random Hermitian direction has a nonzero residual, so a norm that
    # missed the dominant projector would disagree with the oracle; a(t) times
    # the norm is the residual at every sampled time.
    dominant = set()
    for h_unit, area, duration in _seeded_directions():
        env = Envelope(area, shape, duration)
        norm = transport_norm(h_unit)
        want, argmax = _sampled_transport_oracle(h_unit, env, 64)
        got = [envelope_amplitude(env, t) * norm for t in np.linspace(0.0, duration, 64)]
        assert np.max(np.abs(np.array(got) - want)) <= 1e-12 * max(want)
        assert max(want) <= env.peak * norm * (1 + 1e-12)
        dominant.update(argmax)
    # both block projectors dominate somewhere; the four refinements never can,
    # since P' <= P gives ||P' H P'|| <= ||P H P||
    assert dominant == {"P_0", "P_1"}


def test_batched_transport_norm_equals_per_projector_norms():
    directions = [h_unit for h_unit, _, _ in _seeded_directions()]
    directions += [coupling_hamiltonian(math.cos(mix / 2), math.sin(mix / 2))
                   for mix in np.linspace(0.0, math.pi, 33).tolist()]
    for h_unit in directions:
        want = max(np.linalg.norm(p @ h_unit @ p, ord=2) for p in ORACLE_PROJECTORS.values())
        assert transport_norm(h_unit) == want


@pytest.mark.parametrize("shape", ["constant", "sin_squared"])
def test_peak_times_transport_norm_is_the_supremum(shape):
    # peak * norm, what ``verify`` reports, bounds every sampled residual, and
    # equals the largest one whenever the grid holds the peak: at every time
    # for a constant envelope, and at t = duration/2 (the middle of 3 samples)
    # for sin^2
    for h_unit, area, duration in _seeded_directions():
        env = Envelope(area, shape, duration)
        sup = env.peak * transport_norm(h_unit)
        for samples in (2, 3, 64):
            worst = max(_sampled_transport_oracle(h_unit, env, samples)[0])
            assert worst <= sup * (1 + 1e-12)
            if shape == "constant" or samples == 3:
                assert abs(worst - sup) <= 1e-12 * sup


class TestHolonomyDecompose:
    def test_theta_zero(self):
        u0, u1, _ = two_qubit_gate(EntanglingGate((0, 1), 0.0))
        sub = holonomy_decompose(u0, u1)
        assert np.allclose(sub.blocks["C_0^2"], np.diag([1, -1]), atol=1e-12)
        assert sub.reconstruction_residual <= 1e-10

    @given(mix_angles)
    def test_reflection_blocks(self, theta):
        u0, u1, _ = two_qubit_gate(EntanglingGate((0, 1), theta))
        sub = holonomy_decompose(u0, u1)
        for key in ("C_0^2", "C_1^2"):
            det = np.linalg.det(sub.blocks[key])
            assert abs(det + 1.0) < 1e-10  # real reflection: determinant -1
        assert abs(sub.blocks["C_0^1"][0, 0] + 1.0) < 1e-10
        assert abs(sub.blocks["C_1^1"][0, 0] + 1.0) < 1e-10

    def test_decomposes_a_leaky_propagator(self):
        # 2e-8 past the full area: the blocks still decompose, and the
        # leakage between them stays on record for the caller to judge
        seg = CouplingSegment((0, 1), 1.0, Envelope(math.tau + 2e-8))
        u0, u1, off = split_blocks(segment_unitary(seg).matrix)
        assert holonomy_decompose(u0, u1).reconstruction_residual <= 1e-10
        assert off == pytest.approx(8.7758e-9, rel=1e-4)

    def test_reconstruction_residual_matches_rebuilt_blocks(self, rng):
        # oracle: build the direct sum of the pieces and the trivial corners
        # out by hand and compare it with the blocks entry by entry
        for _ in range(20):
            u0, u1 = random_unitary(4, rng), random_unitary(4, rng)
            rebuilt0 = np.zeros((4, 4), dtype=complex)
            rebuilt0[0, 0], rebuilt0[1:3, 1:3], rebuilt0[3, 3] = 1.0, u0[1:3, 1:3], u0[3, 3]
            rebuilt1 = np.zeros((4, 4), dtype=complex)
            rebuilt1[0, 0], rebuilt1[1:3, 1:3], rebuilt1[3, 3] = u1[0, 0], u1[1:3, 1:3], 1.0
            want = max(np.abs(rebuilt0 - u0).max(), np.abs(rebuilt1 - u1).max())
            assert holonomy_decompose(u0, u1).reconstruction_residual == want

