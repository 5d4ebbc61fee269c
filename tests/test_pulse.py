import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holostar.pulse import (
    CouplingSegment,
    Envelope,
    FieldSegment,
    PulseSchedule,
    coupling_hamiltonian,
    evolve,
    _unit_hamiltonian,
    expectation_trace,
    segment_unitary,
)
from holostar.qcore import (
    Operator,
    StateVector,
    ket,
)

from conftest import (
    SX,
    SY,
    dense_post_selected,
    embed_operator,
    envelope_amplitude,
    envelope_partial_area,
    haar_state,
    matrix_exponential_hermitian,
    su2,
)

areas = st.floats(0.0, 4 * math.pi)
betas = st.floats(-10.0, 10.0)


def bloch(theta, phi):
    return StateVector(np.array([math.cos(theta / 2),
                                 math.sin(theta / 2) * np.exp(1j * phi)]))


class TestEnvelope:
    def test_constant(self):
        e = Envelope(math.pi, "constant", duration=2.0)
        assert e.peak == math.pi / 2
        assert e.sampled(3) == [(0.0, math.pi / 2), (1.0, math.pi / 2), (2.0, math.pi / 2)]
        assert envelope_partial_area(e, 1.0) == math.pi / 2
        assert envelope_partial_area(e, 2.0) == math.pi

    def test_sin_squared(self):
        e = Envelope(3.0, "sin_squared", duration=1.0)
        (t0, a0), (t1, a1), _ = e.sampled(3)
        assert (t0, a0, t1) == (0.0, 0.0, 0.5)
        assert abs(a1 - 6.0) < 1e-14 and e.peak == 6.0  # peak = 2 * area / duration
        assert envelope_partial_area(e, 0.0) == 0.0
        assert abs(envelope_partial_area(e, 1.0) - 3.0) < 1e-14

    @given(areas, st.floats(0.01, 1.0))
    def test_partial_area_is_the_amplitude_integral(self, area, frac):
        # the two envelope oracles of conftest agree with each other
        e = Envelope(area, "sin_squared")
        ts = np.linspace(0.0, frac * e.duration, 4001)
        numeric = np.trapezoid([envelope_amplitude(e, t) for t in ts], ts)
        assert abs(numeric - envelope_partial_area(e, ts[-1])) < 1e-6 * max(1.0, area)

    def test_validation(self):
        with pytest.raises(ValueError):
            Envelope(1.0, "square")
        with pytest.raises(ValueError):
            Envelope(-0.5)
        with pytest.raises(ValueError):
            Envelope(1.0, duration=0.0)

    @pytest.mark.parametrize("area, duration, field", [
        (math.nan, 1.0, "area"), (math.inf, 1.0, "area"),
        (1.0, math.nan, "duration"), (1.0, math.inf, "duration"),
        (2 * math.pi, 1e-310, "duration"),  # the peak 2 * area / duration overflows
        (1.5e308, 1.0, "duration"),
        # an int beyond float range is refused like any other non-finite value
        pytest.param(10**400, 1.0, "area", id="int-overflow-area"),
        pytest.param(1.0, 10**400, "duration", id="int-overflow-duration"),
    ])
    def test_rejects_non_finite_values(self, area, duration, field):
        with pytest.raises(ValueError, match=field):
            Envelope(area, "sin_squared", duration)


def test_segment_validation():
    env = Envelope(1.0)
    assert FieldSegment(0, -math.pi / 2, env).beta == 3 * math.pi / 2
    with pytest.raises(ValueError):
        FieldSegment(-1, 0.0, env)
    with pytest.raises(ValueError):
        CouplingSegment((1, 1), 0.5, env)
    with pytest.raises(ValueError):
        CouplingSegment((0, 1), -0.1, env)
    with pytest.raises(ValueError):
        PulseSchedule((FieldSegment(3, 0.0, env),), 2)
    with pytest.raises(ValueError):
        PulseSchedule((CouplingSegment((0, 5), 0.5, env),), 3)


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf,
                                  pytest.param(10**400, id="int-overflow")])
def test_field_segment_rejects_non_finite_beta(beta):
    with pytest.raises(ValueError, match="beta"):
        FieldSegment(0, beta, Envelope(1.0))


def test_segment_hamiltonian_field():
    # the direction at unit amplitude, which every propagator and transport norm uses
    seg = FieldSegment(0, 0.0, Envelope(1.0))
    assert np.allclose(_unit_hamiltonian(seg), SX / 2)
    seg = FieldSegment(0, math.pi / 2, Envelope(1.0))
    assert np.allclose(_unit_hamiltonian(seg), SY / 2)


def test_segment_hamiltonian_coupling():
    seg = CouplingSegment((0, 1), 0.0, Envelope(1.0))
    h = _unit_hamiltonian(seg)  # J_k = 1, J_l = 0
    assert abs(h[2, 4] - 0.5) < 1e-15  # <010|H|100> = J_k / 2
    assert h[2, 1] == 0.0  # <010|H|001> = J_l / 2 = 0


def test_coupling_hamiltonian_spin_operator_form():
    sx, sy = SX / 2, SY / 2
    eye = np.eye(2)
    j_k, j_l = 1.3, 0.4
    want = j_k * (np.kron(np.kron(sx, sx), eye) + np.kron(np.kron(sy, sy), eye)) \
        + j_l * (np.kron(eye, np.kron(sx, sx)) + np.kron(eye, np.kron(sy, sy)))
    assert np.array_equal(coupling_hamiltonian(j_k, j_l), want)


@given(areas, betas)
def test_segment_unitary_closed_form(area, beta):
    seg = FieldSegment(0, beta, Envelope(area))
    assert np.max(np.abs(segment_unitary(seg).matrix - su2(area, beta))) < 1e-12


@given(st.floats(0.0, math.pi), areas)
def test_coupling_propagator_matches_eigh_exponential(mix, area):
    # the closed form I + (cos(A/2) - 1)(2H)^2 - i sin(A/2)(2H) against the
    # spectral exponential of the same exchange Hamiltonian
    seg = CouplingSegment((0, 1), mix, Envelope(area))
    h = Operator(coupling_hamiltonian(math.cos(mix / 2), math.sin(mix / 2)), hermitian=True)
    want = matrix_exponential_hermitian(h, area).matrix
    assert np.max(np.abs(segment_unitary(seg).matrix - want)) <= 1e-12


def test_segment_unitary_examples():
    assert np.allclose(segment_unitary(FieldSegment(0, 0.0, Envelope(math.pi))).matrix,
                       -1j * SX, atol=1e-15)
    assert np.allclose(segment_unitary(FieldSegment(0, 1.234, Envelope(0.0))).matrix,
                       np.eye(2))


@given(st.floats(-math.pi, math.pi))
def test_pi_pulse_swings_pole_with_drive_phase(phi_t):
    # area pi at drive phase phi_t + pi/2 sends |0> to e^{i phi_t}|1>
    seg = FieldSegment(0, phi_t + math.pi / 2, Envelope(math.pi))
    out = segment_unitary(seg).matrix @ np.array([1.0, 0.0])
    want = np.array([0.0, np.exp(1j * phi_t)])
    assert np.max(np.abs(out - want)) < 1e-12


@given(st.floats(0, 2 * math.pi), st.floats(0, 2 * math.pi), betas)
def test_segment_additivity(a, b, beta):
    one = segment_unitary(FieldSegment(0, beta, Envelope(a + b))).matrix
    two = segment_unitary(FieldSegment(0, beta, Envelope(b))).matrix \
        @ segment_unitary(FieldSegment(0, beta, Envelope(a))).matrix
    assert np.max(np.abs(one - two)) < 1e-12


@given(areas, betas, st.sampled_from(["field", "coupling"]))
def test_envelope_shape_invariance(area, beta, kind):
    if kind == "field":
        mk = lambda shape: FieldSegment(0, beta, Envelope(area, shape))
    else:
        mk = lambda shape: CouplingSegment((0, 1), 1.0, Envelope(area, shape))
    u_const = segment_unitary(mk("constant")).matrix
    u_sin2 = segment_unitary(mk("sin_squared")).matrix
    assert np.max(np.abs(u_const - u_sin2)) < 1e-10


def test_sliced_sin_squared_profile_reproduces_the_segment_unitary():
    # Drive the envelope through 256 piecewise-constant slices; the product
    # must land on the single-exponential answer, showing the propagator
    # really only sees the area.
    area, beta = 2.2, 0.9
    env = Envelope(area, "sin_squared")
    u = np.eye(2, dtype=complex)
    ts = np.linspace(0, env.duration, 257)
    for t0, t1 in zip(ts[:-1], ts[1:]):
        u = su2(envelope_partial_area(env, t1) - envelope_partial_area(env, t0), beta) @ u
    assert np.max(np.abs(u - su2(area, beta))) < 1e-12


def test_evolve_empty_schedule():
    psi = ket("01")
    assert evolve(PulseSchedule((), 2), psi) is psi


def test_evolve_step1_rotates_state_to_pole():
    theta, phi = 1.1, 2.3
    seg = FieldSegment(0, phi - math.pi / 2, Envelope(theta))
    out = evolve(PulseSchedule((seg,), 1), bloch(theta, phi))
    assert abs(abs(out.amplitudes[0]) - 1.0) < 1e-12


def test_evolve_full_register_embeds_field_segment(rng):
    # field on qubit 1 of a 2-qubit register: the auxiliary is untouched
    seg = FieldSegment(1, 0.7, Envelope(1.9))
    sched = PulseSchedule((seg,), 2)
    psi = StateVector(haar_state(4, rng))
    want = embed_operator(segment_unitary(seg).matrix, (1,), 2) @ psi.amplitudes
    for aux in (0, 1):
        out = evolve(sched, psi, aux)
        assert np.max(np.abs(out - dense_post_selected(sched, psi.amplitudes, aux))) <= 1e-15
        assert np.allclose(out, want, atol=1e-15)


def test_evolve_full_register_embeds_coupling_segment(rng):
    # coupling on pair (0, 2) of a 3-qubit register: the register and the
    # (k, aux, l) local state both hold 8 amplitudes, so the argument picks the route
    seg = CouplingSegment((0, 2), 0.8, Envelope(math.tau))
    sched = PulseSchedule((seg,), 3)
    psi = StateVector(haar_state(8, rng))
    local = evolve(sched, psi).amplitudes
    assert np.allclose(local, segment_unitary(seg).matrix @ psi.amplitudes, atol=1e-15)
    for aux in (0, 1):
        out = evolve(sched, psi, aux)
        assert np.max(np.abs(out - dense_post_selected(sched, psi.amplitudes, aux))) <= 1e-15
        assert np.max(np.abs(local - out)) > 0.1


def test_evolve_dimension_mismatch():
    seg = FieldSegment(0, 0.0, Envelope(1.0))
    with pytest.raises(ValueError, match="matches neither"):
        evolve(PulseSchedule((seg,), 2), ket("00"))
    with pytest.raises(ValueError, match="register of 2 qubits"):
        evolve(PulseSchedule((seg,), 2), ket("000"), 0)
    with pytest.raises(ValueError, match="auxiliary state 0 or 1"):
        evolve(PulseSchedule((seg,), 2), ket("00"), 2)


def test_evolve_preserves_norm(rng):
    # area-2pi couplings return the auxiliary, so the register keeps its norm;
    # a local state keeps it at any area
    segs = (
        FieldSegment(0, 1.0, Envelope(2.0, "sin_squared")),
        CouplingSegment((0, 1), 0.5, Envelope(math.tau)),
        FieldSegment(1, 4.0, Envelope(1.0)),
    )
    psi = StateVector(haar_state(4, rng))
    for aux in (0, 1):
        out = evolve(PulseSchedule(segs, 2), psi, aux)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
    local = (CouplingSegment((0, 1), 0.5, Envelope(3.0)),)
    out = evolve(PulseSchedule(local, 2), StateVector(haar_state(8, rng)))
    assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12


@given(st.floats(1e-6, 1e-3), st.sampled_from([0, 1]), st.integers(2, 5),
       st.integers(0, 2**32 - 1))
def test_register_route_loses_the_leaked_probability(delta, aux, n, seed):
    # an area 2pi + delta pulse leaks out of the auxiliary's block; for one
    # segment D^dag D = I - B^dag B, so the register's lost norm is exactly
    # the dense route's post-selection deficit
    rng = np.random.default_rng(seed)
    k, l = (int(q) for q in rng.choice(n, size=2, replace=False))
    seg = CouplingSegment((k, l), float(rng.uniform(0.0, math.pi)), Envelope(math.tau + delta))
    sched = PulseSchedule((seg,), n)
    psi = StateVector(haar_state(2**n, rng))

    def deficit(v):
        return 1.0 - float(np.vdot(v, v).real)

    got = deficit(evolve(sched, psi, aux))
    assert abs(got - deficit(dense_post_selected(sched, psi.amplitudes, aux))) <= 1e-14
    assert got > 1e-3 * delta**2


def _inverted(schedule):
    """The schedule of the inverse evolution: the segments in reverse order,
    each field segment with its drive phase advanced by pi at the same area,
    each coupling segment with the complementary area (4 pi - a) mod 4 pi
    (its eigenphases are multiples of half the area, so that closes the period)."""
    inv = []
    for seg in reversed(schedule.segments):
        env = seg.envelope
        if isinstance(seg, FieldSegment):
            inv.append(FieldSegment(seg.qubit, seg.beta + math.pi, env))
        else:
            area = (4 * math.pi - env.area) % (4 * math.pi)
            inv.append(CouplingSegment(seg.pair, seg.mix_theta,
                                       Envelope(area, env.shape, env.duration)))
    return PulseSchedule(tuple(inv), schedule.n_register)


def test_inverted_schedule_round_trip(rng):
    # on the register with area-2pi couplings, and on a local (k, aux, l)
    # state at any coupling area
    segs = (
        FieldSegment(0, 0.3, Envelope(1.7)),
        CouplingSegment((0, 1), 1.1, Envelope(math.tau, "sin_squared")),
        FieldSegment(1, 5.1, Envelope(0.4)),
    )
    sched = PulseSchedule(segs, 2)
    psi = StateVector(haar_state(4, rng))
    for aux in (0, 1):
        there = StateVector(evolve(sched, psi, aux))
        back = evolve(_inverted(sched), there, aux)
        assert np.max(np.abs(back - psi.amplitudes)) < 1e-9
    local = PulseSchedule((CouplingSegment((0, 1), 1.1, Envelope(2.9, "sin_squared")),
                           CouplingSegment((1, 0), 0.4, Envelope(5.3))), 2)
    psi = StateVector(haar_state(8, rng))
    back = evolve(_inverted(local), evolve(local, psi))
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-9


def test_expectation_trace_zero_amplitude():
    seg = FieldSegment(0, 0.0, Envelope(0.0))
    trace = expectation_trace(PulseSchedule((seg,), 1), ket("0"), samples=8)
    assert all(v == 0.0 for _, v in trace)


def test_expectation_trace_meridian_condition():
    theta, phi = math.pi / 2, 0.0
    good = FieldSegment(0, phi - math.pi / 2, Envelope(theta))
    trace = expectation_trace(PulseSchedule((good,), 1), bloch(theta, phi), samples=32)
    assert max(abs(v) for _, v in trace) < 1e-10

    bad = FieldSegment(0, phi, Envelope(theta))  # drive aligned with the azimuth
    trace = expectation_trace(PulseSchedule((bad,), 1), bloch(theta, phi), samples=32)
    assert max(abs(v) for _, v in trace) > 0.1


def test_expectation_trace_times_accumulate():
    segs = (FieldSegment(0, 0.0, Envelope(1.0, duration=0.5)),
            FieldSegment(0, 1.0, Envelope(1.0, duration=2.0)))
    trace = expectation_trace(PulseSchedule(segs, 1), ket("0"), samples=4)
    times = [t for t, _ in trace]
    assert times[0] == 0.0 and abs(times[3] - 0.5) < 1e-15
    assert abs(times[-1] - 2.5) < 1e-15
    assert all(t1 >= t0 for t0, t1 in zip(times, times[1:]))


def test_expectation_trace_last_sample_is_the_segment_end():
    # duration * j / (samples - 1) lands one ulp past this duration at j = 63
    duration = 0.8667828438243994
    segs = (FieldSegment(0, 0.3, Envelope(1.2, "sin_squared", duration)),
            FieldSegment(0, 1.1, Envelope(0.7, "constant", duration)))
    trace = expectation_trace(PulseSchedule(segs, 1), ket("0"), samples=64)
    assert trace[63][0] == duration
    assert trace[-1][0] == duration + duration


@given(st.sampled_from(["constant", "sin_squared"]), areas,
       st.one_of(st.floats(1e-3, 10.0), st.just(0.8667828438243994)),
       st.integers(2, 200))
def test_envelope_sampled_is_amplitude_on_its_grid(shape, area, duration, samples):
    env = Envelope(area, shape, duration)
    times = [duration * (j / (samples - 1)) for j in range(samples)]
    got = env.sampled(samples)
    assert got == [(t, envelope_amplitude(env, t)) for t in times]
    assert got[-1][0] == duration


def test_envelope_sampled_needs_two_samples():
    for samples in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2 samples"):
            Envelope(1.0).sampled(samples)


def _sampled_trace_oracle(schedule, psi, samples):
    """Per-sample partial-area propagation with full matrices.

    Each sample propagates the segment's start state through the partial
    area and evaluates the instantaneous energy; nothing relies on the
    commuting-propagator shortcut or on the state-vector kernels.
    """
    n_qubits = int(np.log2(psi.amplitudes.size))
    amps = np.array(psi.amplitudes, dtype=complex)
    out = []
    t0 = 0.0
    for seg in schedule.segments:
        if isinstance(seg, FieldSegment):
            h_unit = 0.5 * (math.cos(seg.beta) * SX + math.sin(seg.beta) * SY)
            targets = (0,)
        else:
            h_unit = coupling_hamiltonian(math.cos(seg.mix_theta / 2),
                                          math.sin(seg.mix_theta / 2))
            targets = (0, 1, 2)
        evals, evecs = np.linalg.eigh(h_unit)

        def propagator(area):
            local = (evecs * np.exp(-1j * area * evals)) @ evecs.conj().T
            return embed_operator(local, targets, n_qubits)

        h_full = embed_operator(h_unit, targets, n_qubits)
        env = seg.envelope
        for t in np.linspace(0.0, env.duration, samples):
            phi = propagator(envelope_partial_area(env, t)) @ amps
            a = envelope_amplitude(env, t)
            out.append((t0 + t, float(np.vdot(phi, a * h_full @ phi).real)))
        amps = propagator(env.area) @ amps
        t0 += env.duration
    return out


def _random_envelope(rng):
    return Envelope(float(rng.uniform(0.0, 4 * math.pi)),
                    str(rng.choice(["constant", "sin_squared"])),
                    float(rng.uniform(0.1, 3.0)))


def _random_field(rng, n):
    return FieldSegment(int(rng.integers(n)), float(rng.uniform(0.0, math.tau)),
                        _random_envelope(rng))


def _random_coupling(rng, n):
    k, l = (int(q) for q in rng.choice(n, size=2, replace=False))
    return CouplingSegment((k, l), float(rng.uniform(0.0, math.pi)), _random_envelope(rng))


def _assert_trace_matches_oracle(sched, psi, samples):
    got = expectation_trace(sched, psi, samples=samples)
    want = _sampled_trace_oracle(sched, psi, samples)
    assert len(got) == len(want) == samples * len(sched.segments)
    for (t, v), (t_ref, v_ref) in zip(got, want):
        assert abs(t - t_ref) <= 1e-12
        assert abs(v - v_ref) <= 1e-12


def test_expectation_trace_refuses_the_register_plus_auxiliary_state():
    # energies are traced on a segment's own local state only (n = 2 is left
    # out: a 2-qubit register plus auxiliary has the local coupling size)
    rng = np.random.default_rng(7103)
    for n in (1, 3):
        for _ in range(5):
            segs = tuple(_random_field(rng, n) if n == 1 or rng.random() < 0.5
                         else _random_coupling(rng, n)
                         for _ in range(int(rng.integers(1, 6))))
            psi = StateVector(haar_state(2 ** (n + 1), rng))
            with pytest.raises(ValueError, match="matches neither"):
                expectation_trace(PulseSchedule(segs, n), psi)


def test_expectation_trace_matches_sampled_propagation_local_states():
    rng = np.random.default_rng(7104)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        count = int(rng.integers(1, 5))
        fields = tuple(_random_field(rng, n) for _ in range(count))
        _assert_trace_matches_oracle(PulseSchedule(fields, n), StateVector(haar_state(2, rng)),
                                     int(rng.integers(2, 17)))
        couplings = tuple(_random_coupling(rng, n) for _ in range(count))
        _assert_trace_matches_oracle(PulseSchedule(couplings, n), StateVector(haar_state(8, rng)),
                                     int(rng.integers(2, 17)))


def test_expectation_trace_needs_two_samples():
    seg = FieldSegment(0, 0.0, Envelope(1.0))
    with pytest.raises(ValueError):
        expectation_trace(PulseSchedule((seg,), 1), ket("0"), samples=1)

