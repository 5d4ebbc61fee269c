import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from holostar.pulse import FieldSegment, PulseSchedule, evolve
from holostar.qcore import phase_invariant_distance, wrap_phase
from holostar.single_qubit_holonomy import (
    GeometricPhaseReport,
    RotationTarget,
    geometric_phase,
    synthesize,
    target_unitary,
    verify_synthesis,
)

from conftest import SX, SZ, protocol_product

thetas = st.floats(0.0, math.pi)
phis = st.floats(0.0, 2 * math.pi, exclude_max=True)
dphis = st.floats(-math.pi, math.pi, exclude_min=True)


def targets_strategy():
    return st.builds(RotationTarget, thetas, phis, dphis)


class TestRotationTarget:
    def test_field_normalization(self):
        t = RotationTarget(1.0, -math.pi / 2, 3 * math.pi)
        assert abs(t.phi - 3 * math.pi / 2) < 1e-15
        assert abs(t.dphi - math.pi) < 1e-12

    def test_pole_clamp(self):
        assert RotationTarget(-1e-13, 0, 0).theta == 0.0
        assert RotationTarget(math.pi + 1e-13, 0, 0).theta == math.pi
        with pytest.raises(ValueError):
            RotationTarget(3.5, 0, 0)
        with pytest.raises(ValueError):
            RotationTarget(-0.1, 0, 0)
        with pytest.raises(ValueError):
            RotationTarget(10**400, 0, 0)

    @pytest.mark.parametrize("phi, dphi, name", [
        (math.nan, 0.5, "phi"), (math.inf, 0.5, "phi"),
        (0.5, math.nan, "dphi"), (0.5, math.inf, "dphi"), (0.5, -math.inf, "dphi"),
        # an int beyond float range is refused like any other non-finite value
        pytest.param(10**400, 0.5, "phi", id="int-overflow-phi"),
        pytest.param(0.5, -10**400, "dphi", id="int-overflow-dphi"),
    ])
    def test_rejects_non_finite_angles(self, phi, dphi, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            RotationTarget(1.0, phi, dphi)

    @given(targets_strategy())
    def test_axis_is_unit(self, t):
        assert abs(np.linalg.norm(t.axis) - 1.0) < 1e-12

    @given(targets_strategy())
    def test_states_are_orthonormal(self, t):
        psi, perp = t.bloch_state(), t.orthogonal_state()
        assert abs(np.vdot(psi.amplitudes, perp.amplitudes)) < 1e-12


class TestSynthesize:
    def test_equator_example(self):
        sched = synthesize(RotationTarget(math.pi / 2, 0.0, math.pi / 2))
        areas = [s.envelope.area for s in sched.segments]
        betas = [s.beta for s in sched.segments]
        assert np.allclose(areas, [math.pi / 2, math.pi, math.pi / 2])
        assert abs(betas[0] - 3 * math.pi / 2) < 1e-15  # phi - pi/2, wrapped
        assert abs(betas[1] - math.pi) < 1e-15  # phi + dphi + pi/2
        assert betas[2] == betas[0]

    def test_pole_keeps_zero_area_segment(self):
        sched = synthesize(RotationTarget(0.0, 0.0, 0.0))
        assert [s.envelope.area for s in sched.segments] == [0.0, math.pi, math.pi]
        assert len(sched.segments) == 3

    def test_south_pole_example(self):
        sched = synthesize(RotationTarget(math.pi, math.pi / 2, math.pi / 4))
        areas = [s.envelope.area for s in sched.segments]
        assert np.allclose(areas, [math.pi, math.pi, 0.0])
        assert abs(sched.segments[0].beta - 0.0) < 1e-15
        assert abs(sched.segments[2].beta - 0.0) < 1e-15
        assert abs(sched.segments[1].beta
                   - (math.pi / 2 + math.pi / 4 + math.pi / 2)) < 1e-15

    def test_register_placement(self):
        sched = synthesize(RotationTarget(1.0, 2.0, 0.5), qubit=2, n_register=4)
        assert sched.n_register == 4
        assert all(s.qubit == 2 for s in sched.segments)


class TestTargetUnitary:
    def test_identity_at_zero(self):
        assert np.allclose(target_unitary(RotationTarget(1.0, 2.0, 0.0)).matrix, np.eye(2))

    def test_z_axis(self):
        got = target_unitary(RotationTarget(0.0, 0.0, math.pi / 2)).matrix
        assert np.allclose(got, 1j * SZ, atol=1e-15)

    def test_x_axis(self):
        got = target_unitary(RotationTarget(math.pi / 2, 0.0, math.pi / 2)).matrix
        assert np.allclose(got, 1j * SX, atol=1e-15)

    @given(targets_strategy())
    def test_spectral_decomposition(self, t):
        # e^{+i dphi} on the axis state, e^{-i dphi} on its partner
        psi = t.bloch_state().amplitudes
        perp = t.orthogonal_state().amplitudes
        want = (np.exp(1j * t.dphi) * np.outer(psi, psi.conj())
                + np.exp(-1j * t.dphi) * np.outer(perp, perp.conj()))
        assert np.max(np.abs(target_unitary(t).matrix - want)) < 1e-12


@given(targets_strategy())
def test_verify_synthesis_everywhere(t):
    assert verify_synthesis(t) <= 1e-9


def test_verify_synthesis_examples():
    assert verify_synthesis(RotationTarget(math.pi / 3, math.pi / 5, 0.7)) <= 1e-9
    assert verify_synthesis(RotationTarget(0.0, 0.0, 0.0)) <= 1e-12
    # composed product is i*sx up to global phase
    u = protocol_product(math.pi / 2, 0.0, math.pi / 2)
    assert phase_invariant_distance(u, 1j * SX) < 1e-12


@given(targets_strategy())
def test_composition_matches_closed_form_product(t):
    sched = synthesize(t)
    u = np.eye(2, dtype=complex)
    from holostar.pulse import segment_unitary

    for seg in sched.segments:
        u = segment_unitary(seg).matrix @ u
    assert np.max(np.abs(u - protocol_product(t.theta, t.phi, t.dphi))) < 1e-12


class TestGeometricPhase:
    def test_zero_rotation(self):
        r = geometric_phase(RotationTarget(1.0, 0.5, 0.0))
        assert abs(r.total_phase) < 1e-9
        assert abs(r.dynamical_phase) < 1e-9
        assert abs(r.geometric_phase) < 1e-9

    def test_all_geometric(self):
        r = geometric_phase(RotationTarget(math.pi / 2, 0.0, math.pi / 3))
        assert abs(r.geometric_phase - math.pi / 3) < 1e-6
        assert abs(r.dynamical_phase) < 1e-6
        assert r.max_integrand < 1e-9

    def test_orthogonal_state_gets_opposite_phase(self):
        t = RotationTarget(math.pi / 2, 0.0, math.pi / 3)
        r = geometric_phase(t, state=t.orthogonal_state())
        assert abs(r.geometric_phase + math.pi / 3) < 1e-6

    @given(targets_strategy())
    def test_split_is_consistent(self, t):
        r = geometric_phase(t)
        assert isinstance(r, GeometricPhaseReport)
        assert abs(wrap_phase(r.total_phase - r.dynamical_phase - r.geometric_phase)) < 1e-9

    @given(targets_strategy())
    def test_cyclicity(self, t):
        psi = t.bloch_state()
        final = evolve(synthesize(t), psi)
        assert abs(abs(np.vdot(psi.amplitudes, final)) - 1.0) < 1e-10
        assert geometric_phase(t).cyclicity_deviation < 1e-10

    def test_sin_squared_shape(self):
        r = geometric_phase(RotationTarget(1.0, 0.3, -0.8), shape="sin_squared")
        assert abs(r.geometric_phase + 0.8) < 1e-6
        assert r.max_integrand < 1e-9


def test_euler_composition():
    # R_z(a) R_x(b) R_z(c) from three synthesized gates matches the plain
    # matrix product of the three target unitaries.
    a, b, c = 0.7, 1.1, -0.4
    rz_a = RotationTarget(0.0, 0.0, a)
    rx_b = RotationTarget(math.pi / 2, 0.0, b)
    rz_c = RotationTarget(0.0, 0.0, c)
    composed = np.eye(2, dtype=complex)
    from holostar.pulse import segment_unitary

    for t in (rz_c, rx_b, rz_a):  # applied right to left
        for seg in synthesize(t).segments:
            composed = segment_unitary(seg).matrix @ composed
    want = target_unitary(rz_a).matrix @ target_unitary(rx_b).matrix \
        @ target_unitary(rz_c).matrix
    assert phase_invariant_distance(composed, want) < 1e-9


def test_schedule_is_always_three_field_segments():
    sched = synthesize(RotationTarget(2.0, 1.0, -2.0))
    assert len(sched.segments) == 3
    assert all(isinstance(s, FieldSegment) for s in sched.segments)
    assert isinstance(sched, PulseSchedule)
