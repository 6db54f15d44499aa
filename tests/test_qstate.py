"""State construction, overlaps, and tensor products."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbrlab import (
    DomainError,
    JointState,
    OverlapParams,
    PureState,
    ValidationError,
    build_pair_soc,
    build_pair_xyz,
    overlap,
    tensor,
)
from pbrlab.qstate import joint_overlap

PLUS = PureState(1.0, 0.0)
MINUS = PureState(0.0, 1.0)

# Safely inside (0, pi/2), away from the endpoints.
thetas = st.floats(min_value=1e-4, max_value=math.pi / 2 - 1e-4)
phis = st.floats(min_value=0.0, max_value=2 * math.pi, exclude_max=True)


def unnormalized(amp_plus, amp_minus) -> PureState:
    state = object.__new__(PureState)
    object.__setattr__(state, "amp_plus", complex(amp_plus))
    object.__setattr__(state, "amp_minus", complex(amp_minus))
    return state


class TestStateTypes:
    def test_pure_state_rejects_unnormalized(self):
        with pytest.raises(ValidationError, match="not normalized"):
            PureState(1.0, 1.0)

    def test_joint_state_rejects_unnormalized(self):
        with pytest.raises(ValidationError, match="not normalized"):
            JointState((0.5, 0.5, 0.5, 0.0))

    def test_joint_state_needs_four_amplitudes(self):
        with pytest.raises(ValidationError, match="4 amplitudes"):
            JointState((1.0, 0.0))

    def test_joint_state_vector_is_read_only(self):
        state = JointState((0.6, 0.0, 0.0, 0.8j))
        with pytest.raises(ValueError, match="read-only"):
            state.vector[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            state.vector *= 2.0
        assert np.array_equal(state.vector, [0.6, 0.0, 0.0, 0.8j])

    def test_joint_state_vector_repeats_its_values(self):
        state = JointState((0.6, 0.0, 0.0, 0.8j))
        first = state.vector
        assert state.vector is first
        assert np.array_equal(first, [0.6, 0.0, 0.0, 0.8j])

    def test_joint_state_copies_its_input(self):
        source = np.array([0.6, 0.0, 0.0, 0.8j])
        state = JointState(source)
        source[0] = 1.0
        assert state.vector is not source
        assert state.vector.dtype == complex
        assert np.array_equal(state.vector, [0.6, 0.0, 0.0, 0.8j])

    @pytest.mark.parametrize("amps", [np.eye(2) / math.sqrt(2.0), (math.nan, 0.0, 0.0, 0.0)])
    def test_joint_state_rejects_a_bad_vector(self, amps):
        with pytest.raises(ValidationError, match="JointState"):
            JointState(amps)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2, -0.3, 2.0])
    def test_theta_domain_is_open(self, theta):
        with pytest.raises(DomainError, match="theta"):
            OverlapParams(theta)

    @pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
    def test_non_finite_phi_names_the_field(self, phi):
        with pytest.raises(DomainError, match="phi must be finite"):
            OverlapParams(0.5, phi)

    def test_phi_is_reduced_mod_two_pi(self):
        p = OverlapParams(0.5, 2 * math.pi + 0.25)
        assert p.phi == pytest.approx(0.25, abs=1e-12)


class TestOverlap:
    def test_identity_case(self):
        assert overlap(PLUS, PLUS) == 1.0

    def test_orthogonal_basis_states(self):
        assert overlap(PLUS, MINUS) == 0.0

    def test_pair_overlap_is_half_at_theta_pi_3(self):
        u, v, _ = build_pair_xyz(OverlapParams(math.pi / 3, 0.0))
        # Independent amplitude arithmetic: conj(u) . v
        direct = np.vdot(
            [math.cos(math.pi / 6), -math.sin(math.pi / 6)],
            [math.cos(math.pi / 6), math.sin(math.pi / 6)],
        )
        assert direct == pytest.approx(0.5, abs=1e-15)
        assert overlap(u, v) == pytest.approx(0.5, abs=1e-12)

    def test_pair_overlap_with_phase(self):
        u, v, _ = build_pair_xyz(OverlapParams(math.pi / 4, math.pi / 2))
        expected = (1 / math.sqrt(2)) * cmath.exp(1j * math.pi / 2)
        assert overlap(u, v) == pytest.approx(expected, abs=1e-12)
        assert overlap(u, v) == pytest.approx(0.7071067811865476j, abs=1e-12)


class TestBuildPairXyz:
    def test_example_amplitudes_at_theta_pi_3(self):
        u, v, vbar = build_pair_xyz(OverlapParams(math.pi / 3, 0.0))
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        assert u.amp_plus == pytest.approx(c, abs=1e-15)  # 0.8660254...
        assert u.amp_minus == pytest.approx(-s, abs=1e-15)  # -0.5
        assert v.amp_plus == pytest.approx(c, abs=1e-15)
        assert v.amp_minus == pytest.approx(s, abs=1e-15)
        assert vbar.amp_plus == pytest.approx(-s, abs=1e-15)
        assert vbar.amp_minus == pytest.approx(c, abs=1e-15)

    @given(thetas, phis)
    @settings(max_examples=100, deadline=None)
    def test_v_and_vbar_are_orthogonal(self, theta, phi):
        _, v, vbar = build_pair_xyz(OverlapParams(theta, phi))
        assert abs(overlap(v, vbar)) <= 1e-12

    @given(thetas, phis)
    @settings(max_examples=100, deadline=None)
    def test_overlap_matches_parameters(self, theta, phi):
        u, v, _ = build_pair_xyz(OverlapParams(theta, phi))
        expected = math.cos(theta) * cmath.exp(1j * phi)
        assert overlap(u, v) == pytest.approx(expected, abs=1e-12)

    @given(thetas, phis)
    @settings(max_examples=100, deadline=None)
    def test_span_completeness(self, theta, phi):
        u, v, vbar = build_pair_xyz(OverlapParams(theta, phi))
        total = abs(overlap(u, v)) ** 2 + abs(overlap(u, vbar)) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)


class TestBuildPairSoc:
    def test_v_equals_w_at_theta_pi_4(self):
        # cos(pi/4) and sin(pi/4) differ by one ulp, so compare as states.
        _, v, w = build_pair_soc(OverlapParams(math.pi / 4, 0.0))
        assert abs(overlap(v, w)) ** 2 == pytest.approx(1.0, abs=1e-15)
        assert v.amp_plus == pytest.approx(math.sqrt(0.5), abs=1e-15)
        assert w.amp_minus == pytest.approx(math.sqrt(0.5), abs=1e-15)

    def test_example_amplitudes_at_theta_pi_3(self):
        u, v, w = build_pair_soc(OverlapParams(math.pi / 3, 0.0))
        assert u.amp_plus == pytest.approx(1.0, abs=1e-15)
        assert u.amp_minus == 0.0
        assert v.amp_plus == pytest.approx(0.5, abs=1e-15)
        assert v.amp_minus == pytest.approx(math.sin(math.pi / 3), abs=1e-15)  # 0.8660254...
        assert w.amp_plus == pytest.approx(math.sin(math.pi / 3), abs=1e-15)
        assert w.amp_minus == pytest.approx(0.5, abs=1e-15)

    def test_v_w_overlap_is_sin_two_theta(self):
        _, v, w = build_pair_soc(OverlapParams(math.pi / 6, 0.0))
        assert overlap(v, w) == pytest.approx(math.sin(math.pi / 3), abs=1e-12)

    @given(thetas, phis)
    @settings(max_examples=100, deadline=None)
    def test_u_overlap_matches_parameters(self, theta, phi):
        u, v, w = build_pair_soc(OverlapParams(theta, phi))
        assert overlap(u, v) == pytest.approx(math.cos(theta) * cmath.exp(1j * phi), abs=1e-12)
        assert overlap(v, w) == pytest.approx(math.sin(2 * theta), abs=1e-12)


class TestTensor:
    def test_basis_products(self):
        assert np.array_equal(tensor(PLUS, PLUS).vector, [1.0, 0.0, 0.0, 0.0])
        assert np.array_equal(tensor(PLUS, MINUS).vector, [0.0, 1.0, 0.0, 0.0])

    def test_uu_amplitudes_at_theta_pi_3(self):
        u, _, _ = build_pair_xyz(OverlapParams(math.pi / 3, 0.0))
        joint = tensor(u, u)
        c, s = math.cos(math.pi / 6), math.sin(math.pi / 6)
        expected = (c * c, -c * s, -s * c, s * s)  # (0.75, -0.4330, -0.4330, 0.25)
        assert joint.vector == pytest.approx(expected, abs=1e-15)

    def test_rejects_unnormalized_factor(self):
        # The product's own JointState check catches a factor built past PureState's.
        with pytest.raises(ValidationError, match="JointState is not normalized"):
            tensor(PLUS, unnormalized(2.0, 0.0))

    @given(thetas, phis, thetas, phis)
    @settings(max_examples=60, deadline=None)
    def test_tensor_factorizes_overlaps(self, t1, p1, t2, p2):
        a1, b1, _ = build_pair_xyz(OverlapParams(t1, p1))
        a2, b2, _ = build_pair_soc(OverlapParams(t2, p2))
        lhs = joint_overlap(tensor(a1, a2), tensor(b1, b2))
        rhs = overlap(a1, b1) * overlap(a2, b2)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @given(thetas, phis)
    @settings(max_examples=60, deadline=None)
    def test_tensor_preserves_normalization(self, theta, phi):
        u, v, _ = build_pair_xyz(OverlapParams(theta, phi))
        vec = tensor(u, v).vector
        assert np.vdot(vec, vec).real == pytest.approx(1.0, abs=1e-12)
