"""State construction, overlaps, and tensor products.

The 4-amplitude algebra is plain Python; numpy serves as its oracle here.
"""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pbrlab import (
    CouplingSet,
    DomainError,
    JointState,
    OverlapParams,
    PbrlabError,
    PureState,
    ValidationError,
    born_probabilities,
    build_pair_soc,
    build_pair_xyz,
    evolve,
    overlap,
    tensor,
)
from pbrlab.protocol import Variant, analytic_spectrum, hamiltonian_stack
from pbrlab.qstate import NORM_ATOL, joint_overlap

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
        with pytest.raises(TypeError, match="does not support item assignment"):
            state.vector[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            state.vector = (1.0, 0.0, 0.0, 0.0)
        assert state.vector == (0.6, 0.0, 0.0, 0.8j)

    def test_joint_state_vector_repeats_its_values(self):
        state = JointState((0.6, 0, 0.0, 0.8j))
        first = state.vector
        assert state.vector is first
        assert type(first) is tuple and [type(z) for z in first] == [complex] * 4
        assert first == (0.6, 0.0, 0.0, 0.8j)

    @pytest.mark.parametrize("make", [list, np.array], ids=["list", "ndarray"])
    def test_joint_state_copies_its_input(self, make):
        source = make([0.6, 0.0, 0.0, 0.8j])
        state = JointState(source)
        source[0] = 1.0
        assert [type(z) for z in state.vector] == [complex] * 4
        assert state.vector == (0.6, 0.0, 0.0, 0.8j)

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


def _normalized(parts: list[float]) -> list[complex]:
    """The complex vector of (re, im) pairs in ``parts``, scaled to unit norm."""
    amps = [complex(re, im) for re, im in zip(parts[::2], parts[1::2])]
    norm = math.sqrt(sum(abs(z) ** 2 for z in amps))
    return [z / norm for z in amps]


def states(n: int):
    """Normalized n-amplitude vectors, as lists of complex."""
    parts = st.lists(st.floats(-1.0, 1.0), min_size=2 * n, max_size=2 * n)
    return parts.filter(lambda xs: sum(x * x for x in xs) > 1e-3).map(_normalized)


spectra = st.builds(
    lambda variant, *c: (variant, CouplingSet(*c)),
    st.sampled_from(list(Variant)),
    *(st.floats(-3.0, 3.0) for _ in range(3)),
    st.floats(0.1, 3.0),
)


class TestPlainAlgebraAgainstNumpy:
    """Each plain-Python operation against its numpy form, on random normalized states."""

    @staticmethod
    def spectrum(case):
        variant, c = case
        if variant is Variant.XYZ:
            c = CouplingSet(c.a, c.b, c.c)
        try:
            return variant, c, analytic_spectrum(variant, c, 1e-3)
        except PbrlabError:
            assume(False)

    @given(states(4), states(4))
    @settings(max_examples=200, deadline=None)
    def test_joint_overlap_is_vdot(self, x, y):
        assert abs(joint_overlap(JointState(x), JointState(y)) - np.vdot(x, y)) <= 1e-15

    @given(states(4), st.floats(1e-9, 1e-3), st.sampled_from([-1.0, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_norm_check_reads_the_vdot_norm(self, x, off, sign):
        state = JointState(x)
        assert abs(joint_overlap(state, state) - np.vdot(x, x)) <= 1e-15
        scaled = [z * math.sqrt(1.0 + sign * off) for z in x]
        assert abs(np.vdot(scaled, scaled).real - 1.0) > 100.0 * NORM_ATOL
        with pytest.raises(ValidationError, match="JointState is not normalized"):
            JointState(scaled)

    @given(states(2), states(2))
    @settings(max_examples=200, deadline=None)
    def test_tensor_is_kron(self, a, b):
        joint = tensor(PureState(*a), PureState(*b))
        assert np.max(np.abs(np.subtract(joint.vector, np.kron(a, b)))) <= 1e-15

    @given(states(4), spectra)
    @settings(max_examples=200, deadline=None)
    def test_born_probabilities_are_squared_projections(self, x, case):
        _, _, spec = self.spectrum(case)
        basis = np.array([e.vector for e in spec.eigenvectors])
        expected = np.abs(basis.conj() @ np.array(x)) ** 2
        got = born_probabilities(JointState(x), spec)
        assert np.max(np.abs(np.subtract(got, expected))) <= 1e-15

    @given(states(4), spectra, st.floats(-5.0, 5.0))
    @settings(max_examples=200, deadline=None)
    def test_evolve_is_exp_minus_iht_from_eigh(self, x, case, t):
        variant, c, spec = self.spectrum(case)
        values, vectors = np.linalg.eigh(hamiltonian_stack(variant, [c])[0])
        unitary = (vectors * np.exp(-1j * values * t)) @ vectors.conj().T
        got = evolve(JointState(x), spec, t)
        assert np.max(np.abs(np.subtract(got.vector, unitary @ np.array(x)))) <= 1e-12
