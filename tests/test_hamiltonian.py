"""Hamiltonian builders, analytic spectra, and the LAPACK `eigh` numeric spectrum."""

import cmath
import math

import numpy as np
import pytest

from pbrlab import (
    ConvergenceError,
    CouplingSet,
    DegeneracyError,
    DomainError,
    HamiltonianMatrix,
    NonFiniteError,
    OverlapParams,
    ValidationError,
    analytic_spectrum_soc,
    analytic_spectrum_xyz,
    bell_states,
    build_pair_xyz,
    build_soc,
    build_xyz,
    evolve,
    numeric_spectrum,
    pair_spectra,
    tensor,
)
from pbrlab.hamiltonian import PAULI_X, PAULI_Y, PAULI_Z, soc_alpha


def random_hermitian(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return (m + m.conj().T) / 2


def residual(matrix, spectrum) -> float:
    worst = 0.0
    m = np.asarray(matrix.entries if isinstance(matrix, HamiltonianMatrix) else matrix)
    for value, vec in zip(spectrum.eigenvalues, spectrum.eigenvectors):
        v = vec.vector
        worst = max(worst, float(np.max(np.abs(m @ v - value * v))))
    return worst


class TestBuilders:
    def test_zero_couplings_give_zero_matrix(self):
        assert np.array_equal(build_xyz(CouplingSet(0, 0, 0)).entries, np.zeros((4, 4)))

    def test_xx_term_is_the_antidiagonal(self):
        m = build_xyz(CouplingSet(1, 0, 0)).entries
        assert np.array_equal(m, np.fliplr(np.eye(4)))

    def test_example_matrix_1_2_3(self):
        m = build_xyz(CouplingSet(1, 2, 3)).entries
        expected = np.diag([3.0, -3.0, -3.0, 3.0]) + np.fliplr(np.diag([-1.0, 3.0, 3.0, -1.0]))
        assert np.array_equal(m.real, expected)
        assert np.array_equal(m.imag, np.zeros((4, 4)))

    def test_soc_reduces_to_xyz_at_d_zero(self):
        c = CouplingSet(0.3, -1.2, 0.7, 0.0)
        assert np.array_equal(build_soc(c).entries, build_xyz(c).entries)
        assert np.array_equal(
            build_soc(CouplingSet(0.3, -1.2, 0.7)).entries, build_xyz(c).entries
        )

    def test_pure_spin_orbit_matrix(self):
        m = build_soc(CouplingSet(0, 0, 0, 1)).entries
        expected = np.kron(PAULI_X, PAULI_Z) - np.kron(PAULI_Z, PAULI_X)
        assert np.array_equal(m, expected)
        # couples |++> into |-+> - |+-> with unit entries
        assert m[2, 0] == 1.0 and m[1, 0] == -1.0
        assert abs(m[0, 0]) == abs(m[3, 0]) == 0.0

    @pytest.mark.parametrize("c", [CouplingSet(1, 2, 3), CouplingSet(-0.5, 0.1, 2.2, 1.7)])
    def test_hermitian_and_traceless_exactly(self, c):
        for m in (build_xyz(CouplingSet(c.a, c.b, c.c)), build_soc(c)):
            assert np.array_equal(m.entries, m.entries.conj().T)
            assert np.trace(m.entries) == 0.0

    def test_yy_term_is_real(self):
        m = (1.0 * np.kron(PAULI_Y, PAULI_Y))
        assert np.array_equal(m.imag, np.zeros((4, 4)))

    def test_non_hermitian_entries_rejected(self):
        bad = np.eye(4, dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ValidationError, match="Hermitian"):
            HamiltonianMatrix(bad)


class TestAnalyticXyz:
    def test_example_eigenvalues(self):
        spec = analytic_spectrum_xyz(CouplingSet(1, 2, 3))
        assert spec.eigenvalues == (2.0, 4.0, 0.0, -6.0)
        assert spec.labels == ("e1", "e2", "e3", "e4")

    def test_eigenvectors_are_the_bell_states(self):
        spec = analytic_spectrum_xyz(CouplingSet(1, 2, 3))
        assert spec.eigenvectors == bell_states()

    def test_a_equals_b_is_degenerate(self):
        with pytest.raises(DegeneracyError):
            analytic_spectrum_xyz(CouplingSet(1, 1, 0))

    def test_paper_condition_alone_is_insufficient(self):
        # a != +-b holds, yet E1 = E3 = 1
        with pytest.raises(DegeneracyError) as exc:
            analytic_spectrum_xyz(CouplingSet(1, 2, 2))
        assert ("e1", "e3") in exc.value.pairs

    def test_rejects_nonzero_d(self):
        with pytest.raises(ValidationError, match="d absent or zero"):
            analytic_spectrum_xyz(CouplingSet(1, 2, 3, 0.5))

    def test_eigen_residual_and_orthonormality(self):
        c = CouplingSet(0.9, -1.4, 0.3)
        spec = analytic_spectrum_xyz(c)
        assert residual(build_xyz(c), spec) <= 1e-12
        vecs = np.array([v.vector for v in spec.eigenvectors])
        assert np.max(np.abs(vecs.conj() @ vecs.T - np.eye(4))) <= 1e-12


class TestAnalyticSoc:
    def test_example_spectrum_with_alpha_pi_4(self):
        spec = analytic_spectrum_soc(CouplingSet(1, 0.5, -1, 1))
        assert spec.eigenvalues == (-1.5, 2.5, -2.5, 1.5)
        assert spec.alpha == pytest.approx(math.pi / 4, abs=1e-15)

    def test_all_zero_but_d_is_degenerate(self):
        with pytest.raises(DegeneracyError) as exc:
            analytic_spectrum_soc(CouplingSet(0, 0, 0, 1))
        assert ("e'1", "e'2") in exc.value.pairs

    def test_alpha_pi_6_example(self):
        # a + c = -2/sqrt(3) with d = 1; a != c keeps the spectrum valid.
        a = -2 / math.sqrt(3) + 0.5
        spec = analytic_spectrum_soc(CouplingSet(a, 0.2, -0.5, 1))
        assert spec.alpha == pytest.approx(math.pi / 6, abs=1e-12)

    def test_d_zero_is_a_domain_error(self):
        with pytest.raises(DomainError, match="d = 0"):
            analytic_spectrum_soc(CouplingSet(1, 0.5, -1, 0.0))
        with pytest.raises(DomainError, match="d = 0"):
            analytic_spectrum_soc(CouplingSet(1, 0.5, -1))

    def test_fixed_eigenvectors_are_bell_states_exactly(self):
        spec = analytic_spectrum_soc(CouplingSet(0.4, -0.9, 1.6, 0.8))
        bells = bell_states()
        assert spec.eigenvectors[0] == bells[1]  # Phi-
        assert spec.eigenvectors[1] == bells[2]  # Psi+

    def test_mixture_block_diagonalization(self):
        c = CouplingSet(0.4, -0.9, 1.6, 0.8)
        spec = analytic_spectrum_soc(c)
        assert residual(build_soc(c), spec) <= 1e-12
        e3, e4 = spec.eigenvectors[2].vector, spec.eigenvectors[3].vector
        assert abs(np.vdot(e3, e4)) <= 1e-12

    @pytest.mark.parametrize("s_sign", [1.0, -1.0])
    def test_small_d_limit_recovers_bell_combinations(self, s_sign):
        # s > 0: alpha -> pi/2, mixtures -> (Psi-, Phi+); s < 0: alpha -> 0.
        c = CouplingSet(s_sign * 1.0, 0.2, s_sign * 0.5, 1e-8)
        spec = analytic_spectrum_soc(c)
        bells = bell_states()
        e3, e4 = spec.eigenvectors[2], spec.eigenvectors[3]
        if s_sign > 0:
            assert abs(np.vdot(e3.vector, bells[3].vector)) ** 2 == pytest.approx(1.0, abs=1e-12)
            assert abs(np.vdot(e4.vector, bells[0].vector)) ** 2 == pytest.approx(1.0, abs=1e-12)
        else:
            assert abs(np.vdot(e3.vector, bells[0].vector)) ** 2 == pytest.approx(1.0, abs=1e-12)
            assert abs(np.vdot(e4.vector, bells[3].vector)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_alpha_handles_negative_d(self):
        c = CouplingSet(0.4, -0.9, 1.6, -0.8)
        spec = analytic_spectrum_soc(c)
        assert -math.pi / 2 < spec.alpha < 0
        assert residual(build_soc(c), spec) <= 1e-12


class TestNumericSpectrum:
    def test_zero_matrix_with_gap_check_disabled(self):
        spec = numeric_spectrum(np.zeros((4, 4), dtype=complex), gap_tol=0.0)
        assert spec.eigenvalues == (0.0, 0.0, 0.0, 0.0)

    def test_zero_matrix_fails_gap_check(self):
        with pytest.raises(DegeneracyError):
            numeric_spectrum(np.zeros((4, 4), dtype=complex))

    def test_matches_analytic_example_after_sorting(self):
        spec = numeric_spectrum(build_xyz(CouplingSet(1, 2, 3)))
        assert spec.eigenvalues == pytest.approx((-6.0, 0.0, 2.0, 4.0), abs=1e-12)

    def test_random_hermitian_against_library_eigensolver(self):
        """The residual bound is the independent oracle: eigvalsh is the same LAPACK routine."""
        rng = np.random.default_rng(2024)
        for _ in range(200):
            h = random_hermitian(rng)
            spec = numeric_spectrum(h, gap_tol=0.0)
            reference = np.linalg.eigvalsh(h)
            assert np.max(np.abs(np.array(spec.eigenvalues) - reference)) <= 1e-10
            assert residual(h, spec) <= 1e-12

    def test_eigenvectors_orthonormal(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng)
        spec = numeric_spectrum(h, gap_tol=0.0)
        vecs = np.array([v.vector for v in spec.eigenvectors])
        assert np.max(np.abs(vecs.conj() @ vecs.T - np.eye(4))) <= 1e-12
        pivots = vecs[range(4), np.argmax(np.abs(vecs), axis=1)]
        assert np.all(pivots.real > 0) and np.max(np.abs(pivots.imag)) <= 1e-15

    def test_non_hermitian_input_rejected(self):
        bad = np.arange(16, dtype=complex).reshape(4, 4)
        with pytest.raises(ValidationError, match="Hermitian"):
            numeric_spectrum(bad)

    @pytest.mark.parametrize("k", [1e-300, 1e-150, 1e150])
    def test_uniform_scale_scales_the_spectrum(self, k):
        h = random_hermitian(np.random.default_rng(11))
        base = numeric_spectrum(h, gap_tol=0.0)
        scaled = numeric_spectrum(k * h, gap_tol=0.0)
        top = k * max(abs(x) for x in base.eigenvalues)
        for value, expected in zip(scaled.eigenvalues, base.eigenvalues):
            assert abs(value - k * expected) <= 1e-12 * top
        for vec, expected in zip(scaled.eigenvectors, base.eigenvectors):
            assert abs(np.vdot(expected.vector, vec.vector)) ** 2 >= 1 - 1e-12

    def test_overflow_message_has_plain_floats(self):
        with pytest.raises(NonFiniteError, match="n1 = nan") as exc:
            numeric_spectrum(np.diag([np.inf, 1.0, 2.0, 3.0]))
        assert "np.float64" not in str(exc.value)

    def test_lapack_failure_is_a_typed_error(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = m[1, 0] = np.inf
        with pytest.raises(ConvergenceError, match="eigh"):
            numeric_spectrum(m)


class TestSpectrumPairing:
    @pytest.mark.parametrize("variant", ["xyz", "soc"])
    def test_agreement_over_seeded_couplings(self, variant):
        rng = np.random.default_rng(99)
        found = 0
        while found < 50:
            a, b, c, d = rng.uniform(-3, 3, size=4)
            try:
                if variant == "xyz":
                    analytic = analytic_spectrum_xyz(CouplingSet(a, b, c), gap_tol=1e-3)
                    numeric = numeric_spectrum(build_xyz(CouplingSet(a, b, c)), gap_tol=1e-3)
                else:
                    cs = CouplingSet(a, b, c, d)
                    analytic = analytic_spectrum_soc(cs, gap_tol=1e-3)
                    numeric = numeric_spectrum(build_soc(cs), gap_tol=1e-3)
            except (DegeneracyError, DomainError):
                continue
            found += 1
            for pair in pair_spectra(analytic, numeric):
                assert pair.abs_diff <= 1e-10
                assert pair.fidelity >= 1 - 1e-10

    def test_agreement_below_the_sampler_floors(self):
        # verify's coupling sampler keeps gaps >= 1e-3 and |d| >= 0.05.
        for analytic, build, c in (
            (analytic_spectrum_xyz, build_xyz, CouplingSet(1, 2, 2 + 1e-6)),  # E1 - E3 = 2e-6
            (analytic_spectrum_soc, build_soc, CouplingSet(1, 0.2, 1 + 1e-6, 0.3)),  # E'1 - E'2 = 2e-6
            (analytic_spectrum_soc, build_soc, CouplingSet(1, 0.2, 0.5, 0.01)),
        ):
            for pair in pair_spectra(analytic(c), numeric_spectrum(build(c))):
                assert pair.abs_diff <= 1e-10 and pair.fidelity >= 1 - 1e-10


class TestEvolve:
    @pytest.fixture
    def setup(self):
        c = CouplingSet(1, 2, 3)
        spec = analytic_spectrum_xyz(c)
        u, v, _ = build_pair_xyz(OverlapParams(0.9, 0.4))
        return spec, tensor(u, v)

    def test_t_zero_is_identity(self, setup):
        spec, state = setup
        out = evolve(state, spec, 0.0)
        assert np.max(np.abs(out.vector - state.vector)) <= 1e-12

    def test_eigenvector_picks_up_a_phase(self, setup):
        spec, _ = setup
        t = 0.73
        for value, vec in zip(spec.eigenvalues, spec.eigenvectors):
            out = evolve(vec, spec, t)
            expected = cmath.exp(-1j * value * t) * vec.vector
            assert np.max(np.abs(out.vector - expected)) <= 1e-12

    def test_outcome_probabilities_are_conserved(self, setup):
        spec, state = setup
        for t in (0.1, 1.7, -3.2, 40.0):
            out = evolve(state, spec, t)
            for vec in spec.eigenvectors:
                before = abs(np.vdot(vec.vector, state.vector)) ** 2
                after = abs(np.vdot(vec.vector, out.vector)) ** 2
                assert after == pytest.approx(before, abs=1e-12)

    def test_norm_preserved(self, setup):
        spec, state = setup
        assert evolve(state, spec, 5.3).norm_sq() == pytest.approx(1.0, abs=1e-12)
