"""Hamiltonian stacks, analytic spectra, and the LAPACK `eigh` numeric spectrum."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from pbrlab import (
    GAP_TOL,
    ConvergenceError,
    CouplingSet,
    DegeneracyError,
    DomainError,
    LogicError,
    NonFiniteError,
    OverlapParams,
    ValidationError,
    analytic_spectrum_soc,
    analytic_spectrum_xyz,
    bell_states,
    build_pair_xyz,
    evolve,
    numeric_spectrum,
    pair_spectra,
    tensor,
)
from pbrlab import params, protocol
from pbrlab.hamiltonian import Spectrum, hamiltonian_entries
from pbrlab.params import _check_gaps
from pbrlab.protocol import Variant, analytic_spectrum, hamiltonian_stack, numeric_pairing

#: Pauli X and Z: an independent Kronecker-product reference for the closed-form entries.
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def random_hermitian(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return (m + m.conj().T) / 2


def random_hermitian_stack(rng, n):
    m = rng.normal(size=(n, 4, 4)) + 1j * rng.normal(size=(n, 4, 4))
    return (m + m.conj().swapaxes(1, 2)) / 2


def random_couplings(rng, n, spin_orbit):
    return [CouplingSet(*rng.uniform(-3, 3, size=4 if spin_orbit else 3)) for _ in range(n)]


def matrix(variant, c):
    """The variant's Hamiltonian at c, as a stack of one gives it."""
    return hamiltonian_stack(variant, [c])[0]


def gauged_eigh(m):
    """The per-matrix reference: LAPACK eigh, then each column's largest component made real positive."""
    values, vecs = np.linalg.eigh(m)
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), range(4)]
    return values, vecs * (np.abs(pivots) / pivots)


def same_bits(x, y) -> bool:
    x, y = np.asarray(x), np.asarray(y)
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def residual(m, values, vectors) -> float:
    """Largest |m v - value v| over (value, vector) pairs."""
    return max(float(np.max(np.abs(m @ v - value * v))) for value, v in zip(values, vectors))


def analytic_residual(m, spectrum) -> float:
    return residual(m, spectrum.eigenvalues, [np.asarray(v.vector) for v in spectrum.eigenvectors])


def agreement(variant, c, gap_tol=GAP_TOL):
    """|dE| and fidelity per analytic label, along the route of the ``spectrum`` command."""
    analytic = analytic_spectrum(variant, c, gap_tol)
    numeric, fidelity = numeric_pairing(variant, [(c, analytic)], gap_tol)
    return np.abs(np.array(analytic.eigenvalues) - numeric[0]), fidelity[0]


class TestBuilders:
    def test_zero_couplings_give_zero_matrix(self):
        assert np.array_equal(matrix(Variant.XYZ, CouplingSet(0, 0, 0)), np.zeros((4, 4)))

    def test_xx_term_is_the_antidiagonal(self):
        m = hamiltonian_entries(1.0, 0.0, 0.0, None)
        assert np.array_equal(m, np.fliplr(np.eye(4)))

    def test_example_matrix_1_2_3(self):
        m = matrix(Variant.XYZ, CouplingSet(1, 2, 3))
        expected = np.diag([3.0, -3.0, -3.0, 3.0]) + np.fliplr(np.diag([-1.0, 3.0, 3.0, -1.0]))
        assert np.array_equal(m.real, expected)
        assert np.array_equal(m.imag, np.zeros((4, 4)))

    def test_soc_reduces_to_xyz_at_d_zero(self):
        c = CouplingSet(0.3, -1.2, 0.7, 0.0)
        assert np.array_equal(matrix(Variant.SOC, c), matrix(Variant.XYZ, c))
        assert np.array_equal(
            matrix(Variant.SOC, CouplingSet(0.3, -1.2, 0.7)), matrix(Variant.XYZ, c)
        )

    def test_xyz_ignores_d(self):
        c = CouplingSet(0.3, -1.2, 0.7)
        assert same_bits(matrix(Variant.XYZ, CouplingSet(0.3, -1.2, 0.7, 2.5)), matrix(Variant.XYZ, c))

    def test_pure_spin_orbit_matrix(self):
        m = matrix(Variant.SOC, CouplingSet(0, 0, 0, 1))
        expected = np.kron(PAULI_X, PAULI_Z) - np.kron(PAULI_Z, PAULI_X)
        assert np.array_equal(m, expected)
        # couples |++> into |-+> - |+-> with unit entries
        assert m[2, 0] == 1.0 and m[1, 0] == -1.0
        assert abs(m[0, 0]) == abs(m[3, 0]) == 0.0

    @pytest.mark.parametrize("c", [CouplingSet(1, 2, 3), CouplingSet(-0.5, 0.1, 2.2, 1.7)])
    def test_hermitian_and_traceless_exactly(self, c):
        for m in (matrix(Variant.XYZ, c), matrix(Variant.SOC, c)):
            assert np.array_equal(m, m.conj().T)
            assert np.trace(m) == 0.0

    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_stack_bits_do_not_depend_on_its_length(self, variant):
        """The spectrum command's stack of one and verify's long stacks build the same matrices."""
        couplings = random_couplings(np.random.default_rng(3), 200, variant is Variant.SOC)
        stack = hamiltonian_stack(variant, couplings)
        assert stack.shape == (200, 4, 4)
        for k, c in enumerate(couplings):
            assert same_bits(stack[k], matrix(variant, c))
            d = c.d if variant is Variant.SOC else None
            assert same_bits(stack[k], np.array(hamiltonian_entries(c.a, c.b, c.c, d), dtype=complex))

    def test_empty_stack(self):
        assert hamiltonian_stack(Variant.XYZ, []).shape == (0, 4, 4)


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
        assert analytic_residual(matrix(Variant.XYZ, c), spec) <= 1e-12
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
        assert analytic_residual(matrix(Variant.SOC, c), spec) <= 1e-12
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
        assert analytic_residual(matrix(Variant.SOC, c), spec) <= 1e-12


class TestNumericSpectrum:
    """One matrix, as a stack of one."""

    def test_zero_matrix_with_gap_check_disabled(self):
        values, _ = numeric_spectrum(np.zeros((1, 4, 4), dtype=complex), 0.0)
        assert values.tolist() == [[0.0, 0.0, 0.0, 0.0]]

    def test_zero_matrix_fails_gap_check(self):
        with pytest.raises(DegeneracyError):
            numeric_spectrum(np.zeros((1, 4, 4), dtype=complex), GAP_TOL)

    def test_matches_analytic_example_after_sorting(self):
        values, _ = numeric_spectrum(hamiltonian_stack(Variant.XYZ, [CouplingSet(1, 2, 3)]), GAP_TOL)
        assert values[0].tolist() == pytest.approx((-6.0, 0.0, 2.0, 4.0), abs=1e-12)

    def test_random_hermitian_against_library_eigensolver(self):
        """The residual bound is the independent oracle: eigvalsh is the same LAPACK routine."""
        rng = np.random.default_rng(2024)
        for _ in range(200):
            h = random_hermitian(rng)
            values, vectors = numeric_spectrum(h[np.newaxis], 0.0)
            reference = np.linalg.eigvalsh(h)
            assert np.max(np.abs(values[0] - reference)) <= 1e-10
            assert residual(h, values[0], vectors[0].T) <= 1e-12

    def test_eigenvectors_orthonormal(self):
        rng = np.random.default_rng(7)
        h = random_hermitian(rng)
        _, vectors = numeric_spectrum(h[np.newaxis], 0.0)
        vecs = vectors[0].T
        assert np.max(np.abs(vecs.conj() @ vecs.T - np.eye(4))) <= 1e-12
        pivots = vecs[range(4), np.argmax(np.abs(vecs), axis=1)]
        assert np.all(pivots.real > 0) and np.max(np.abs(pivots.imag)) <= 1e-15

    def test_non_hermitian_input_rejected(self):
        bad = np.arange(16, dtype=complex).reshape(4, 4)
        with pytest.raises(ValidationError, match="^matrix is not Hermitian"):
            numeric_spectrum(bad[np.newaxis], GAP_TOL)

    @pytest.mark.parametrize("k", [1e-300, 1e-150, 1e150])
    def test_uniform_scale_scales_the_spectrum(self, k):
        h = random_hermitian(np.random.default_rng(11))
        base_values, base_vectors = numeric_spectrum(h[np.newaxis], 0.0)
        values, vectors = numeric_spectrum((k * h)[np.newaxis], 0.0)
        top = k * np.max(np.abs(base_values))
        assert np.max(np.abs(values - k * base_values)) <= 1e-12 * top
        for vec, expected in zip(vectors[0].T, base_vectors[0].T):
            assert abs(np.vdot(expected, vec)) ** 2 >= 1 - 1e-12

    def test_overflow_message_has_plain_floats(self):
        with pytest.raises(NonFiniteError, match="^spectrum overflows: n1 = nan") as exc:
            numeric_spectrum(np.diag([np.inf, 1.0, 2.0, 3.0])[np.newaxis], GAP_TOL)
        assert "np.float64" not in str(exc.value)

    def test_lapack_failure_is_a_typed_error(self):
        m = np.zeros((4, 4), dtype=complex)
        m[0, 1] = m[1, 0] = np.inf
        with pytest.raises(ConvergenceError, match="eigh"):
            numeric_spectrum(m[np.newaxis], GAP_TOL)


class TestNumericSpectrumStacks:
    @pytest.mark.parametrize("source", ["xyz", "soc", "raw"])
    def test_stack_matches_per_matrix_eigh_bit_for_bit(self, source):
        rng = np.random.default_rng(31)
        if source == "raw":
            stack = random_hermitian_stack(rng, 500)
        else:
            variant = Variant(source)
            stack = hamiltonian_stack(variant, random_couplings(rng, 500, variant is Variant.SOC))
        values, vectors = numeric_spectrum(stack, 0.0)
        for k, m in enumerate(stack):
            ref_values, ref_vectors = gauged_eigh(m)
            assert same_bits(values[k], ref_values)
            assert same_bits(vectors[k], ref_vectors)

    def test_empty_stack(self):
        values, vectors = numeric_spectrum(np.zeros((0, 4, 4)), GAP_TOL)
        assert values.shape == (0, 4) and vectors.shape == (0, 4, 4)

    @pytest.mark.parametrize(
        "empty",
        [
            lambda gap_tol: numeric_spectrum(np.zeros((0, 4, 4)), gap_tol),
            lambda gap_tol: numeric_pairing(Variant.XYZ, [], gap_tol),
        ],
        ids=["numeric_spectrum", "numeric_pairing"],
    )
    @pytest.mark.parametrize("gap_tol", [math.nan, -1.0, math.inf])
    def test_an_empty_stack_still_checks_its_tolerance(self, empty, gap_tol):
        with pytest.raises(ValidationError, match=r"^gap_tol must be finite and >= 0, got "):
            empty(gap_tol)

    @pytest.mark.parametrize("shape", [(4, 4), (2, 3, 3), (2, 4, 4, 1)])
    def test_wrong_shape_is_rejected(self, shape):
        with pytest.raises(ValidationError, match=r"\(n, 4, 4\) stack"):
            numeric_spectrum(np.zeros(shape), 0.0)

    def test_non_hermitian_matrix_is_named(self):
        stack = random_hermitian_stack(np.random.default_rng(8), 5)
        stack[3, 0, 1] += 1.0
        with pytest.raises(ValidationError, match=r"^matrix 3 of 5: matrix is not Hermitian"):
            numeric_spectrum(stack, 0.0)

    def test_non_finite_matrix_is_named_with_the_single_wording(self):
        stack = random_hermitian_stack(np.random.default_rng(9), 4)
        stack[2] = np.diag([np.inf, 1.0, 2.0, 3.0])
        with pytest.raises(NonFiniteError) as single:
            numeric_spectrum(stack[2:3], GAP_TOL)
        with pytest.raises(NonFiniteError) as stacked:
            numeric_spectrum(stack, GAP_TOL)
        assert str(stacked.value) == f"matrix 2 of 4: {single.value}"

    def test_lapack_failure_on_a_stack_is_a_typed_error(self):
        stack = random_hermitian_stack(np.random.default_rng(10), 3)
        stack[1] = 0.0
        stack[1, 0, 1] = stack[1, 1, 0] = np.inf
        with pytest.raises(ConvergenceError, match="eigh failed"):
            numeric_spectrum(stack, GAP_TOL)

    def test_degenerate_matrix_is_named_with_the_single_wording(self):
        couplings = [CouplingSet(1, 2, 3), CouplingSet(1, 2, 2), CouplingSet(0, 0, 0)]
        stack = hamiltonian_stack(Variant.XYZ, couplings)
        with pytest.raises(DegeneracyError) as single:
            numeric_spectrum(stack[1:2], GAP_TOL)
        with pytest.raises(DegeneracyError) as stacked:
            numeric_spectrum(stack, GAP_TOL)
        assert str(stacked.value) == f"matrix 1 of 3: {single.value}"
        assert stacked.value.pairs == single.value.pairs

    def test_only_a_failing_matrix_builds_its_prefix(self, monkeypatch):
        calls = []
        which = params._which
        monkeypatch.setattr(params, "_which", lambda k, n: calls.append((k, n)) or which(k, n))
        stack = hamiltonian_stack(Variant.XYZ, [CouplingSet(1, 2, 3), CouplingSet(1, 2, 4), CouplingSet(1, 2, 2)])
        numeric_spectrum(stack[:2], GAP_TOL)
        assert calls == []
        with pytest.raises(DegeneracyError, match=r"^matrix 2 of 3: degenerate spectrum"):
            numeric_spectrum(stack, GAP_TOL)
        assert calls == [(2, 3)]

    def test_gap_tol_zero_skips_the_gap_check(self):
        values, _ = numeric_spectrum(np.zeros((2, 4, 4)), 0.0)
        assert not values.any()

    #: Diagonal entries with exact ties and gaps just below, at and above 1e-9 and 0.5.
    GRID = (-1.0, 0.0, 5e-10, 1e-9, 2e-9, 0.25, 0.5, 0.75, 1.0)

    @seed(20120229)
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.lists(st.sampled_from(GRID), min_size=4, max_size=4), min_size=1, max_size=6),
        st.sampled_from([0.0, 1e-9, 0.5]),
    )
    def test_gap_rule_is_the_params_rule_per_matrix(self, diagonals, gap_tol):
        # A diagonal matrix's ascending eigenvalues are its sorted diagonal, exactly.
        # The grid is finite, so the rule can only fail on a gap.
        n = len(diagonals)
        expected = None
        for k, diagonal in enumerate(diagonals):
            try:
                _check_gaps(sorted(diagonal), ("n1", "n2", "n3", "n4"), gap_tol, k, n)
            except DegeneracyError as exc:
                expected = exc
                break
        stack = np.array([np.diag(diagonal) for diagonal in diagonals])
        if expected is None:
            values, _ = numeric_spectrum(stack, gap_tol)
            assert values.tolist() == [sorted(diagonal) for diagonal in diagonals]
        else:
            with pytest.raises(DegeneracyError) as raised:
                numeric_spectrum(stack, gap_tol)
            assert str(raised.value) == str(expected) and raised.value.pairs == expected.pairs


class TestPairSpectra:
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    def test_agreement_over_seeded_couplings(self, variant):
        rng = np.random.default_rng(99)
        found = 0
        while found < 50:
            a, b, c, d = rng.uniform(-3, 3, size=4)
            couplings = CouplingSet(a, b, c, d if variant is Variant.SOC else None)
            try:
                de, fidelity = agreement(variant, couplings, 1e-3)
            except (DegeneracyError, DomainError):
                continue
            found += 1
            assert np.all(de <= 1e-10)
            assert np.all(fidelity >= 1 - 1e-10)

    def test_agreement_below_the_sampler_floors(self):
        # verify's coupling sampler keeps gaps >= 1e-3 and |d| >= 0.05.
        for variant, c in (
            (Variant.XYZ, CouplingSet(1, 2, 2 + 1e-6)),  # E1 - E3 = 2e-6
            (Variant.SOC, CouplingSet(1, 0.2, 1 + 1e-6, 0.3)),  # E'1 - E'2 = 2e-6
            (Variant.SOC, CouplingSet(1, 0.2, 0.5, 0.01)),
        ):
            de, fidelity = agreement(variant, c)
            assert np.all(de <= 1e-10) and np.all(fidelity >= 1 - 1e-10)

    def test_one_stack_pairs_each_label_with_its_numeric_eigenvalue(self):
        c = CouplingSet(1, 2, 3)
        numeric, fidelity = numeric_pairing(Variant.XYZ, [(c, analytic_spectrum_xyz(c))], GAP_TOL)
        assert numeric.shape == fidelity.shape == (1, 4)
        assert numeric[0].tolist() == pytest.approx([2.0, 4.0, 0.0, -6.0], abs=1e-12)

    def test_labels_pair_by_eigenvalue_rank(self):
        # e1 and e2 carry each other's eigenvectors: rank pairing keeps |dE| at 0 and
        # reads the swap as an infidelity of 1, where a fidelity search would move |dE|.
        c = CouplingSet(1, 2, 3)
        right = analytic_spectrum_xyz(c)
        v = right.eigenvectors
        swapped = Spectrum(right.eigenvalues, (v[1], v[0], v[2], v[3]), right.labels)
        numeric, fidelity = numeric_pairing(Variant.XYZ, [(c, right), (c, swapped)], GAP_TOL)
        assert np.abs(numeric - right.eigenvalues).max() <= 1e-12
        assert np.abs(fidelity - [[1.0, 1.0, 1.0, 1.0], [0.0, 0.0, 1.0, 1.0]]).max() <= 1e-12

    def test_non_bijective_match_is_named(self):
        bells = np.array([v.vector for v in bell_states()])
        analytic = np.stack([bells, bells[[0, 0, 2, 3]]])
        message = r"^matrix 1 of 2: fidelity pairing is not a bijection: \[0, 0, 2, 3\]$"
        with pytest.raises(LogicError, match=message):
            pair_spectra(analytic, np.stack([bells.T, bells.T]))

    def test_non_bijective_lone_match_has_no_prefix(self):
        bells = np.array([v.vector for v in bell_states()])
        with pytest.raises(LogicError, match=r"^fidelity pairing is not a bijection: \[0, 0, 2, 3\]$"):
            pair_spectra(bells[[0, 0, 2, 3]][np.newaxis], bells.T[np.newaxis])


def exact_residual_squares(variant, c, energy, vector):
    """(||H x - E x||^2, ||x||^2) in exact rationals, H the variant's Hamiltonian at the exact couplings."""
    a, b, cc = Fraction(c.a), Fraction(c.b), Fraction(c.c)
    d = Fraction(c.d_or_zero) if variant is Variant.SOC else Fraction(0)
    rows = ((cc, -d, d, a - b), (-d, -cc, a + b, -d), (d, a + b, -cc, d), (a - b, -d, d, cc))
    residual = norm = Fraction(0)
    for part in ([Fraction(z.real) for z in vector.vector], [Fraction(z.imag) for z in vector.vector]):
        for row, x in zip(rows, part):
            entry = row[0] * part[0] + row[1] * part[1] + row[2] * part[2] + row[3] * part[3] - Fraction(energy) * x
            residual += entry * entry
            norm += x * x
    return residual, norm


class TestEnclosure:
    @pytest.mark.parametrize("variant", list(Variant), ids=lambda v: v.value)
    @pytest.mark.parametrize("scale", [1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300])
    def test_radius_bounds_the_exact_residual(self, variant, scale):
        # The exact-rational oracle: the float eigenpair's residual under the
        # couplings' exact Hamiltonian, over the exact ||x||, is within the radius.
        rng = np.random.default_rng(2024)
        for _ in range(4):
            c = CouplingSet(*(scale * rng.uniform(-3, 3, size=4 if variant is Variant.SOC else 3)))
            spectrum, radii, _ = protocol.certified_spectrum(variant, c, 0.0)
            top = max(abs(e) for e in spectrum.eigenvalues)
            for energy, vector, radius in zip(spectrum.eigenvalues, spectrum.eigenvectors, radii):
                residual, norm = exact_residual_squares(variant, c, energy, vector)
                assert residual <= Fraction(radius) ** 2 * norm
                assert radius <= 1e-12 * top

    def test_tied_eigenvalues_are_not_certified(self):
        with pytest.raises(DegeneracyError, match=r"residual intervals of e1 and e2 overlap") as caught:
            protocol.certified_spectrum(Variant.XYZ, CouplingSet(1, 1, 0), 0.0)
        assert caught.value.pairs == (("e1", "e2"),)

    def test_overflowing_residual_is_non_finite(self):
        with pytest.raises(NonFiniteError, match=r"^residual bound overflows: e3 = .* ± inf, e4 = "):
            protocol.certified_spectrum(Variant.XYZ, CouplingSet(6e307, 5e307, 4e307), GAP_TOL)

    def test_angle_bound_follows_the_gap(self):
        # Davis-Kahan: the closer the nearest other eigenvalue, the looser the eigenvector.
        _, _, wide = protocol.certified_spectrum(Variant.XYZ, CouplingSet(1, 2, 3), GAP_TOL)
        _, _, narrow = protocol.certified_spectrum(Variant.XYZ, CouplingSet(1, 2, 2 + 1e-6), GAP_TOL)
        assert max(wide) <= 1e-13 and 1e-11 <= max(narrow) <= 1e-7


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
        assert np.max(np.abs(np.asarray(out.vector) - np.asarray(state.vector))) <= 1e-12

    def test_eigenvector_picks_up_a_phase(self, setup):
        spec, _ = setup
        t = 0.73
        for value, vec in zip(spec.eigenvalues, spec.eigenvectors):
            out = evolve(vec, spec, t)
            expected = cmath.exp(-1j * value * t) * np.asarray(vec.vector)
            assert np.max(np.abs(np.asarray(out.vector) - expected)) <= 1e-12

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
        out = evolve(state, spec, 5.3).vector
        assert np.vdot(out, out).real == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_is_named(self, setup, t):
        spec, state = setup
        with pytest.raises(DomainError, match="^t must be finite"):
            evolve(state, spec, t)
