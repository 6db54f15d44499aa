"""The stacked spectrum checks of ``verify-all`` against a per-matrix reference.

The reference loop below is the route the checks took one matrix at a time:
build the matrix, LAPACK ``eigh``, gauge, pair by fidelity.  The stacked
checks must report the same text, digit for digit.
"""

import numpy as np
import pytest

from pbrlab import ValidationError, bell_states, ontology, verify
from pbrlab.protocol import Variant, hamiltonian_stack
from pbrlab.verify import CheckResult


def per_matrix_agreement(spectrum, matrix) -> tuple[float, float]:
    """Max |dE| and max infidelity of one analytic spectrum against its own eigh."""
    values, vecs = np.linalg.eigh(matrix)
    pivots = vecs[np.argmax(np.abs(vecs), axis=0), range(4)]
    vecs = vecs * (np.abs(pivots) / pivots)
    amat = np.array([v.vector for v in spectrum.eigenvectors])
    fid = np.abs(amat.conj() @ vecs) ** 2
    assignment = [int(np.argmax(fid[i])) for i in range(4)]
    assert sorted(assignment) == [0, 1, 2, 3]
    de = max(abs(spectrum.eigenvalues[i] - float(values[j])) for i, j in enumerate(assignment))
    infid = max(1.0 - float(fid[i, j]) for i, j in enumerate(assignment))
    return de, infid


def reference_xyz(seed: int, n: int) -> CheckResult:
    max_de, max_infid = 0.0, 0.0
    for c, spec in verify._random_couplings(seed, 10, n, Variant.XYZ):
        de, infid = per_matrix_agreement(spec, hamiltonian_stack(Variant.XYZ, [c])[0])
        max_de, max_infid = max(max_de, de), max(max_infid, infid)
    return CheckResult(
        "xyz-spectrum-agreement",
        max_de <= 1e-10 and max_infid <= 1e-10,
        f"{n} random couplings, max |dE| {max_de:.3e}, max infidelity {max_infid:.3e}",
    )


def reference_soc(seed: int, n: int) -> CheckResult:
    max_de, max_infid, max_cross = 0.0, 0.0, 0.0
    bells = bell_states()
    exact_fixed = True
    for c, spec in verify._random_couplings(seed, 20, n, Variant.SOC):
        de, infid = per_matrix_agreement(spec, hamiltonian_stack(Variant.SOC, [c])[0])
        max_de, max_infid = max(max_de, de), max(max_infid, infid)
        exact_fixed = exact_fixed and np.array_equal(spec.eigenvectors[0].vector, bells[1].vector)
        exact_fixed = exact_fixed and np.array_equal(spec.eigenvectors[1].vector, bells[2].vector)
        cross = abs(np.vdot(spec.eigenvectors[2].vector, spec.eigenvectors[3].vector))
        max_cross = max(max_cross, float(cross))
    return CheckResult(
        "soc-spectrum-agreement",
        max_de <= 1e-10 and max_infid <= 1e-10 and exact_fixed and max_cross <= 1e-12,
        f"{n} random couplings, max |dE| {max_de:.3e}, max infidelity {max_infid:.3e}, "
        f"fixed Bell eigenvectors exact: {exact_fixed}, max |<e'3|e'4>| {max_cross:.3e}",
    )


@pytest.mark.parametrize("seed", [0, 3, 42, 2**64 - 1])
@pytest.mark.parametrize("n", [1, 7, 40])
def test_stacked_spectrum_checks_equal_the_per_matrix_loop(seed, n):
    assert verify.check_xyz_spectrum(seed, n=n) == reference_xyz(seed, n)
    assert verify.check_soc_spectrum(seed, n=n) == reference_soc(seed, n)


def test_sampled_spectra_are_the_analytic_ones():
    for variant in Variant:
        for c, spec in verify._random_couplings(5, 10, 20, variant):
            again = verify.analytic_spectrum(variant, c, verify._SAMPLE_MIN_GAP)
            assert spec.labels == again.labels
            assert spec.eigenvalues == again.eigenvalues
            assert spec.alpha == again.alpha
            for x, y in zip(spec.eigenvectors, again.eigenvectors, strict=True):
                assert np.array_equal(x.vector, y.vector)


@pytest.mark.parametrize("cpus", [1, 8])
def test_report_does_not_depend_on_the_cpu_count(monkeypatch, cpus):
    reference = verify.run_all(seed=42)
    monkeypatch.setattr("os.cpu_count", lambda: cpus)
    assert verify.run_all(seed=42) == reference


def test_lp_checks_ask_each_question_once(monkeypatch):
    ontology._decide.cache_clear()
    assert verify.check_simplex_oracle().ok
    info = ontology._decide.cache_info()
    assert (info.misses, info.hits) == (32, 0)  # 16 zeroed sets x float and exact

    asked = []

    def recording(prob, **kwargs):
        asked.append(prob)
        return ontology.lp_feasible(prob, **kwargs)

    monkeypatch.setattr(verify, "lp_feasible", recording)
    assert verify.check_exclusion_feasibility().ok
    assert len(asked) == 10  # 2 variants x (both-overlap + 4 single-overlap branches)


def test_too_few_runs_leave_a_preparation_unrun():
    with pytest.raises(ValidationError, match=r"no runs prepared v\*vbar"):
        verify.run_all(n_runs=3)
