"""The checks of ``verify-all``: what they draw, and what they can catch.

The stacked spectrum checks are held against a per-matrix reference, the
route they took one matrix at a time: build the matrix, LAPACK ``eigh``,
gauge, pair by fidelity.  They must report the same text, digit for digit.
"""

import dataclasses
import itertools
import math
import re

import numpy as np
import pytest

from pbrlab import CouplingSet, DegeneracyError, ValidationError, bell_states, ontology, rng, verify
from pbrlab.ontology import Relation
from pbrlab.protocol import Variant, hamiltonian_stack
from pbrlab.qstate import joint_overlap
from pbrlab.verify import CheckResult

#: Every purpose verify draws for: both spectra, solver samples, clean and
#: noisy simulation, determinism.
PURPOSES = (10, 20, 30, 40, 50, 60)


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
        cross = abs(joint_overlap(spec.eigenvectors[2], spec.eigenvectors[3]))
        max_cross = max(max_cross, cross)
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
    assert (info.misses, info.hits) == (16, 0)  # each of the 16 zeroed sets once

    asked = []

    def recording(prob, **kwargs):
        asked.append(prob)
        return ontology.lp_feasible(prob, **kwargs)

    monkeypatch.setattr(verify, "lp_feasible", recording)
    assert verify.check_exclusion_feasibility().ok
    assert len(asked) == 10  # 2 variants x (both-overlap + 4 single-overlap branches)


def test_too_few_runs_leave_a_preparation_unrun():
    with pytest.raises(ValidationError, match=r"n_runs must be >= 4 so every preparation gets a run, got 3"):
        verify.run_all(n_runs=3)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n_runs": -1}, "n_runs must be >= 1, got -1"),
        ({"n_runs": 200_000.0}, "n_runs must be an integer, got float"),
        ({"n_workers": 0}, "n_workers must be >= 1, got 0"),
        ({"n_workers": 2.0}, "n_workers must be an integer, got float"),
        ({"seed": -1}, "seed must fit in 64 unsigned bits, got -1"),
        ({"seed": 2**64}, "seed must fit in 64 unsigned bits, got 18446744073709551616"),
    ],
)
def test_bad_sizes_and_seeds_raise_before_any_check_runs(check_calls, kwargs, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        verify.run_all(**kwargs)
    assert check_calls == []
    verify.run_all()  # the recorders let a valid sweep through
    assert len(check_calls) == 14


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_each_purpose_reads_its_own_stream(seed):
    streams = [verify._stream(seed, p) for p in PURPOSES]
    assert len({seed, *streams}) == len(PURPOSES) + 1
    # Counter c of stream s is mix64(s + (c + 1) * gamma), and mix64 is a
    # bijection, so streams s and s' share a word only at counters c' - c = k
    # with k * gamma = s - s' (mod 2^64).  None of the k lies within 2^40.
    inverse = pow(rng._GAMMA, -1, 2**64)
    for s, other in itertools.combinations(streams, 2):
        k = (s - other) * inverse % 2**64
        assert 2**40 < k < 2**64 - 2**40


def test_a_rejected_first_block_reads_on_in_its_own_stream(monkeypatch):
    n, seed = 5, 42
    seen = []
    analytic = verify.analytic_spectrum

    def reject_first_block(variant, c, gap_tol):
        seen.append(c)
        if len(seen) <= 4 * n:
            raise DegeneracyError("rejected")
        return analytic(variant, c, gap_tol)

    monkeypatch.setattr(verify, "analytic_spectrum", reject_first_block)
    sampled = [c for c, _ in verify._random_couplings(seed, 10, n, Variant.XYZ)]
    rows = rng.run_uniforms(verify._stream(seed, 10), 0, 5 * n, 3)
    assert seen == [CouplingSet(*(6.0 * x - 3.0 for x in row)) for row in rows]
    assert sampled == seen[4 * n:]


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_solver_samples_pair_either_split_sign_with_either_b(monkeypatch, seed):
    drawn = []
    rooted = verify.solve_by_root_finding

    def recording(theta, d, split, b):
        drawn.append((split > 0.0, b >= 0.5))
        return rooted(theta, d, split, b=b)

    monkeypatch.setattr(verify, "solve_by_root_finding", recording)
    assert verify.check_solver_agreement(seed).ok
    assert set(drawn) == set(itertools.product((True, False), repeat=2))


def test_evolution_check_fails_for_an_evolve_that_ignores_t(monkeypatch):
    assert verify.check_evolution_invariance().ok
    evolve = verify.evolve
    monkeypatch.setattr(verify, "evolve", lambda state, spectrum, t: evolve(state, spectrum, 0.0))
    assert not verify.check_evolution_invariance().ok


def test_negative_control_fails_at_a_theta_where_the_bad_couplings_still_fit(monkeypatch):
    # An alpha that puts the first grid theta (0.05) back on the constraint.
    monkeypatch.setattr(verify, "constraint", lambda s, d, theta: math.cos(math.pi / 2.0 - 0.05 + theta))
    result = verify.check_soc_negative_control()
    assert not result.ok
    assert result.line() == "FAIL soc-negative-control: violation 6.123e-17 too small at theta 0.050"


def _flipped(decision):
    return dataclasses.replace(decision, feasible=not decision.feasible)


@pytest.mark.parametrize(
    "supports, detail",
    [
        (4, "both-overlap feasible for xyz"),
        (2, "single-overlap problem infeasible (xyz, branch u)"),
    ],
)
def test_exclusion_check_fails_a_flipped_support_problem(monkeypatch, supports, detail):
    def lying(prob, **kwargs):
        decision = ontology.lp_feasible(prob, **kwargs)
        return _flipped(decision) if len(prob.supports) == supports else decision

    monkeypatch.setattr(verify, "lp_feasible", lying)
    assert verify.check_exclusion_feasibility().line() == f"FAIL exclusion-feasibility: {detail}"


def test_simulation_check_fails_born_weights_the_runs_do_not_show(monkeypatch):
    monkeypatch.setattr(verify, "born_probabilities", lambda state, spectrum: (0.25,) * 4)
    result = verify.check_simulation_stats(42, n_runs=20_000)
    assert not result.ok
    assert result.line().startswith("FAIL simulation-statistics: 20000 clean runs: forbidden hits 0; ")
    assert "Born within 3 sigma: False;" in result.line()


def test_simulation_check_fails_a_clean_table_with_forbidden_hits(monkeypatch):
    passing = verify.check_simulation_stats(42, n_runs=20_000)
    simulate = verify.simulate

    def leaking(inst, n_runs, seed, noise_eps, **kwargs):
        table = simulate(inst, n_runs, seed, noise_eps, **kwargs)
        if noise_eps:
            return table
        # Three v*u runs move from e1 to the forbidden e3; the u*u row the Born check reads stays.
        counts = [list(row) for row in table.counts]
        counts[2][0] -= 3
        counts[2][2] += 3
        return dataclasses.replace(table, counts=tuple(map(tuple, counts)))

    monkeypatch.setattr(verify, "simulate", leaking)
    result = verify.check_simulation_stats(42, n_runs=20_000)
    assert passing.line().startswith("PASS simulation-statistics: 20000 clean runs: forbidden hits 0; ")
    expected = passing.line().replace("PASS", "FAIL", 1).replace("forbidden hits 0;", "forbidden hits 3;", 1)
    assert result.line() == expected


def _swapped_relations(deduce):
    swap = {Relation.DISJOINT: Relation.AT_LEAST_ONE_DISJOINT, Relation.AT_LEAST_ONE_DISJOINT: Relation.DISJOINT}
    return lambda inst, decision: [dataclasses.replace(v, relation=swap[v.relation]) for v in deduce(inst, decision)]


def test_verdict_checks_fail_a_swapped_relation(monkeypatch):
    assert verify.check_special_case_verdicts().ok and verify.check_cross_protocol().ok
    monkeypatch.setattr(verify, "deduce", _swapped_relations(verify.deduce))
    assert verify.check_special_case_verdicts().line() == (
        "FAIL special-case-verdicts: theta=pi/4 gives disjoint(u, v); theta=pi/3 gives only the disjunctions"
    )
    assert verify.check_cross_protocol().line() == (
        "FAIL cross-protocol-consistency: at theta=pi/4 the spin-orbit disjoint(u, v) settles the exchange disjunction"
    )


def _mapped_pairs(deduce, f):
    return lambda inst, decision: [dataclasses.replace(v, pairs=f(v.pairs)) for v in deduce(inst, decision)]


def test_cross_protocol_is_a_membership_test(monkeypatch):
    deduce = verify.deduce
    monkeypatch.setattr(verify, "deduce", _mapped_pairs(deduce, lambda pairs: pairs[::-1]))
    assert verify.check_cross_protocol().ok
    monkeypatch.setattr(verify, "deduce", _mapped_pairs(deduce, lambda pairs: (("u", "w"),) if len(pairs) == 1 else pairs))
    assert not verify.check_cross_protocol().ok


def test_oracle_check_counts_a_simplex_that_flips_one_zeroed_set(monkeypatch):
    decide = ontology._decide
    monkeypatch.setattr(
        ontology, "_decide", lambda mask: _flipped(decide(mask)) if mask == 5 else decide(mask)
    )
    result = verify.check_simplex_oracle()
    assert result.line() == (
        "FAIL simplex-vs-subset-rule: 15/16 decisions agree (16 zeroed sets, exact rationals)"
    )
