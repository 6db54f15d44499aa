"""Full verification sweep behind the ``verify-all`` subcommand.

Runs every protocol invariant over fixed grids and seeded random draws,
printing one PASS/FAIL line per check.  Only the checks that draw take the
seed: both spectra, solver agreement, simulation statistics and determinism.
Each sampled check and each simulation reads its own counter stream of
:mod:`pbrlab.rng`, seeded ``splitmix64(seed, purpose)`` and read from counter
0, so no two of them share a word; a check reads only the draws it uses,
through the scalar ``rng.uniform``.  For a fixed (seed, n_runs) the report is
byte-identical across repeats, CPU counts and worker counts.  The lines that
rest on LAPACK ``eigh`` and the matrix product in ``check_evolution_invariance``
(the one check that imports numpy) can differ in their last digits from one
BLAS kernel to another; everything else is fixed-order IEEE or exact arithmetic.

These checks are the only implementation of each invariant: the acceptance
suite (``tests/test_acceptance.py``) calls them at larger sizes.  The spectrum
and solver checks take ``n`` draws, and the orthogonality checks and the
negative control an ``n``-point theta grid; the defaults are the sizes
``verify-all`` reports.  The LP checks are exhaustive and take no size.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass

from . import protocol, rng
from .coupling_solver import solve_by_root_finding, solve_closed_form
from .errors import DegeneracyError, PbrlabError, ValidationError
from .hamiltonian import Spectrum, bell_states, evolve, numeric_spectrum
from .ontology import (
    Relation,
    SupportProfile,
    build_problem,
    deduce,
    lp_feasible,
    problem_from_zeroed,
    single_overlap_branches,
    subset_rule_feasible,
)
from .params import (
    GAP_TOL, VERIFY_RUNS, VERIFY_SEED, CouplingSet, OverlapParams, PrepPolicy, Variant, constraint, overlap_bound
)
from .protocol import (
    analytic_spectrum,
    born_probabilities,
    default_couplings,
    hamiltonian_stack,
    numeric_pairing,
    orthogonality_residuals,
    simulate,
)
from .qstate import joint_overlap

#: Minimum eigenvalue gap of the randomly drawn couplings in the spectrum checks.
_SAMPLE_MIN_GAP = 1e-3


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.ok else 'FAIL'} {self.name}: {self.detail}"


def _theta_grid(n: int) -> list[float]:
    lo, hi = 0.05, math.pi / 2.0 - 0.05
    return [lo + (hi - lo) * k / (n - 1) for k in range(n)]


def _stream(seed: int, purpose: int) -> int:
    """Seed of the stream that ``purpose`` reads from counter 0: ``splitmix64(seed, purpose)``.

    Purposes: 10 exchange spectra, 20 spin-orbit spectra, 30 solver samples,
    40 clean and 50 noisy simulation, 60 determinism.
    """
    return rng.splitmix64(rng.validate_seed(seed), purpose)


def _rows(seed: int, purpose: int, width: int) -> Iterator[tuple[float, ...]]:
    """``purpose``'s stream as rows of ``width`` uniforms, read as they are asked for."""
    stream = _stream(seed, purpose)
    return (tuple(rng.uniform(stream, i, j, width) for j in range(width)) for i in itertools.count())


def _random_couplings(
    seed: int, purpose: int, n: int, variant: Variant
) -> list[tuple[CouplingSet, Spectrum]]:
    """n couplings uniform in [-3, 3) whose analytic spectrum has gaps >= 1e-3.

    Spin-orbit rows draw d as a fourth coupling and skip |d| < 0.05.  Each
    coupling set comes with its analytic spectrum.
    """
    soc = variant is Variant.SOC
    rows = _rows(seed, purpose, 4 if soc else 3)
    out = []
    while len(out) < n:
        c = CouplingSet(*(6.0 * x - 3.0 for x in next(rows)))
        if soc and abs(c.d) < 0.05:
            continue
        try:
            spectrum = analytic_spectrum(variant, c, _SAMPLE_MIN_GAP)
        except PbrlabError:
            continue
        out.append((c, spectrum))
    return out


def _numeric_agreement(
    variant: Variant, sampled: list[tuple[CouplingSet, Spectrum]]
) -> tuple[float, float]:
    """Max |dE| and max infidelity of the sampled analytic spectra against ``eigh``, each at least 0."""
    numeric, fidelity = numeric_pairing(variant, sampled, GAP_TOL)
    de = [abs(e - x) for (_, spec), row in zip(sampled, numeric.tolist()) for e, x in zip(spec.eigenvalues, row)]
    infidelity = [1.0 - f for row in fidelity.tolist() for f in row]
    return max([0.0, *de]), max([0.0, *infidelity])


def _pairing_failure(name: str, n: int, exc: DegeneracyError) -> CheckResult:
    # The sampled analytic gaps are >= _SAMPLE_MIN_GAP, so a numeric spectrum
    # that cannot be paired with them means the two routes disagree.
    return CheckResult(name, False, f"{n} random couplings, eigh does not pair with the analytic spectrum: {exc}")


def check_xyz_spectrum(seed: int, n: int = 250) -> CheckResult:
    sampled = _random_couplings(seed, 10, n, Variant.XYZ)
    try:
        max_de, max_infid = _numeric_agreement(Variant.XYZ, sampled)
    except DegeneracyError as exc:
        return _pairing_failure("xyz-spectrum-agreement", n, exc)
    ok = max_de <= 1e-10 and max_infid <= 1e-10
    return CheckResult(
        "xyz-spectrum-agreement",
        ok,
        f"{n} random couplings, max |dE| {max_de:.3e}, max infidelity {max_infid:.3e}",
    )


def check_soc_spectrum(seed: int, n: int = 250) -> CheckResult:
    sampled = _random_couplings(seed, 20, n, Variant.SOC)
    try:
        max_de, max_infid = _numeric_agreement(Variant.SOC, sampled)
    except DegeneracyError as exc:
        return _pairing_failure("soc-spectrum-agreement", n, exc)
    exact_fixed = all(spec.eigenvectors[:2] == bell_states()[1:3] for _, spec in sampled)
    max_cross = max((abs(joint_overlap(*spec.eigenvectors[2:])) for _, spec in sampled), default=0.0)
    ok = max_de <= 1e-10 and max_infid <= 1e-10 and exact_fixed and max_cross <= 1e-12
    return CheckResult(
        "soc-spectrum-agreement",
        ok,
        f"{n} random couplings, max |dE| {max_de:.3e}, max infidelity {max_infid:.3e}, "
        f"fixed Bell eigenvectors exact: {exact_fixed}, max |<e'3|e'4>| {max_cross:.3e}",
    )


def _worst_residual(variant: Variant, n: int, phis: tuple[float, ...]) -> float:
    """The largest orthogonality residual over an n-point theta grid x ``phis``, default couplings."""
    worst = 0.0
    for theta in _theta_grid(n):
        couplings = default_couplings(variant, theta)
        for phi in phis:
            res = orthogonality_residuals(variant, OverlapParams(theta, phi), couplings)
            worst = max(worst, max(res.values()))
    return worst


def check_xyz_orthogonality(n: int = 24) -> CheckResult:
    worst = _worst_residual(Variant.XYZ, n, tuple(2.0 * math.pi * k / 8.0 for k in range(8)))
    ok = worst <= 1e-12
    return CheckResult(
        "xyz-orthogonality", ok, f"{n}x8 (theta, phi) grid, max residual {worst:.3e}"
    )


def check_soc_orthogonality(n: int = 24) -> CheckResult:
    worst = _worst_residual(Variant.SOC, n, (0.0,))
    ok = worst <= 1e-12
    return CheckResult(
        "soc-orthogonality", ok, f"{n} theta grid, constraint couplings, max residual {worst:.3e}"
    )


def check_soc_negative_control(n: int = 12) -> CheckResult:
    weakest = math.inf
    for theta in _theta_grid(n):
        good = default_couplings(Variant.SOC, theta)
        bad = CouplingSet(good.a + 0.25, good.b, good.c + 0.25, good.d)
        violation = abs(constraint(bad.a + bad.c, bad.d, theta))
        if violation < 1e-3:
            return CheckResult(
                "soc-negative-control", False, f"violation {violation:.3e} too small at theta {theta:.3f}"
            )
        res = orthogonality_residuals(Variant.SOC, OverlapParams(theta), bad)
        weakest = min(weakest, max(res.values()))
    ok = weakest > 1e-4
    return CheckResult(
        "soc-negative-control",
        ok,
        f"{n} theta grid, off-constraint couplings, min of max residuals {weakest:.3e} > 1e-4",
    )


def check_solver_agreement(seed: int, n: int = 60) -> CheckResult:
    max_gap = 0.0
    done = 0
    for row in itertools.islice(_rows(seed, 30, 5), n):
        theta = 0.1 + (math.pi / 2.0 - 0.2) * row[0]
        d = 0.1 + 2.9 * row[1]
        split = (0.5 + 2.0 * row[2]) * (1.0 if row[4] < 0.5 else -1.0)
        b = 0.2 + 0.6 * row[3]
        try:
            closed = solve_closed_form(theta, d, split, b=b)
            rooted = solve_by_root_finding(theta, d, split, b=b)
        except DegeneracyError:
            continue
        done += 1
        gap = abs(
            (closed.couplings.a + closed.couplings.c)
            - (rooted.couplings.a + rooted.couplings.c)
        )
        max_gap = max(max_gap, gap)
    special = solve_closed_form(math.pi / 4.0, 1.0, 2.0, b=0.5)
    special_sum = abs(special.couplings.a + special.couplings.c)
    ok = max_gap <= 1e-8 and special_sum <= 1e-12 and done >= n - 5
    return CheckResult(
        "solver-agreement",
        ok,
        f"{done} samples, max |s_closed - s_root| {max_gap:.3e}; "
        f"theta=pi/4 sum {special_sum:.3e}",
    )


def _instance(variant: Variant, theta: float, phi: float = 0.0):
    """The default-coupling instance at (theta, phi); the checks, not its assembly, judge its forbidden map."""
    return protocol._assemble(variant, OverlapParams(theta, phi), default_couplings(variant, theta), GAP_TOL)


def check_exclusion_feasibility() -> CheckResult:
    # The problems depend on the variant's forbidden map, not on theta, so one
    # instance per variant poses every question the check asks.
    for variant in Variant:
        inst = _instance(variant, math.pi / 3.0)
        if lp_feasible(build_problem(inst, SupportProfile(True, True))).feasible:
            return CheckResult("exclusion-feasibility", False, f"both-overlap feasible for {variant.value}")
        for prof in (SupportProfile(True, False), SupportProfile(False, True)):
            for branch in single_overlap_branches(inst, prof):
                if not lp_feasible(build_problem(inst, prof, branch=branch)).feasible:
                    detail = f"single-overlap problem infeasible ({variant.value}, branch {branch})"
                    return CheckResult("exclusion-feasibility", False, detail)
    return CheckResult(
        "exclusion-feasibility",
        True,
        f"{len(Variant)} variants x 5 support problems: both-overlap infeasible, "
        "all single-overlap branches feasible",
    )


def check_simplex_oracle() -> CheckResult:
    inst = _instance(Variant.XYZ, math.pi / 3.0)
    subsets = [z for k in range(5) for z in itertools.combinations(inst.outcome_labels, k)]
    problems = [problem_from_zeroed(inst, zeroed) for zeroed in subsets]
    agreements = sum(lp_feasible(prob).feasible == subset_rule_feasible(prob) for prob in problems)
    return CheckResult(
        "simplex-vs-subset-rule",
        agreements == len(problems),
        f"{agreements}/{len(problems)} decisions agree ({len(problems)} zeroed sets, exact rationals)",
    )


def _records(variant: Variant, theta: float) -> list:
    """The (relation, pairs) record of each verdict deduced at theta with the default couplings."""
    inst = _instance(variant, theta)
    verdicts = deduce(inst, lp_feasible(build_problem(inst, SupportProfile(True, True))))
    return [(v.relation, v.pairs) for v in verdicts]


def check_special_case_verdicts() -> CheckResult:
    cases = ((Variant.SOC, math.pi / 4.0), (Variant.SOC, math.pi / 3.0), (Variant.XYZ, math.pi / 3.0))
    ok = [_records(variant, theta) for variant, theta in cases] == [
        [(Relation.DISJOINT, (("u", "v"),))],
        [(Relation.AT_LEAST_ONE_DISJOINT, (("u", "v"), ("u", "w")))],
        [(Relation.AT_LEAST_ONE_DISJOINT, (("u", "v"), ("u", "vbar")))],
    ]
    return CheckResult(
        "special-case-verdicts",
        ok,
        "theta=pi/4 gives disjoint(u, v); theta=pi/3 gives only the disjunctions",
    )


def check_cross_protocol() -> CheckResult:
    soc_relation, soc_pairs = _records(Variant.SOC, math.pi / 4.0)[0]
    xyz_relation, xyz_pairs = _records(Variant.XYZ, math.pi / 4.0)[0]
    # disjoint(u, v) from one procedure satisfies the other's disjunction over
    # (u, v), (u, vbar): the same pair is one of its disjuncts.
    implies = (
        (soc_relation, xyz_relation) == (Relation.DISJOINT, Relation.AT_LEAST_ONE_DISJOINT)
        and soc_pairs[0] in xyz_pairs
    )
    return CheckResult(
        "cross-protocol-consistency",
        implies,
        "at theta=pi/4 the spin-orbit disjoint(u, v) settles the exchange disjunction",
    )


def check_simulation_stats(seed: int, n_runs: int = VERIFY_RUNS, n_workers: int = 1) -> CheckResult:
    inst = _instance(Variant.XYZ, math.pi / 3.0)
    clean = simulate(
        inst, n_runs, seed=_stream(seed, 40), noise_eps=0.0, prep_policy="roundrobin", n_workers=n_workers
    )
    counts = dict(zip(inst.prep_labels, clean.counts))
    forbidden_hits = sum(counts[prep][inst.outcome_labels.index(out)] for prep, out in inst.forbidden)
    born = born_probabilities(dict(inst.preparations)["u*u"], inst.spectrum)
    n_uu = sum(counts["u*u"])
    born_ok = True
    for outcome, p in zip(inst.outcome_labels, born):
        sigma = math.sqrt(p * (1.0 - p) / n_uu) if 0.0 < p < 1.0 else 0.0
        if abs(clean.frequency("u*u", outcome) - p) > max(3.0 * sigma, 1e-12):
            born_ok = False
    noisy = simulate(
        inst, n_runs, seed=_stream(seed, 50), noise_eps=0.04, prep_policy="roundrobin", n_workers=n_workers
    )
    expected = 0.04 / 4.0
    sigma = math.sqrt(expected * (1.0 - expected) / (n_runs / 4.0))
    noise_ok = all(abs(rate - expected) <= 3.0 * sigma for _, rate in noisy.forbidden_rates)
    bound = overlap_bound(noisy.eps_hat)
    bound_ok = abs(bound - 0.04) <= 12.0 * sigma
    ok = forbidden_hits == 0 and born_ok and noise_ok and bound_ok
    return CheckResult(
        "simulation-statistics",
        ok,
        f"{n_runs} clean runs: forbidden hits {forbidden_hits}; Born within 3 sigma: {born_ok}; "
        f"noise 0.04 -> eps_hat {noisy.eps_hat:.5f}, bound {bound:.5f}",
    )


def check_phi_independence() -> CheckResult:
    worst = 0.0
    for variant in Variant:
        for theta in _theta_grid(8):
            reference = None
            for phi in [2.0 * math.pi * k / 6.0 for k in range(6)]:
                inst = _instance(variant, theta, phi)
                born = [x for _, prep in inst.preparations for x in born_probabilities(prep, inst.spectrum)]
                if reference is None:
                    reference = born
                else:
                    worst = max(worst, *(abs(x - y) for x, y in zip(born, reference)))
    ok = worst <= 1e-12
    return CheckResult(
        "phi-independence", ok, f"max Born deviation across phi grid {worst:.3e}"
    )


def check_evolution_invariance() -> CheckResult:
    # Born weights in H's own eigenbasis stay put under any map diagonal in it,
    # so only the evolved states, held against exp(-iHt) from eigh, show a wrong t.
    import numpy as np

    instances = [_instance(v, theta) for theta in _theta_grid(12) for v in Variant]
    times = (0.0, 0.37, 2.5, -4.0)
    size = f"{len(instances)} instances x {len(times)} times"
    stack = np.concatenate([hamiltonian_stack(inst.variant, [inst.couplings]) for inst in instances])
    values, vectors = numeric_spectrum(stack, GAP_TOL)
    differences = []
    worst_born = 0.0
    for inst, energies, basis in zip(instances, values, vectors):
        unitaries = [(basis * np.exp(-1j * energies * t)) @ basis.conj().T for t in times]
        for _, prep in inst.preparations:
            before = born_probabilities(prep, inst.spectrum)
            for t, unitary in zip(times, unitaries):
                try:
                    evolved = evolve(prep, inst.spectrum, t)
                except ValidationError as exc:  # an analytic basis that is not orthonormal
                    return CheckResult("evolution-invariance", False, f"{size}, evolve's result is not a state: {exc}")
                differences.append(np.subtract(evolved.vector, unitary @ prep.vector))
                after = born_probabilities(evolved, inst.spectrum)
                worst_born = max(worst_born, max(abs(x - y) for x, y in zip(before, after)))
    worst_state = float(np.max(np.abs(differences)))
    ok = worst_state <= 1e-12 and worst_born <= 1e-12
    return CheckResult(
        "evolution-invariance",
        ok,
        f"{size}, max |evolve - exp(-iHt) from eigh| {worst_state:.3e}, max Born shift {worst_born:.3e}",
    )


def check_determinism(seed: int, n_runs: int = 50_000) -> CheckResult:
    inst = _instance(Variant.SOC, 1.0)
    stream = _stream(seed, 60)
    one = simulate(inst, n_runs, seed=stream, noise_eps=0.02, prep_policy=PrepPolicy.UNIFORM)
    again = simulate(inst, n_runs, seed=stream, noise_eps=0.02, prep_policy=PrepPolicy.UNIFORM)
    round_robin = simulate(inst, n_runs, seed=stream, noise_eps=0.02, prep_policy=PrepPolicy.ROUND_ROBIN)
    # Three ranges with odd bounds, summed as a worker pool sums its chunks but
    # in this thread, so neither the work nor the report depends on the CPU count.
    # Under round-robin the bounds also test where each preparation's row starts.
    born = inst.born_matrix()
    bounds = (0, n_runs // 3 + 1, 2 * n_runs // 3 + 2, n_runs)
    split3 = True
    for policy, table in ((PrepPolicy.UNIFORM, one), (PrepPolicy.ROUND_ROBIN, round_robin)):
        ranges = [protocol._tally_chunk(lo, hi, stream, born, 0.02, policy) for lo, hi in zip(bounds, bounds[1:])]
        split3 = split3 and sum(ranges).tolist() == [list(row) for row in table.counts]
    ok = one == again and split3
    return CheckResult(
        "determinism", ok, f"{n_runs} runs: repeat identical {one == again}, 3 run ranges identical {split3}"
    )


def run_all(seed: int = VERIFY_SEED, n_runs: int = VERIFY_RUNS, n_workers: int = 1) -> tuple[str, bool]:
    """Execute every check; returns (report text, all passed).  Bad sizes or seeds raise before any check runs."""
    protocol._check_count("n_runs", n_runs)
    if n_runs < 4:
        raise ValidationError(f"n_runs must be >= 4 so every preparation gets a run, got {n_runs}")
    protocol._check_count("n_workers", n_workers)
    rng.validate_seed(seed)
    checks = [
        check_xyz_spectrum(seed),
        check_soc_spectrum(seed),
        check_xyz_orthogonality(),
        check_soc_orthogonality(),
        check_soc_negative_control(),
        check_solver_agreement(seed),
        check_exclusion_feasibility(),
        check_simplex_oracle(),
        check_special_case_verdicts(),
        check_cross_protocol(),
        check_simulation_stats(seed, n_runs=n_runs, n_workers=n_workers),
        check_phi_independence(),
        check_evolution_invariance(),
        check_determinism(seed),
    ]
    passed = sum(1 for c in checks if c.ok)
    lines = [f"verification sweep (seed {seed})"]
    lines += [c.line() for c in checks]
    lines.append(f"{passed}/{len(checks)} checks passed")
    return "\n".join(lines) + "\n", passed == len(checks)
