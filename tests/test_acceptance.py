"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Each criterion runs the ``verify-all`` checks of :mod:`pbrlab.verify` at the
criterion's pinned size (the sampled checks take ``n`` draws, the grid checks
an ``n``-point theta grid, the exhaustive LP checks no size), so every
invariant has one implementation and the tolerances are the ones those checks
fix.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import math
import subprocess
import sys

import numpy as np

from pbrlab import (
    CouplingSet,
    OverlapParams,
    Variant,
    bell_states,
    make_protocol,
    simulate,
    verify,
)
from pbrlab.protocol import hamiltonian_stack
from pbrlab.verify import CheckResult


def report(criterion: str, *results: CheckResult) -> None:
    ok = all(r.ok for r in results)
    print(f"{'PASS' if ok else 'FAIL'} {criterion}: " + "; ".join(r.line() for r in results))
    assert ok, [r.line() for r in results if not r.ok]


def test_criterion_1_xyz_spectrum_oracle():
    """Analytic exchange spectrum vs LAPACK `eigh`, 1000 draws."""
    report("criterion 1 (exchange spectrum)", verify.check_xyz_spectrum(101, n=1000))


def test_criterion_2_soc_spectrum_oracle():
    """Spin-orbit spectrum vs LAPACK `eigh`; fixed eigenvectors exact; block diagonalized."""
    pair = np.array([b.vector for b in bell_states()])[[0, 3]]  # (Phi+, Psi-)
    max_res, max_off = 0.0, 0.0
    sampled = verify._random_couplings(202, 20, 1000, Variant.SOC)
    for (_, spec), h in zip(sampled, hamiltonian_stack(Variant.SOC, [c for c, _ in sampled])):
        for value, vec in zip(spec.eigenvalues, spec.eigenvectors):
            v = np.asarray(vec.vector)
            max_res = max(max_res, float(np.max(np.abs(h @ v - value * v))))
        ca, sa = math.cos(spec.alpha), math.sin(spec.alpha)
        rot = np.array([[ca, -sa], [sa, ca]])
        rotated = rot.T @ (pair.conj() @ h @ pair.T).real @ rot
        max_off = max(max_off, abs(rotated[0, 1]), abs(rotated[1, 0]))
    direct = CheckResult(
        "soc-eigen-residual",
        max_res <= 1e-12 and max_off <= 1e-12,
        f"same 1000 couplings, eigen residual {max_res:.3e}, block off-diagonal {max_off:.3e}",
    )
    report("criterion 2 (spin-orbit spectrum)", verify.check_soc_spectrum(202, n=1000), direct)


def test_criterion_3_xyz_orthogonality():
    """Forbidden-outcome overlaps vanish on a 63x8 = 504-point (theta, phi) grid."""
    report("criterion 3 (exchange orthogonality)", verify.check_xyz_orthogonality(n=63))


def test_criterion_4_soc_orthogonality_with_negative_control():
    """Constraint couplings annihilate the overlaps; off-constraint ones do not."""
    report(
        "criterion 4 (spin-orbit orthogonality)",
        verify.check_soc_orthogonality(n=500),
        verify.check_soc_negative_control(n=50),
    )


def test_criterion_5_coupling_solver():
    """Closed form vs bisection over 200 draws; exact special case."""
    report("criterion 5 (coupling solver)", verify.check_solver_agreement(505, n=200))


def test_criterion_6_exclusion_argument():
    """Both-overlap infeasible, single overlaps feasible; simplex equals oracle."""
    report(
        "criterion 6 (exclusion argument)",
        verify.check_exclusion_feasibility(),
        verify.check_simplex_oracle(),
    )


def test_criterion_7_special_case_verdicts():
    """Exact logical outputs at theta = pi/4 and theta = pi/3."""
    report("criterion 7 (special-case verdict)", verify.check_special_case_verdicts())


def test_criterion_8_simulation_statistics():
    """Zero-noise forbids forbidden outcomes; Born and noise statistics in 3 sigma."""
    report(
        "criterion 8 (simulation statistics)",
        verify.check_simulation_stats(814, n_runs=4_000_000),
    )


def test_criterion_9_cross_protocol_consistency():
    """The spin-orbit verdict at theta = pi/4 implies the exchange disjunction."""
    report("criterion 9 (cross-protocol consistency)", verify.check_cross_protocol())


def test_criterion_10_determinism(package_env):
    """Byte-identical reports for a fixed seed, in process and from the CLI; worker-count independence."""
    report_a, ok_a = verify.run_all(seed=5, n_runs=20_000)
    report_b, ok_b = verify.run_all(seed=5, n_runs=20_000)
    in_process = report_a == report_b and ok_a and ok_b

    cmd = [sys.executable, "-m", "pbrlab.cli", "verify-all", "--seed", "5", "--runs", "20000"]
    first = subprocess.run(cmd, capture_output=True, env=package_env, timeout=300)
    second = subprocess.run(cmd, capture_output=True, env=package_env, timeout=300)
    cli_identical = (
        first.returncode == 0
        and second.returncode == 0
        and first.stdout == second.stdout == report_a.encode()
    )

    inst = make_protocol(Variant.XYZ, OverlapParams(0.8), CouplingSet(1, 2, 3))
    base = simulate(inst, 100_000, seed=5, noise_eps=0.03)
    workers_ok = all(
        simulate(inst, 100_000, seed=5, noise_eps=0.03, n_workers=w) == base
        for w in (2, 5)
    )
    report(
        "criterion 10 (determinism)",
        CheckResult(
            "determinism",
            in_process and cli_identical and workers_ok,
            f"repeat reports identical: {in_process}; CLI byte-identical: {cli_identical}; "
            f"worker-count independent: {workers_ok}",
        ),
    )
