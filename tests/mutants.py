"""Seeded defects of the package, as data: what the checks are expected to catch.

Each mutant replaces one exact text of one file under ``src/`` (the old text
occurs there exactly once, which ``tests/test_mutants.py`` keeps true) and
names its expected killers:

- ``verify-all``: ``pbrlab verify-all --seed 42`` exits non-zero;
- a Tier-1 test file, such as ``tests/test_protocol.py``: pytest on that file fails;
- ``equivalent: <reason>``: no check can see it, for the reason given.

``tests/run_mutants.py`` applies one mutant at a time to a copy of the tree,
runs its killers and prints the table.  Stdlib only; pytest does not collect
this module.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killers: tuple[str, ...]


HAMILTONIAN = "src/pbrlab/hamiltonian.py"
PROTOCOL = "src/pbrlab/protocol.py"
SOLVER = "src/pbrlab/coupling_solver.py"

MUTANTS = (
    # The tally kernel.  No verify-all simulation crosses a 2^16-run block, so only Tier-1 sees this one.
    Mutant(
        "block counter skips a run per block", PROTOCOL,
        "base += stride * _BLOCK", "base += stride * (_BLOCK + 1)",
        ("tests/test_protocol.py",),
    ),
    # A threshold one word low moves a cell by 2^-53: no sampled statistic sees it, only exact tests.
    Mutant(
        "ceil -> floor in rng.least_word", "src/pbrlab/rng.py",
        "math.ceil(u * _UNIFORMS)", "math.floor(u * _UNIFORMS)",
        ("tests/test_rng.py",),
    ),
    # Subnormal keys tally the same bits unless the CPU flushes denormals to zero; Tier-1 pins the key range.
    Mutant(
        "key base 0: subnormal keys", PROTOCOL,
        "_KEY_BASE = 1 << 61", "_KEY_BASE = 0",
        ("tests/test_protocol.py",),
    ),
    Mutant(
        "preparation field one bit low", PROTOCOL,
        "_PREP_SHIFT = 64 - UNIFORM_SHIFT", "_PREP_SHIFT = 63 - UNIFORM_SHIFT",
        ("verify-all", "tests/test_protocol.py"),
    ),
    # Each round-robin row starts one run early, so the rows no longer sum to the range:
    # the kernel contract's LogicError is the FAIL line of both simulating checks.
    Mutant(
        "round-robin row start one run early", PROTOCOL,
        "(lo + 3 - p) // 4, (hi + 3 - p) // 4", "(lo + 2 - p) // 4, (hi + 3 - p) // 4",
        ("verify-all", "tests/test_protocol.py"),
    ),
    Mutant(
        "outcome key shift one bit short", PROTOCOL,
        "k >>= np.uint64(UNIFORM_SHIFT)", "k >>= np.uint64(UNIFORM_SHIFT - 1)",
        ("verify-all", "tests/test_protocol.py"),
    ),
    # The input rules and the kernel's contract.
    Mutant(
        "tolerance check removed", "src/pbrlab/params.py",
        "if not 0.0 <= value < math.inf:", "if False:",
        ("tests/test_params.py",),
    ),
    Mutant(
        "kernel contract check removed", PROTOCOL,
        "if (total < 0).any() or total.sum() != n_runs:", "if False:",
        ("tests/test_protocol.py",),
    ),
    # The coupling solvers and the mixing angle they solve for.
    Mutant(
        "closed form's factor 2 dropped", SOLVER,
        "ssum = 2.0 * d * math.cos", "ssum = d * math.cos",
        ("verify-all", "tests/test_coupling_solver.py"),
    ),
    Mutant(
        "bisection's branch assignments swapped", SOLVER,
        "            lo = mid\n        else:\n            hi = mid\n",
        "            hi = mid\n        else:\n            lo = mid\n",
        ("verify-all", "tests/test_coupling_solver.py"),
    ),
    Mutant(
        "mixing_angle's s < 0 branch d / total", "src/pbrlab/params.py",
        "else 2.0 * d / total)", "else d / total)",
        ("verify-all", "tests/test_coupling_solver.py"),
    ),
    # The physics: a forbidden map with two outcomes swapped.
    Mutant(
        "exchange forbidden outcomes e4 and e2 swapped", PROTOCOL,
        '(Variant.XYZ, ("e4", "e2", "e3", "e1"))', '(Variant.XYZ, ("e2", "e4", "e3", "e1"))',
        ("verify-all", "tests/test_symbolic.py"),
    ),
    # The matrix stays symmetric, so only the spectra can see it.
    Mutant(
        "diagonal entry's sign flipped in hamiltonian_entries", HAMILTONIAN,
        "(c, minus_d, d, a - b),", "(-c, minus_d, d, a - b),",
        ("verify-all", "tests/test_symbolic.py"),
    ),
    Mutant(
        "sign flip in e'3", HAMILTONIAN,
        "e3 = JointState((_RT2 * ca, _RT2 * sa, -_RT2 * sa, _RT2 * ca))",
        "e3 = JointState((_RT2 * ca, _RT2 * sa, _RT2 * sa, _RT2 * ca))",
        ("verify-all",),
    ),
    # Born weights cannot see a wrong t; only the states, against Sylvester's exp(-iHt), can.
    Mutant(
        "evolve run backwards", HAMILTONIAN,
        "cmath.exp(-1j * energy * t)", "cmath.exp(1j * energy * t)",
        ("verify-all", "tests/test_verify.py"),
    ),
    # The eigenvalue set is unchanged, so only rank pairing and evolve see the swap.
    Mutant(
        "e1 and e2 formulas swapped in params.xyz_eigenvalues", "src/pbrlab/params.py",
        "        c.a - c.b + c.c,\n        -c.a + c.b + c.c,\n", "        -c.a + c.b + c.c,\n        c.a - c.b + c.c,\n",
        ("verify-all", "tests/test_hamiltonian.py"),
    ),
    Mutant(
        "noise threshold halved in the tally kernel", PROTOCOL,
        "flip_end = least_word(noise_eps)", "flip_end = least_word(noise_eps / 2)",
        ("verify-all", "tests/test_protocol.py"),
    ),
    # The residual enclosure behind `spectrum`.  Without its rounding allowance a
    # radius is an estimate: the exact-rational oracle finds a residual above it.
    Mutant(
        "rounding allowance dropped from the residual radius", HAMILTONIAN,
        "    return numerator / _norm(parts[0] + parts[1]) + 2.0 * _U * rounded",
        "    return _norm(residual) / _norm(parts[0] + parts[1])",
        ("tests/test_hamiltonian.py",),
    ),
    Mutant(
        "residual Hx + Ex in place of Hx - Ex", HAMILTONIAN,
        "row[3] * part[3], -energy * x", "row[3] * part[3], energy * x",
        ("tests/test_hamiltonian.py", "tests/test_cli_golden.py"),
    ),
    # Tier-1 owns this one: every stack the package builds is real symmetric by
    # construction, so only a caller's non-Hermitian input reaches the check.
    Mutant(
        "Hermitian check removed from numeric_spectrum", HAMILTONIAN,
        "if not hermitian.all():", "if False:",
        ("tests/test_hamiltonian.py",),
    ),
    # Tier-1 owns this one too: at seed 42 the samplers' 1e-3 gap screen rejects
    # no draw, so verify-all never reaches a colliding spectrum.
    Mutant(
        "collision test dropped from params._check_gaps", "src/pbrlab/params.py",
        "    if colliding:\n", "    if False:\n",
        ("tests/test_hamiltonian.py",),
    ),
    # Tier-1 owns this one: any row order is a valid sample, so verify-all cannot
    # see it; test_a_rejected_first_block_reads_on_in_its_own_stream pins the rows
    # to run_uniforms'.
    Mutant(
        "sampled rows read one row on in verify._rows", "src/pbrlab/verify.py",
        "rng.uniform(stream, i, j, width)", "rng.uniform(stream, i + 1, j, width)",
        ("tests/test_verify.py",),
    ),
)
