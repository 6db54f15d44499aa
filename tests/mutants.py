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


PROTOCOL = "src/pbrlab/protocol.py"

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
    # The physics: a forbidden map with two outcomes swapped.
    Mutant(
        "exchange forbidden outcomes e4 and e2 swapped", PROTOCOL,
        '(Variant.XYZ, ("e4", "e2", "e3", "e1"))', '(Variant.XYZ, ("e2", "e4", "e3", "e1"))',
        ("verify-all", "tests/test_symbolic.py"),
    ),
)
