"""The mutant list of ``tests/mutants.py`` cannot rot silently.

Each old text must occur exactly once in its file, so every mutant still
applies to one place; each killer must be ``verify-all``, a test file that
exists, or an ``equivalent: <reason>``.  Running the mutants is
``tests/run_mutants.py``'s job, not Tier-1's.
"""

from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_killers_are_known(mutant):
    assert mutant.killers
    for killer in mutant.killers:
        assert killer == "verify-all" or killer.startswith("equivalent: ") or (ROOT / killer).is_file(), killer


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
