"""The benchmark's span tracer still finds every function it wraps.

``Tracer.install()`` skips a target whose name is gone, so renaming a traced
function would silently zero its per-layer metrics; this test fails instead.
Likewise a check that ``verify.run_all`` runs but ``VERIFY_CHECKS`` does not
list would never be traced.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import TARGETS, VERIFY_CHECKS  # noqa: E402

from pbrlab import verify  # noqa: E402


@pytest.mark.parametrize("home, attr", [(home, attr) for home, attr, _, _ in TARGETS])
def test_target_resolves_to_a_callable(home, attr):
    assert callable(getattr(importlib.import_module(home), attr, None))


def test_run_all_runs_exactly_the_traced_checks(monkeypatch):
    defined = [name for name in vars(verify) if name.startswith("check_")]
    assert sorted(defined) == sorted(f"check_{c}" for c in VERIFY_CHECKS)
    called = []
    for name in defined:
        def recorder(*args, _name=name, **kwargs):
            called.append(_name.removeprefix("check_"))
            return verify.CheckResult(_name, True, "recorded")

        monkeypatch.setattr(verify, name, recorder)
    verify.run_all(seed=0)
    assert called == list(VERIFY_CHECKS)
