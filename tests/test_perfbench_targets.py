"""The benchmark's span tracer still finds every function it wraps.

``Tracer.install()`` skips a target whose name is gone, so renaming a traced
function would silently zero its per-layer metrics; this test fails instead.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import TARGETS  # noqa: E402


@pytest.mark.parametrize("home, attr", [(home, attr) for home, attr, _, _ in TARGETS])
def test_target_resolves_to_a_callable(home, attr):
    assert callable(getattr(importlib.import_module(home), attr, None))
