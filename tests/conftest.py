"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

import pbrlab


@pytest.fixture
def package_env() -> dict:
    """The environment of a child Python that imports this checkout's pbrlab."""
    src = str(Path(pbrlab.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture
def check_calls(monkeypatch) -> list:
    """The names of the ``verify.check_*`` functions called, in order; each call passes without work."""
    from pbrlab import verify

    calls = []
    for name in [name for name in vars(verify) if name.startswith("check_")]:
        def recorder(*args, _name=name, **kwargs):
            calls.append(_name)
            return verify.CheckResult(_name, True, "recorded")

        monkeypatch.setattr(verify, name, recorder)
    return calls
