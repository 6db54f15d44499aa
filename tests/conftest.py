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
