"""The benchmark's span tracer still finds every function it wraps.

``Tracer.install()`` skips a target whose name is gone, so renaming a traced
function would silently zero its per-layer metrics; this test fails instead.
Likewise a check that ``verify.run_all`` runs but ``VERIFY_CHECKS`` does not
list would never be traced.  The workloads also call the package in two
shapes that select nothing any more: decide-grid passes ``lp_feasible(prob,
exact=...)`` and cli-oneshot runs ``feasibility ... --exact``.  Both must stay
accepted until the benchmark stops using them, or its runs would fail.
"""

import importlib
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import TARGETS, VERIFY_CHECKS  # noqa: E402

from pbrlab import cli, ontology, verify  # noqa: E402
from pbrlab.ontology import SupportProfile  # noqa: E402
from pbrlab.params import Variant  # noqa: E402
from pbrlab.simplex import phase1_feasible  # noqa: E402


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


@pytest.mark.parametrize("prof", [SupportProfile(True, True), SupportProfile(True, False)])
def test_decide_grid_call_shapes_give_one_decision(monkeypatch, prof):
    calls = []

    def recording(a, b):
        calls.append(a)
        return phase1_feasible(a, b)

    monkeypatch.setattr(ontology, "phase1_feasible", recording)
    ontology._decide.cache_clear()
    prob = ontology.build_problem(verify._instance(Variant.SOC, math.pi / 3.0), prof)
    plain, exact = (ontology.lp_feasible(prob, exact=flag) for flag in (False, True))
    assert (plain.feasible, plain.witness, plain.certificate) == (
        exact.feasible, exact.witness, exact.certificate
    )
    assert len(calls) == 1


@pytest.mark.parametrize("overlap", ["a", "b", "both"])
def test_cli_oneshot_exact_feasibility_exits_0(capsys, overlap):
    argv = ["feasibility", "--variant", "xyz", "--theta", "1.0", "--overlap", overlap, "--exact"]
    assert cli.main(argv) == 0
    assert '"method": "phase1-simplex-exact"' in capsys.readouterr().out
