"""Tests of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys
import threading

import pytest

import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _pbrlab_namespaces() -> dict[str, dict]:
    return {n: dict(vars(m)) for n, m in sys.modules.items() if n == "pbrlab" or n.startswith("pbrlab.")}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_runs_tiny_within_limits(name, monkeypatch):
    """Correct outputs, traced equal to untraced, wrappers restored, bounded concurrency."""
    nproc = len(os.sched_getaffinity(0))
    if nproc < 2:
        pytest.skip("the tally contract check runs two worker threads")
    run.load_workloads()
    before = _pbrlab_namespaces()
    peak = {"threads": 0, "processes": 0}
    live = {"processes": 0}
    baseline_threads = threading.active_count()
    start = threading.Thread.start

    def counting_start(self):
        start(self)
        peak["threads"] = max(peak["threads"], threading.active_count() - baseline_threads)

    class CountingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            live["processes"] += 1
            peak["processes"] = max(peak["processes"], live["processes"])

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                live["processes"] -= 1

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    monkeypatch.setattr(subprocess, "Popen", CountingPopen)
    result = run.run_workload(name, seed=7, seconds=0.05, trace=True, tiny=True)

    assert result["correct"], result["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 2
    after = _pbrlab_namespaces()
    for module, names in before.items():
        for key, value in names.items():
            assert after[module][key] is value, f"{module}.{key} was not restored"
    assert peak["processes"] <= 1
    # verify.check_determinism splits its runs over three threads; the
    # benchmark does not control that count.
    assert peak["threads"] <= (3 if name == "verify-sweep" else nproc)


def _result(*argv: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), *argv], cwd=run.ROOT, stdout=subprocess.PIPE, timeout=170
    )
    assert done.returncode == 0
    return json.loads(done.stdout.decode().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, section):
    result = _result("--workload", "decide-grid", "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_exits_nonzero_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide-grid", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={"PATH": os.environ["PATH"]}, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == b""


def test_self_time_subtracts_the_union_of_children():
    parent = spans.Span("p", 0.0, 10.0)
    children = [spans.Span("c", a, b, parent=parent) for a, b in ((1.0, 3.0), (2.0, 5.0), (7.0, 8.0))]
    stats = spans.aggregate([*children, parent])
    assert stats["p"].self_s == pytest.approx(10.0 - 4.0 - 1.0)
    assert stats["c"].calls == 3 and stats["c"].self_s == pytest.approx(6.0)


def test_tracer_wraps_every_importing_module():
    run.load_workloads()
    import pbrlab.protocol
    import pbrlab.rng

    original = pbrlab.rng.run_uniforms
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pbrlab.rng.run_uniforms is not original
        assert pbrlab.protocol.run_uniforms is pbrlab.rng.run_uniforms
        pbrlab.rng.run_uniforms(1, 0, 3, 4)
    finally:
        tracer.restore()
    assert pbrlab.rng.run_uniforms is original and pbrlab.protocol.run_uniforms is original
    [span] = tracer.spans
    assert span.name == "rng.run_uniforms" and span.counts == {"draws": 12, "bytes": 96}
