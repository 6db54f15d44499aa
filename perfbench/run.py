#!/usr/bin/env python3
"""pbrlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of the workloads in BENCHMARK.json.  A run sets the workload up
(import, seeded input generation, one warm-up operation), runs operations
back to back for S seconds, checks every output, checks the simulate contract
exactly, and prints one line per metric (value, unit, sample count), the run
environment, and as its last line a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with tracing
off.  ``best_ops_per_s`` counts each distinct input at the fastest of its
repeats in the run, as ``timeit`` does: on a shared host the slower repeats
mostly measure other tenants (on a shared 2-vCPU Xeon, CPU speed swung by up
to 1.7x within one 20 s run).  Mean throughput and the median operation time
are printed beside it.  ``setup_s`` is the median over this process and four
fresh child processes.

With ``--trace 1`` the metrics are the per-layer ones: after the untraced
loop, the workload's first operations are replayed with every layer function
wrapped in spans (see spans.py), and their outputs must equal the untraced
ones.  ``--workload all`` runs every workload in turn, each in its own
process.

The program is imported from this checkout's ``src/`` only; without it the
benchmark exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sim-large", "verify-sweep", "decide-grid", "cli-oneshot")
SETUP_SAMPLES = 5
CALIBRATION_SAMPLES = 3
IMPORT_SNIPPET = "import time; t = time.perf_counter(); import pbrlab.cli; print(time.perf_counter() - t)"


def load_workloads():
    """Import pbrlab from this checkout's src and the workload module, or exit."""
    sys.path.insert(0, str(SRC))
    try:
        import pbrlab
    except ImportError as exc:
        sys.exit(f"error: cannot import pbrlab from {SRC}: {exc}")
    if Path(pbrlab.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"error: pbrlab was imported from {pbrlab.__file__}, not from {SRC}")
    import workloads

    return workloads


def _gate(wl, gate_failure, i: int, out, first: bool = True) -> str | None:
    """The failure message for operation i's output, or None; prints the first traceback."""
    if isinstance(out, Exception):
        if first:
            traceback.print_exception(out, file=sys.stderr)
        return f"{wl.name} op {i} raised {type(out).__name__}: {out}"
    try:
        wl.check(i, out)
    except gate_failure as exc:
        return f"{wl.name} op {i}: {exc}"
    return None


def _call(wl, i: int, tracer=None):
    t = time.perf_counter()
    try:
        out = wl.op(i, tracer)
    except Exception as exc:  # counted as a failed operation; the loop goes on
        out = exc
    return out, time.perf_counter() - t


def measure(wl, gate_failure, seconds: float):
    """The closed loop: latencies, outputs of the first trace_ops ops, failures."""
    latencies, outputs, failures = [], [], []
    t_end = time.perf_counter() + seconds
    i = 0
    while i < max(wl.cycle, wl.trace_ops) or i % wl.group or time.perf_counter() < t_end:
        out, dt = _call(wl, i)
        latencies.append(dt)
        failure = _gate(wl, gate_failure, i, out, first=not failures)
        if failure:
            failures.append(failure)
        if i < wl.trace_ops:
            outputs.append(out)
        i += 1
    return latencies, outputs, failures


def replay_traced(wl, outputs: list) -> tuple[spans.Tracer, list[float], list[str]]:
    """Re-run the first trace_ops operations under the tracer; outputs must not change."""
    tracer = spans.Tracer()
    latencies, failures = [], []
    tracer.install()
    try:
        for i, expected in enumerate(outputs):
            tracer.op = i
            out, dt = _call(wl, i, tracer)
            latencies.append(dt)
            if isinstance(out, Exception) or out != expected:
                failures.append(f"{wl.name} op {i}: traced output differs from the untraced one")
    finally:
        tracer.restore()
    return tracer, latencies, failures


def run_child_json(workloads, argv: list[str]) -> dict | None:
    done = workloads.run_child([sys.executable, *argv], timeout=170.0)
    try:
        return json.loads(done.stdout.decode().splitlines()[-1])
    except (IndexError, ValueError):
        sys.stderr.write(done.stderr.decode())
        return None


def calibrate_cli(workloads) -> tuple[float, float]:
    """Median in-process import time of pbrlab.cli, and wall time of `python -c 'import numpy'`."""
    imports, floors = [], []
    for _ in range(CALIBRATION_SAMPLES):
        imports.append(float(workloads.run_child([sys.executable, "-c", IMPORT_SNIPPET]).stdout))
        t = time.perf_counter()
        workloads.run_child([sys.executable, "-c", "import numpy"])
        floors.append(time.perf_counter() - t)
    return statistics.median(imports), statistics.median(floors)


def _read(path) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return ""


def git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    packed = re.search(rf"^([0-9a-f]+) {re.escape(ref)}$", _read(ROOT / ".git" / "packed-refs"), re.M)
    return _read(ROOT / ".git" / ref) or (packed.group(1) if packed else None)


def environment(samples: dict[str, int]) -> dict:
    import numpy

    model = re.search(r"^model name\s*:\s*(.+)$", _read("/proc/cpuinfo"), re.M)
    mem = re.search(r"^MemTotal:\s+(\d+) kB", _read("/proc/meminfo"), re.M)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{_read(index / 'level')} {_read(index / 'type')}"] = _read(index / "size")
    return {
        "cpu_model": model.group(1) if model else platform.processor(),
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "ram_mb": int(mem.group(1)) // 1024 if mem else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "samples": samples,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, *, tiny: bool = False,
                 setup_only: bool = False) -> dict:
    """One benchmark run; returns metrics, sample counts and failures."""
    t0 = time.perf_counter()
    workloads = load_workloads()
    wl = workloads.make(name, seed, tiny=tiny)
    warm, _ = _call(wl, 0)
    setup_s = time.perf_counter() - t0
    failures = [f for f in [_gate(wl, workloads.GateFailure, 0, warm)] if f]
    if setup_only:
        return {"setup_s": setup_s, "failures": failures}

    latencies, outputs, loop_failures = measure(wl, workloads.GateFailure, seconds)
    failures += loop_failures
    attempted = 1 + len(latencies)
    failed = len(failures)
    # The CLI workload's work happens in its children; every other workload's in this process.
    of_children = name == "cli-oneshot"
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN if of_children else resource.RUSAGE_SELF).ru_maxrss / 1024.0

    checks = wl.finish()
    contract, w2_speedup = workloads.tally_contract(
        seed, repeats=CALIBRATION_SAMPLES if trace else 1, **(workloads.TINY_CONTRACT if tiny else {})
    )
    checks += contract
    ops_per_s = len(latencies) / sum(latencies)
    best_ops_per_s = wl.cycle / sum(min(latencies[j :: wl.cycle]) for j in range(wl.cycle))
    n_ops = f"n={len(latencies)} ops"
    lines = [
        ("best_ops_per_s", best_ops_per_s, "1/s", f"{n_ops}, fastest repeat of each of {wl.cycle} inputs"),
        ("ops_per_s", ops_per_s, "1/s", f"{n_ops}, ops / busy seconds"),
        ("op_p50_s", statistics.median(latencies), "s", f"{n_ops}, median"),
        *wl.headline(latencies),
        ("failed_ratio", failed / attempted, "ratio", f"{failed} of {attempted} ops"),
        ("peak_rss_mb", peak_rss_mb, "MB", "n=1, ru_maxrss of " + ("the CLI children" if of_children else "this process")),
    ]
    samples = {"ops": len(latencies)}
    metrics = {"best_ops_per_s": (best_ops_per_s, "1/s"), "peak_rss_mb": (peak_rss_mb, "MB")}

    if trace:
        tracer, traced, trace_failures = replay_traced(wl, outputs)
        attempted += len(traced)
        failed += len(trace_failures)
        failures += trace_failures
        tracer.dump(workloads.OUT_DIR / f"spans-{name}-seed{seed}.jsonl")
        cli_import_s, numpy_floor_s = calibrate_cli(workloads)
        metrics = spans.layer_metrics(
            spans.aggregate(tracer.spans),
            {
                "w2_speedup": w2_speedup,
                "cli_import_s": cli_import_s,
                "numpy_floor_s": numpy_floor_s,
                # Each traced op against the median untraced repeat of the same input.
                "overhead_ratio": sum(traced)
                / sum(statistics.median(latencies[j :: wl.cycle]) for j in range(len(traced))),
            },
        )
        calibrated = ("protocol.simulate.w2_speedup", "cli.import_s", "cli.python_numpy_floor_s")
        for metric, (value, unit) in metrics.items():
            what = f"median of {CALIBRATION_SAMPLES}" if metric in calibrated else f"total over {len(traced)} traced ops"
            lines.append((metric, value, unit, what))
        samples |= {"traced_ops": len(traced), "calibration": CALIBRATION_SAMPLES}
    else:
        setups = [setup_s]
        argv = [str(HERE / "run.py"), "--workload", name, "--seed", str(seed), "--seconds", "0", "--setup-only"]
        for _ in range(SETUP_SAMPLES - 1):
            child = run_child_json(workloads, argv)
            if child is None:
                checks.append(f"{name}: set-up child process failed")
            else:
                setups.append(child["setup_s"])
                checks += child["failures"]
        metrics["setup_s"] = (statistics.median(setups), "s")
        lines.insert(0, ("setup_s", metrics["setup_s"][0], "s", f"n={len(setups)} fresh processes, median"))
        samples["setup_processes"] = len(setups)

    return {
        "correct": not failures and not checks,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "lines": lines,
        "failures": failures + checks,
        "env": environment(samples),
    }


def run_every_workload(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, one after another; their output passes through."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        done = subprocess.run([sys.executable, *argv], cwd=ROOT, stdout=subprocess.PIPE, timeout=900)
        lines = done.stdout.decode().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            sys.exit(f"error: workload {name} printed no result (exit {done.returncode})")
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_every_workload(args.seed, args.seconds, args.trace)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), setup_only=args.setup_only)
    if args.setup_only:
        print(json.dumps(result))
        return 0
    print(f"# {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for metric, value, unit, note in result["lines"]:
        print(f"{args.workload} {metric} = {value!r} {unit}  ({note})")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("env " + json.dumps(result["env"]))
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed")} | {"metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
