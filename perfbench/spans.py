"""In-memory span tracer that wraps pbrlab's layer functions from outside.

``Tracer.install()`` replaces each function in ``TARGETS`` with a wrapper in
every loaded ``pbrlab`` module that holds a reference to it (for example both
``pbrlab.rng.run_uniforms`` and ``pbrlab.protocol.run_uniforms``), so calls
made through any import path are seen; ``restore()`` puts the originals back.
The package itself is not modified.  Each call becomes a span: name, start,
end, parent span, operation id, and a few counters read from the arguments or
the result.  Spans stay in memory until ``dump()``.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

VERIFY_CHECKS = (
    "xyz_spectrum",
    "soc_spectrum",
    "xyz_orthogonality",
    "soc_orthogonality",
    "soc_negative_control",
    "solver_agreement",
    "exclusion_feasibility",
    "simplex_oracle",
    "special_case_verdicts",
    "cross_protocol",
    "simulation_stats",
    "phi_independence",
    "evolution_invariance",
    "determinism",
)


def _uniform_counts(args, kwargs, result):
    return {"draws": int(result.size), "bytes": int(result.nbytes)}


def _simulate_counts(args, kwargs, result):
    return {"runs": int(result.n_runs)}


def _pivot_counts(args, kwargs, result):
    return {"pivots": int(result.iterations)}


def _simplex_name(args, kwargs):
    return "simplex.exact" if kwargs.get("exact") else "simplex.float"


# (home module, function, span name or name(args, kwargs), counters(args, kwargs, result)).
# qstate is left out on purpose: its calls take microseconds, so a wrapper
# would cost more than the call; its time shows in its callers' self time.
TARGETS = (
    ("pbrlab.rng", "run_uniforms", "rng.run_uniforms", _uniform_counts),
    ("pbrlab.protocol", "simulate", "protocol.simulate", _simulate_counts),
    ("pbrlab.protocol", "make_protocol", "protocol.make_protocol", None),
    ("pbrlab.protocol", "orthogonality_residuals", "protocol.orthogonality_residuals", None),
    ("pbrlab.protocol", "born_probabilities", "protocol.born_probabilities", None),
    ("pbrlab.hamiltonian", "numeric_spectrum", "hamiltonian.numeric_spectrum", None),
    ("pbrlab.hamiltonian", "analytic_spectrum_xyz", "hamiltonian.analytic_spectrum", None),
    ("pbrlab.hamiltonian", "analytic_spectrum_soc", "hamiltonian.analytic_spectrum", None),
    ("pbrlab.hamiltonian", "pair_spectra", "hamiltonian.pair_spectra", None),
    ("pbrlab.hamiltonian", "evolve", "hamiltonian.evolve", None),
    ("pbrlab.coupling_solver", "solve_closed_form", "coupling_solver.closed_form", None),
    ("pbrlab.coupling_solver", "solve_by_root_finding", "coupling_solver.root_finding", None),
    ("pbrlab.simplex", "phase1_feasible", _simplex_name, _pivot_counts),
    ("pbrlab.ontology", "lp_feasible", "ontology.lp_feasible", None),
    ("pbrlab.ontology", "build_problem", "ontology.build_problem", None),
    ("pbrlab.ontology", "deduce", "ontology.deduce", None),
    *(("pbrlab.verify", f"check_{c}", f"verify.{c}", None) for c in VERIFY_CHECKS),
    ("pbrlab.cli", "main", "cli.main", None),
)


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: Span | None = None
    op: int | None = None
    counts: dict | None = None
    error: str | None = None


@dataclass
class Stat:
    """Totals of one span name: calls, inclusive and self seconds, counters."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, counters):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            # A worker thread of a pool (simulate with n_workers > 1) starts
            # with an empty stack; the span that waits on it is the innermost
            # one open in the installing thread.
            parent = stack[-1] if stack else (self._main_stack[-1] if self._main_stack else None)
            span = Span(name(args, kwargs) if callable(name) else name, 0.0, parent=parent, op=self.op)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if counters is not None:
                span.counts = counters(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in every loaded pbrlab module that refers to it."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._local.stack = self._main_stack
        modules = [m for n, m in list(sys.modules.items()) if n == "pbrlab" or n.startswith("pbrlab.")]
        for home, attr, name, counters in TARGETS:
            original = getattr(sys.modules.get(home), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, counters)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def restore(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def dump(self, path: Path) -> None:
        """Write spans as JSON lines: id, name, start, end, parent id, op, counts, error."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                parent = ids.get(id(s.parent)) if s.parent is not None else None
                fh.write(json.dumps([i, s.name, s.start, s.end, parent, s.op, s.counts, s.error]) + "\n")

    def load(self, path: Path, op: int | None) -> None:
        """Append spans written by ``dump`` in another process, tagged with ``op``."""
        loaded: list[Span] = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                _, name, start, end, parent, _, counts, error = json.loads(line)
                loaded.append(Span(name, start, end, parent, op, counts, error))
        for s in loaded:
            if s.parent is not None:
                s.parent = loaded[s.parent]
        self.spans.extend(loaded)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def aggregate(spans: list[Span]) -> dict[str, Stat]:
    """Per-name totals; self time is a span's duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    stats: dict[str, Stat] = {}
    for s in spans:
        st = stats.setdefault(s.name, Stat())
        duration = s.end - s.start
        st.calls += 1
        st.total_s += duration
        st.self_s += duration - _covered(children.get(id(s), []), s.start, s.end)
        for key, value in (s.counts or {}).items():
            st.counts[key] = st.counts.get(key, 0) + value
        if s.error is not None:
            st.errors[s.error] = st.errors.get(s.error, 0) + 1
    return stats


def layer_metrics(stats: dict[str, Stat], calibration: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as {name: (value, unit)}.

    Rates and ratios read 0 when the layer had no calls in the traced phase.
    ``calibration`` supplies the values not read from spans: w2_speedup,
    cli_import_s, numpy_floor_s and overhead_ratio.
    """
    def get(name: str) -> Stat:
        return stats.get(name, Stat())

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}

    def calls_self(name: str, calls: bool = True) -> None:
        if calls:
            out[f"{name}.calls"] = (get(name).calls, "count")
        out[f"{name}.self_s"] = (get(name).self_s, "s")

    rng = get("rng.run_uniforms")
    calls_self("rng.run_uniforms")
    out["rng.draws"] = (rng.counts.get("draws", 0), "count")
    out["rng.draws_per_s"] = (ratio(rng.counts.get("draws", 0), rng.total_s), "1/s")
    out["rng.bytes_computed"] = (rng.counts.get("bytes", 0), "B")

    sim = get("protocol.simulate")
    calls_self("protocol.simulate")
    out["protocol.simulate.runs"] = (sim.counts.get("runs", 0), "count")
    out["protocol.tally.runs_per_s"] = (ratio(sim.counts.get("runs", 0), sim.total_s), "1/s")
    out["protocol.simulate.w2_speedup"] = (calibration["w2_speedup"], "ratio")
    calls_self("protocol.make_protocol")
    calls_self("protocol.orthogonality_residuals", calls=False)
    calls_self("protocol.born_probabilities")

    jacobi = get("hamiltonian.numeric_spectrum")
    calls_self("hamiltonian.numeric_spectrum")
    out["hamiltonian.numeric_spectrum.us_per_call"] = (1e6 * ratio(jacobi.total_s, jacobi.calls), "us")
    analytic = get("hamiltonian.analytic_spectrum")
    rejected = analytic.errors.get("DegeneracyError", 0)
    calls_self("hamiltonian.analytic_spectrum")
    out["hamiltonian.degeneracy_rejections"] = (rejected, "count")
    out["hamiltonian.accept_ratio"] = (ratio(analytic.calls - rejected, analytic.calls), "ratio")
    calls_self("hamiltonian.pair_spectra", calls=False)
    calls_self("hamiltonian.evolve", calls=False)

    calls_self("coupling_solver.closed_form")
    calls_self("coupling_solver.root_finding")

    for mode in ("float", "exact"):
        calls_self(f"simplex.{mode}")
        out[f"simplex.{mode}.pivots"] = (get(f"simplex.{mode}").counts.get("pivots", 0), "count")
    for name in ("lp_feasible", "build_problem", "deduce"):
        calls_self(f"ontology.{name}", calls=False)

    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s"] = (get(f"verify.{check}").total_s, "s")

    out["cli.import_s"] = (calibration["cli_import_s"], "s")
    out["cli.python_numpy_floor_s"] = (calibration["numpy_floor_s"], "s")
    calls_self("cli.main", calls=False)
    out["trace.overhead_ratio"] = (calibration["overhead_ratio"], "ratio")
    return out
