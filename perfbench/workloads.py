"""The benchmark's workloads: seeded inputs, the timed operation, its gate.

Every workload is closed loop with one caller: operation i + 1 starts when
operation i has returned.  Inputs come only from the workload seed.  The
package is called through module attributes (``protocol.simulate``, not a
name imported into this file), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import itertools
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from pbrlab import coupling_solver, ontology, protocol, rng, verify
from pbrlab.errors import DegeneracyError
from pbrlab.hamiltonian import CouplingSet
from pbrlab.ontology import Relation, SupportProfile
from pbrlab.qstate import OverlapParams

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"


class GateFailure(Exception):
    """An operation's output failed its correctness check."""


def child_env() -> dict[str, str]:
    """Environment for child Pythons: this checkout's src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], timeout: float = 120.0) -> subprocess.CompletedProcess:
    """Run one child process to completion; the only way the benchmark starts one."""
    return subprocess.run(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=timeout
    )


def soc_couplings(r: random.Random, theta: float) -> tuple[float, float, float]:
    """(d, split, b) drawn from r whose closed-form couplings at theta are not degenerate."""
    while True:
        spec = (r.uniform(0.1, 3.0), r.choice((-1.0, 1.0)) * r.uniform(0.5, 2.5), r.uniform(-1.5, 1.5))
        try:
            coupling_solver.solve_closed_form(theta, *spec)
        except DegeneracyError:
            continue
        return spec


class Workload:
    name = ""
    #: Operation i repeats the work of operation i - cycle (sim-large changes only the seed).
    cycle = 1
    #: The timed loop stops only on a multiple of ``group`` operations.
    group = 1
    #: Operations replayed under the tracer; the untraced loop runs at least this many.
    trace_ops = 1

    def op(self, i: int, tracer=None):
        raise NotImplementedError

    def check(self, i: int, out) -> None:
        """Raise GateFailure when the output of operation i is wrong."""

    def finish(self) -> list[str]:
        """Gate failures found after the timed loop, outside the timed region."""
        return []

    def headline(self, latencies: list[float]) -> list[tuple[str, float, str, str]]:
        """The workload's own metrics in the users' terms: (name, value, unit, sample note)."""
        raise NotImplementedError


class SimLarge(Workload):
    """protocol.simulate at 1e7 runs per call, alternating two instances."""

    name = "sim-large"
    cycle = group = trace_ops = 2

    def __init__(self, seed: int, n_runs: int = 10_000_000):
        r = random.Random(seed)
        self.n_runs = n_runs
        xyz = protocol.make_protocol("xyz", OverlapParams(math.pi / 3.0), CouplingSet(1.0, 2.0, 3.0))
        theta = r.uniform(0.1, math.pi / 2.0 - 0.1)
        closed = coupling_solver.solve_closed_form(theta, *soc_couplings(r, theta))
        soc = protocol.make_protocol("soc", OverlapParams(theta), closed.couplings)
        self.cases = ((xyz, 0.04, "uniform"), (soc, 0.0, "roundrobin"))
        self.born = [inst.born_matrix().tolist() for inst, _, _ in self.cases]
        self.base_seed = r.getrandbits(63)

    def op(self, i, tracer=None):
        inst, noise, policy = self.cases[i % 2]
        return protocol.simulate(
            inst, self.n_runs, seed=self.base_seed + i, noise_eps=noise, prep_policy=policy, n_workers=1
        )

    def check(self, i, table):
        inst, noise, policy = self.cases[i % 2]
        rows = table.counts
        if sum(map(sum, rows)) != self.n_runs:
            raise GateFailure("counts do not sum to n_runs")
        if noise == 0.0:
            hits = sum(rows[inst.prep_labels.index(p)][inst.outcome_labels.index(o)] for p, o in inst.forbidden)
            if hits:
                raise GateFailure(f"{hits} forbidden hits at noise 0")
        for p, row in enumerate(rows):
            n_p = sum(row)
            if policy == "uniform":
                _within_5_sigma(n_p / self.n_runs, 0.25, self.n_runs, f"preparation {p} share")
            for k, count in enumerate(row):
                expected = (1.0 - noise) * self.born[i % 2][p][k] + noise / 4.0
                _within_5_sigma(count / n_p, expected, n_p, f"frequency ({p}, {k})")

    def headline(self, latencies):
        return [("sim_runs_per_s", self.n_runs * len(latencies) / sum(latencies), "runs/s", f"n={len(latencies)} ops")]


def _within_5_sigma(observed: float, expected: float, n: int, what: str) -> None:
    sigma = math.sqrt(expected * (1.0 - expected) / n)
    if abs(observed - expected) > 5.0 * sigma + 1e-12:
        raise GateFailure(f"{what} {observed!r} is more than 5 sigma from {expected!r}")


#: Seeds on which verify-sweep screens check_simulation_stats.
SCREENED_SEEDS = 16


class VerifySweep(Workload):
    """verify.run_all on a few seeds drawn from the workload seed, in turn."""

    name = "verify-sweep"
    trace_ops = 2

    def __init__(self, seed: int, n_seeds: int = 3):
        r = random.Random(seed)
        # The report's simulation check is a 3-sigma test, so about 2% of
        # seeds print a FAIL line by chance (3 of 150 measured).  The timed
        # seeds are the first candidates that pass it; finish() screens every
        # candidate and fails the run when more than a quarter of them fail.
        self.candidates = [r.getrandbits(32) for _ in range(SCREENED_SEEDS)]
        self.screened: dict[int, bool] = {}
        self.seeds: list[int] = []
        for s in self.candidates:
            if len(self.seeds) == n_seeds:
                break
            self.screened[s] = verify.check_simulation_stats(s).ok
            if self.screened[s]:
                self.seeds.append(s)
        # Too few passed: time failing seeds too, so the report gate fails.
        self.seeds += [s for s in self.candidates if s not in self.seeds][: n_seeds - len(self.seeds)]
        self.cycle = n_seeds
        self.reports: dict[int, str] = {}
        self.seen: dict[int, int] = {}

    def op(self, i, tracer=None):
        return verify.run_all(self.seeds[i % len(self.seeds)])[0]

    def check(self, i, report):
        seed = self.seeds[i % len(self.seeds)]
        self.seen[seed] = self.seen.get(seed, 0) + 1
        first = self.reports.setdefault(seed, report)
        if not report.endswith("\n14/14 checks passed\n"):
            raise GateFailure(f"seed {seed}: report does not end in 14/14 checks passed")
        if first != report:
            raise GateFailure(f"seed {seed}: report differs from an earlier run")

    def finish(self):
        failures = []
        for s in self.candidates:
            if s not in self.screened:
                self.screened[s] = verify.check_simulation_stats(s).ok
        self.screen_failed = sum(not ok for ok in self.screened.values())
        if self.screen_failed > SCREENED_SEEDS // 4:
            failures.append(f"check_simulation_stats fails on {self.screen_failed} of {SCREENED_SEEDS} seeds")
        for seed in self.seeds:
            if self.seen.get(seed, 0) == 1 and verify.run_all(seed)[0] != self.reports[seed]:
                failures.append(f"seed {seed}: repeated report differs")
        return failures

    def headline(self, latencies):
        return [
            ("verify_sweep_s_p50", statistics.median(latencies), "s", f"n={len(latencies)} ops"),
            ("stats_check_failed_seeds", self.screen_failed, "count",
             f"of {SCREENED_SEEDS} seeds screened, the gate allows {SCREENED_SEEDS // 4}"),
        ]


def decide_grid(seed: int, n_points: int) -> list[tuple]:
    """(variant, theta, phi, couplings) points; theta = pi/4 exactly for both variants."""
    r = random.Random(seed)
    points = []
    while len(points) < n_points:
        variant = ("soc", "xyz")[len(points) % 2]
        theta = math.pi / 4.0 if len(points) < 2 else r.uniform(0.1, math.pi / 2.0 - 0.1)
        phi = r.uniform(0.0, 2.0 * math.pi)
        if variant == "soc":
            spec = soc_couplings(r, theta)
        else:
            spec = tuple(r.uniform(-3.0, 3.0) for _ in range(3))
        try:
            decide_point((variant, theta, phi, spec), exact=False)
        except DegeneracyError:
            continue
        points.append((variant, theta, phi, spec))
    return points


def _profiles(variant: str) -> list[tuple[SupportProfile, str]]:
    """Both-overlap first, then every single-overlap branch."""
    other = "w" if variant == "soc" else "vbar"
    return [(SupportProfile(True, True), "u")] + [
        (SupportProfile(True, False), b) for b in ("u", other)
    ] + [(SupportProfile(False, True), a) for a in ("u", "v")]


def decide_point(point: tuple, exact: bool) -> tuple:
    """Solve couplings, build the protocol, decide every LP, deduce the verdict."""
    variant, theta, phi, spec = point
    sums = None
    if variant == "soc":
        closed = coupling_solver.solve_closed_form(theta, *spec)
        rooted = coupling_solver.solve_by_root_finding(theta, *spec)
        couplings = closed.couplings
        sums = (couplings.a + couplings.c, rooted.couplings.a + rooted.couplings.c)
    else:
        couplings = CouplingSet(*spec)
    inst = protocol.make_protocol(variant, OverlapParams(theta, phi), couplings)
    decisions = tuple(
        ontology.lp_feasible(ontology.build_problem(inst, prof, branch=branch), exact=exact)
        for prof, branch in _profiles(variant)
    )
    return sums, decisions, tuple(ontology.deduce(inst, decisions[0]))


class DecideGrid(Workload):
    """decide_point over a seeded grid; op 2k decides point k in floats, op 2k + 1 exactly."""

    name = "decide-grid"
    group = 2

    def __init__(self, seed: int, n_points: int = 48):
        self.points = decide_grid(seed, n_points)
        self.cycle = self.trace_ops = 2 * n_points
        self.float_keys: dict[int, list[tuple]] = {}

    def op(self, i, tracer=None):
        return decide_point(self.points[i // 2 % len(self.points)], exact=i % 2 == 1)

    def check(self, i, out):
        k = i // 2 % len(self.points)
        variant, theta, _, _ = self.points[k]
        sums, decisions, verdicts = out
        if sums is not None and abs(sums[0] - sums[1]) > 1e-8:
            raise GateFailure(f"closed-form and bisection sums differ: {sums}")
        for d in decisions:
            if d.feasible != ontology.subset_rule_feasible(d.problem):
                raise GateFailure(f"decision disagrees with the subset rule: {d.problem}")
        if decisions[0].feasible or not all(d.feasible for d in decisions[1:]):
            raise GateFailure("both-overlap must be infeasible and every single-overlap branch feasible")
        if variant == "soc" and theta == math.pi / 4.0:
            want = [(Relation.DISJOINT, (("u", "v"),))]
        else:
            want = [(Relation.AT_LEAST_ONE_DISJOINT, (("u", "v"), ("u", "w" if variant == "soc" else "vbar")))]
        if [(v.relation, v.pairs) for v in verdicts] != want:
            raise GateFailure(f"verdict {verdicts} at theta {theta!r}")
        key = [(d.feasible, d.witness, d.certificate) for d in decisions]
        if i % 2 == 0:
            self.float_keys[k] = key
        elif key != self.float_keys.get(k):
            raise GateFailure("float and exact decisions disagree")

    def headline(self, latencies):
        halves = {"float": latencies[0::2], "exact": latencies[1::2]}
        return [(f"decide_{mode}_per_s", len(h) / sum(h), "points/s", f"n={len(h)} ops") for mode, h in halves.items()]


def cli_commands(r: random.Random, runs: int) -> list[list[str]]:
    """One call of each of the seven subcommands, parameters drawn from r."""
    variant = r.choice(("xyz", "soc"))
    theta = r.uniform(0.1, math.pi / 2.0 - 0.1)
    d, split, b = soc_couplings(r, theta)
    if variant == "soc":
        c = coupling_solver.solve_closed_form(theta, d, split, b).couplings
        couplings = [f"--a={c.a!r}", f"--b={c.b!r}", f"--c={c.c!r}", f"--d={c.d!r}"]
    else:
        couplings = [f"--{k}={r.uniform(-3.0, 3.0)!r}" for k in "abc"]
    pair = ["--variant", variant, f"--theta={theta!r}"]
    overlap = r.choice(("a", "b", "both"))
    return [
        ["states", *pair, f"--phi={r.uniform(0.0, 2.0 * math.pi)!r}"],
        ["spectrum", "--variant", variant, *couplings],
        ["solve", f"--theta={theta!r}", f"--d={d!r}", f"--split={split!r}", f"--b={b!r}",
         "--method", r.choice(("closed-form", "bisection"))],
        ["feasibility", *pair, "--overlap", overlap],
        ["feasibility", *pair, "--overlap", overlap, "--exact"],
        ["bound", f"--eps={r.uniform(0.0, 0.25)!r}"],
        ["run", *pair, "--runs", str(runs), "--seed", str(r.getrandbits(32)),
         f"--noise={r.choice((0.0, 0.04))!r}", "--policy", r.choice(("uniform", "roundrobin"))],
    ]


def cli_in_process(argv: list[str]) -> tuple[int, bytes, str]:
    """Exit code, stdout bytes and stderr text of one CLI call in this process."""
    from pbrlab import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue().encode("utf-8"), err.getvalue()


class CliOneshot(Workload):
    """``python -m pbrlab.cli`` as sequential subprocesses; stdout compared byte for byte."""

    name = "cli-oneshot"
    trace_ops = 7

    def __init__(self, seed: int, n_sets: int = 1, runs: int = 100_000):
        r = random.Random(seed)
        self.commands: list[list[str]] = []
        self.expected: list[bytes] = []
        # A parameter set with a degenerate spectrum is not a valid input and
        # is redrawn; any other non-zero exit is a defect and stops the run.
        while len(self.commands) < 7 * n_sets:
            argvs = cli_commands(r, runs)
            results = [cli_in_process(argv) for argv in argvs]
            if any(code == 3 and "degenerate" in err for code, _, err in results):
                continue
            for argv, (code, stdout, err) in zip(argvs, results):
                if code != 0:
                    raise GateFailure(f"{argv} exited {code} in process: {err.strip()}")
            self.commands += argvs
            self.expected += [stdout for _, stdout, _ in results]
        self.cycle = len(self.commands)

    def op(self, i, tracer=None):
        argv = self.commands[i % len(self.commands)]
        if tracer is None:
            done = run_child([sys.executable, "-m", "pbrlab.cli", *argv])
            return done.returncode, done.stdout
        path = OUT_DIR / f"cli-child-{os.getpid()}-{i}.jsonl"
        done = run_child([sys.executable, str(HERE / "cli_child.py"), str(path), *argv])
        if path.exists():
            tracer.load(path, op=i)
            path.unlink()
        return done.returncode, done.stdout

    def check(self, i, out):
        code, stdout = out
        if code != 0:
            raise GateFailure(f"{self.commands[i % len(self.commands)]} exited {code}")
        if stdout != self.expected[i % len(self.commands)]:
            raise GateFailure(f"{self.commands[i % len(self.commands)]}: stdout differs from the expected bytes")

    def headline(self, latencies):
        return [("cli_call_s_p50", statistics.median(latencies), "s", f"n={len(latencies)} ops")]


#: Sizes small enough for the benchmark's own tests.
TINY = {
    "sim-large": {"n_runs": 20_000},
    "verify-sweep": {"n_seeds": 1},
    "decide-grid": {"n_points": 4},
    "cli-oneshot": {"n_sets": 1, "runs": 1000},
}
TINY_CONTRACT = {"prefix": 500, "w2_runs": 20_001}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    kwargs = TINY[name] if tiny else {}
    if name == "sim-large":
        return SimLarge(seed, **kwargs)
    if name == "verify-sweep":
        return VerifySweep(seed, **kwargs)
    if name == "decide-grid":
        return DecideGrid(seed, **kwargs)
    if name == "cli-oneshot":
        return CliOneshot(seed, **kwargs)
    raise ValueError(f"unknown workload {name!r}")


def _reference_tally(inst, n_runs: int, seed: int, noise: float, policy: str) -> list[list[int]]:
    """The tally of runs [0, n_runs) in pure Python from the scalar rng.uniform."""
    born = inst.born_matrix().tolist()
    cum = [list(itertools.accumulate(row)) for row in born]
    last_live = [max(k for k, p in enumerate(row) if p != 0.0) for row in born]
    counts = [[0] * 4 for _ in range(4)]
    for i in range(n_runs):
        d = [rng.uniform(seed, i, j, 4) for j in range(4)]
        p = min(int(d[0] * 4.0), 3) if policy == "uniform" else i % 4
        k = min(bisect.bisect_right(cum[p], d[1]), last_live[p])
        if noise > 0.0 and d[2] < noise:
            k = min(int(d[3] * 4.0), 3)
        counts[p][k] += 1
    return counts


def tally_contract(seed: int, prefix: int = 10_000, w2_runs: int = 1_000_003, repeats: int = 1):
    """Exact checks of the simulate contract, on the sim-large instances.

    Returns (failures, w2_speedup): a 1-worker simulate over the first
    ``prefix`` runs must equal the pure-Python reference tally, and 2 workers
    must equal 1 worker over ``w2_runs`` runs.  The speedup is the median
    ratio of 1-worker to 2-worker wall time over ``repeats`` pairs.
    """
    sim = SimLarge(seed, n_runs=prefix)
    failures = []
    for (inst, noise, policy), s in zip(sim.cases, (sim.base_seed, sim.base_seed + 1)):
        got = protocol.simulate(inst, prefix, seed=s, noise_eps=noise, prep_policy=policy)
        if [list(row) for row in got.counts] != _reference_tally(inst, prefix, s, noise, policy):
            failures.append(f"simulate({prefix}) differs from the scalar reference ({policy}, noise {noise})")
    inst, noise, policy = sim.cases[0]
    ratios = []
    for k in range(repeats):
        times, tables = [], []
        for workers in (1, 2):
            t = time.perf_counter()
            tables.append(protocol.simulate(inst, w2_runs, seed=sim.base_seed + k, noise_eps=noise,
                                            prep_policy=policy, n_workers=workers))
            times.append(time.perf_counter() - t)
        if tables[0] != tables[1]:
            failures.append(f"simulate({w2_runs}) with 2 workers differs from 1 worker")
        ratios.append(times[0] / times[1])
    return failures, statistics.median(ratios)
