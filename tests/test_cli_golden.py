"""CLI stdout pinned byte for byte against recorded golden files.

Each case runs ``pbrlab.cli.main`` in process and compares its standard
output with ``tests/golden/<name>.out``; one case per subcommand also runs as
``python -m pbrlab.cli`` in a fresh child, where only the modules its handler
imports are loaded, and the cases that need no numpy run once more under
every other CPython 3.10-3.13 on the ``PATH``.  A refactor that claims the same behaviour must
reproduce them exactly; re-record a file only for a change that means to
alter that output.
"""

import csv
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import pbrlab
from pbrlab.cli import main

GOLDEN = Path(__file__).parent / "golden"

XYZ_RUN = [
    "run", "--variant", "xyz", "--theta", "1.0471975512", "--a", "1", "--b", "2", "--c", "3",
    "--runs", "100000", "--seed", "42", "--noise", "0.04", "--policy", "roundrobin",
]

CASES = {
    "states_soc_json": ["states", "--variant", "soc", "--theta", "0.6", "--format", "json"],
    "states_xyz_csv": ["states", "--variant", "xyz", "--theta", "0.6", "--phi", "1.1", "--format", "csv"],
    "spectrum_xyz_csv": ["spectrum", "--variant", "xyz", "--a", "1", "--b", "2", "--c", "3"],
    "spectrum_soc_json": [
        "spectrum", "--variant", "soc", "--a", "1.2", "--b", "0.5", "--c", "-0.7", "--d", "0.9",
        "--format", "json",
    ],
    "solve_closed_form": ["solve", "--theta", "1.0471975512", "--d", "1", "--split", "2"],
    "solve_bisection": ["solve", "--theta", "0.6", "--d", "1.5", "--split", "-1", "--b", "0.3",
                        "--method", "bisection"],
    "feasibility_both": ["feasibility", "--variant", "soc", "--theta", "0.7853981634", "--overlap", "both"],
    "feasibility_both_exact": [
        "feasibility", "--variant", "soc", "--theta", "0.7853981634", "--overlap", "both", "--exact",
    ],
    "feasibility_a": ["feasibility", "--variant", "xyz", "--theta", "1.0471975512", "--overlap", "a"],
    "feasibility_a_exact": [
        "feasibility", "--variant", "xyz", "--theta", "1.0471975512", "--overlap", "a", "--exact",
    ],
    "feasibility_b": ["feasibility", "--variant", "soc", "--theta", "0.7", "--overlap", "b"],
    "bound": ["bound", "--eps", "0.01"],
    "run_csv": XYZ_RUN,
    "run_json": [*XYZ_RUN, "--format", "json"],
    "verify_all_seed0": ["verify-all", "--seed", "0"],
    "verify_all_seed42": ["verify-all", "--seed", "42"],
    "verify_all_seed18446744073709551615": ["verify-all", "--seed", "18446744073709551615"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, capsys):
    code = main(CASES[name])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


#: One case per subcommand, run again in a fresh child.
FRESH_CASES = ["bound", "feasibility_a_exact", "run_csv", "solve_bisection", "spectrum_soc_json",
               "states_xyz_csv", "verify_all_seed0"]


@pytest.mark.parametrize("name", FRESH_CASES)
def test_fresh_process_matches_golden(name, package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "pbrlab.cli", *CASES[name]], capture_output=True, env=package_env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{name}.out").read_bytes()


#: The report lines that still rest on LAPACK ``eigh`` and a BLAS matrix product.
KERNEL_LINES = (b"PASS xyz-spectrum-agreement: ", b"PASS soc-spectrum-agreement: ")


@pytest.mark.parametrize("name", ["run_json", "verify_all_seed0"])
@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_run_json_does_not_depend_on_the_blas_kernel(coretype, name, package_env):
    """The state algebra and the evolution reference are plain Python, so OpenBLAS's kernel choice
    leaves every line alone but the two spectrum checks'."""
    proc = subprocess.run(
        [sys.executable, "-m", "pbrlab.cli", *CASES[name]],
        capture_output=True, env={**package_env, "OPENBLAS_CORETYPE": coretype}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines(keepends=True)
    golden = (GOLDEN / f"{name}.out").read_bytes().splitlines(keepends=True)
    assert [x.startswith(KERNEL_LINES) for x in lines] == [x.startswith(KERNEL_LINES) for x in golden]
    assert [x for x in lines if not x.startswith(KERNEL_LINES)] == [x for x in golden if not x.startswith(KERNEL_LINES)]


#: The golden cases whose subcommands never import numpy, so any CPython 3.10-3.13 runs them.
NUMPY_FREE = sorted(name for name in CASES if CASES[name][0] in ("states", "spectrum", "solve", "feasibility", "bound"))

#: Run in another interpreter's child: each case's exit code and stdout through cli.main, as JSON.
RUN_CASES = (
    "import contextlib, io, json, sys\n"
    "from pbrlab.cli import main\n"
    "results = {}\n"
    "for name, argv in json.loads(sys.argv[1]).items():\n"
    "    out = io.StringIO()\n"
    "    with contextlib.redirect_stdout(out):\n"
    "        code = main(argv)\n"
    "    results[name] = [code, out.getvalue()]\n"
    "print(json.dumps(results))\n"
)


def test_numpy_free_goldens_on_every_other_interpreter():
    """The numpy-free goldens hold byte for byte under each other CPython 3.10-3.13 on the PATH.

    One child per interpreter, with only this checkout's ``src`` on its path,
    runs every case.  An interpreter that is absent, or does not start as the
    version it is named for, is reported by name and not run.
    """
    env = {**os.environ, "PYTHONPATH": str(Path(pbrlab.__file__).resolve().parents[1])}
    cases = json.dumps({name: CASES[name] for name in NUMPY_FREE})
    ran, not_run = [], []
    for minor in (10, 11, 12, 13):
        name = f"python3.{minor}"
        if minor == sys.version_info.minor:
            continue
        path = shutil.which(name)
        probe = path and subprocess.run(
            [path, "-c", "import sys; print(sys.version_info[:2])"], capture_output=True, text=True, timeout=60
        )
        if not probe or probe.stdout != f"(3, {minor})\n":
            not_run.append(f"{name} ({'absent' if path is None else 'does not start'})")
            continue
        proc = subprocess.run([path, "-c", RUN_CASES, cases], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, f"{name}: {proc.stderr}"
        for case, (code, out) in json.loads(proc.stdout).items():
            assert code == 0, f"{name}: {case} exited {code}"
            assert out.encode("utf-8") == (GOLDEN / f"{case}.out").read_bytes(), f"{name}: {case}"
        ran.append(name)
    if not_run:
        warnings.warn(f"numpy-free goldens not run under: {', '.join(not_run)}", stacklevel=1)
    if not ran:
        pytest.skip(f"no other CPython 3.10-3.13 starts here: {', '.join(not_run)}")


def _config_text(options: list[str]) -> str:
    """The config file standing for ``--key value`` pairs and bare ``--flag`` words."""
    lines = []
    for tok, following in zip(options, [*options[1:], "--"]):
        if tok.startswith("--"):
            lines.append(f"{tok[2:]} = {'true' if following.startswith('--') else following}\n")
    return "".join(lines)


@pytest.mark.parametrize("name", sorted(CASES))
def test_config_file_matches_golden(name, tmp_path, capsys):
    command, *options = CASES[name]
    cfg = tmp_path / "settings.cfg"
    cfg.write_text(_config_text(options))
    code = main([command, "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes()


def _recorded_spectrum(name: str) -> list[dict]:
    text = (GOLDEN / f"{name}.out").read_text()
    if name.endswith("json"):
        return json.loads(text)["rows"]
    return [{k: v if k == "label" else float(v) for k, v in r.items()} for r in csv.DictReader(io.StringIO(text))]


def test_recorded_spectra_agree():
    """A re-recorded spectrum golden must still hold a certificate, not just stable bytes:
    tight radii, pairwise disjoint intervals and small eigenvector angles."""
    for name in ("spectrum_soc_json", "spectrum_xyz_csv"):
        rows = _recorded_spectrum(name)
        assert len(rows) == 4
        scale = max(abs(row["analytic_E"]) for row in rows)
        for row in rows:
            assert 0.0 < row["radius"] <= 1e-12 * scale
            assert 0.0 <= row["angle_bound"] <= 1e-10
        for one, other in itertools.combinations(rows, 2):
            assert abs(one["analytic_E"] - other["analytic_E"]) > one["radius"] + other["radius"]
