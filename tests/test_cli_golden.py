"""CLI stdout pinned byte for byte against recorded golden files.

Each case runs ``pbrlab.cli.main`` in process and compares its standard
output with ``tests/golden/<name>.out``; one case per subcommand also runs as
``python -m pbrlab.cli`` in a fresh child, where only the modules its handler
imports are loaded.  A refactor that claims the same behaviour must
reproduce them exactly; re-record a file only for a change that means to
alter that output.
"""

import csv
import json
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_run_json_does_not_depend_on_the_blas_kernel(coretype, package_env):
    """The state algebra is plain Python, so OpenBLAS's kernel choice leaves the residuals alone."""
    proc = subprocess.run(
        [sys.executable, "-m", "pbrlab.cli", *CASES["run_json"]],
        capture_output=True, env={**package_env, "OPENBLAS_CORETYPE": coretype}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "run_json.out").read_bytes()


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


def test_recorded_spectra_agree():
    """A re-recorded spectrum golden must still show agreeing spectra, not just stable bytes."""
    rows = json.loads((GOLDEN / "spectrum_soc_json.out").read_text())["rows"]
    for row in rows:
        assert abs(row["fidelity"] - 1.0) <= 1e-12
    with open(GOLDEN / "spectrum_xyz_csv.out", newline="") as f:
        rows += [{k: float(v) for k, v in r.items() if k != "label"} for r in csv.DictReader(f)]
    assert len(rows) == 8
    for row in rows:
        assert row["abs_diff"] == abs(row["analytic_E"] - row["numeric_E"]) <= 1e-12
