"""CLI contracts: exit codes, formats, schemas, config precedence."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from pbrlab import NonFiniteError, cli
from pbrlab.cli import main
from pbrlab.verify import CheckResult, check_simulation_stats


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema(name: str) -> dict:
    text = resources.files("pbrlab").joinpath(f"schemas/{name}").read_text()
    return json.loads(text)


def validate(instance: dict, schema_name: str) -> None:
    jsonschema.validate(instance=instance, schema=load_schema(schema_name))


class TestExitCodes:
    def test_success_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--theta", "0.7", "--d", "1", "--split", "2")
        assert code == 0

    def test_degeneracy_is_three(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--variant", "xyz", "--a", "1", "--b", "1", "--c", "0")
        assert code == 3
        assert "degenerate" in err

    @pytest.mark.parametrize(
        "argv, tied",
        [
            (["--a", "1", "--b", "1", "--c", "0"], "e1 and e2 lie 0.0 apart"),
            (["--a", "0", "--b", "0", "--c", "0"],
             "e1 and e2, e1 and e3, e1 and e4, e2 and e3, e2 and e4, e3 and e4 lie 0.0 apart"),
        ],
        ids=["one-tie", "all-tied"],
    )
    def test_unpairable_spectrum_with_gap_check_off_is_three(self, capsys, argv, tied):
        code, out, err = run_cli(capsys, "spectrum", "--variant", "xyz", *argv, "--gap-tol", "0")
        assert code == 3
        assert out == "" and err.startswith("error: degenerate spectrum (gap_tol=0.0): ")
        assert tied in err and "internal" not in err

    def test_missing_field_is_two(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--d", "1", "--split", "2")
        assert code == 2
        assert "theta" in err

    @pytest.mark.parametrize("command", ["spectrum", "run", "feasibility"])
    def test_missing_spin_orbit_d_is_named(self, capsys, command):
        extra = {"spectrum": [], "run": ["--theta", "1", "--runs", "10", "--seed", "1"],
                 "feasibility": ["--theta", "1", "--overlap", "both"]}[command]
        code, out, err = run_cli(capsys, command, "--variant", "soc", "--a", "1", "--b", "2", "--c", "3", *extra)
        assert code == 2
        assert out == "" and err == "error: missing required field 'd' (spin-orbit variant)\n"

    def test_bad_domain_is_two(self, capsys):
        code, _, err = run_cli(capsys, "states", "--variant", "xyz", "--theta", "3.0")
        assert code == 2
        assert "theta" in err

    def test_unknown_flag_is_two(self, capsys):
        assert main(["solve", "--nope", "1"]) == 2

    def test_no_subcommand_is_two(self, capsys):
        assert main([]) == 2

    def test_violated_constraint_is_three(self, capsys):
        code, _, err = run_cli(
            capsys, "run", "--variant", "soc", "--theta", "1.0471975512",
            "--a", "1", "--b", "0.5", "--c", "-1", "--d", "1",
            "--runs", "10", "--seed", "1",
        )
        assert code == 3
        assert "cos(alpha + theta)" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--variant", "xyz", "--theta", "1", "--a", "nan", "--b", "2", "--c", "3",
              "--runs", "10", "--seed", "1"], "coupling a must be finite"),
            (["spectrum", "--variant", "xyz", "--a", "inf", "--b", "2", "--c", "3"],
             "coupling a must be finite"),
            (["solve", "--theta", "0.7", "--d", "nan", "--split", "2"], "d must be positive"),
            (["solve", "--theta", "0.7", "--d", "1", "--split", "inf"], "split = a - c must be finite"),
            (["solve", "--theta", "0.7", "--d", "inf", "--split", "2"], "d must be finite"),
            (["states", "--variant", "xyz", "--theta", "0.5", "--phi", "inf"], "phi must be finite"),
            (["states", "--variant", "xyz", "--theta", "0.5", "--phi", "nan"], "phi must be finite"),
            (["run", "--variant", "xyz", "--theta", "1", "--phi", "inf", "--runs", "10", "--seed", "1"],
             "phi must be finite"),
        ],
        ids=["run-a-nan", "spectrum-a-inf", "solve-d-nan", "solve-split-inf", "solve-d-inf",
             "states-phi-inf", "states-phi-nan", "run-phi-inf"],
    )
    def test_non_finite_coupling_is_two(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["run", "--variant", "xyz", "--theta", "1", "--runs", "10", "--seed", "1", "--gap-tol", "nan"],
             "gap_tol"),
            (["run", "--variant", "xyz", "--theta", "1", "--runs", "10", "--seed", "1", "--ortho-tol", "nan"],
             "ortho_atol"),
            (["spectrum", "--variant", "xyz", "--a", "1", "--b", "2", "--c", "3", "--gap-tol", "inf"], "gap_tol"),
            (["solve", "--theta", "0.7", "--d", "1", "--split", "2", "--gap-tol=-inf"], "gap_tol"),
            (["run", "--variant", "xyz", "--theta", "1", "--a", "1", "--b", "1", "--c", "1",
              "--runs", "10", "--seed", "1", "--gap-tol", "-1"], "gap_tol"),
            (["run", "--variant", "xyz", "--theta", "1", "--runs", "10", "--seed", "1", "--ortho-tol", "-1"],
             "ortho_atol"),
            (["spectrum", "--variant", "xyz", "--a", "1", "--b", "2", "--c", "3", "--gap-tol=-1e-300"],
             "gap_tol"),
        ],
        ids=["run-gap-tol-nan", "run-ortho-tol-nan", "spectrum-gap-tol-inf", "solve-gap-tol-minus-inf",
             "run-gap-tol-negative", "run-ortho-tol-negative", "spectrum-gap-tol-negative"],
    )
    def test_non_finite_tolerance_is_two(self, capsys, argv, field):
        # The library names its parameter: --ortho-tol reaches make_protocol as ortho_atol.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == "" and f"error: {field} must be finite and >= 0, got " in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["closed-form", "bisection"])
    def test_overflowing_coupling_sum_is_three(self, capsys, method):
        code, out, err = run_cli(
            capsys, "solve", "--theta", "0.7", "--d", "1e308", "--split", "2", "--method", method
        )
        assert code == 3
        assert out == "" and "a + c" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["closed-form", "bisection"])
    def test_overflowing_eigenvalues_at_quarter_pi_are_three(self, capsys, method):
        code, out, err = run_cli(
            capsys, "solve", "--theta", "0.7853981633974483", "--d", "1e308", "--split", "2",
            "--b", "0.5", "--method", method,
        )
        assert code == 3
        assert out == "" and "2d = 2 * 1e+308 overflows: the spin-orbit eigenvalues" in err

    @pytest.mark.parametrize("method", ["closed-form", "bisection"])
    def test_largest_finite_2d_at_quarter_pi_solves(self, capsys, method):
        code, out, err = run_cli(
            capsys, "solve", "--theta", "0.7853981633974483", "--d", "8e307", "--split", "1e292",
            "--b", "0.5", "--method", method,
        )
        assert code == 0 and err == ""
        assert json.loads(out)["residual"] <= 1e-12

    def test_near_overflow_sums_agree_across_methods(self, capsys):
        sums = []
        for method in ("closed-form", "bisection"):
            code, out, err = run_cli(
                capsys, "solve", "--theta", "0.7", "--d", "8e307", "--split", "1e300",
                "--method", method,
            )
            assert code == 0 and err == ""
            sums.append(json.loads(out)["sum_ac"])
        assert sums[1] == pytest.approx(sums[0], rel=1e-8)

    @pytest.mark.parametrize("method", ["closed-form", "bisection"])
    def test_split_lost_in_rounding_is_three(self, capsys, method):
        code, out, err = run_cli(
            capsys, "solve", "--theta", "0.7", "--d", "8e307", "--split", "2", "--method", method
        )
        assert code == 3
        assert out == "" and "split" in err and "ulp" in err and "Traceback" not in err

    @pytest.mark.parametrize("method", ["closed-form", "bisection"])
    @pytest.mark.parametrize(
        "argv", [["--theta", "0.99999", "--d", "0.99999", "--split=-4.3301048706151896e16"],
                 ["--theta", "0.7", "--d", "1.9", "--split=1e308"]]
    )
    def test_split_that_swamps_the_sum_is_three(self, capsys, argv, method):
        code, out, err = run_cli(capsys, "solve", *argv, "--method", method)
        assert code == 3
        assert out == "" and err.startswith("error: split = ") and "swamps a + c" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_spectrum_is_three(self, capsys, fmt):
        code, out, err = run_cli(
            capsys, "run", "--variant", "xyz", "--theta", "1.0", "--a", "1e308", "--b=-1.2e308",
            "--c", "1.7e308", "--runs", "10", "--seed", "1", "--format", fmt,
        )
        assert code == 3
        assert out == "" and "spectrum overflows" in err and "Infinity" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["spectrum", "--variant", "xyz", "--a=1e-300", "--b=2e-300", "--c=3e-300", "--gap-tol", "0"],
            ["solve", "--method", "bisection", "--theta", "1e-4", "--d", "1", "--split", "2"],
            ["run", "--variant", "xyz", "--theta", "1", "--a", "1", "--b", "1", "--c", "1",
             "--runs", "10", "--seed", "1", "--gap-tol", "0", "--policy", "roundrobin"],
        ],
        ids=["spectrum-tiny-couplings", "solve-bisection-small-theta", "run-gap-tol-zero-skips-the-check"],
    )
    def test_extreme_scale_is_zero(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert out and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--variant", "xyz", "--theta", "1.0", "--runs", "3", "--seed", "1", "--noise", "1",
              "--format", "json"], "no runs prepared u*u, v*vbar:"),
            (["verify-all", "--runs", "1"], "n_runs must be >= 4 so every preparation gets a run, got 1"),
            (["verify-all", "--runs", "3"], "n_runs must be >= 4 so every preparation gets a run, got 3"),
            (["verify-all", "--workers", "0"], "n_workers must be >= 1, got 0"),
        ],
        ids=["run", "verify-all-1-run", "verify-all-3-runs", "verify-all-0-workers"],
    )
    def test_preparation_without_runs_is_two(self, capsys, check_calls, argv, message):
        # run_all checks its own sizes: no check of the sweep may run first.
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and check_calls == []
        assert out == "" and f"error: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["solve", "--theta=5e-324", "--d=5e-324", "--split=3.0", "--b=-1", "--method=bisection",
              "--gap-tol=5e-324"], "no upper bracket"),
            (["feasibility", "--theta=0.5", "--a=1e-320", "--b=5e-324", "--c=1e308", "--d=5e-324",
              "--variant=soc", "--overlap=a"], "degenerate spectrum"),
        ],
        ids=["solve-bisection", "feasibility-soc"],
    )
    def test_mixing_angle_of_a_vanishing_d_is_three(self, capsys, argv, message):
        # Both reach mixing_angle with d = 5e-324, which its quarter-scale retry rounds to 0.
        code, out, err = run_cli(capsys, *argv)
        assert code == 3 and out == ""
        assert f"error: {message}" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "argv, want",
        [
            (["spectrum", "--variant", "xyz", "--a", "1", "--b", "-1.2e3", "--c", "2"], 0),
            (["spectrum", "--variant", "xyz", "--a", "1e308", "--b", "-1.2e308", "--c", "1.7e308"], 3),
        ],
        ids=["spectrum", "overflow"],
    )
    def test_exponent_negative_parses_either_way(self, capsys, argv, want):
        # argparse's negative-number pattern has no exponent; "--b=" always worked.
        i = argv.index("--b")
        joined = argv[:i] + [f"--b={argv[i + 1]}"] + argv[i + 2:]
        separate = run_cli(capsys, *argv)
        assert separate == run_cli(capsys, *joined)
        assert separate[0] == want

    def test_json_never_holds_nan_or_infinity(self):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(NonFiniteError, match="not finite"):
                cli._json({"x": [1.0, value]})
        assert cli._json({"b": 1.5, "a": None}, indent=2) == '{\n  "a": null,\n  "b": 1.5\n}'

    def test_closed_stdout_is_two_without_traceback(self, package_env):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pbrlab.cli", "bound", "--eps", "0.01"],
                stdout=write_end, stderr=subprocess.PIPE, env=package_env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 2
        assert b"Traceback" not in proc.stderr
        assert b"standard output was closed" in proc.stderr


class TestImport:
    def test_cli_import_leaves_out_the_thread_pool(self, package_env):
        code = "import sys, pbrlab.cli; print('concurrent.futures' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=package_env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"

    #: Left out by the solver and the bound: their rules live in numpy-free params.
    PARAMS_ONLY = ("numpy", "pbrlab.protocol", "pbrlab.hamiltonian")

    #: Run in a fresh child: import pbrlab, call cli.main on the arguments (if
    #: any) and write the loaded module names to stderr.
    LOADED = (
        "import sys, pbrlab\n"
        "if sys.argv[1:]:\n"
        "    from pbrlab.cli import main; main(sys.argv[1:])\n"
        "print(*sys.modules, file=sys.stderr)"
    )

    @pytest.mark.parametrize(
        "argv, left_out",
        [
            ([], ("numpy",)),
            (["solve", "--theta", "0.7", "--d", "1", "--split", "2"], PARAMS_ONLY),
            (["solve", "--theta", "0.7", "--d", "1", "--split", "2", "--method", "bisection"], PARAMS_ONLY),
            (["bound", "--eps", "0.01"], PARAMS_ONLY),
            (["states", "--variant", "soc", "--theta", "0.6"], ("numpy",)),
            (["states", "--variant", "xyz", "--theta", "0.6", "--phi", "1.1", "--format", "csv"], ("numpy",)),
            (["feasibility", "--variant", "xyz", "--theta", "1", "--overlap", "a"], ("numpy",)),
            (["feasibility", "--variant", "soc", "--theta", "0.7", "--overlap", "b"], ("numpy",)),
            (["feasibility", "--variant", "soc", "--theta", "0.7853981634", "--overlap", "both"], ("numpy",)),
            (["feasibility", "--variant", "xyz", "--theta", "1", "--overlap", "a", "--exact"], ("numpy",)),
            (["spectrum", "--variant", "xyz", "--a", "1", "--b", "2", "--c", "3"], ("pbrlab.verify",)),
            (["run", "--variant", "xyz", "--theta", "1", "--runs", "100", "--seed", "1"], ("pbrlab.verify",)),
        ],
        ids=["import", "solve-closed-form", "solve-bisection", "bound", "states", "states-xyz",
             "feasibility-a", "feasibility-b", "feasibility-both", "feasibility-exact", "spectrum", "run"],
    )
    def test_subcommand_loads_only_what_it_runs(self, package_env, argv, left_out):
        proc = subprocess.run(
            [sys.executable, "-c", self.LOADED, *argv],
            capture_output=True, text=True, env=package_env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stderr.split()
        assert "pbrlab" in loaded
        assert [name for name in left_out if name in loaded] == []

    def test_protocol_and_ontology_import_without_numpy(self, package_env):
        code = "import sys, pbrlab.protocol, pbrlab.ontology; print('numpy' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=package_env, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestSolve:
    def test_emits_schema_valid_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--theta", "0.7853981634", "--d", "1", "--split", "2", "--b", "0.5"
        )
        assert code == 0
        doc = json.loads(out)
        validate(doc, "solver_result.schema.json")
        assert abs(doc["sum_ac"]) < 1e-9
        assert doc["method"] == "closed-form"

    def test_bisection_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--theta", "1.0", "--d", "1", "--split", "2",
            "--method", "bisection",
        )
        assert code == 0
        doc = json.loads(out)
        validate(doc, "solver_result.schema.json")
        assert doc["method"] == "bisection"

    def test_degrees_flag(self, capsys):
        _, out_rad, _ = run_cli(capsys, "solve", "--theta", str(math.pi / 3), "--d", "1", "--split", "2")
        _, out_deg, _ = run_cli(capsys, "solve", "--theta", "60", "--deg", "--d", "1", "--split", "2")
        a = json.loads(out_rad)["sum_ac"]
        b = json.loads(out_deg)["sum_ac"]
        assert a == pytest.approx(b, abs=1e-9)
        assert json.loads(out_deg)["theta"] == math.radians(60)  # echoed in radians, not the raw 60

    def test_theta_next_to_half_pi(self, capsys):
        code, out, err = run_cli(capsys, "solve", "--theta", "1.5707962267948966", "--d", "1", "--split", "2")
        assert (code, err) == (0, "")
        assert json.loads(out)["residual"] <= 1e-12


class TestStatesAndSpectrum:
    def test_states_json(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--variant", "soc", "--theta", "0.5")
        assert code == 0
        doc = json.loads(out)
        assert set(doc["states"]) == {"u", "v", "w"}
        assert doc["overlaps"]["u|v"][0] == pytest.approx(math.cos(0.5), abs=1e-12)

    def test_states_csv(self, capsys):
        code, out, _ = run_cli(capsys, "states", "--variant", "xyz", "--theta", "0.5", "--format", "csv")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["state", "amp_plus_re", "amp_plus_im", "amp_minus_re", "amp_minus_im"]
        assert [r[0] for r in rows[1:]] == ["u", "v", "vbar"]

    def test_spectrum_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--variant", "xyz", "--a", "1", "--b", "2", "--c", "3")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["label", "analytic_E", "numeric_E", "abs_diff"]
        table = {r[0]: r for r in rows[1:]}
        assert float(table["e1"][1]) == 2.0
        assert float(table["e4"][1]) == -6.0
        assert all(abs(float(r[3])) <= 1e-10 for r in rows[1:])

    def test_spectrum_json_soc_has_alpha(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--variant", "soc",
            "--a", "1", "--b", "0.5", "--c", "-1", "--d", "1", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["alpha"] == pytest.approx(math.pi / 4, abs=1e-12)


class TestRun:
    ARGS = [
        "run", "--variant", "xyz", "--theta", "1.0471975512",
        "--a", "1", "--b", "2", "--c", "3",
        "--runs", "20000", "--seed", "42", "--policy", "roundrobin",
    ]

    def test_csv_table_with_summary_on_stderr(self, capsys):
        code, out, err = run_cli(capsys, *self.ARGS)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["preparation", "outcome", "count", "frequency", "is_forbidden"]
        assert len(rows) == 17
        forbidden_rows = [r for r in rows[1:] if r[4] == "True"]
        assert len(forbidden_rows) == 4
        assert all(int(r[2]) == 0 for r in forbidden_rows)  # no noise
        summary = json.loads(err)
        validate(summary, "run_summary.schema.json")
        assert summary["eps_hat"] == 0.0

    def test_csv_rows_cover_the_grid(self, capsys):
        args = [*self.ARGS[:-6], "--runs", "1000", "--seed", "2", "--policy", "roundrobin", "--format", "csv"]
        code, out, _ = run_cli(capsys, *args)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 16
        preps = {r["preparation"] for r in rows}
        assert len(preps) == 4
        for prep in preps:
            mine = [r for r in rows if r["preparation"] == prep]
            assert [r["is_forbidden"] for r in mine].count("True") == 1
            assert sum(float(r["frequency"]) for r in mine) == pytest.approx(1.0, abs=1e-12)

    def test_json_summary_validates_schema(self, capsys):
        code, out, _ = run_cli(capsys, *self.ARGS, "--format", "json", "--noise", "0.04")
        assert code == 0
        doc = json.loads(out)
        validate(doc, "run_summary.schema.json")
        assert doc["overlap_bound"] == pytest.approx(4 * doc["eps_hat"], abs=1e-12)
        assert sum(sum(row) for row in doc["counts"]) == 20000

    def test_byte_identical_output(self, capsys):
        _, out1, err1 = run_cli(capsys, *self.ARGS)
        _, out2, err2 = run_cli(capsys, *self.ARGS)
        assert out1 == out2 and err1 == err2

    def test_workers_do_not_change_output(self, capsys):
        _, out1, _ = run_cli(capsys, *self.ARGS)
        _, out2, _ = run_cli(capsys, *self.ARGS, "--workers", "3")
        assert out1 == out2

    def test_default_couplings_for_soc(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "--variant", "soc", "--theta", "0.9",
            "--runs", "1000", "--seed", "7", "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["instance"]["constraint_residual"] <= 1e-10

    def test_gap_tol_reaches_the_summary(self, capsys):
        code, _, _ = run_cli(
            capsys, "run", "--variant", "xyz", "--theta", "1.0",
            "--a", "1", "--b", "2", "--c", "2.0000000001",
            "--runs", "100", "--seed", "1", "--gap-tol", "1e-12",
        )
        assert code == 0


class TestFeasibility:
    def test_both_overlap_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "feasibility", "--variant", "xyz", "--theta", "1.0", "--overlap", "both"
        )
        assert code == 0
        doc = json.loads(out)
        validate(doc, "feasibility.schema.json")
        assert doc["feasible"] is False
        assert doc["problems"][0]["certificate"]
        assert doc["verdicts"][0]["relation"] == "at-least-one-disjoint"

    def test_single_overlap_lists_branches(self, capsys):
        code, out, _ = run_cli(
            capsys, "feasibility", "--variant", "xyz", "--theta", "1.0", "--overlap", "a"
        )
        assert code == 0
        doc = json.loads(out)
        validate(doc, "feasibility.schema.json")
        assert doc["feasible"] is True
        assert sorted(p["branch"] for p in doc["problems"]) == ["u", "vbar"]

    def test_soc_special_case_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys, "feasibility", "--variant", "soc",
            "--theta", str(math.pi / 4), "--overlap", "both",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["verdicts"][0]["relation"] == "disjoint"
        assert doc["verdicts"][0]["pairs"] == [["u", "v"]]


class TestBound:
    def test_bound_json(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--eps", "0.01")
        assert code == 0
        assert json.loads(out) == {"bound": 0.04, "eps_hat": 0.01}

    def test_out_of_range_eps(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--eps", "1.5")
        assert code == 2


class TestConfigFile:
    def test_config_supplies_missing_fields(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("theta = 0.7\nd = 1.0\nsplit = 2\n# a comment\n\nb = 0.4\n")
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["b"] == 0.4

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("theta = 0.7\nd = 1.0\nsplit = 2\n")
        _, out_cfg, _ = run_cli(capsys, "solve", "--config", str(cfg))
        _, out_flag, _ = run_cli(capsys, "solve", "--config", str(cfg), "--theta", "0.9")
        assert json.loads(out_cfg)["theta"] == 0.7
        assert json.loads(out_flag)["theta"] == 0.9

    def test_unknown_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("thetta = 0.7\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg), "--d", "1", "--split", "2")
        assert code == 2
        assert "thetta" in err

    def test_unparseable_value_names_the_field(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("theta = fast\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg), "--d", "1", "--split", "2")
        assert code == 2
        assert "theta" in err and "fast" in err

    def test_missing_config_file(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--config", "/nonexistent.cfg", "--theta", "1", "--d", "1", "--split", "2")
        assert code == 2


    def test_flag_and_file_share_the_boolean_fields(self, tmp_path, capsys):
        base = ("solve", "--theta", "60", "--d", "1", "--split", "2")
        cfg = tmp_path / "settings.cfg"
        for value, flags in (("yes", ["--deg"]), ("off", []), ("True", ["--deg"]), ("0", [])):
            cfg.write_text(f"deg = {value}\n")
            assert run_cli(capsys, *base, "--config", str(cfg)) == run_cli(capsys, *base, *flags)
        cfg.write_text("deg = maybe\n")
        code, out, err = run_cli(capsys, *base, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert "'deg'" in err and "boolean" in err

    def test_keys_of_other_subcommands_are_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("theta = 0.7\nd = 1.0\nsplit = 2\nruns = 5\nvariant = XYZ\nexact = maybe\n")
        from_file = run_cli(capsys, "solve", "--config", str(cfg))
        assert from_file == run_cli(capsys, "solve", "--theta", "0.7", "--d", "1.0", "--split", "2")
        assert from_file[0] == 0

    def test_abbreviated_config_flag_is_not_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text("b = 0.4\n")
        code, out, err = run_cli(
            capsys, "solve", "--conf", str(cfg), "--theta", "0.7", "--d", "1", "--split", "2"
        )
        assert (code, out) == (2, "")
        assert "--config" in err

    @pytest.mark.parametrize(
        "argv, field, value",
        [
            (["states", "--theta", "0.5"], "variant", "XYZ"),
            (["states", "--variant", "xyz", "--theta", "0.5"], "format", "yaml"),
            (["spectrum", "--variant", "xyz", "--a", "1", "--b", "2", "--c", "3"], "format", "yaml"),
            (["run", "--variant", "xyz", "--theta", "0.5", "--runs", "10", "--seed", "1"], "format", "yaml"),
            (["run", "--variant", "xyz", "--theta", "0.5", "--runs", "10", "--seed", "1"], "policy", "random"),
            (["solve", "--theta", "0.7", "--d", "1", "--split", "2"], "method", "newton"),
            (["feasibility", "--variant", "xyz", "--theta", "0.5"], "overlap", "none"),
        ],
    )
    def test_bad_choice_exits_two_from_flag_and_file(self, tmp_path, capsys, argv, field, value):
        cfg = tmp_path / "settings.cfg"
        cfg.write_text(f"{field} = {value}\n")
        for extra in ([f"--{field}", value], ["--config", str(cfg)]):
            code, out, err = run_cli(capsys, *argv, *extra)
            assert (code, out) == (2, "")
            assert f"argument --{field}: invalid choice: '{value}'" in err


#: Each subcommand's long options, as its --help lists them.
LONG_OPTIONS = {
    "states": ["--config", "--deg", "--format", "--help", "--phi", "--theta", "--variant"],
    "spectrum": ["--a", "--b", "--c", "--config", "--d", "--format", "--gap-tol", "--help", "--variant"],
    "solve": [
        "--b", "--config", "--d", "--deg", "--gap-tol", "--help", "--method", "--split", "--theta",
    ],
    "run": [
        "--a", "--b", "--c", "--config", "--d", "--deg", "--format", "--gap-tol", "--help",
        "--noise", "--ortho-tol", "--phi", "--policy", "--runs", "--seed", "--theta", "--variant",
        "--workers",
    ],
    "feasibility": [
        "--a", "--b", "--c", "--config", "--d", "--deg", "--exact", "--help", "--overlap", "--theta",
        "--variant",
    ],
    "bound": ["--config", "--eps", "--help"],
    "verify-all": ["--config", "--help", "--runs", "--seed", "--workers"],
}


class TestOptionTable:
    def test_every_option_serves_a_subcommand(self):
        used = {field for _, _, fields, _ in cli._COMMANDS.values() for field in fields}
        assert used == set(cli._OPTIONS)
        assert set(cli._COMMANDS) == set(LONG_OPTIONS)

    @pytest.mark.parametrize("command", sorted(LONG_OPTIONS))
    def test_help_lists_the_long_options(self, capsys, command):
        code, out, _ = run_cli(capsys, command, "--help")
        assert code == 0
        listed = re.findall(r"^  (?:-h, )?(--[a-z][a-z-]*)", out, flags=re.MULTILINE)
        assert sorted(listed) == LONG_OPTIONS[command]


class TestVerifyAll:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-all", "--seed", "11", "--runs", "20000")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "verification sweep (seed 11)"
        assert all(line.startswith("PASS") for line in lines[1:-1])
        assert lines[-1].endswith("checks passed")

    @pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
    def test_seed_out_of_range_is_two_before_any_report(self, capsys, seed):
        code, out, err = run_cli(capsys, "verify-all", "--seed", seed)
        assert code == 2 and out == ""
        assert "seed must fit in 64 unsigned bits" in err and "Traceback" not in err

    def test_max_seed_does_not_overflow(self):
        assert isinstance(check_simulation_stats(2**64 - 1, n_runs=20_000), CheckResult)
