"""Seeded fuzzing of the CLI: any argv gives a clean exit and well-formed output.

Hypothesis builds argv for the six subcommands other than ``verify-all`` from
the CLI's own option table, with extreme, non-finite and boundary values, and
runs ``pbrlab.cli.main`` in process.  Every call must return an exit code in
{0, 2, 3} without raising or printing a traceback: none of the six runs a
verification, so exit 1 (a bug) never fits.  A success prints strict JSON
(checked against the packaged schema where there is one) or, for the CSV
formats, a rectangular CSV table; a failure prints nothing on standard
output.  ``--runs`` stays at or below 1000 and ``--workers`` is never passed,
so the whole test takes a few seconds.

``verify-all`` is fuzzed apart, at small ``--runs`` and any seed, with some
flags out of range: it must exit 0 exactly when every check passes, 1 when
one fails, and 2 with nothing on standard output for a bad flag.
"""

import contextlib
import csv
import io
import json
import re
from importlib import resources

import jsonschema
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from pbrlab import cli

COMMANDS = [name for name in cli._COMMANDS if name != "verify-all"]

#: Subcommand -> the packaged schema of its JSON output.
SCHEMAS = {
    "solve": "solver_result.schema.json",
    "run": "run_summary.schema.json",
    "feasibility": "feasibility.schema.json",
}

EXTREMES = st.one_of(
    st.sampled_from([
        "0", "-0.0", "5e-324", "-5e-324", "1e-320", "2.2250738585072014e-308", "1e-12",
        "0.7853981633974483", "1.5707963267948966", "1.5707963267948968", "90", "1e154",
        "1e308", "-1e308", "1.7976931348623157e308", "inf", "-inf", "nan", "x",
    ]),
    st.floats().map(repr),
)

#: Values inside each field's domain, so that a share of the calls succeeds.
ORDINARY = {
    "theta": st.floats(0.01, 1.56),
    "phi": st.floats(-7.0, 7.0),
    "d": st.floats(0.01, 10.0),
    "split": st.floats(-5.0, 5.0),
    "noise": st.floats(0.0, 1.0),
    "eps": st.floats(0.0, 1.0),
    "gap_tol": st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
    "ortho_tol": st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]),
}

#: (ordinary, extreme) strings of the integer fields; --runs stays at or below 1000.
INTEGERS = {
    "runs": (st.sampled_from(["4", "5", "999", "1000"]), st.sampled_from(["-1", "0", "1", "3", "1.5"])),
    "seed": (st.integers(0, 2**64 - 1).map(str), st.sampled_from(["-1", "18446744073709551616", "x"])),
}

#: Where they are optional, a, b and c come all or none, and d only with them.
COUPLINGS = ("a", "b", "c", "d")


def _values(field: str):
    """(ordinary, extreme) value strategies of one field; a bare flag's value is None."""
    option = cli._OPTIONS[field]
    if option.get("action") == "store_true":
        return st.none(), st.none()
    if "choices" in option:
        return st.sampled_from(option["choices"]), st.just("bogus")
    if field in INTEGERS:
        return INTEGERS[field]
    return ORDINARY.get(field, st.floats(-3.0, 3.0)).map(repr), EXTREMES


@st.composite
def argvs(draw) -> list[str]:
    """A subcommand with each required field and a random subset of the others.

    One value in eight is extreme, so most calls get past the input checks
    and the extreme values reach the numerics.
    """
    command = draw(st.sampled_from(COMMANDS))
    _, _, fields, own = cli._COMMANDS[command]
    with_couplings = draw(st.booleans())
    argv = [command]
    for field in fields:
        if field == "workers":
            continue
        if own.get(field, {}).get("required"):
            include = True
        elif field in COUPLINGS:
            include = with_couplings and (field != "d" or draw(st.booleans()))
        else:
            include = draw(st.booleans())
        if not include:
            continue
        ordinary, extreme = _values(field)
        value = draw(extreme if draw(st.integers(0, 7)) == 0 else ordinary)
        flag = "--" + field.replace("_", "-")
        argv.append(flag if value is None else f"{flag}={value}")
    return argv


def _strict_json(text: str):
    def reject(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def _check_schema(doc, command: str) -> None:
    if command in SCHEMAS:
        text = resources.files("pbrlab").joinpath(f"schemas/{SCHEMAS[command]}").read_text()
        jsonschema.validate(instance=doc, schema=json.loads(text))


@seed(20120229)
@settings(max_examples=200, deadline=None)
@given(argvs())
def test_any_argv_exits_cleanly_with_well_formed_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code != 0:
        assert out == "" and err
        return
    command = argv[0]
    if getattr(cli._build_parser().parse_args(argv), "format", "json") == "json":
        _check_schema(_strict_json(out), command)
        return
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) >= 2 and len({len(row) for row in rows}) == 1
    if command == "run":  # the CSV tally puts the JSON summary on stderr
        _check_schema(_strict_json(err.splitlines()[-1]), command)


#: verify-all flag -> (in-range, out-of-range) value strategies; --runs is always given.
VERIFY_ALL_FLAGS = {
    "--runs": (st.integers(4, 1000).map(str), st.sampled_from(["3", "0", "-1", "1.5", "x"])),
    "--seed": (st.integers(0, 2**64 - 1).map(str), st.sampled_from(["-1", str(2**64), "x"])),
    "--workers": (st.sampled_from(["1", "2"]), st.sampled_from(["0", "-1", "x"])),
}


@st.composite
def verify_all_argvs(draw) -> tuple[list[str], bool]:
    """verify-all argv, and whether a flag in it is out of range (one value in five is)."""
    argv, bad = ["verify-all"], False
    for flag, (ordinary, extreme) in VERIFY_ALL_FLAGS.items():
        if flag != "--runs" and draw(st.booleans()):
            continue
        out_of_range = draw(st.integers(0, 4)) == 0
        bad = bad or out_of_range
        argv.append(f"{flag}={draw(extreme if out_of_range else ordinary)}")
    return argv, bad


@seed(20120229)
@settings(max_examples=20, deadline=None)
@given(verify_all_argvs())
@example((["verify-all", "--runs=4", f"--seed={2**64 - 1}"], False))
@example((["verify-all", "--runs=1000", f"--seed={2**64}"], True))  # argparse takes it; the sweep rejects it
def test_verify_all_at_small_runs_reports_every_check(case):
    argv, bad = case
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if bad:
        assert code == 2 and out == "" and err
        return
    lines = out.splitlines()
    seed_value = next((arg.split("=")[1] for arg in argv if arg.startswith("--seed=")), "42")
    assert lines[0] == f"verification sweep (seed {seed_value})"
    assert len(lines) == 16 and all(re.match(r"^(PASS|FAIL) [a-z-]+: ", line) for line in lines[1:15])
    passed = sum(line.startswith("PASS") for line in lines[1:15])
    assert lines[-1] == f"{passed}/14 checks passed"
    assert code == (0 if lines[-1] == "14/14 checks passed" else 1)
