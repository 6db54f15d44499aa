"""Command-line entry point.

Subcommands: states, spectrum, solve, run, feasibility, bound, verify-all.
Results go to standard out (JSON or CSV), diagnostics to standard error.
Every JSON document and every CSV table is shaped here, from the values the
library returns (the ``run`` table from the tally's counts); no other module
of the package renders JSON or CSV, or imports :mod:`json`.  Results hold
only what the library computed, so each handler echoes its own inputs (the
``run`` seed, noise and policy, the ``solve`` theta in radians and method)
from its parsed arguments.

Exit codes: 0 success; 1 verification failure; 2 usage or configuration
error, including a standard output closed before the result was written and
a subcommand that needs numpy where none is installed (one line, no
traceback); a
package error exits with its ``exit_code`` (see :mod:`pbrlab.errors`): 2 for
invalid input (a non-finite phi, a negative tolerance), 3 for a numeric
failure (degeneracy, a violated coupling constraint, a result or a coupling
sum a + c that overflows), 1 for a logic error.  JSON output is strict: it
never holds NaN or Infinity.  States, spectra, Hamiltonian stacks and default
couplings come from :mod:`pbrlab.protocol`, the one module that knows how the
variants differ.  Each handler imports the modules it calls, so ``solve``,
``bound``, ``states``, ``feasibility`` and ``spectrum`` never load numpy:
``spectrum`` prints its analytic eigenpairs with a residual enclosure
computed in plain Python floats (radius and eigenvector angle bound per
label), not a comparison with ``eigh``.  Only ``run`` and ``verify-all``
need numpy, and only ``verify-all`` loads :mod:`pbrlab.verify`.

Angles are radians unless ``--deg`` is given.  ``--config FILE`` reads a flat
``key = value`` file of the subcommand's long options (``gap_tol`` or
``gap-tol``, no leading dashes) and checks it exactly like flags: each entry
becomes ``--key=value`` ahead of the command line, so explicit flags win.
``deg`` and ``exact`` take true/false (yes/no, on/off, 1/0).  Keys that only
another subcommand declares are ignored, so one file can serve several
subcommands; an unknown key, or ``--config`` abbreviated, exits 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import math
import os
import sys
from pathlib import Path

from .errors import LogicError, NonFiniteError, PbrlabError, ValidationError
from .params import (
    GAP_TOL, ORTHO_ATOL, VERIFY_RUNS, VERIFY_SEED, CouplingSet, OverlapParams, PrepPolicy, Variant, overlap_bound
)

EXIT_OK = 0
EXIT_VERIFY = LogicError.exit_code
EXIT_CONFIG = ValidationError.exit_code

_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _config_flags(path: str, command: str) -> list[str]:
    """The flags a config file stands for, for one subcommand.

    ``key = value`` becomes ``--key=value``; a true ``deg``/``exact`` becomes
    the bare flag and a false one adds nothing.  Keys that only another
    subcommand declares are skipped.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    options = _COMMANDS[command][2]
    flags: list[str] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key, value = key.strip().replace("-", "_"), value.strip()
        if key not in _OPTIONS:
            raise ValidationError(
                f"{path}:{lineno}: unknown config field {key!r} "
                f"(accepted: {', '.join(sorted(_OPTIONS))})"
            )
        if key not in options:
            continue
        flag = "--" + key.replace("_", "-")
        if _OPTIONS[key].get("action") != "store_true":
            flags.append(f"{flag}={value}")
        elif value.lower() not in _BOOL_WORDS:
            raise ValidationError(f"config field '{key}': expected a boolean, got {value!r}")
        elif _BOOL_WORDS[value.lower()]:
            flags.append(flag)
    return flags


def _with_config(argv: list[str]) -> tuple[list[str], str | None]:
    """``argv`` with the flags of its ``--config FILE`` right after the subcommand name.

    Flags given on the command line come later, so they win by argparse's
    last-occurrence rule.  The scan takes ``--config`` only spelled in full:
    as an abbreviation it would swallow ``--c``.  Returns the file path too.
    """
    if not argv or argv[0] not in _COMMANDS:
        return argv, None
    scan = argparse.ArgumentParser(prog=f"pbrlab {argv[0]}", add_help=False, allow_abbrev=False)
    scan.add_argument("--config")
    path = scan.parse_known_args(argv[1:])[0].config
    flags = _config_flags(path, argv[0]) if path else []
    return [argv[0], *flags, *argv[1:]], path


def _angle(value: float, deg: bool) -> float:
    return math.radians(value) if deg else value


def _params(ns: argparse.Namespace) -> OverlapParams:
    return OverlapParams(theta=_angle(ns.theta, ns.deg), phi=_angle(ns.phi, ns.deg))


def _couplings(ns: argparse.Namespace, variant: Variant, theta: float | None) -> CouplingSet:
    """The couplings given, or the variant's defaults at theta when none are."""
    if all(getattr(ns, k) is None for k in ("a", "b", "c", "d")):
        from .protocol import default_couplings

        return default_couplings(variant, theta)
    for k in ("a", "b", "c"):
        if getattr(ns, k) is None:
            raise ValidationError(f"missing required field '{k}' (couplings are all-or-none)")
    if variant is Variant.SOC and ns.d is None:
        raise ValidationError("missing required field 'd' (spin-orbit variant)")
    return CouplingSet(a=ns.a, b=ns.b, c=ns.c, d=ns.d)


def _json(obj, indent: int | None = None) -> str:
    """Strict JSON text; a NaN or infinity in a result is a numeric failure."""
    try:
        return json.dumps(obj, indent=indent, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"result is not finite: {exc}") from None


def _print_json(obj) -> None:
    print(_json(obj, indent=2))


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _complex_pair(z: complex) -> list[float]:
    return [z.real, z.imag]


def _cmd_states(ns: argparse.Namespace) -> int:
    from .protocol import state_family
    from .qstate import overlap

    variant = Variant(ns.variant)
    params = _params(ns)
    states = state_family(variant, params)
    if ns.format == "csv":
        writer = _csv_writer()
        writer.writerow(["state", "amp_plus_re", "amp_plus_im", "amp_minus_re", "amp_minus_im"])
        for label, s in states.items():
            writer.writerow([label, s.amp_plus.real, s.amp_plus.imag, s.amp_minus.real, s.amp_minus.imag])
    else:
        _print_json(
            {
                "variant": variant.value,
                "theta": params.theta,
                "phi": params.phi,
                "states": {
                    label: [_complex_pair(s.amp_plus), _complex_pair(s.amp_minus)] for label, s in states.items()
                },
                "overlaps": {
                    f"{x}|{y}": _complex_pair(overlap(states[x], states[y]))
                    for x, y in itertools.combinations(states, 2)
                },
            }
        )
    return EXIT_OK


def _cmd_spectrum(ns: argparse.Namespace) -> int:
    from .protocol import certified_spectrum

    variant = Variant(ns.variant)
    couplings = _couplings(ns, variant, None)  # a, b and c are required: no defaults
    spectrum, radii, angle_bounds = certified_spectrum(variant, couplings, ns.gap_tol)
    rows = zip(spectrum.labels, spectrum.eigenvalues, radii, angle_bounds)
    if ns.format == "json":
        _print_json(
            {
                "variant": variant.value,
                "couplings": dataclasses.asdict(couplings),
                "alpha": spectrum.alpha,
                "rows": [
                    {"label": label, "analytic_E": e, "radius": r, "angle_bound": angle}
                    for label, e, r, angle in rows
                ],
            }
        )
    else:
        writer = _csv_writer()
        writer.writerow(["label", "analytic_E", "radius", "angle_bound"])
        writer.writerows(rows)
    return EXIT_OK


def _cmd_solve(ns: argparse.Namespace) -> int:
    from .coupling_solver import solve_by_root_finding, solve_closed_form

    solver = solve_closed_form if ns.method == "closed-form" else solve_by_root_finding
    theta = _angle(ns.theta, ns.deg)
    out = dataclasses.asdict(solver(theta, ns.d, ns.split, b=ns.b, gap_tol=ns.gap_tol))
    couplings = out.pop("couplings")  # flattened: a, b, c, d beside the result's own fields
    _print_json({**couplings, "sum_ac": couplings["a"] + couplings["c"], **out, "theta": theta, "method": ns.method})
    return EXIT_OK


def _run_summary(inst, table, ns: argparse.Namespace) -> dict:
    return {
        "instance": {
            "variant": inst.variant.value,
            "theta": inst.params.theta,
            "phi": inst.params.phi,
            "couplings": dataclasses.asdict(inst.couplings),
            "prep_labels": list(inst.prep_labels),
            "outcome_labels": list(inst.outcome_labels),
            "forbidden": [list(pair) for pair in inst.forbidden],
            "eigenvalues": list(inst.spectrum.eigenvalues),
            "alpha": inst.spectrum.alpha,
            "constraint_residual": inst.constraint_residual,
            "orthogonality_residuals": {p: r for (p, _), r in inst.forbidden_residuals.items()},
        },
        "simulation": {
            "n_runs": table.n_runs,
            "seed": ns.seed,
            "noise_eps": ns.noise,
            "policy": ns.policy,
            "n_workers": ns.workers,
        },
        "forbidden_rates": dict(table.forbidden_rates),
        "eps_hat": table.eps_hat,
        "overlap_bound": overlap_bound(table.eps_hat),
    }


def _cmd_run(ns: argparse.Namespace) -> int:
    from .protocol import make_protocol, simulate

    variant = Variant(ns.variant)
    params = _params(ns)
    couplings = _couplings(ns, variant, params.theta)
    inst = make_protocol(variant, params, couplings, gap_tol=ns.gap_tol, ortho_atol=ns.ortho_tol)
    table = simulate(
        inst, ns.runs, seed=ns.seed, noise_eps=ns.noise, prep_policy=ns.policy, n_workers=ns.workers
    )
    summary = _run_summary(inst, table, ns)
    if ns.format == "json":
        summary["counts"] = [list(row) for row in table.counts]
        _print_json(summary)
    else:
        summary_line = _json(summary)
        writer = _csv_writer()
        writer.writerow(["preparation", "outcome", "count", "frequency", "is_forbidden"])
        writer.writerows(
            [prep, out, count, table.frequency(prep, out), (prep, out) in inst.forbidden]
            for prep, row in zip(inst.prep_labels, table.counts)
            for out, count in zip(inst.outcome_labels, row)
        )
        print(summary_line, file=sys.stderr)
    return EXIT_OK


def _decision_json(d, instance: dict) -> dict:
    """A feasibility decision, with its witness if feasible and its certificate if not."""
    p = d.problem
    problem = {"outcome_labels": p.outcome_labels, "zeroed": p.zeroed, "supports": p.supports, **instance}
    out = {"feasible": d.feasible, "method": d.method, "problem": problem}
    if d.witness is not None:
        out["witness"] = dict(d.witness)
    if d.certificate is not None:
        out["certificate"] = d.certificate
    return out


def _cmd_feasibility(ns: argparse.Namespace) -> int:
    from .ontology import SupportProfile, build_problem, deduce, lp_feasible, single_overlap_branches
    from .protocol import make_protocol

    variant = Variant(ns.variant)
    params = OverlapParams(_angle(ns.theta, ns.deg))
    inst = make_protocol(variant, params, _couplings(ns, variant, params.theta))
    prof = SupportProfile(ns.overlap != "b", ns.overlap != "a")
    if ns.overlap == "both":  # one problem, with no branch
        problems = {None: build_problem(inst, prof)}
    else:
        problems = {b: build_problem(inst, prof, branch=b) for b in single_overlap_branches(inst, prof)}
    decisions = {branch: lp_feasible(prob, exact=ns.exact) for branch, prob in problems.items()}
    instance = {"variant": variant.value, "theta": params.theta}
    out = {
        **instance,
        "overlap": ns.overlap,
        "problems": [{"branch": branch, **_decision_json(d, instance)} for branch, d in decisions.items()],
        "feasible": all(d.feasible for d in decisions.values()),
    }
    if None in decisions:
        out["verdicts"] = [{**dataclasses.asdict(v), **instance} for v in deduce(inst, decisions[None])]
    _print_json(out)
    return EXIT_OK


def _cmd_bound(ns: argparse.Namespace) -> int:
    _print_json({"eps_hat": ns.eps, "bound": overlap_bound(ns.eps)})
    return EXIT_OK


def _cmd_verify_all(ns: argparse.Namespace) -> int:
    from . import verify

    report, ok = verify.run_all(seed=ns.seed, n_runs=ns.runs, n_workers=ns.workers)
    print(report, end="")
    return EXIT_OK if ok else EXIT_VERIFY


#: Every long option but --config, declared once: field -> add_argument keywords.
#: The flag is ``--`` plus the field with dashes for underscores.
_OPTIONS: dict[str, dict] = {
    "theta": {"type": float, "help": "pair angle, radians (degrees with --deg)"},
    "phi": {"type": float, "default": 0.0, "help": "overlap phase, radians (degrees with --deg)"},
    "deg": {"action": "store_true", "help": "interpret angles as degrees"},
    "a": {"type": float},
    "b": {"type": float},
    "c": {"type": float},
    "d": {"type": float},
    "variant": {"choices": [v.value for v in Variant]},
    "split": {"type": float, "help": "a - c, must be nonzero"},
    "method": {"choices": ["closed-form", "bisection"], "default": "closed-form"},
    "gap_tol": {"type": float, "default": GAP_TOL},
    "ortho_tol": {"type": float, "default": ORTHO_ATOL},
    "runs": {"type": int},
    "seed": {"type": int},
    "noise": {"type": float, "default": 0.0, "help": "outcome-flip probability in [0, 1]"},
    "policy": {"choices": [p.value for p in PrepPolicy], "default": "uniform"},
    "workers": {"type": int, "default": 1},
    "format": {"choices": ["json", "csv"], "default": "csv"},
    "overlap": {"choices": ["a", "b", "both"]},
    "exact": {"action": "store_true", "help": "name the method phase1-simplex-exact (LPs are always exact)"},
    "eps": {"type": float, "help": "measured max forbidden frequency"},
}

_REQUIRED = {"required": True}

#: Subcommand -> (handler, help, its fields in help order, add_argument
#: keywords that this subcommand sets over the option table).
_COMMANDS = {
    "states": (
        _cmd_states, "emit the protocol state family",
        ("theta", "phi", "deg", "variant", "format"),
        {"theta": _REQUIRED, "variant": _REQUIRED, "format": {"default": "json"}},
    ),
    "spectrum": (
        _cmd_spectrum, "analytic eigenvalues with certified residual radii",
        ("a", "b", "c", "d", "variant", "gap_tol", "format"),
        {"a": _REQUIRED, "b": _REQUIRED, "c": _REQUIRED, "variant": _REQUIRED},
    ),
    "solve": (
        _cmd_solve, "couplings satisfying cos(alpha + theta) = 0",
        ("theta", "deg", "d", "split", "b", "method", "gap_tol"),
        {
            "theta": _REQUIRED,
            "d": {"required": True, "help": "spin-orbit strength, must be > 0"},
            "split": _REQUIRED,
            "b": {"default": 0.0, "help": "free coupling b (default 0)"},
        },
    ),
    "run": (
        _cmd_run, "simulate measurement runs (CSV tally; JSON summary on stderr)",
        ("theta", "phi", "deg", "a", "b", "c", "d", "variant", "runs", "seed", "noise",
         "policy", "workers", "gap_tol", "ortho_tol", "format"),
        {"theta": _REQUIRED, "variant": _REQUIRED, "runs": _REQUIRED, "seed": _REQUIRED},
    ),
    "feasibility": (
        _cmd_feasibility, "shared-ontic-state feasibility (couplings default per variant)",
        ("theta", "deg", "a", "b", "c", "d", "variant", "overlap", "exact"),
        {"theta": _REQUIRED, "variant": _REQUIRED, "overlap": _REQUIRED},
    ),
    "bound": (_cmd_bound, "overlap bound 4 * eps_hat", ("eps",), {"eps": _REQUIRED}),
    "verify-all": (
        _cmd_verify_all, "run the full verification sweep",
        ("seed", "runs", "workers"),
        {"seed": {"default": VERIFY_SEED},
         "runs": {"default": VERIFY_RUNS, "help": "simulation runs per statistics check"}},
    ),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbrlab",
        description="Exclusion-protocol verification lab: states, spectra, "
        "coupling solver, measurement simulation, and ontic-overlap feasibility.",
    )
    sub = parser.add_subparsers(dest="command")
    for name, (_, help_text, fields, own) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key = value file of this subcommand's options; flags win")
        for field in fields:
            keywords = {**_OPTIONS[field], **own.get(field, {})}
            p.add_argument("--" + field.replace("_", "-"), **keywords)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Attach a negative number to the option before it: ``--b -1.2e3`` -> ``--b=-1.2e3``.

    argparse reads a token starting with '-' as an option unless it matches
    its negative-number pattern, which has no exponent; joined, both spellings
    parse alike.
    """
    out: list[str] = []
    for tok in argv:
        prev = out[-1] if out else ""
        if prev.startswith("--") and len(prev) > 2 and "=" not in prev and tok.startswith("-"):
            try:
                float(tok)
            except ValueError:
                pass
            else:
                out[-1] = f"{prev}={tok}"
                continue
        out.append(tok)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, config = _with_config(
            _join_negative_values(sys.argv[1:] if argv is None else list(argv))
        )
        ns = parser.parse_args(args)
        if ns.command is None:
            parser.print_help(file=sys.stderr)
            return EXIT_CONFIG
        if ns.config != config:
            raise ValidationError("spell --config out in full: an abbreviation of it is not read")
        code = _COMMANDS[ns.command][0](ns)
        sys.stdout.flush()  # a closed stdout surfaces here, not at interpreter exit
        return code
    except SystemExit as exc:  # argparse has printed its own message
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG
    except BrokenPipeError:
        # The reader went away.  Point the descriptor at devnull so the
        # interpreter's final flush of the unwritten buffer succeeds silently.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the result was written", file=sys.stderr)
        return EXIT_CONFIG
    except PbrlabError as exc:
        kind = "internal verification failure" if isinstance(exc, LogicError) else "error"
        print(f"{kind}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        print(f"error: {ns.command} needs numpy, which is not installed", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
