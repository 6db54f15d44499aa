"""Command-line entry point.

Subcommands: states, spectrum, solve, run, feasibility, bound, verify-all.
Results go to standard out (JSON or CSV), diagnostics to standard error.

Exit codes: 0 success; 1 verification failure; 2 usage or configuration
error, including a standard output closed before the result was written;
3 numeric failure (degeneracy, non-convergence, violated coupling
constraint, a result that overflows).  JSON output is strict: it never holds
NaN or Infinity.

Angles are radians unless ``--deg`` is given.  A flat ``key = value`` config
file may supply any long option (dashes become underscores); explicit flags
override file values.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from pathlib import Path

from .coupling_solver import solve_by_root_finding, solve_closed_form
from .errors import (
    ConstraintError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    LogicError,
    NonFiniteError,
    SolverError,
    ValidationError,
)
from .hamiltonian import (
    GAP_TOL,
    CouplingSet,
    analytic_spectrum_soc,
    analytic_spectrum_xyz,
    build_soc,
    build_xyz,
    numeric_spectrum,
    pair_spectra,
)
from .ontology import SupportProfile, build_problem, deduce, lp_feasible, overlap_bound
from .protocol import (
    ORTHO_ATOL,
    PrepPolicy,
    Variant,
    _forbidden_residuals,
    forbidden_rate,
    make_protocol,
    simulate,
)
from .qstate import OverlapParams, build_pair_soc, build_pair_xyz, overlap
from .verify import default_soc_couplings, run_all

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_CONFIG = 2
EXIT_NUMERIC = 3

_FLOAT_KEYS = {
    "theta", "phi", "a", "b", "c", "d", "split", "noise", "eps",
    "q_a", "q_b", "gap_tol", "ortho_tol",
}
_INT_KEYS = {"runs", "seed", "workers"}
_BOOL_KEYS = {"deg", "exact"}
_STR_KEYS = {"variant", "policy", "format", "overlap", "method"}
_ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _BOOL_KEYS | _STR_KEYS


def _parse_bool(field: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in {"1", "true", "yes", "on"}:
        return True
    if low in {"0", "false", "no", "off"}:
        return False
    raise ValidationError(f"config field '{field}': expected a boolean, got {raw!r}")


def _load_config(path: str) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path!r}: {exc}") from exc
    entries: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ValidationError(f"{path}:{lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _ALL_KEYS:
            raise ValidationError(
                f"{path}:{lineno}: unknown config field {key!r} "
                f"(accepted: {', '.join(sorted(_ALL_KEYS))})"
            )
        entries[key] = value.strip()
    return entries


def _coerce(field: str, raw: str):
    try:
        if field in _FLOAT_KEYS:
            return float(raw)
        if field in _INT_KEYS:
            return int(raw)
        if field in _BOOL_KEYS:
            return _parse_bool(field, raw)
        return raw
    except ValueError as exc:
        kind = "number" if field in _FLOAT_KEYS else "integer"
        raise ValidationError(f"config field '{field}': expected {kind}, got {raw!r}") from exc


class _Settings:
    """Merged view of flags over config-file entries over defaults."""

    def __init__(self, ns: argparse.Namespace):
        self._ns = ns
        self._file = _load_config(ns.config) if getattr(ns, "config", None) else {}

    def get(self, field: str, default=None):
        value = getattr(self._ns, field, None)
        if value is None and field in self._file:
            value = _coerce(field, self._file[field])
        return default if value is None else value

    def require(self, field: str):
        value = self.get(field)
        if value is None:
            flag = "--" + field.replace("_", "-")
            raise ValidationError(f"missing required field '{field}' (flag {flag} or config)")
        return value


def _angle(value: float, deg: bool) -> float:
    return math.radians(value) if deg else value


def _params(settings: _Settings) -> OverlapParams:
    deg = bool(settings.get("deg", False))
    theta = _angle(float(settings.require("theta")), deg)
    phi = _angle(float(settings.get("phi", 0.0)), deg)
    return OverlapParams(theta=theta, phi=phi)


def _variant(settings: _Settings) -> Variant:
    raw = str(settings.require("variant")).lower()
    try:
        return Variant(raw)
    except ValueError:
        raise ValidationError(f"field 'variant': expected xyz or soc, got {raw!r}") from None


def _couplings(settings: _Settings, variant: Variant, theta: float) -> CouplingSet:
    given = {k: settings.get(k) for k in ("a", "b", "c", "d")}
    if all(given[k] is None for k in ("a", "b", "c", "d")):
        if variant is Variant.XYZ:
            return CouplingSet(1.0, 2.0, 3.0)
        return default_soc_couplings(theta)
    for k in ("a", "b", "c"):
        if given[k] is None:
            raise ValidationError(f"missing required field '{k}' (couplings are all-or-none)")
    if variant is Variant.SOC and given["d"] is None:
        raise ValidationError("missing required field 'd' (spin-orbit variant)")
    return CouplingSet(
        a=float(given["a"]), b=float(given["b"]), c=float(given["c"]),
        d=None if given["d"] is None else float(given["d"]),
    )


def _tolerance(settings: _Settings, field: str, default: float) -> float:
    value = float(settings.get(field, default))
    if not math.isfinite(value):
        raise ValidationError(f"field '{field}': must be finite, got {value!r}")
    return value


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
    settings = _Settings(ns)
    variant = _variant(settings)
    params = _params(settings)
    fmt = str(settings.get("format", "json"))
    if variant is Variant.XYZ:
        u, v, other = build_pair_xyz(params)
        other_label = "vbar"
    else:
        u, v, other = build_pair_soc(params)
        other_label = "w"
    states = {"u": u, "v": v, other_label: other}
    if fmt == "csv":
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
                "states": {label: s.to_json() for label, s in states.items()},
                "overlaps": {
                    "u|v": _complex_pair(overlap(u, v)),
                    f"u|{other_label}": _complex_pair(overlap(u, other)),
                    f"v|{other_label}": _complex_pair(overlap(v, other)),
                },
            }
        )
    return EXIT_OK


def _cmd_spectrum(ns: argparse.Namespace) -> int:
    settings = _Settings(ns)
    variant = _variant(settings)
    gap_tol = _tolerance(settings, "gap_tol", GAP_TOL)
    couplings = CouplingSet(
        a=float(settings.require("a")),
        b=float(settings.require("b")),
        c=float(settings.require("c")),
        d=settings.get("d"),
    )
    if variant is Variant.XYZ:
        analytic = analytic_spectrum_xyz(couplings, gap_tol=gap_tol)
        numeric = numeric_spectrum(build_xyz(couplings), gap_tol=gap_tol)
    else:
        analytic = analytic_spectrum_soc(couplings, gap_tol=gap_tol)
        numeric = numeric_spectrum(build_soc(couplings), gap_tol=gap_tol)
    pairs = pair_spectra(analytic, numeric)
    fmt = str(settings.get("format", "csv"))
    if fmt == "json":
        _print_json(
            {
                "variant": variant.value,
                "couplings": {"a": couplings.a, "b": couplings.b, "c": couplings.c, "d": couplings.d},
                "alpha": analytic.alpha,
                "rows": [
                    {
                        "label": p.label,
                        "analytic_E": p.analytic_eigenvalue,
                        "numeric_E": p.numeric_eigenvalue,
                        "abs_diff": p.abs_diff,
                        "fidelity": p.fidelity,
                    }
                    for p in pairs
                ],
            }
        )
    else:
        writer = _csv_writer()
        writer.writerow(["label", "analytic_E", "numeric_E", "abs_diff"])
        for p in pairs:
            writer.writerow([p.label, p.analytic_eigenvalue, p.numeric_eigenvalue, p.abs_diff])
    return EXIT_OK


def _cmd_solve(ns: argparse.Namespace) -> int:
    settings = _Settings(ns)
    deg = bool(settings.get("deg", False))
    theta = _angle(float(settings.require("theta")), deg)
    d = float(settings.require("d"))
    split = float(settings.require("split"))
    b = float(settings.get("b", 0.0))
    gap_tol = _tolerance(settings, "gap_tol", GAP_TOL)
    method = str(settings.get("method", "closed-form"))
    if method == "closed-form":
        result = solve_closed_form(theta, d, split, b=b, gap_tol=gap_tol)
    elif method == "bisection":
        result = solve_by_root_finding(theta, d, split, b=b, gap_tol=gap_tol)
    else:
        raise ValidationError(f"field 'method': expected closed-form or bisection, got {method!r}")
    _print_json(result.to_json())
    return EXIT_OK


def _run_summary(inst, table, n_workers: int) -> dict:
    rates = forbidden_rate(table)
    residuals = _forbidden_residuals(inst.variant, inst.preparations, inst.spectrum)
    constraint_residual = None
    if inst.variant is Variant.SOC:
        constraint_residual = abs(math.cos(inst.spectrum.alpha + inst.params.theta))
    return {
        "instance": {
            "variant": inst.variant.value,
            "theta": inst.params.theta,
            "phi": inst.params.phi,
            "couplings": {
                "a": inst.couplings.a,
                "b": inst.couplings.b,
                "c": inst.couplings.c,
                "d": inst.couplings.d,
            },
            "prep_labels": list(inst.prep_labels),
            "outcome_labels": list(inst.outcome_labels),
            "forbidden": [list(pair) for pair in inst.forbidden],
            "eigenvalues": list(inst.spectrum.eigenvalues),
            "alpha": inst.spectrum.alpha,
            "constraint_residual": constraint_residual,
            "orthogonality_residuals": {prep: res for (prep, _), res in residuals.items()},
        },
        "simulation": {
            "n_runs": table.n_runs,
            "seed": table.seed,
            "noise_eps": table.noise_eps,
            "policy": table.policy,
            "n_workers": n_workers,
        },
        "forbidden_rates": {label: rate for label, rate in rates.per_preparation},
        "eps_hat": rates.eps_hat,
        "overlap_bound": overlap_bound(rates.eps_hat),
    }


def _cmd_run(ns: argparse.Namespace) -> int:
    settings = _Settings(ns)
    variant = _variant(settings)
    params = _params(settings)
    couplings = _couplings(settings, variant, params.theta)
    runs = int(settings.require("runs"))
    seed = int(settings.require("seed"))
    noise = float(settings.get("noise", 0.0))
    workers = int(settings.get("workers", 1))
    gap_tol = _tolerance(settings, "gap_tol", GAP_TOL)
    ortho_tol = _tolerance(settings, "ortho_tol", ORTHO_ATOL)
    policy_raw = str(settings.get("policy", "uniform"))
    try:
        policy = PrepPolicy(policy_raw)
    except ValueError:
        raise ValidationError(
            f"field 'policy': expected uniform or roundrobin, got {policy_raw!r}"
        ) from None
    fmt = str(settings.get("format", "csv"))
    if fmt not in {"csv", "json"}:
        raise ValidationError(f"field 'format': expected csv or json, got {fmt!r}")

    inst = make_protocol(variant, params, couplings, gap_tol=gap_tol, ortho_atol=ortho_tol)
    table = simulate(inst, runs, seed=seed, noise_eps=noise, prep_policy=policy, n_workers=workers)
    summary = _run_summary(inst, table, workers)
    if fmt == "json":
        summary["counts"] = [list(row) for row in table.counts]
        _print_json(summary)
    else:
        summary_line = _json(summary)
        writer = _csv_writer()
        writer.writerow(["preparation", "outcome", "count", "frequency", "is_forbidden"])
        for row in table.to_csv_rows():
            writer.writerow(row)
        print(summary_line, file=sys.stderr)
    return EXIT_OK


def _cmd_feasibility(ns: argparse.Namespace) -> int:
    settings = _Settings(ns)
    variant = _variant(settings)
    params = _params(settings)
    couplings = _couplings(settings, variant, params.theta)
    overlap_side = str(settings.require("overlap"))
    if overlap_side not in {"a", "b", "both"}:
        raise ValidationError(f"field 'overlap': expected a, b, or both, got {overlap_side!r}")
    q_a = float(settings.get("q_a", 1.0))
    q_b = float(settings.get("q_b", 1.0))
    exact = bool(settings.get("exact", False))
    inst = make_protocol(variant, params, couplings)

    out = {
        "variant": variant.value,
        "theta": params.theta,
        "overlap": overlap_side,
        "problems": [],
    }
    if overlap_side == "both":
        decision = lp_feasible(
            build_problem(inst, SupportProfile(True, True, q_a, q_b)), exact=exact
        )
        out["problems"].append({"branch": None, **decision.to_json()})
        out["feasible"] = decision.feasible
        out["verdicts"] = [v.to_json() for v in deduce(inst, decision)]
    else:
        if overlap_side == "a":
            prof = SupportProfile(True, False, q_a=q_a)
            side_index = 1  # Bob's state is definite
        else:
            prof = SupportProfile(False, True, q_b=q_b)
            side_index = 0
        branches = sorted({label.split("*")[side_index] for label in inst.prep_labels})
        decisions = []
        for branch in branches:
            decision = lp_feasible(build_problem(inst, prof, branch=branch), exact=exact)
            decisions.append(decision)
            out["problems"].append({"branch": branch, **decision.to_json()})
        out["feasible"] = all(d.feasible for d in decisions)
    _print_json(out)
    return EXIT_OK


def _cmd_bound(ns: argparse.Namespace) -> int:
    settings = _Settings(ns)
    eps = float(settings.require("eps"))
    _print_json({"eps_hat": eps, "bound": overlap_bound(eps)})
    return EXIT_OK


def _cmd_verify_all(ns: argparse.Namespace) -> int:
    settings = _Settings(ns)
    seed = int(settings.get("seed", 42))
    runs = int(settings.get("runs", 200_000))
    workers = int(settings.get("workers", 1))
    if runs < 1:
        raise ValidationError(f"field 'runs': must be >= 1, got {runs}")
    report, ok = run_all(seed=seed, n_runs=runs, n_workers=workers)
    print(report, end="")
    return EXIT_OK if ok else EXIT_VERIFY


_HANDLERS = {
    "states": _cmd_states,
    "spectrum": _cmd_spectrum,
    "solve": _cmd_solve,
    "run": _cmd_run,
    "feasibility": _cmd_feasibility,
    "bound": _cmd_bound,
    "verify-all": _cmd_verify_all,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pbrlab",
        description="Exclusion-protocol verification lab: states, spectra, "
        "coupling solver, measurement simulation, and ontic-overlap feasibility.",
    )
    sub = parser.add_subparsers(dest="command")

    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--config", help="flat key = value settings file; flags override it")

    angles = argparse.ArgumentParser(add_help=False)
    angles.add_argument("--theta", type=float, help="pair angle, radians (degrees with --deg)")
    angles.add_argument("--phi", type=float, help="overlap phase, radians (degrees with --deg)")
    angles.add_argument("--deg", action="store_true", default=None, help="interpret angles as degrees")

    couplings = argparse.ArgumentParser(add_help=False)
    couplings.add_argument("--a", type=float)
    couplings.add_argument("--b", type=float)
    couplings.add_argument("--c", type=float)
    couplings.add_argument("--d", type=float)

    p_states = sub.add_parser(
        "states", parents=[shared, angles], help="emit the protocol state family"
    )
    p_states.add_argument("--variant", choices=["xyz", "soc"])
    p_states.add_argument("--format", choices=["json", "csv"])

    p_spec = sub.add_parser(
        "spectrum", parents=[shared, couplings],
        help="analytic vs numeric eigenvalue table",
    )
    p_spec.add_argument("--variant", choices=["xyz", "soc"])
    p_spec.add_argument("--gap-tol", dest="gap_tol", type=float)
    p_spec.add_argument("--format", choices=["json", "csv"])

    p_solve = sub.add_parser(
        "solve", parents=[shared, angles],
        help="couplings satisfying cos(alpha + theta) = 0",
    )
    p_solve.add_argument("--d", type=float, help="spin-orbit strength, must be > 0")
    p_solve.add_argument("--split", type=float, help="a - c, must be nonzero")
    p_solve.add_argument("--b", type=float, help="free coupling b (default 0)")
    p_solve.add_argument("--method", choices=["closed-form", "bisection"])
    p_solve.add_argument("--gap-tol", dest="gap_tol", type=float)

    p_run = sub.add_parser(
        "run", parents=[shared, angles, couplings],
        help="simulate measurement runs (CSV tally; JSON summary on stderr)",
    )
    p_run.add_argument("--variant", choices=["xyz", "soc"])
    p_run.add_argument("--runs", type=int)
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--noise", type=float, help="outcome-flip probability in [0, 1]")
    p_run.add_argument("--policy", choices=["uniform", "roundrobin"])
    p_run.add_argument("--workers", type=int)
    p_run.add_argument("--gap-tol", dest="gap_tol", type=float)
    p_run.add_argument("--ortho-tol", dest="ortho_tol", type=float)
    p_run.add_argument("--format", choices=["json", "csv"])

    p_feas = sub.add_parser(
        "feasibility", parents=[shared, angles, couplings],
        help="shared-ontic-state feasibility (couplings default per variant)",
    )
    p_feas.add_argument("--variant", choices=["xyz", "soc"])
    p_feas.add_argument("--overlap", choices=["a", "b", "both"])
    p_feas.add_argument("--q-a", dest="q_a", type=float, help="Alice shared weight in (0, 1]")
    p_feas.add_argument("--q-b", dest="q_b", type=float, help="Bob shared weight in (0, 1]")
    p_feas.add_argument(
        "--exact", action="store_true", default=None,
        help="decide the LP over exact rationals instead of floats",
    )

    p_bound = sub.add_parser(
        "bound", parents=[shared], help="overlap bound 4 * eps_hat"
    )
    p_bound.add_argument("--eps", type=float, help="measured max forbidden frequency")

    p_verify = sub.add_parser(
        "verify-all", parents=[shared], help="run the full verification sweep"
    )
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--runs", type=int, help="simulation runs per statistics check")
    p_verify.add_argument("--workers", type=int)

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
        ns = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else list(argv)))
    except SystemExit as exc:  # argparse has printed its own message
        code = exc.code
        return code if isinstance(code, int) else EXIT_CONFIG
    if ns.command is None:
        parser.print_help(file=sys.stderr)
        return EXIT_CONFIG
    try:
        code = _HANDLERS[ns.command](ns)
        sys.stdout.flush()  # a closed stdout surfaces here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader went away.  Point the descriptor at devnull so the
        # interpreter's final flush of the unwritten buffer succeeds silently.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output was closed before the result was written", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DegeneracyError, ConvergenceError, SolverError, ConstraintError, NonFiniteError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except LogicError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    raise SystemExit(main())
