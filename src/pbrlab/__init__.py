"""Verification lab for two-source exclusion protocols on spin pairs.

Builds the protocol state families, diagonalizes the exchange and spin-orbit
interaction Hamiltonians analytically and numerically, solves the coupling
constraint cos(alpha + theta) = 0, simulates Bell-basis measurement runs, and
decides by linear programming whether overlapping ontic supports are
consistent with the forbidden-outcome structure.

Each export is named once, in ``_EXPORTS`` under the module that defines it.
``import pbrlab`` loads no submodule: reading an export imports its module
then (PEP 562), so a caller pays for numpy only when it uses a name that
needs it.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Module -> the names the package exports from it.
_EXPORTS = {
    "coupling_solver": ("SolverResult", "solve_by_root_finding", "solve_closed_form"),
    "errors": (
        "ConstraintError", "ConvergenceError", "DegeneracyError", "DomainError", "LogicError",
        "NonFiniteError", "PbrlabError", "SolverError", "ValidationError",
    ),
    "hamiltonian": (
        "Spectrum", "analytic_spectrum_soc", "analytic_spectrum_xyz", "bell_states", "evolve",
        "numeric_spectrum", "pair_spectra",
    ),
    "ontology": (
        "FeasibilityDecision", "FeasibilityProblem", "Relation", "SupportProfile", "Verdict",
        "build_problem", "deduce", "lp_feasible", "problem_from_zeroed", "subset_rule_feasible",
    ),
    "params": ("GAP_TOL", "CouplingSet", "OverlapParams", "PrepPolicy", "Variant", "overlap_bound"),
    "protocol": (
        "ProtocolInstance", "TallyTable", "born_probabilities", "make_protocol",
        "orthogonality_residuals", "simulate",
    ),
    "qstate": ("JointState", "PureState", "build_pair_soc", "build_pair_xyz", "overlap", "tensor"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """The export ``name``, read from its module (imported now if it is not yet)."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
