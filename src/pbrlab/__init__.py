"""Verification lab for two-source exclusion protocols on spin pairs.

Builds the protocol state families, diagonalizes the exchange and spin-orbit
interaction Hamiltonians analytically and numerically, solves the coupling
constraint cos(alpha + theta) = 0, simulates Bell-basis measurement runs, and
decides by linear programming whether overlapping ontic supports are
consistent with the forbidden-outcome structure.
"""

from .coupling_solver import SolverResult, solve_by_root_finding, solve_closed_form
from .errors import (
    ConstraintError,
    ConvergenceError,
    DegeneracyError,
    DomainError,
    LogicError,
    NonFiniteError,
    PbrlabError,
    SolverError,
    ValidationError,
)
from .hamiltonian import (
    GAP_TOL,
    CouplingSet,
    Spectrum,
    analytic_spectrum_soc,
    analytic_spectrum_xyz,
    bell_states,
    evolve,
    numeric_spectrum,
    pair_spectra,
)
from .ontology import (
    FeasibilityDecision,
    FeasibilityProblem,
    Relation,
    SupportProfile,
    Verdict,
    build_problem,
    deduce,
    lp_feasible,
    overlap_bound,
    problem_from_zeroed,
    subset_rule_feasible,
)
from .protocol import (
    PrepPolicy,
    ProtocolInstance,
    TallyTable,
    Variant,
    born_probabilities,
    make_protocol,
    orthogonality_residuals,
    simulate,
)
from .qstate import (
    JointState,
    OverlapParams,
    PureState,
    build_pair_soc,
    build_pair_xyz,
    overlap,
    tensor,
)

__version__ = "0.1.0"

__all__ = [
    "ConstraintError",
    "ConvergenceError",
    "CouplingSet",
    "DegeneracyError",
    "DomainError",
    "FeasibilityDecision",
    "FeasibilityProblem",
    "GAP_TOL",
    "JointState",
    "LogicError",
    "NonFiniteError",
    "OverlapParams",
    "PbrlabError",
    "PrepPolicy",
    "ProtocolInstance",
    "PureState",
    "Relation",
    "SolverError",
    "SolverResult",
    "Spectrum",
    "SupportProfile",
    "TallyTable",
    "ValidationError",
    "Variant",
    "Verdict",
    "analytic_spectrum_soc",
    "analytic_spectrum_xyz",
    "bell_states",
    "born_probabilities",
    "build_pair_soc",
    "build_pair_xyz",
    "build_problem",
    "deduce",
    "evolve",
    "lp_feasible",
    "make_protocol",
    "numeric_spectrum",
    "orthogonality_residuals",
    "overlap",
    "overlap_bound",
    "pair_spectra",
    "problem_from_zeroed",
    "simulate",
    "solve_by_root_finding",
    "solve_closed_form",
    "subset_rule_feasible",
    "tensor",
]
