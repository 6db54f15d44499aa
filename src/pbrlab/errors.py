"""Exception hierarchy shared across the package.

Each class carries the CLI's process exit code for it as ``exit_code``:
invalid input (validation and domain errors) exits 2; numeric failures
(degeneracy, non-convergence, an unsatisfied coupling constraint, a result
that overflows, a failed coupling solver) exit 3; a logic error, an internal
verification failure, exits 1.
"""

from __future__ import annotations


class PbrlabError(Exception):
    """Base class for all package errors."""

    #: The CLI's exit code for this error; 1 unless a subclass says otherwise.
    exit_code = 1


class ValidationError(PbrlabError):
    """An input value violates a contract (unnormalized state, bad shape, ...)."""

    exit_code = 2


class DomainError(ValidationError):
    """A parameter lies outside its mathematical domain (theta, d = 0, ...)."""


class DegeneracyError(PbrlabError):
    """Two eigenvalues collide within the gap tolerance."""

    exit_code = 3

    def __init__(self, message: str, pairs: tuple[tuple[str, str], ...] = ()):
        super().__init__(message)
        self.pairs = pairs


class ConvergenceError(PbrlabError):
    """An iterative numeric procedure exhausted its budget."""

    exit_code = 3


class ConstraintError(PbrlabError):
    """The spin-orbit coupling constraint cos(alpha + theta) = 0 is violated."""

    exit_code = 3

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NonFiniteError(PbrlabError):
    """A computed result overflowed to infinity or NaN."""

    exit_code = 3


class SolverError(PbrlabError):
    """A coupling solver failed (no bracket found, or rounding lost the split or the sum a + c)."""

    exit_code = 3


class LogicError(PbrlabError):
    """An internal state the mathematics rules out; indicates a bug (exit code 1)."""
