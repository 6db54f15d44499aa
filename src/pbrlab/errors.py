"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes: configuration problems exit 2,
numeric failures (degeneracy, non-convergence, unsatisfied coupling
constraints, results that overflow) exit 3, verification failures exit 1.
"""

from __future__ import annotations


class PbrlabError(Exception):
    """Base class for all package errors."""


class ValidationError(PbrlabError):
    """An input value violates a contract (unnormalized state, bad shape, ...)."""


class DomainError(ValidationError):
    """A parameter lies outside its mathematical domain (theta, d = 0, ...)."""


class DegeneracyError(PbrlabError):
    """Two eigenvalues collide within the gap tolerance."""

    def __init__(self, message: str, pairs: tuple[tuple[str, str], ...] = ()):
        super().__init__(message)
        self.pairs = pairs


class ConvergenceError(PbrlabError):
    """An iterative numeric procedure exhausted its budget."""


class ConstraintError(PbrlabError):
    """The spin-orbit coupling constraint cos(alpha + theta) = 0 is violated."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NonFiniteError(PbrlabError):
    """A computed result overflowed to infinity or NaN."""


class SolverError(PbrlabError):
    """A coupling solver failed (no bracket found, or the split lost in rounding)."""


class LogicError(PbrlabError):
    """An internal state the mathematics rules out; indicates a bug."""
