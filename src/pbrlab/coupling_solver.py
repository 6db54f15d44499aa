"""Solve the spin-orbit coupling constraint cos(alpha + theta) = 0.

With d > 0 the mixing angle alpha lies in (0, π/2) and is strictly increasing
in the sum s = a + c, so cos(alpha(s) + theta) is strictly decreasing in s and
crosses zero exactly once.  Setting tan(alpha) = cot(theta) and solving gives
the closed form

    a + c = d (cot θ − tan θ) = 2 d cot 2θ,

which the bisection route re-derives numerically as an independent check,
walking :func:`pbrlab.params.constraint` down to its ``CONSTRAINT_ATOL``.
The free directions of the four-parameter coupling family are d and the
difference split = a − c (split = 0 would violate a ≠ c); b does not enter
the constraint and defaults to 0, but some (theta, d, split) combinations
make the b = 0 spectrum degenerate, in which case the caller must pick a
different b explicitly — nothing is perturbed silently.

For d < 0 the principal-branch alpha lies in (−π/2, 0), so alpha + theta
stays inside (−π/2, π/2) and the constraint has no solution; both solvers
therefore require d > 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneracyError, DomainError, LogicError, NonFiniteError, SolverError
from .params import (
    CONSTRAINT_ATOL,
    GAP_TOL,
    SOC_LABELS,
    CouplingSet,
    OverlapParams,
    _check_gaps,
    constraint,
    soc_alpha,
    soc_eigenvalues,
)

CLOSED_FORM_RESIDUAL_TOL = 1e-12


@dataclass(frozen=True)
class SolverResult:
    """Couplings satisfying the constraint, their mixing angle and the achieved residual.

    The solver's inputs (theta, and which solver ran) are the caller's to echo.
    """

    couplings: CouplingSet
    alpha: float
    residual: float


def _validate_inputs(theta: float, d: float, split: float) -> None:
    OverlapParams(theta)  # the pair's theta rule: strictly inside (0, pi/2)
    if not d > 0.0:
        raise DomainError(
            f"d must be positive, got {d!r}: with d <= 0 the principal-branch "
            "mixing angle never reaches pi/2 - theta"
        )
    if not math.isfinite(d):
        raise DomainError(f"d must be finite, got {d!r}")
    if not math.isfinite(split):
        raise DomainError(f"split = a - c must be finite, got {split!r}")
    if split == 0.0:
        raise DomainError("split = a - c must be nonzero (a = c is degenerate)")


def _overflow(theta: float, d: float) -> NonFiniteError:
    if math.isinf(2.0 * d):
        # The eigenvalues lie 2 sqrt((a + c)² + 4d²) >= 4d apart, wider than the float range.
        return NonFiniteError(
            f"2d = 2 * {d!r} overflows: the spin-orbit eigenvalues -b ± sqrt((a + c)² + 4d²) "
            f"lie at least 4d apart, so one exceeds the float range (theta = {theta!r})"
        )
    return NonFiniteError(f"a + c = 2 d cot 2θ overflows at theta = {theta!r}, d = {d!r}")


def _finish(
    theta: float, d: float, split: float, b: float, ssum: float, method: str, gap_tol: float
) -> SolverResult:
    a = 0.5 * (ssum + split)
    c = 0.5 * (ssum - split)
    if a == c:
        raise SolverError(
            f"split = {split!r} is lost in rounding: a + c = {ssum!r} has spacing (ulp) "
            f"{math.ulp(ssum)!r}, so a = c; use a larger split or a smaller d"
        )
    couplings = CouplingSet(a=a, b=b, c=c, d=d)
    alpha = soc_alpha(couplings)
    try:
        _check_gaps(soc_eigenvalues(couplings), SOC_LABELS, gap_tol)
    except DegeneracyError as exc:
        raise DegeneracyError(
            f"{exc}; supply a different b (b does not affect the constraint)",
            pairs=exc.pairs,
        ) from exc
    residual = abs(constraint(a + c, d, theta))
    limit = CLOSED_FORM_RESIDUAL_TOL if method == "closed-form" else CONSTRAINT_ATOL
    if residual > limit:
        if a + c != ssum:
            raise SolverError(
                f"split = {split!r} swamps a + c = {ssum!r}: a and c round so that a + c = {a + c!r}; "
                "use a smaller split or a larger d"
            )
        raise LogicError(f"{method} residual {residual!r} exceeds {limit}")
    return SolverResult(couplings, alpha, residual)


def solve_closed_form(
    theta: float,
    d: float,
    split: float,
    b: float = 0.0,
    *,
    gap_tol: float = GAP_TOL,
) -> SolverResult:
    """Couplings with a + c = 2 d cot 2θ, which makes alpha + theta = π/2."""
    _validate_inputs(theta, d, split)
    ssum = 2.0 * d * math.cos(2.0 * theta) / math.sin(2.0 * theta)
    if not math.isfinite(ssum):
        raise _overflow(theta, d)
    return _finish(theta, d, split, b, ssum, "closed-form", gap_tol)


def solve_by_root_finding(
    theta: float,
    d: float,
    split: float,
    b: float = 0.0,
    *,
    gap_tol: float = GAP_TOL,
) -> SolverResult:
    """Bisection on s = a + c; independent oracle for :func:`solve_closed_form`."""
    _validate_inputs(theta, d, split)
    if not math.isfinite(2.0 * d):  # the mixing angle, and so the constraint, would be NaN
        raise _overflow(theta, d)
    # cos(alpha(s) + theta) decreases from cos(theta) > 0 toward -sin(theta) < 0,
    # so doubling each end brackets the root unless s overflows first.
    lo, hi = -d, d
    while constraint(lo, d, theta) <= 0.0:
        lo *= 2.0
        if not math.isfinite(lo):
            raise SolverError("no lower bracket: s = a + c overflows")
    while constraint(hi, d, theta) >= 0.0:
        hi *= 2.0
        if not math.isfinite(hi):
            raise SolverError("no upper bracket: s = a + c overflows")
    mid = 0.5 * (lo + hi)
    for _ in range(300):
        mid = 0.5 * (lo + hi)
        f = constraint(mid, d, theta)
        if abs(f) <= 1e-15 or (hi - lo) <= 1e-14 * max(1.0, abs(mid)):
            break
        if f > 0.0:
            lo = mid
        else:
            hi = mid
    if abs(constraint(mid, d, theta)) > CONSTRAINT_ATOL:
        raise SolverError(
            f"bisection stalled at s={mid!r} with |cos(alpha+theta)| > {CONSTRAINT_ATOL}"
        )
    return _finish(theta, d, split, b, mid, "bisection", gap_tol)
