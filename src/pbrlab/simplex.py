"""Dense phase-1 simplex feasibility solver.

Decides whether {x >= 0 : A x = b} is nonempty by minimizing the sum of
artificial variables with Bland's rule (smallest-index entering and leaving
choices), which cannot cycle.  Problems here are a handful of variables, so
the tableau is a list of Python rows and the reduced costs are recomputed
from it every iteration rather than maintained incrementally.

One pivot loop serves both number types.  By default it runs over floats,
with tolerances on the reduced costs, the pivot entries and the final
artificial sum.  ``exact=True`` runs it over ``fractions.Fraction`` (floats
are taken as the binary rationals they are) with every tolerance zero, making
the feasibility decision exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConvergenceError, ValidationError

_PIVOT_TOL = 1e-10

#: Float-mode bound on a reduced cost worth entering and on a feasible
#: artificial sum.
_FEASIBILITY_TOL = 1e-9

#: Pivot budget of one phase-1 solve.
_MAX_ITER = 10_000


@dataclass(frozen=True)
class Phase1Result:
    feasible: bool
    x: tuple[float, ...] | None
    artificial_sum: float
    iterations: int


def phase1_feasible(a, b, *, exact: bool = False) -> Phase1Result:
    """Decide feasibility of A x = b, x >= 0 via a phase-1 simplex."""
    try:
        a = [[float(v) for v in row] for row in a]
        b = [float(v) for v in b]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"LP data must be rows of numbers and a vector of numbers: {exc}") from None
    widths = sorted({len(row) for row in a})
    if len(widths) != 1 or widths[0] == 0 or len(b) != len(a):
        raise ValidationError(f"incompatible LP shapes: A rows of lengths {widths}, b of length {len(b)}")
    if not all(math.isfinite(v) for row in [*a, b] for v in row):
        raise ValidationError("LP data must be finite")
    m, n = len(a), widths[0]
    num = Fraction if exact else float
    zero = num(0)
    tol, pivot_tol = (zero, zero) if exact else (_FEASIBILITY_TOL, _PIVOT_TOL)

    # Tableau rows [A | I_m | rhs], each negated where rhs < 0, with the
    # artificial columns n..n+m-1 as the starting basis.
    rows = []
    for i, (a_row, rhs) in enumerate(zip(a, b)):
        sign = -1.0 if rhs < 0.0 else 1.0
        row = [num(sign * v) for v in a_row] + [num(float(i == j)) for j in range(m)]
        rows.append(row + [num(sign * rhs)])
    basis = list(range(n, n + m))

    for iteration in range(_MAX_ITER):
        art_rows = [rows[i] for i in range(m) if basis[i] >= n]
        value = sum((row[-1] for row in art_rows), zero)
        entering = -1
        for j in range(n):  # Bland: first improving column; artificials never re-enter
            # The reduced cost of original column j under "minimize sum of
            # artificials" is the aggregate of the artificial basis rows.
            if j in basis or sum((row[j] for row in art_rows), zero) <= tol:
                continue
            if any(row[j] > pivot_tol for row in rows):
                entering = j
                break
        if entering < 0:
            feasible = value <= tol
            x = None
            if feasible:
                values = [zero] * n
                for i, var in enumerate(basis):
                    if var < n:
                        values[var] = rows[i][-1]
                x = tuple(float(v) for v in values)
            return Phase1Result(
                feasible=feasible, x=x, artificial_sum=float(value), iterations=iteration
            )
        ratios = [
            (rows[i][-1] / rows[i][entering], basis[i], i)
            for i in range(m)
            if rows[i][entering] > pivot_tol
        ]
        _, _, leave_row = min(ratios, key=lambda r: (r[0], r[1]))
        pivot = rows[leave_row][entering]
        rows[leave_row] = [v / pivot for v in rows[leave_row]]
        for i in range(m):
            factor = rows[i][entering]
            if i != leave_row and factor != zero:
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[leave_row])]
        basis[leave_row] = entering
    raise ConvergenceError(f"phase-1 simplex exceeded {_MAX_ITER} iterations")
