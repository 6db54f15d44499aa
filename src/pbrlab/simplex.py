"""Dense phase-1 simplex feasibility solver.

Decides whether {x >= 0 : A x = b} is nonempty by minimizing the sum of
artificial variables with Bland's rule (smallest-index entering and leaving
choices), which cannot cycle.  Problems here are a handful of variables, so
the tableau is a list of Python rows and the reduced costs are recomputed
from it every iteration rather than maintained incrementally.

The pivots run over ``fractions.Fraction``: each float of A and b is taken as
the binary rational it is, every sign test compares with zero, and the
feasibility decision is exact.  Only the reported ``x`` and artificial sum are
rounded back to floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConvergenceError, ValidationError

#: Pivot budget of one phase-1 solve.
_MAX_ITER = 10_000


@dataclass(frozen=True)
class Phase1Result:
    feasible: bool
    x: tuple[float, ...] | None
    artificial_sum: float
    iterations: int


def phase1_feasible(a, b) -> Phase1Result:
    """Decide feasibility of A x = b, x >= 0 via a phase-1 simplex over rationals."""
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

    # Tableau rows [A | I_m | rhs], each negated where rhs < 0, with the
    # artificial columns n..n+m-1 as the starting basis.
    rows = []
    for i, (a_row, rhs) in enumerate(zip(a, b)):
        sign = -1 if rhs < 0.0 else 1
        row = [sign * Fraction(v) for v in a_row] + [Fraction(int(i == j)) for j in range(m)]
        rows.append(row + [sign * Fraction(rhs)])
    basis = list(range(n, n + m))

    for iteration in range(_MAX_ITER):
        art_rows = [rows[i] for i in range(m) if basis[i] >= n]
        value = sum(row[-1] for row in art_rows)
        entering = -1
        for j in range(n):  # Bland: first improving column; artificials never re-enter
            # The reduced cost of original column j under "minimize sum of
            # artificials" is the aggregate of the artificial basis rows.
            if j in basis or sum(row[j] for row in art_rows) <= 0:
                continue
            if any(row[j] > 0 for row in rows):
                entering = j
                break
        if entering < 0:
            feasible = value == 0
            x = None
            if feasible:
                values = [0] * n
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
            if rows[i][entering] > 0
        ]
        _, _, leave_row = min(ratios, key=lambda r: (r[0], r[1]))
        pivot = rows[leave_row][entering]
        rows[leave_row] = [v / pivot for v in rows[leave_row]]
        for i in range(m):
            factor = rows[i][entering]
            if i != leave_row and factor != 0:
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[leave_row])]
        basis[leave_row] = entering
    raise ConvergenceError(f"phase-1 simplex exceeded {_MAX_ITER} iterations")
