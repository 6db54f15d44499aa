"""Parameters and closed-form scalars that need no array library.

The pair's overlap parameters, the coupling set, the closed-form eigenvalues
and mixing angle, the one tolerance rule (finite and >= 0, checked wherever a
tolerance is used), the one gap rule, the spin-orbit constraint and its level,
the variant and preparation-policy choices, the noise-robust overlap bound
and the verify-all defaults.  This module writes the ``matrix k of n:``
prefix of a stack, the overflow messages, and the two degeneracy messages
(a gap below ``gap_tol``, residual intervals that overlap); ``hamiltonian``
words its own Hermiticity, ``eigh`` and fidelity-pairing failures behind
that prefix.
Everything here is plain Python, so the coupling solver and the CLI's option
table never import numpy, nor do ``solve``, ``bound``, ``states``,
``feasibility`` and ``spectrum``.  Every module that uses one of these names imports it from
here, not through another module.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DegeneracyError, DomainError, NonFiniteError, ValidationError

TWO_PI = 2.0 * math.pi

#: Default minimum pairwise eigenvalue gap.
GAP_TOL = 1e-9

#: Outcome labels of the spin-orbit spectrum, in eigenvalue order of :func:`soc_eigenvalues`.
SOC_LABELS = ("e'1", "e'2", "e'3", "e'4")

#: Instance-level bound on |⟨forbidden outcome|preparation⟩|.
ORTHO_ATOL = 1e-12

#: Largest accepted |cos(alpha + theta)| of spin-orbit couplings, bisection roots included.
CONSTRAINT_ATOL = 1e-10

#: Defaults of the verification sweep: its seed and the runs of its statistics check.
VERIFY_SEED = 42
VERIFY_RUNS = 200_000


class _Choice(str, enum.Enum):
    """A named string choice; an unknown value is a ValidationError listing the known ones."""

    @classmethod
    def _missing_(cls, value):
        raise ValidationError(
            f"unknown {cls.__name__} {value!r} (accepted: {', '.join(m.value for m in cls)})"
        )


class Variant(_Choice):
    XYZ = "xyz"
    SOC = "soc"


class PrepPolicy(_Choice):
    UNIFORM = "uniform"
    ROUND_ROBIN = "roundrobin"


@dataclass(frozen=True)
class OverlapParams:
    """Overlap parameters of a distinct, non-orthogonal state pair.

    theta must lie strictly inside (0, π/2): theta = 0 would make the pair
    identical and theta = π/2 orthogonal, and orthogonal pairs are already
    settled (they never share an ontic state).  phi must be finite and is
    reduced mod 2π.
    """

    theta: float
    phi: float = 0.0

    def __post_init__(self):
        theta = float(self.theta)
        if not 0.0 < theta < math.pi / 2.0:
            raise DomainError(
                f"theta must lie strictly inside (0, pi/2), got {theta!r}"
            )
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise DomainError(f"phi must be finite, got {phi!r}")
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "phi", phi % TWO_PI)


@dataclass(frozen=True)
class CouplingSet:
    """Real, dimensionless coupling strengths; d is the spin-orbit term."""

    a: float
    b: float
    c: float
    d: float | None = None

    def __post_init__(self):
        for name in ("a", "b", "c", "d"):
            value = getattr(self, name)
            if value is None:
                continue
            value = float(value)
            if not math.isfinite(value):
                raise DomainError(f"coupling {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def d_or_zero(self) -> float:
        return 0.0 if self.d is None else self.d


def xyz_eigenvalues(c: CouplingSet) -> tuple[float, float, float, float]:
    return (
        c.a - c.b + c.c,
        -c.a + c.b + c.c,
        c.a + c.b - c.c,
        -(c.a + c.b + c.c),
    )


def soc_eigenvalues(c: CouplingSet) -> tuple[float, float, float, float]:
    root = math.hypot(c.a + c.c, 2.0 * c.d_or_zero)
    return (-c.a + c.b + c.c, c.a + c.b - c.c, -c.b - root, -c.b + root)


def mixing_angle(s: float, d: float) -> float:
    """atan((s + sqrt(s² + 4d²)) / 2d) for s = a + c and d ≠ 0.

    For s < 0 the numerator cancels, so the equal 2d / (sqrt(s² + 4d²) − s)
    is used there; near alpha = 0 the cancelling form loses every digit.  The
    ratio is scale-free, so a sum that overflows is redone at a quarter scale
    (exact: a power of two).  Where that quarter underflows d to zero, the
    ratio for s >= 0 is past the float range and alpha is its limit ±π/2
    (the sign of d); for s < 0 it tends to 0 and needs no special case.
    """
    root = math.hypot(s, 2.0 * d)
    total = s + root if s >= 0.0 else root - s
    if math.isinf(total) and math.isfinite(s) and math.isfinite(d):
        return mixing_angle(0.25 * s, 0.25 * d)
    if s >= 0.0 and d == 0.0:
        return math.copysign(math.pi / 2.0, d)
    return math.atan(total / (2.0 * d) if s >= 0.0 else 2.0 * d / total)


def soc_alpha(c: CouplingSet) -> float:
    """Mixing angle of the Φ⁺/Ψ⁻ block, principal branch of the arctangent."""
    d = c.d_or_zero
    if d == 0.0:
        raise DomainError("mixing angle is undefined at d = 0")
    return mixing_angle(c.a + c.c, d)


def constraint(s: float, d: float, theta: float) -> float:
    """cos(alpha + theta) for s = a + c: zero on the spin-orbit constraint surface."""
    return math.cos(mixing_angle(s, d) + theta)


def _which(k: int, n: int) -> str:
    """Message prefix naming matrix k of an n-stack; empty for a lone matrix."""
    return f"matrix {k} of {n}: " if n > 1 else ""


def _check_tolerance(name: str, value: float) -> None:
    if not 0.0 <= value < math.inf:
        raise ValidationError(f"{name} must be finite and >= 0, got {value!r}")


def _check_gaps(values, labels, gap_tol: float, k: int = 0, n: int = 1) -> None:
    """Raise unless ``gap_tol`` is a tolerance and the four values are finite and that far apart.

    A message names matrix ``k`` of an ``n``-stack (:func:`_which`).  A
    passing set is let through before any message is built.
    """
    w, x, y, z = values
    finite = math.isfinite(w) and math.isfinite(x) and math.isfinite(y) and math.isfinite(z)
    if finite and 0.0 <= gap_tol <= min(abs(w - x), abs(w - y), abs(w - z), abs(x - y), abs(x - z), abs(y - z)):
        return
    _check_tolerance("gap_tol", gap_tol)
    overflowing = [f"{lab} = {val!r}" for lab, val in zip(labels, values) if not math.isfinite(val)]
    if overflowing:
        raise NonFiniteError(f"{_which(k, n)}spectrum overflows: {', '.join(overflowing)}")
    colliding = [(i, j) for i in range(4) for j in range(i + 1, 4) if abs(values[i] - values[j]) < gap_tol]
    if colliding:
        detail = ", ".join(f"{labels[i]} = {values[i]!r} vs {labels[j]} = {values[j]!r}" for i, j in colliding)
        raise DegeneracyError(
            f"{_which(k, n)}degenerate spectrum (gap_tol={gap_tol}): {detail}",
            pairs=tuple((labels[i], labels[j]) for i, j in colliding),
        )


def _check_enclosure(values, radii, labels, unresolved: tuple[tuple[str, str], ...]) -> None:
    """Raise unless every radius is finite and ``unresolved``, the label pairs whose intervals meet, is empty.

    Each interval is ``values[k] ± radii[k]``; a message names the intervals it is about.
    """
    interval = {lab: f"{lab} = {val!r} ± {rad!r}" for lab, val, rad in zip(labels, values, radii)}
    overflowing = [interval[lab] for lab, rad in zip(labels, radii) if not math.isfinite(rad)]
    if overflowing:
        raise NonFiniteError(f"residual bound overflows: {', '.join(overflowing)}")
    if unresolved:
        named = [interval[lab] for lab in labels if any(lab in pair for pair in unresolved)]
        raise DegeneracyError(
            f"analytic spectrum not certified: the residual intervals of "
            f"{', '.join(f'{i} and {j}' for i, j in unresolved)} overlap ({', '.join(named)})",
            pairs=unresolved,
        )


def overlap_bound(eps_hat: float) -> float:
    """Upper bound 4*eps_hat on the joint shared weight q_a * q_b.

    Derivation: for the shared state class, the forbidden map being a
    bijection makes the four forbidden-outcome probabilities sum to
    sum_k p(k | shared) = 1.  Averaging over ontic states, each preparation's
    observed forbidden frequency is at least q_a * q_b times its share, so
    q_a * q_b <= sum over preparations of P(forbidden | prep) <= 4 * eps_hat.
    """
    if not 0.0 <= eps_hat <= 1.0:
        raise ValidationError(f"eps_hat must lie in [0, 1], got {eps_hat}")
    return 4.0 * eps_hat
