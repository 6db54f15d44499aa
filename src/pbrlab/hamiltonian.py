"""Two-spin interaction Hamiltonians and their spectra.

Two 4x4 families over the fixed basis (|++⟩, |+−⟩, |−+⟩, |−−⟩), both the real
symmetric ((c, −d, d, a−b), (−d, −c, a+b, −d), (d, a+b, −c, d), (a−b, −d, d, c)),
as ``tests/test_symbolic.py`` proves from their Pauli sums:

- anisotropic exchange: a XX + b YY + c ZZ (d = 0), diagonalized by the four
  Bell states with eigenvalues (a−b+c, −a+b+c, a+b−c, −(a+b+c));
- the same plus an antisymmetric spin-orbit term d (XZ − ZX), which leaves
  Φ⁻ and Ψ⁺ untouched and mixes Φ⁺ with Ψ⁻ through an angle alpha with
  tan(alpha) = (a + c + sqrt((a+c)² + 4d²)) / (2d).

Analytic spectra keep the protocol's outcome labels (e1..e4, e'1..e'4); the
independent numeric route is LAPACK ``eigh`` (``zheevd``), which shares no
code with the analytic formulas and orders eigenvalues ascending, so
:func:`pbrlab.protocol.numeric_pairing` matches the two routes by eigenvalue
rank, never by label index.  :func:`numeric_spectrum` takes an (n, 4, 4)
stack, one ``eigh`` call per stack; a lone matrix is a stack of one.
:func:`pair_spectra` matches stacks by eigenvector fidelity instead; no
module of the package calls it.  Only the functions that take stacks import
numpy, when they run.

:func:`enclose` certifies the analytic eigenpairs without a second solver:
in plain Python floats, with a stated rounding allowance, it bounds each
pair's residual under the couplings' exact Hamiltonian and proves the four
intervals E ± r disjoint, then bounds each eigenvector's angle.  Every step
but the angle's ``asin`` (the C library's) is a correctly rounded IEEE
operation, an exact one or ``fsum``, in a fixed order, so its numbers depend
on no BLAS kernel and no interpreter version.  ``spectrum`` prints them;
``verify-all``'s spectrum checks still hold the analytic spectra against
``eigh``.

The protocols only need four *distinguishable* outcomes, so both routes apply
the gap rule of :func:`pbrlab.params._check_gaps`: finite eigenvalues pairwise
at least ``gap_tol`` apart (the non-degeneracy conditions a ≠ ±b resp. a ≠ c
are necessary but not sufficient for that).  That rule's messages, the
enclosure's failures, and the ``matrix k of n:`` prefix of every error about
one matrix of a stack, are worded in :mod:`pbrlab.params`.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConvergenceError, DomainError, LogicError, ValidationError
from .params import (
    GAP_TOL,
    SOC_LABELS,
    CouplingSet,
    _check_enclosure,
    _check_gaps,
    _check_tolerance,
    _which,
    soc_alpha,
    soc_eigenvalues,
    xyz_eigenvalues,
)
from .qstate import JointState, joint_overlap

if TYPE_CHECKING:
    import numpy as np

_RT2 = math.sqrt(0.5)

# JointState is frozen, so one tuple is shared by every caller.
_BELL_STATES = (
    JointState((_RT2, 0.0, 0.0, _RT2)),
    JointState((_RT2, 0.0, 0.0, -_RT2)),
    JointState((0.0, _RT2, _RT2, 0.0)),
    JointState((0.0, _RT2, -_RT2, 0.0)),
)


def bell_states() -> tuple[JointState, JointState, JointState, JointState]:
    """(Φ⁺, Φ⁻, Ψ⁺, Ψ⁻)."""
    return _BELL_STATES


@dataclass(frozen=True)
class Spectrum:
    """Four (eigenvalue, eigenvector) pairs plus the mixing angle when defined."""

    eigenvalues: tuple[float, float, float, float]
    eigenvectors: tuple[JointState, JointState, JointState, JointState]
    labels: tuple[str, str, str, str]
    alpha: float | None = None


def hamiltonian_entries(a, b, c, d):
    """The four rows of a XX + b YY + c ZZ, plus d (XZ − ZX) unless d is None.

    Each entry is at most one IEEE operation (a − b, a + b, −c, ±d), so floats
    for one matrix and equal-length arrays for a stack give the same bits per
    matrix.  The exchange zeros are +0.0.
    """
    if d is None:
        d = minus_d = 0.0 * abs(a)
    else:
        minus_d = -d
    return (
        (c, minus_d, d, a - b),
        (minus_d, -c, a + b, minus_d),
        (d, a + b, -c, d),
        (a - b, minus_d, d, c),
    )


#: Unit roundoff of IEEE double precision under round to nearest, 2^-53.
_U = sys.float_info.epsilon / 2.0

#: gamma_32 = 32u / (1 - 32u) (Higham, *Accuracy and Stability*, §3.1), the relative allowance of a radius.
_GAMMA_32 = 32.0 * _U / (1.0 - 32.0 * _U)

#: The absolute allowance of a radius for products that underflow: each loses at most 2^-1075,
#: and a radius rounds fewer than 2^8 of them.
_UNDERFLOW = 2.0**-1067


def _norm(values) -> float:
    """The 2-norm of ``values``, scaled by a power of two so that no square overflows or underflows.

    The squares are summed by :func:`math.fsum`, so the result does not depend
    on the interpreter's ``sum``; a non-finite value or a norm past the float
    range gives infinity.
    """
    if not all(math.isfinite(v) for v in values):
        return math.inf
    top = max(abs(v) for v in values)
    if top == 0.0:
        return 0.0
    scale = math.frexp(top)[1]
    root = math.sqrt(math.fsum(math.ldexp(v, -scale) ** 2 for v in values))
    try:
        return math.ldexp(root, scale)
    except OverflowError:
        return math.inf


def _radius(rows, energy: float, vector: JointState) -> float:
    """An upper bound r on ||Hx - Ex|| / ||x||, for x = ``vector``, E = ``energy`` and the exact H.

    ``rows`` are :func:`hamiltonian_entries` of floats, so H is real and its
    only entries that ``rows`` round are a - b and a + b, each once.  x is taken
    as its real and imaginary parts, eight reals.  Each residual entry is the
    five-term sum ``h0 x0 + h1 x1 + h2 x2 + h3 x3 - E xi`` from the left, and
    the same sum of the terms' absolute values, s_abs, sizes its error:

        r = (||residual|| + gamma_32 * S + 2^-1067) / ||x|| + 2u * max(|a - b|, |a + b|)

    where S sums the eight s_abs from the left.
    - gamma_32 covers the rounding, relative to S: 13 roundings for the
      residual entries (a five-term inner product, Higham (3.5)) and for sizing
      them by S, 4 in the residual's norm, 3 in the norm of x and 7 in this
      formula, 27 in all, booked with room for their products.
    - 2^-1067 covers every product that underflows.
    - u * max(|a - b|, |a + b|) is the 2-norm of the rounding of the two
      entries (by Weyl, or as ||(H - fl(H)) x|| <= ||H - fl(H)|| ||x||); it is
      booked twice so that the last addition cannot round it away.
    """
    parts = ([z.real for z in vector.vector], [z.imag for z in vector.vector])
    residual, size = [], []
    for part in parts:
        for row, x in zip(rows, part):
            t0, t1, t2, t3, t4 = row[0] * part[0], row[1] * part[1], row[2] * part[2], row[3] * part[3], -energy * x
            residual.append(t0 + t1 + t2 + t3 + t4)
            size.append(abs(t0) + abs(t1) + abs(t2) + abs(t3) + abs(t4))
    total = 0.0
    for term in size:  # from the left, so that an overflow gives infinity, not an error
        total += term
    rounded = max(abs(rows[0][3]), abs(rows[1][2]))
    numerator = _norm(residual) + _GAMMA_32 * total + _UNDERFLOW
    return numerator / _norm(parts[0] + parts[1]) + 2.0 * _U * rounded


def _down(x: float) -> float:
    """The float below ``x``: at or below the exact value of any operation that rounded to ``x``."""
    return math.nextafter(x, -math.inf)


def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def enclose(rows, spectrum: Spectrum) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Certify ``spectrum`` as the spectrum of the exact Hamiltonian whose float entries are ``rows``.

    Returns ``(radii, angle_bounds)`` in label order.  By the residual bound
    (Parlett, *The Symmetric Eigenvalue Problem*, Thm 4.5.1) some eigenvalue
    lies within radius r_k (:func:`_radius`) of E_k; when the four intervals
    E_k ± r_k are pairwise disjoint, each holds exactly one eigenvalue, so the
    analytic spectrum is the spectrum.  Eigenvector k then lies within angle
    asin(r_k / delta_k) of the exact one, where delta_k = min over j != k of
    |E_k - E_j| - r_j bounds E_k's distance to every other eigenvalue (Davis
    & Kahan, SIAM J. Numer. Anal. 7(1), 1970).  Each gap, delta and angle is
    stepped one float outward after each operation, so that it stays a bound;
    the angle's step also covers an ``asin`` within one ulp.

    A radius that is not finite, or two intervals that meet, raise the error
    :func:`pbrlab.params._check_enclosure` words.
    """
    values, labels = spectrum.eigenvalues, spectrum.labels
    radii = tuple(_radius(rows, e, x) for e, x in zip(values, spectrum.eigenvectors))
    # apart[k][j]: a lower bound on |E_k - E_j| - r_j, E_k's distance to the eigenvalue in interval j.
    apart = [[_down(_down(abs(ek - ej)) - rj) for ej, rj in zip(values, radii)] for ek in values]
    unresolved = tuple(
        (labels[k], labels[j])
        for k in range(4)
        for j in range(k + 1, 4)
        if not (apart[k][j] > radii[k] and apart[j][k] > radii[j])
    )
    _check_enclosure(values, radii, labels, unresolved)
    angles = []
    for k, r in enumerate(radii):
        delta = min(apart[k][j] for j in range(4) if j != k)
        angles.append(_up(math.asin(min(1.0, _up(r / delta)))))
    return radii, tuple(angles)


def analytic_spectrum_xyz(c: CouplingSet, gap_tol: float = GAP_TOL) -> Spectrum:
    """Bell-state spectrum of the exchange Hamiltonian, labels e1..e4."""
    if c.d_or_zero != 0.0:
        raise ValidationError(f"exchange variant requires d absent or zero, got d={c.d}")
    labels = ("e1", "e2", "e3", "e4")
    values = xyz_eigenvalues(c)
    _check_gaps(values, labels, gap_tol)
    return Spectrum(values, bell_states(), labels)


def analytic_spectrum_soc(c: CouplingSet, gap_tol: float = GAP_TOL) -> Spectrum:
    """Spin-orbit spectrum: e'1 = Φ⁻, e'2 = Ψ⁺, e'3/e'4 the alpha-mixtures."""
    alpha = soc_alpha(c)  # raises DomainError at d = 0
    values = soc_eigenvalues(c)
    _check_gaps(values, SOC_LABELS, gap_tol)
    ca, sa = math.cos(alpha), math.sin(alpha)
    _, phi_minus, psi_plus, _ = bell_states()
    e3 = JointState((_RT2 * ca, _RT2 * sa, -_RT2 * sa, _RT2 * ca))
    e4 = JointState((-_RT2 * sa, _RT2 * ca, -_RT2 * ca, -_RT2 * sa))
    return Spectrum(values, (phi_minus, psi_plus, e3, e4), SOC_LABELS, alpha=alpha)


_NUMERIC_LABELS = ("n1", "n2", "n3", "n4")


def numeric_spectrum(entries, gap_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize an (n, 4, 4) Hermitian stack with one LAPACK ``eigh`` call.

    Independent of the analytic route.  Returns ``(values, vectors)``: values
    (n, 4), ascending per matrix (labels n1..n4 in messages), and vectors
    (n, 4, 4) whose column j is the eigenvector of ``values[:, j]``, gauged so
    its largest component is real and positive.  ``gap_tol`` is checked
    first, once per stack, so an empty stack is checked too.  Every matrix
    must be Hermitian and diagonalize; then each row of values, in stack
    order, must pass :func:`pbrlab.params._check_gaps` (``gap_tol=0`` skips
    the gap: the zero matrix is a legitimate input for the solver though no
    protocol can use it).  An error names the first failing matrix of its kind.
    """
    import numpy as np

    _check_tolerance("gap_tol", gap_tol)
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 3 or m.shape[1:] != (4, 4):
        raise ValidationError(f"expected an (n, 4, 4) stack, got shape {m.shape}")
    n = len(m)
    hermitian = (m == m.conj().swapaxes(1, 2)).all(axis=(1, 2))
    if not hermitian.all():
        k = int(np.argmin(hermitian))
        raise ValidationError(f"{_which(k, n)}matrix is not Hermitian (entries != conjugate transpose)")
    try:
        values, vecs = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # LAPACK reports this for non-finite off-diagonals
        raise ConvergenceError(f"eigh failed: {exc}") from exc
    for k, row in enumerate(values.tolist()):
        _check_gaps(row, _NUMERIC_LABELS, gap_tol, k, n)
    rows = np.argmax(np.abs(vecs), axis=1)[:, np.newaxis, :]
    pivots = np.take_along_axis(vecs, rows, axis=1)
    return values, vecs * (np.abs(pivots) / pivots)


def evolve(s: JointState, spec: Spectrum, t: float) -> JointState:
    """Apply exp(-iHt) through the spectral decomposition of H."""
    if not math.isfinite(t):
        raise DomainError(f"t must be finite, got {t!r}")
    out = [0j] * 4
    for energy, eigvec in zip(spec.eigenvalues, spec.eigenvectors):
        weight = cmath.exp(-1j * energy * t) * joint_overlap(eigvec, s)
        out = [o + weight * e for o, e in zip(out, eigvec.vector)]
    return JointState(out)


def pair_spectra(
    analytic_vectors: np.ndarray, numeric_vectors: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Match eigenvectors by fidelity across (n, 4, 4) stacks.

    Row i of ``analytic_vectors[k]`` is an analytic eigenvector and column j of
    ``numeric_vectors[k]`` a numeric one, as :func:`numeric_spectrum` returns
    them.  Returns ``(assignment, fidelity)``, both (n, 4): analytic i pairs
    with numeric ``assignment[k, i]`` at fidelity |⟨a_i|n_j⟩|².  The match of
    every matrix must be a bijection.
    """
    import numpy as np

    fid = np.abs(analytic_vectors.conj() @ numeric_vectors) ** 2
    assignment = np.argmax(fid, axis=2)
    bijective = (np.sort(assignment, axis=1) == np.arange(4)).all(axis=1)
    if not bijective.all():
        k = int(np.argmin(bijective))
        raise LogicError(
            f"{_which(k, len(fid))}fidelity pairing is not a bijection: {assignment[k].tolist()}"
        )
    return assignment, np.take_along_axis(fid, assignment[:, :, np.newaxis], axis=2)[:, :, 0]
