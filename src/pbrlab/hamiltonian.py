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
code with the analytic formulas and orders eigenvalues ascending, so spectra
from the two routes are matched by eigenvector fidelity, never by index.
Both :func:`numeric_spectrum` and the matching, :func:`pair_spectra`, take
(n, 4, 4) stacks, one ``eigh`` call per stack; a lone matrix is a stack of one.
Only the functions that take stacks import numpy, when they run.

The protocols only need four *distinguishable* outcomes, so both routes apply
the gap rule of :func:`pbrlab.params._check_gaps`: finite eigenvalues pairwise
at least ``gap_tol`` apart (the non-degeneracy conditions a ≠ ±b resp. a ≠ c
are necessary but not sufficient for that).  That rule's messages, and the
``matrix k of n:`` prefix of every error about one matrix of a stack, are
worded in :mod:`pbrlab.params`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import ConvergenceError, DomainError, LogicError, ValidationError
from .params import (
    GAP_TOL,
    SOC_LABELS,
    CouplingSet,
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
