"""Single- and two-qubit pure states in the z spin basis.

Conventions used throughout the package:

- |+⟩ = spin up along z, |−⟩ = spin down; a :class:`PureState` stores the two
  complex amplitudes in that order.
- Two-qubit amplitudes are ordered (|++⟩, |+−⟩, |−+⟩, |−−⟩), first factor A,
  second factor B.
- A pair of distinct, non-orthogonal states is parametrized by
  theta = arccos|⟨u|v⟩| in the open interval (0, π/2) and phi = arg⟨u|v⟩.
- States carry their constructed global phase (the u states carry e^{-i phi});
  physical comparisons use |overlap|², which ignores it.
- A state's norm is checked once, when it is built: :class:`PureState` and
  :class:`JointState` (a tuple of 4 Python ``complex``, copied then) are
  frozen, so :func:`overlap` and :func:`tensor` take their inputs as normalized.
  The arithmetic is plain Python: no numpy, and no BLAS kernel in its bits.

Two state families are provided: the x-z Bloch-plane pair (u, v) with the
companion state vbar orthogonal to v inside span{u, v}, and the pair (u, v)
with companion w obtained by swapping the roles of cos(theta) and sin(theta),
used by the spin-orbit protocol.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ValidationError
from .params import OverlapParams

#: Absolute tolerance for normalization and orthogonality checks.
NORM_ATOL = 1e-12


@dataclass(frozen=True)
class PureState:
    """A normalized single-qubit state (amp_plus |+⟩ + amp_minus |−⟩)."""

    amp_plus: complex
    amp_minus: complex

    def __post_init__(self):
        object.__setattr__(self, "amp_plus", complex(self.amp_plus))
        object.__setattr__(self, "amp_minus", complex(self.amp_minus))
        _check_normalized(abs(self.amp_plus) ** 2 + abs(self.amp_minus) ** 2, "PureState")


@dataclass(frozen=True)
class JointState:
    """A normalized two-qubit state over (|++⟩, |+−⟩, |−+⟩, |−−⟩), from any sequence of 4 numbers."""

    vector: tuple[complex, complex, complex, complex]

    def __post_init__(self):
        try:
            vec = tuple(map(complex, self.vector))
        except (TypeError, ValueError):  # not a sequence of numbers, e.g. a (2, 2) array
            vec = ()
        if len(vec) != 4:
            raise ValidationError(f"JointState needs 4 amplitudes, got {self.vector!r}")
        object.__setattr__(self, "vector", vec)
        _check_normalized(joint_overlap(self, self).real, "JointState")


def _check_normalized(squared_norm: float, what: str) -> None:
    if not math.isfinite(squared_norm) or abs(squared_norm - 1.0) > NORM_ATOL:
        raise ValidationError(
            f"{what} is not normalized: squared norm {squared_norm!r} (tolerance {NORM_ATOL})"
        )


def overlap(u: PureState, v: PureState) -> complex:
    """Inner product ⟨u|v⟩ = conj(u)·v."""
    return (
        u.amp_plus.conjugate() * v.amp_plus + u.amp_minus.conjugate() * v.amp_minus
    )


def joint_overlap(x: JointState, y: JointState) -> complex:
    """Inner product ⟨x|y⟩ of two-qubit states, from four real dot products summed in index order.

    ``by_re`` holds the sums of x.real * y.real and x.imag * y.real, ``by_im``
    those of x.real * y.imag and x.imag * y.imag: a complex times a float
    multiplies each part exactly once.  This is the order of OpenBLAS's zdotc
    loop for short vectors, so on its Haswell kernel ``np.vdot`` gives the
    same values.
    """
    (a0, a1, a2, a3), (b0, b1, b2, b3) = x.vector, y.vector
    by_re = a0 * b0.real + a1 * b1.real + a2 * b2.real + a3 * b3.real
    by_im = a0 * b0.imag + a1 * b1.imag + a2 * b2.imag + a3 * b3.imag
    return complex(by_re.real + by_im.imag, by_im.real - by_re.imag)


def build_pair_xyz(p: OverlapParams) -> tuple[PureState, PureState, PureState]:
    """States (u, v, vbar) of the Bloch-plane family.

    u = e^{-i phi}(cos(θ/2)|+⟩ − sin(θ/2)|−⟩), v = cos(θ/2)|+⟩ + sin(θ/2)|−⟩,
    and vbar = −sin(θ/2)|+⟩ + cos(θ/2)|−⟩ is orthogonal to v within span{u, v}.
    """
    half = p.theta / 2.0
    c, s = math.cos(half), math.sin(half)
    phase = cmath.exp(-1j * p.phi)
    u = PureState(phase * c, -phase * s)
    v = PureState(c, s)
    vbar = PureState(-s, c)
    return u, v, vbar


def build_pair_soc(p: OverlapParams) -> tuple[PureState, PureState, PureState]:
    """States (u, v, w) of the spin-orbit family.

    u = e^{-i phi}|+⟩, v = cos θ|+⟩ + sin θ|−⟩, w = sin θ|+⟩ + cos θ|−⟩.
    At theta = π/4 the states v and w coincide.
    """
    c, s = math.cos(p.theta), math.sin(p.theta)
    phase = cmath.exp(-1j * p.phi)
    u = PureState(phase, 0.0)
    v = PureState(c, s)
    w = PureState(s, c)
    return u, v, w


def tensor(a: PureState, b: PureState) -> JointState:
    """Product state a ⊗ b in the fixed (++, +−, −+, −−) order."""
    return JointState(
        (
            a.amp_plus * b.amp_plus,
            a.amp_plus * b.amp_minus,
            a.amp_minus * b.amp_plus,
            a.amp_minus * b.amp_minus,
        )
    )
