"""Counter-based random streams for reproducible simulation.

Every run of a simulated experiment owns a fixed number of draws, and draw j
of run i is a pure function of (seed, i, j): the splitmix64 output at counter
position i * draws_per_run + j.  Because no generator state is shared between
runs, any partition of the run indices across workers reproduces the
sequential result bit for bit.

splitmix64 reference: output c mixes the Weyl state seed + (c + 1)·γ, where
γ is the 64-bit golden-ratio constant, with the Stafford mix13 finalizer.
This module alone knows γ and the mix.  A caller that reads only some bits
of each word, as the tally kernel does, uses three exact identities through
this module's pieces:

- Weyl states are linear in the counter: counters c + k·s have the states
  :func:`state` ``(seed, c)`` + :func:`state_steps` ``(s, n)[k]``, mod 2^64.
  Draws whose counters form one arithmetic progression therefore need one
  add each, from a step array made once.
- The mix is :func:`mix_head` (two xorshift-multiply rounds) and then
  :func:`mix_tail`, z ^= z >> 31.  That shift brings zeros into the top 31
  bits, so the tail leaves them alone: a word before its tail has the
  output's top ``KEPT_TOP_BITS`` = 31 bits.  A test on those bits alone can
  skip the tail.
- A uniform is (z >> 11)·2^-53 (``UNIFORM_SHIFT`` = 11), and z >> 11 >= c
  exactly when z >= c·2^11 for any c <= 2^53, so a threshold on the uniform
  is one on the whole word: a word's uniform is at least u exactly when the
  word is at least :func:`least_word` ``(u)``, a multiple of 2^11.

The scalar path is plain Python; only the vectorized functions import numpy,
when they run.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .errors import ValidationError

if TYPE_CHECKING:
    import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB

#: Top bits of a word that the mix's last xorshift, z ^= z >> 31, leaves alone.
KEPT_TOP_BITS = 31

#: Low bits of a word that its uniform drops: u = (z >> UNIFORM_SHIFT)·2^-53.
UNIFORM_SHIFT = 11

# Two uint64 outputs per double would waste half the stream; one 53-bit
# mantissa per uint64 matches the usual convention.
_UNIFORMS = 1 << 53
_INV_2_53 = 2.0**-53


def _mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK
    return z ^ (z >> KEPT_TOP_BITS)


def state(seed: int, counter: int) -> int:
    """The Weyl state that output ``counter`` mixes: seed + (counter + 1)·γ mod 2^64."""
    return (seed + (counter + 1) * _GAMMA) & _MASK


def splitmix64(seed: int, counter: int) -> int:
    """The counter-th output of the splitmix64 stream with the given seed."""
    return _mix64(state(seed, counter))


def validate_seed(seed: int) -> int:
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValidationError(f"seed must be an integer, got {type(seed).__name__}")
    if not 0 <= seed < (1 << 64):
        raise ValidationError(f"seed must fit in 64 unsigned bits, got {seed}")
    return seed


def uniform(seed: int, run_index: int, draw_index: int, draws_per_run: int) -> float:
    """Draw j of run i, as a float in [0, 1). Scalar reference path."""
    counter = run_index * draws_per_run + draw_index
    return (splitmix64(seed, counter) >> UNIFORM_SHIFT) * _INV_2_53


def least_word(u: float) -> int:
    """The least word z whose uniform (z >> 11)·2^-53 is at least ``u``, for u in [0, 1]; 2^64 at u = 1.

    Scaling by 2^53 is exact, so ceil(u·2^53) is the least reachable z >> 11.
    """
    return min(math.ceil(u * _UNIFORMS), _UNIFORMS) << UNIFORM_SHIFT


def state_steps(step: int, n: int) -> np.ndarray:
    """k·step·γ mod 2^64 for k < n, as uint64: entry k plus :func:`state` of
    counter c is the state of counter c + k·step."""
    import numpy as np

    steps = np.arange(n, dtype=np.uint64)
    steps *= np.uint64((step * _GAMMA) & _MASK)
    return steps


def mix_head(z: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Mix the uint64 states ``z`` in place up to the last xorshift; ``work`` is scratch like ``z``."""
    import numpy as np

    for shift, mul in ((30, _MIX_A), (27, _MIX_B)):
        np.right_shift(z, np.uint64(shift), out=work)
        z ^= work
        z *= np.uint64(mul)
    return z


def mix_tail(z: np.ndarray, work: np.ndarray) -> np.ndarray:
    """Apply the last xorshift to :func:`mix_head`'s words in place, making them outputs."""
    import numpy as np

    np.right_shift(z, np.uint64(KEPT_TOP_BITS), out=work)
    z ^= work
    return z


def run_uniforms(seed: int, run_lo: int, run_hi: int, draws_per_run: int) -> np.ndarray:
    """Uniform draws for runs [run_lo, run_hi), shape (run_hi - run_lo, draws_per_run).

    Row k holds the draws of run run_lo + k; identical to calling
    :func:`uniform` entrywise, but vectorized.
    """
    import numpy as np

    validate_seed(seed)
    if run_hi < run_lo or run_lo < 0:
        raise ValidationError(f"bad run range [{run_lo}, {run_hi})")
    n = run_hi - run_lo
    # Run r's draws sit at counters r * draws_per_run + j: one contiguous range.
    z = state_steps(1, n * draws_per_run)
    z += np.uint64(state(seed, run_lo * draws_per_run))
    work = np.empty_like(z)
    mix_tail(mix_head(z, work), work)
    return (z >> np.uint64(UNIFORM_SHIFT)).astype(np.float64).reshape(n, draws_per_run) * _INV_2_53
