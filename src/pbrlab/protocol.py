"""Protocol assembly, Born statistics, and seeded measurement simulation.

A protocol instance fixes the two parties' state choices, the interaction
Hamiltonian, and the resulting forbidden-outcome map:

- exchange variant: Alice prepares u or v, Bob prepares u or vbar, and the
  four joint preparations are each orthogonal to exactly one Bell state
  (u⊗u → e4, u⊗vbar → e2, v⊗u → e3, v⊗vbar → e1);
- spin-orbit variant: Bob prepares u or w, and provided the couplings satisfy
  cos(alpha + theta) = 0 the map is u⊗u → e'2, u⊗w → e'4, v⊗u → e'3,
  v⊗w → e'1.

This module alone knows how the two variants differ (states, spectrum,
Hamiltonian stack, default couplings, constraint residual); other modules ask
it instead of branching on the variant.  Importing it loads no numpy: the
functions that build arrays (the Hamiltonian stack, the numeric pairing, the
Born matrix, the tally kernel) import it when they run.

Simulation draws each run's preparation and outcome from counter-based
streams (see :mod:`pbrlab.rng`), so a tally table is a pure function of
(instance, n_runs, seed, noise_eps, policy) no matter how the runs are
partitioned across workers.  Noise is a symmetric outcome flip: with
probability noise_eps the sampled outcome is replaced by one of the four
outcomes chosen uniformly, so each forbidden outcome shows up with frequency
noise_eps / 4.  The resulting :class:`TallyTable` holds the instance and
the counts, nothing else: it reads the labels and the forbidden map off the
instance to divide out each frequency, the forbidden-outcome rates and
eps_hat, and the caller echoes the seed, noise and policy it passed.  The CLI
renders tables.  Spectrum failures, the unpairable one included, are worded
in :mod:`pbrlab.params`.
"""

from __future__ import annotations

import contextlib
import itertools
import os
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .coupling_solver import solve_closed_form
from .errors import ConstraintError, DegeneracyError, LogicError, ValidationError
from .hamiltonian import (
    Spectrum,
    analytic_spectrum_soc,
    analytic_spectrum_xyz,
    hamiltonian_entries,
    numeric_spectrum,
    pair_spectra,
)
from .params import (
    CONSTRAINT_ATOL, GAP_TOL, ORTHO_ATOL, CouplingSet, OverlapParams, PrepPolicy, Variant, _check_tolerance,
    _unpaired, constraint,
)
from .qstate import (
    JointState,
    PureState,
    build_pair_soc,
    build_pair_xyz,
    joint_overlap,
    tensor,
)
# run_uniforms is unused here; perfbench's tracer test asserts this binding.
from .rng import (  # noqa: F401
    KEPT_TOP_BITS, UNIFORM_SHIFT, least_word, mix_head, mix_tail, run_uniforms, state, state_steps, validate_seed
)

if TYPE_CHECKING:
    import numpy as np

#: b values tried in turn when building default spin-orbit couplings.  With
#: d = 1 and split = 2 a b in (0, 2) can only make e'2 = e'4, where
#: hypot(a + c, 2) = 2 b + 2: at 3 for 0.5 and at 3.6 for 0.8, so at most one
#: of the two is degenerate at any theta.
DEFAULT_B_CANDIDATES = (0.5, 0.8)

_DRAWS_PER_RUN = 4


def companion(variant: Variant) -> str:
    """Label of Bob's second state: vbar (exchange) or w (spin-orbit)."""
    return "vbar" if Variant(variant) is Variant.XYZ else "w"


#: Each variant's four joint preparations in order: u*u, u*companion, v*u, v*companion.
_PREP_LABELS = {variant: ("u*u", f"u*{companion(variant)}", "v*u", f"v*{companion(variant)}") for variant in Variant}

#: Each variant's (preparation, forbidden outcome) pairs, in preparation order.
_FORBIDDEN = {
    variant: tuple(zip(_PREP_LABELS[variant], outcomes))
    for variant, outcomes in ((Variant.XYZ, ("e4", "e2", "e3", "e1")), (Variant.SOC, ("e'2", "e'4", "e'3", "e'1")))
}


def state_family(variant: Variant, params: OverlapParams) -> dict[str, PureState]:
    """The variant's states by label: u, v and the companion, in that order."""
    pair = build_pair_xyz(params) if Variant(variant) is Variant.XYZ else build_pair_soc(params)
    return dict(zip(("u", "v", companion(variant)), pair))


def analytic_spectrum(variant: Variant, couplings: CouplingSet, gap_tol: float) -> Spectrum:
    """The variant's analytic spectrum, labels e1..e4 (exchange) or e'1..e'4 (spin-orbit)."""
    if Variant(variant) is Variant.XYZ:
        return analytic_spectrum_xyz(couplings, gap_tol=gap_tol)
    return analytic_spectrum_soc(couplings, gap_tol=gap_tol)


def hamiltonian_stack(variant: Variant, couplings: Sequence[CouplingSet]) -> np.ndarray:
    """The variant's Hamiltonians at ``couplings``, an (n, 4, 4) stack for :func:`numeric_spectrum`.

    Matrix k is :func:`hamiltonian_entries` of ``couplings[k]``, with d dropped
    (exchange) or a missing d taken as 0 (spin-orbit), in the same bits for any n.
    """
    import numpy as np

    columns = np.array([(c.a, c.b, c.c, c.d_or_zero) for c in couplings], dtype=float).reshape(-1, 4).T
    a, b, c, d = columns[:, :, np.newaxis, np.newaxis]
    return hamiltonian_entries(a, b, c, None if Variant(variant) is Variant.XYZ else d)


def numeric_pairing(
    variant: Variant, sampled: Sequence[tuple[CouplingSet, Spectrum]], gap_tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Each analytic eigenvalue's numeric partner and the pair's fidelity, both (n, 4).

    ``sampled`` pairs coupling sets with their analytic spectra; column i of
    both results belongs to analytic label i.  One stacked
    :func:`numeric_spectrum` and one :func:`pair_spectra` do the work.
    Eigenvalues that ``gap_tol`` lets through but ``eigh`` cannot resolve
    leave eigenvectors unpaired: the first such matrix raises
    :class:`DegeneracyError` (see :func:`pbrlab.params._unpaired`).
    """
    import numpy as np

    values, vectors = numeric_spectrum(hamiltonian_stack(variant, [c for c, _ in sampled]), gap_tol)
    analytic_vectors = np.array(
        [[v.vector for v in spec.eigenvectors] for _, spec in sampled], dtype=complex
    ).reshape(-1, 4, 4)
    try:
        assignment, fidelity = pair_spectra(analytic_vectors, vectors)
    except LogicError:
        for k, (_, spectrum) in enumerate(sampled):
            try:
                pair_spectra(analytic_vectors[k : k + 1], vectors[k : k + 1])
            except LogicError:
                raise _unpaired(spectrum.eigenvalues, spectrum.labels, gap_tol, k, len(sampled)) from None
        raise  # no matrix fails alone: not a degeneracy
    return np.take_along_axis(values, assignment, axis=1), fidelity


def default_couplings(variant: Variant, theta: float) -> CouplingSet:
    """The couplings used when none are given.

    Exchange: (1, 2, 3).  Spin-orbit: the constraint couplings at theta with
    d = 1, split = 2 and the first non-degenerate b of ``DEFAULT_B_CANDIDATES``.
    """
    if Variant(variant) is Variant.XYZ:
        return CouplingSet(1.0, 2.0, 3.0)
    for b in DEFAULT_B_CANDIDATES[:-1]:
        with contextlib.suppress(DegeneracyError):
            return solve_closed_form(theta, 1.0, 2.0, b=b).couplings
    return solve_closed_form(theta, 1.0, 2.0, b=DEFAULT_B_CANDIDATES[-1]).couplings


@dataclass(frozen=True)
class ProtocolInstance:
    """A verified protocol: states, spectrum, and the forbidden bijection."""

    variant: Variant
    params: OverlapParams
    couplings: CouplingSet
    spectrum: Spectrum
    preparations: tuple[tuple[str, JointState], ...]

    @property
    def forbidden(self) -> tuple[tuple[str, str], ...]:
        return _FORBIDDEN[self.variant]

    @property
    def prep_labels(self) -> tuple[str, ...]:
        return _PREP_LABELS[self.variant]

    @property
    def outcome_labels(self) -> tuple[str, ...]:
        return self.spectrum.labels

    @property
    def constraint_residual(self) -> float | None:
        """|cos(alpha + theta)| for the spin-orbit variant; None for the exchange one."""
        if self.variant is Variant.XYZ:
            return None
        return abs(constraint(self.couplings.a + self.couplings.c, self.couplings.d, self.params.theta))

    @property
    def forbidden_residuals(self) -> dict[tuple[str, str], float]:
        """|⟨e_k|prep⟩| for each (preparation, nominally forbidden outcome) pair."""
        preps = dict(self.preparations)
        vecs = dict(zip(self.spectrum.labels, self.spectrum.eigenvectors))
        return {
            (prep_label, outcome_label): abs(joint_overlap(vecs[outcome_label], preps[prep_label]))
            for prep_label, outcome_label in self.forbidden
        }

    def born_matrix(self) -> np.ndarray:
        """Row p = Born probabilities of preparation p over the outcome labels, a (4, 4) array."""
        import numpy as np

        return np.array(
            [born_probabilities(state, self.spectrum) for _, state in self.preparations]
        )


def born_probabilities(prep: JointState, spectrum: Spectrum) -> tuple[float, float, float, float]:
    """p_k = |⟨e_k|prep⟩|² in the spectrum's label order."""
    return tuple(
        abs(joint_overlap(vec, prep)) ** 2 for vec in spectrum.eigenvectors
    )


def _assemble(
    variant: Variant, params: OverlapParams, couplings: CouplingSet, gap_tol: float
) -> ProtocolInstance:
    """An instance whose spectrum gaps are checked, and nothing else yet."""
    variant = Variant(variant)
    spectrum = analytic_spectrum(variant, couplings, gap_tol)
    u, v, w = state_family(variant, params).values()
    states = (tensor(u, u), tensor(u, w), tensor(v, u), tensor(v, w))
    return ProtocolInstance(variant, params, couplings, spectrum, tuple(zip(_PREP_LABELS[variant], states)))


def orthogonality_residuals(
    variant: Variant, params: OverlapParams, couplings: CouplingSet
) -> dict[tuple[str, str], float]:
    """|⟨e_k|prep⟩| for each (preparation, nominally forbidden outcome) pair.

    Does not require the spin-orbit constraint to hold, so it doubles as the
    negative control: couplings off the constraint surface leave two of the
    four residuals at |cos(alpha + theta)| / sqrt(2).
    """
    return _assemble(variant, params, couplings, GAP_TOL).forbidden_residuals


def make_protocol(
    variant: Variant,
    params: OverlapParams,
    couplings: CouplingSet,
    *,
    gap_tol: float = GAP_TOL,
    ortho_atol: float = ORTHO_ATOL,
) -> ProtocolInstance:
    """Assemble and verify a protocol instance.

    Raises :class:`ValidationError` for a tolerance that is not finite and
    >= 0, and :class:`ConstraintError` when the spin-orbit couplings miss
    cos(alpha + theta) = 0 by more than ``CONSTRAINT_ATOL``, or when any
    forbidden-outcome overlap exceeds ``ortho_atol``; degeneracy errors from
    the spectrum propagate.
    """
    _check_tolerance("ortho_atol", ortho_atol)
    inst = _assemble(variant, params, couplings, gap_tol)
    residual = inst.constraint_residual
    if residual is not None and residual > CONSTRAINT_ATOL:
        raise ConstraintError(
            f"couplings violate cos(alpha + theta) = 0: |cos| = {residual!r} "
            f"(tolerance {CONSTRAINT_ATOL})",
            residual=residual,
        )
    for (prep_label, outcome_label), residual in inst.forbidden_residuals.items():
        if residual > ortho_atol:
            raise ConstraintError(
                f"⟨{outcome_label}|{prep_label}⟩ = {residual!r} exceeds {ortho_atol}",
                residual=residual,
            )
    return inst


@dataclass(frozen=True)
class TallyTable:
    """Counts per (preparation, outcome) from one simulated experiment of ``instance``.

    Row p is preparation ``instance.prep_labels[p]``, column k outcome
    ``instance.outcome_labels[k]``.  The simulation's inputs are not stored.
    """

    instance: ProtocolInstance
    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n_rows, n_cols = len(self.instance.prep_labels), len(self.instance.outcome_labels)
        lengths = [len(row) for row in self.counts]
        if lengths != [n_cols] * n_rows:
            raise ValidationError(f"tally counts must be {n_rows} rows of {n_cols}, got row lengths {lengths}")
        if any(c < 0 for row in self.counts for c in row):
            raise ValidationError("tally counts must be nonnegative")
        if self.n_runs < 1:
            raise ValidationError(f"tally table has no counts: n_runs = {self.n_runs}")

    @property
    def n_runs(self) -> int:
        return sum(sum(row) for row in self.counts)

    def frequency(self, prep_label: str, outcome_label: str) -> float:
        """Share of ``prep_label``'s runs that gave ``outcome_label``; 0 if it had none."""
        prep_labels, outcome_labels = self.instance.prep_labels, self.instance.outcome_labels
        for label, labels in ((prep_label, prep_labels), (outcome_label, outcome_labels)):
            if label not in labels:
                raise ValidationError(f"unknown tally label {label!r} (labels: {', '.join(labels)})")
        row = self.counts[prep_labels.index(prep_label)]
        runs = sum(row)
        return row[outcome_labels.index(outcome_label)] / runs if runs else 0.0

    @property
    def forbidden_rates(self) -> tuple[tuple[str, float], ...]:
        """(preparation, frequency of its forbidden outcome), in preparation order; each needs a run."""
        forbidden = self.instance.forbidden
        rates = tuple((prep, self.frequency(prep, out)) for prep, out in forbidden)
        unrun = [prep for (prep, _), row in zip(forbidden, self.counts) if not any(row)]
        if unrun:
            raise ValidationError(f"no runs prepared {', '.join(unrun)}: a forbidden-outcome rate needs one")
        return rates

    @property
    def eps_hat(self) -> float:
        """The largest forbidden-outcome frequency."""
        return max(rate for _, rate in self.forbidden_rates)


#: Runs tallied per block: the kernel's memory is O(_BLOCK) whatever n_runs is.
_BLOCK = 1 << 16

#: 2^64: every row's top word threshold, which no word reaches.
_KEY_END = 1 << 64

#: A run's key is _KEY_BASE + (p << _PREP_SHIFT) + (z >> UNIFORM_SHIFT) for outcome word z
#: and preparation p (0 under round-robin): the bit pattern of a positive normal float64.
_PREP_SHIFT = 64 - UNIFORM_SHIFT
_KEY_BASE = 1 << 61

#: Key of a run whose outcome the noise replaced: at or above every key and threshold.
_FLIPPED_KEY = (1 << 62) - 1


def _cell_keys(born: np.ndarray, policy: PrepPolicy) -> list[list[int]]:
    """The keys of each row that :func:`_tally_chunk` tallies: a run gives cell k when key k-1 <= its key < key k.

    Key k of preparation p keys, as an outcome word is keyed, the threshold
    :func:`~pbrlab.rng.least_word` of cum[p, k], the row's running sum: a word
    lies below it exactly when its uniform u lies below cum[p, k], and the
    outcome is searchsorted(cum[p], u, side="right"), which keeps a
    zero-probability outcome unreachable even when u lands exactly on a
    cumulative boundary.  Thresholds from the last live outcome (highest
    nonzero Born weight) on are 2^64, above every word: rounding can leave
    cum[p, -1] a hair under 1, and such draws belong to the last live outcome.
    Uniform has one row of all 16 cells, round-robin a row per preparation.
    """
    uniform = policy is PrepPolicy.UNIFORM
    keys = []
    for p, row in enumerate(born):
        last_live = max(k for k, weight in enumerate(row) if weight)
        words = [least_word(c) if k < last_live else _KEY_END for k, c in enumerate(itertools.accumulate(row))]
        keys.append([_KEY_BASE + ((p if uniform else 0) << _PREP_SHIFT) + (t >> UNIFORM_SHIFT) for t in words])
    return [[t for row in keys for t in row]] if uniform else keys


def _tally_chunk(
    lo: int, hi: int, seed: int, born: np.ndarray, noise_eps: float, policy: PrepPolicy
) -> np.ndarray:
    """Tally runs [lo, hi) row by row, in blocks of _BLOCK runs, from raw splitmix64 words.

    The thresholds are the :func:`_cell_keys` of ``born``, the (4, 4) Born matrix.
    Draw d of run i is the word z_d at counter 4i + d (see :mod:`pbrlab.rng`):
    the preparation is z0 >> 62 (or i mod 4 under round-robin), the outcome
    word z1, the noise flip z2 < least_word(eps) and the replacement outcome
    z3 >> 62 — the integer forms of u0·4, u1, u2 < eps and u3·4 for
    u = (z >> 11)·2^-53.  Draw 0 is computed only under the uniform
    policy, draw 2 only with noise on, and draw 3 only for runs that flip.

    Under round-robin the runs i = 4j + p of preparation p read a stream of
    their own, draw d at counter 16j + 4p + d, so each preparation is a row
    tallied alone.  Uniform runs form one row that meets all four rows' keys.
    A run is compared once with each distinct key of its row strictly between
    _KEY_BASE and the row's top key: every run reaches _KEY_BASE, and only
    the flipped runs, whose key is _FLIPPED_KEY, reach the top.

    Three exact identities of splitmix64 (see :mod:`pbrlab.rng`) let each
    draw compute only the bits it is read for, and the last, with one of
    IEEE 754, lets compares run on floats, with every tally bit unchanged:

    - One Weyl state per run.  The states of a run's draws differ by d·γ,
      and a row's runs lie a fixed counter stride apart, so a block's states
      for draw d are one :func:`~pbrlab.rng.state_steps` array, made once
      per call, plus one constant: each draw starts with one add.
    - The mix's last xorshift leaves the top ``KEPT_TOP_BITS`` = 31 bits
      alone.  The preparation and the replacement read only the top 2 bits,
      so they skip it.  A run flips when z2 < T, T = least_word(eps);
      then z2's top 31 bits are at most T's, so the word before the tail is
      below ((T >> 33) + 1) << 33.  Only those candidates, about eps of the
      runs, are finished and tested exactly; all runs are candidates once
      that bound reaches 2^64 (eps within about 2^-31 of 1).
    - A uniform is at least c exactly when its word is at least
      least_word(c), a multiple of 2^11, so exactly when z1 >> 11 is at
      least least_word(c) >> 11.  A run's key is _KEY_BASE = 2^61 plus its
      preparation's 2 bits (0 under round-robin) above z1 >> 11, and each
      threshold is keyed alike, so keys order as (p, z1) against
      (p, threshold).  Every key, threshold and _FLIPPED_KEY lies in
      [2^61, 2^62), the bit pattern of a positive normal finite float64,
      and such floats order as their bit patterns do as integers: each
      compare reads the key buffer through a float64 view, meets no NaN or
      subnormal, and writes into one reused bool buffer.
    """
    import numpy as np

    keys = _cell_keys(born, policy)
    if policy is PrepPolicy.UNIFORM:
        stride = _DRAWS_PER_RUN
        rows = [(0, lo, hi, keys[0])]
    else:
        # Row p holds runs 4j + p in [lo, hi): j in [ceil((lo - p) / 4), ceil((hi - p) / 4)).
        stride = 4 * _DRAWS_PER_RUN
        rows = [(p, (lo + 3 - p) // 4, (hi + 3 - p) // 4, keys[p]) for p in range(4)]
    # A run flips when its noise output is below flip_end; its word before the
    # tail is then at or below last_candidate.
    flip_end = least_word(noise_eps)
    low_bits = 64 - KEPT_TOP_BITS
    last_candidate = np.uint64(min(((flip_end >> low_bits) + 1) << low_bits, _KEY_END) - 1)
    # No buffer is longer than the longest row.
    size = max(1, min(_BLOCK, max(end - first for _, first, end, _ in rows)))
    steps = state_steps(stride, size)
    key, z, work = (np.empty(size, dtype=np.uint64) for _ in range(3))
    hit = np.empty(size, dtype=bool)
    counts = np.zeros(16, dtype=np.int64)
    for p, first, end, row_keys in rows:
        at_least = dict.fromkeys({t for t in row_keys if _KEY_BASE < t < row_keys[-1]}, 0)  # runs whose key is >= t
        limits = np.array(list(at_least), dtype=np.uint64).view(np.float64)
        flipped = np.zeros(len(row_keys), dtype=np.int64)  # flipped runs by their new cell
        base = stride * first + _DRAWS_PER_RUN * p  # counter of the block's first draw 0
        for start in range(first, end, _BLOCK):
            n = min(_BLOCK, end - start)
            s, k, zn, w, h = steps[:n], key[:n], z[:n], work[:n], hit[:n]
            kf = k.view(np.float64)

            def draw(d, out):
                return mix_head(np.add(s, np.uint64(state(seed, base + d)), out=out), w)

            mix_tail(draw(1, k), w)
            k >>= np.uint64(UNIFORM_SHIFT)
            k |= np.uint64(_KEY_BASE)
            if policy is PrepPolicy.UNIFORM:
                np.right_shift(draw(0, zn), np.uint64(62), out=zn)
                zn <<= np.uint64(_PREP_SHIFT)
                k |= zn
            if flip_end:
                np.less_equal(draw(2, zn), last_candidate, out=h)
                candidates = np.flatnonzero(h)
                noise = mix_tail(zn[candidates], w[: len(candidates)])
                flips = candidates[noise <= np.uint64(flip_end - 1)]
                replaced = s[flips] + np.uint64(state(seed, base + 3))
                cells = mix_head(replaced, w[: len(flips)]) >> np.uint64(62)
                if policy is PrepPolicy.UNIFORM:
                    cells |= (k[flips] >> np.uint64(_PREP_SHIFT) & np.uint64(3)) << np.uint64(2)
                flipped += np.bincount(cells.astype(np.intp), minlength=len(row_keys))
                k[flips] = _FLIPPED_KEY
            for threshold, limit in zip(at_least, limits):
                np.greater_equal(kf, limit, out=h)
                at_least[threshold] += np.count_nonzero(h)
            base += stride * _BLOCK
        n_row = end - first
        reached = [n_row if t == _KEY_BASE else flipped.sum() if t == row_keys[-1] else at_least[t] for t in row_keys]
        # Unflipped runs in cell c lie at or above row_keys[c - 1] and below row_keys[c].
        counts[4 * p : 4 * p + len(row_keys)] = flipped - np.diff(reached, prepend=n_row)
    return counts.reshape(4, 4)


def _check_count(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 1:
        raise ValidationError(f"{name} must be >= 1, got {value}")


def _chunk_plan(n_runs: int, n_workers: int) -> list[tuple[int, int]]:
    """Contiguous run ranges for min(n_workers, CPU count) workers, empty ones dropped."""
    _check_count("n_workers", n_workers)
    parts = min(n_workers, os.cpu_count() or 1)
    bounds = [n_runs * k // parts for k in range(parts + 1)]
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def simulate(
    inst: ProtocolInstance,
    n_runs: int,
    seed: int,
    noise_eps: float = 0.0,
    prep_policy: PrepPolicy | str = PrepPolicy.UNIFORM,
    *,
    n_workers: int = 1,
) -> TallyTable:
    """Run the experiment n_runs times; deterministic in (seed, inputs).

    Run i consumes exactly the four draws of its own counter stream
    (preparation, outcome, noise flip, noise replacement), so any n_workers
    yields the same table as sequential execution.  At most os.cpu_count()
    worker threads run, whatever n_workers asks for.
    """
    _check_count("n_runs", n_runs)
    validate_seed(seed)
    if not 0.0 <= noise_eps <= 1.0:
        raise ValidationError(f"noise_eps must lie in [0, 1], got {noise_eps}")
    policy = PrepPolicy(prep_policy)
    chunks = _chunk_plan(n_runs, n_workers)

    born = inst.born_matrix()
    if len(chunks) == 1:
        total = _tally_chunk(*chunks[0], seed, born, noise_eps, policy)
    else:
        import concurrent.futures  # here, not at module top: it pulls in logging

        with concurrent.futures.ThreadPoolExecutor(max_workers=len(chunks)) as pool:
            futures = [
                pool.submit(_tally_chunk, lo, hi, seed, born, noise_eps, policy)
                for lo, hi in chunks
            ]
            total = sum(fut.result() for fut in futures)
    if (total < 0).any() or total.sum() != n_runs:  # a kernel fault, not the caller's input
        raise LogicError(f"tally kernel returned counts {total.tolist()} for {n_runs} runs")
    return TallyTable(inst, tuple(tuple(int(x) for x in row) for row in total))

