"""Shared-ontic-state feasibility and the exclusion deductions.

The question asked here: if Alice's prepared states could share a physical
state (her two alternatives have overlapping supports), and likewise Bob's,
can any assignment of outcome probabilities p(k | shared state) satisfy
quantum statistics?  Supports are modeled abstractly — all the argument uses
is *which preparations' supports contain the shared state* — and each such
preparation forbids its own outcome exactly (Born weight zero), so the
constraint system is

    p(k) = 0   for every forbidden outcome k of a support preparation,
    p(1) + p(2) + p(3) + p(4) = 1,       p(k) >= 0.

(p(k) <= 1 needs no row of its own: nonnegativity and normalization imply
it.)  A problem holds just the (support preparation, forbidden outcome) pairs
it keeps from the instance; its supports and zeroed outcomes are read off
those pairs, so they cannot disagree.

With overlaps on both sides the four forbidden outcomes cover all four
outcomes (the forbidden map is a bijection) and the system is infeasible:
some outcome always occurs, so the two overlaps cannot coexist.  The decision
is made by a general phase-1 simplex over exact rationals; the trivial subset
rule ("infeasible iff every outcome is zeroed") is kept alongside purely as an
oracle.  The rows depend only on which outcomes are zeroed, so the simplex
decides each zeroed set once per process: at most 16 cached results.

A noise-robust form: if every preparation shows its forbidden outcome with
frequency at most eps_hat, then for the shared state class of joint weight
q_a * q_b the total forbidden probability across the four preparations equals
sum_k p(k | shared) = 1, so q_a * q_b <= sum over preparations of
P(forbidden | prep) <= 4 * eps_hat (:func:`pbrlab.params.overlap_bound`).
"""

from __future__ import annotations

import enum
import functools
import math
from collections.abc import Callable
from dataclasses import dataclass

from .errors import LogicError, ValidationError
from .params import Variant
from .protocol import ProtocolInstance, companion
from .simplex import Phase1Result, phase1_feasible

#: theta window in which the spin-orbit states v and w are treated as equal.
SPECIAL_CASE_ATOL = 1e-10


class Relation(str, enum.Enum):
    DISJOINT = "disjoint"
    AT_LEAST_ONE_DISJOINT = "at-least-one-disjoint"


@dataclass(frozen=True)
class SupportProfile:
    """Which party's state pair shares ontic support."""

    alice_overlap: bool
    bob_overlap: bool


@dataclass(frozen=True)
class FeasibilityProblem:
    """Response-probability constraints induced by a support profile.

    ``forbidden`` holds the (support preparation, forbidden outcome) pairs kept
    from the instance: each support contains the shared state, so its outcome
    gets probability zero.  ``supports`` and ``zeroed`` are read off the pairs;
    the instance's variant and theta are not copied.  Construction raises
    ``ValidationError`` unless the four outcome labels are distinct and every
    forbidden outcome is one of them.
    """

    outcome_labels: tuple[str, ...]
    forbidden: tuple[tuple[str, str], ...]

    def __post_init__(self):
        labels = self.outcome_labels
        if len(labels) != 4 or len(set(labels)) != 4:
            raise ValidationError(f"expected 4 distinct outcome labels, got {labels}")
        unknown = [out for _, out in self.forbidden if out not in labels]
        if unknown:
            raise ValidationError(
                f"forbidden outcomes {unknown} are not outcome labels {list(labels)}"
            )

    @property
    def supports(self) -> tuple[str, ...]:
        return tuple(prep for prep, _ in self.forbidden)

    @property
    def zeroed(self) -> tuple[str, ...]:
        """The forbidden outcomes, once each, in outcome-label order."""
        outs = {out for _, out in self.forbidden}
        return tuple(lab for lab in self.outcome_labels if lab in outs)


@dataclass(frozen=True)
class FeasibilityDecision:
    feasible: bool
    witness: tuple[tuple[str, float], ...] | None
    certificate: tuple[str, ...] | None
    problem: FeasibilityProblem
    method: str = "phase1-simplex"


def _definite_party(prof: SupportProfile) -> int:
    """Index in an "alice*bob" label of the party whose state a single overlap leaves definite."""
    if not (prof.alice_overlap or prof.bob_overlap):
        raise ValidationError("no overlap flag set: there is no shared ontic state to test")
    if prof.alice_overlap and prof.bob_overlap:
        raise ValidationError("both overlap flags set: there is no definite party to branch on")
    return 1 if prof.alice_overlap else 0


def single_overlap_branches(inst: ProtocolInstance, prof: SupportProfile) -> list[str]:
    """The definite party's states, sorted: the ``branch`` values of a single-overlap problem."""
    party = _definite_party(prof)
    return sorted({label.split("*")[party] for label in inst.prep_labels})


def build_problem(
    inst: ProtocolInstance, prof: SupportProfile, *, branch: str = "u"
) -> FeasibilityProblem:
    """Constraints on the shared state implied by a support profile.

    With both overlaps the shared state sits in the support of all four
    preparations.  With a single overlap the other party's state is definite;
    ``branch`` names it, and only the two preparations using that state
    contribute their forbidden outcomes.
    """
    if prof.alice_overlap and prof.bob_overlap:
        return _problem(inst, lambda prep, out: True)
    party = _definite_party(prof)
    choices = single_overlap_branches(inst, prof)
    if branch not in choices:
        raise ValidationError(
            f"branch {branch!r} is not one of {('Alice', 'Bob')[party]}'s states {choices}"
        )
    return _problem(inst, lambda prep, out: prep.split("*")[party] == branch)


def _problem(inst: ProtocolInstance, keep: Callable[[str, str], bool]) -> FeasibilityProblem:
    """The problem on the instance's (preparation, forbidden outcome) pairs ``keep`` accepts."""
    return FeasibilityProblem(
        outcome_labels=inst.outcome_labels,
        forbidden=tuple(pair for pair in inst.forbidden if keep(*pair)),
    )


def lp_feasible(prob: FeasibilityProblem, *, exact: bool = False) -> FeasibilityDecision:
    """Decide the problem with the phase-1 simplex (no special-casing).

    Variables are the four response probabilities; rows are the zero
    equalities and the normalization.  The bounds p(k) <= 1 follow from
    p >= 0 and the normalization, so they get no rows.  A feasible problem is
    reported with the uniform witness over the outcomes not forced to zero;
    an infeasible one with the textual contradiction certificate, which names
    the support preparation forbidding each zeroed outcome.
    The simplex always pivots over exact rationals; ``exact`` selects no
    arithmetic and only names the method the decision reports
    (``phase1-simplex-exact`` or ``phase1-simplex``).  The simplex runs once
    per zeroed set in a process (at most 16 cached results); later calls with
    the same set reuse its decision, whatever the label order or repetition.
    """
    labels = prob.outcome_labels
    forbidder = {out: prep for prep, out in prob.forbidden}
    result = _decide(sum(1 << labels.index(out) for out in forbidder))
    witness = certificate = None
    if result.feasible:
        live = [lab for lab in labels if lab not in forbidder]
        witness = tuple((lab, 1.0 / len(live)) for lab in live)
    else:
        certificate = tuple(
            f"p({lab}) = 0  (forbidden outcome of preparation {forbidder[lab]}, "
            "whose support contains the shared state)"
            for lab in prob.zeroed
        ) + (
            "p(" + ") + p(".join(labels) + ") = 1  (some outcome occurs in every run)",
            "summing the zero equalities over all four outcomes gives 0 = 1",
        )
    return FeasibilityDecision(
        feasible=result.feasible,
        witness=witness,
        certificate=certificate,
        problem=prob,
        method="phase1-simplex-exact" if exact else "phase1-simplex",
    )


@functools.lru_cache
def _decide(mask: int) -> Phase1Result:
    """Phase-1 decision of the LP whose zeroed outcomes are the set bits of ``mask``.

    Rows go in ascending outcome index, then the normalization.  The key space
    (16 masks) bounds the cache; ``Phase1Result`` is frozen, so callers can
    share a cached one.
    """
    rows = [[float(j == k) for j in range(4)] for k in range(4) if mask >> k & 1]
    rows.append([1.0] * 4)
    return phase1_feasible(rows, [0.0] * (len(rows) - 1) + [1.0])


def problem_from_zeroed(
    inst: ProtocolInstance, zeroed: tuple[str, ...]
) -> FeasibilityProblem:
    """Problem with an arbitrary zeroed set, such as each of the 16 the simplex oracle checks.

    The supporting preparations are the ones whose forbidden outcome is in
    ``zeroed``, so degenerate sets (empty, partial, full) stay self-consistent.
    """
    unknown = set(zeroed) - set(inst.outcome_labels)
    if unknown:
        raise ValidationError(f"unknown outcome labels {sorted(unknown)}")
    return _problem(inst, lambda prep, out: out in zeroed)


def subset_rule_feasible(prob: FeasibilityProblem) -> bool:
    """Oracle: feasible iff the zero equalities do not cover every outcome."""
    return len(prob.zeroed) < len(prob.outcome_labels)


@dataclass(frozen=True)
class Verdict:
    """What the exclusion argument concludes about state pairs.

    ``pairs`` holds one pair for a definite relation, or the two pairs of a
    disjunction for AT_LEAST_ONE_DISJOINT; the variant and theta are those of
    the instance given to :func:`deduce`, not copied here.
    """

    pairs: tuple[tuple[str, str], ...]
    relation: Relation
    note: str


def deduce(inst: ProtocolInstance, both_overlap: FeasibilityDecision) -> list[Verdict]:
    """Turn the both-overlap infeasibility into a state-pair verdict.

    Exchange variant: u conjoint with v would force u disjoint from vbar, so
    at least one of (u, v), (u, vbar) is disjoint.  Spin-orbit variant: same
    for (u, v), (u, w); and at theta = pi/4 the states v and w coincide, so
    the disjunction collapses to an unconditional disjoint(u, v).
    """
    if set(both_overlap.problem.supports) != set(inst.prep_labels):
        raise ValidationError("decision does not come from the both-overlap problem")
    if both_overlap.feasible:
        raise LogicError(
            "both-overlap problem reported feasible; the forbidden bijection makes "
            "that impossible for a valid instance"
        )
    pairs, relation = (("u", "v"), ("u", companion(inst.variant))), Relation.AT_LEAST_ONE_DISJOINT
    note = "backed by the shared-support infeasibility certificate"
    if inst.variant is Variant.SOC and abs(inst.params.theta - math.pi / 4.0) <= SPECIAL_CASE_ATOL:
        pairs, relation = (("u", "v"),), Relation.DISJOINT
        note = "w coincides with v at this overlap (|<u|v>|^2 = 1/2), so the disjunction collapses; " + note
    return [Verdict(pairs=pairs, relation=relation, note=note)]
