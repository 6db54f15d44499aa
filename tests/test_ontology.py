"""Support-overlap feasibility, deductions, and the noise-robust bound."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pbrlab import ontology, verify
from pbrlab import (
    CouplingSet,
    FeasibilityDecision,
    LogicError,
    OverlapParams,
    Relation,
    SupportProfile,
    ValidationError,
    Variant,
    build_problem,
    deduce,
    lp_feasible,
    make_protocol,
    overlap_bound,
    problem_from_zeroed,
    solve_closed_form,
    subset_rule_feasible,
)
from pbrlab.simplex import phase1_feasible


def xyz_instance(theta=math.pi / 3):
    return make_protocol(Variant.XYZ, OverlapParams(theta), CouplingSet(1, 2, 3))


def soc_instance(theta, b=0.5):
    couplings = solve_closed_form(theta, d=1.0, split=2.0, b=b).couplings
    return make_protocol(Variant.SOC, OverlapParams(theta), couplings)


class TestBuildProblem:
    def test_both_overlaps_zero_every_outcome(self):
        prob = build_problem(xyz_instance(), SupportProfile(True, True))
        assert prob.zeroed == ("e1", "e2", "e3", "e4")
        assert set(prob.supports) == {"u*u", "u*vbar", "v*u", "v*vbar"}

    def test_alice_only_bob_on_u(self):
        prob = build_problem(xyz_instance(), SupportProfile(True, False), branch="u")
        assert set(prob.supports) == {"u*u", "v*u"}
        assert prob.zeroed == ("e3", "e4")

    def test_alice_only_bob_on_vbar(self):
        prob = build_problem(xyz_instance(), SupportProfile(True, False), branch="vbar")
        assert set(prob.supports) == {"u*vbar", "v*vbar"}
        assert prob.zeroed == ("e1", "e2")

    def test_bob_only_branches(self):
        prob_u = build_problem(xyz_instance(), SupportProfile(False, True), branch="u")
        assert prob_u.zeroed == ("e2", "e4")
        prob_v = build_problem(xyz_instance(), SupportProfile(False, True), branch="v")
        assert prob_v.zeroed == ("e1", "e3")

    def test_no_overlap_is_an_error(self):
        with pytest.raises(ValidationError, match="no overlap"):
            build_problem(xyz_instance(), SupportProfile(False, False))

    def test_unknown_branch_is_an_error(self):
        with pytest.raises(ValidationError, match="branch"):
            build_problem(xyz_instance(), SupportProfile(True, False), branch="w")


class TestSingleOverlapBranches:
    def test_branches_are_the_definite_partys_states(self):
        branches = ontology.single_overlap_branches
        assert branches(xyz_instance(), SupportProfile(True, False)) == ["u", "vbar"]
        assert branches(xyz_instance(), SupportProfile(False, True)) == ["u", "v"]
        assert branches(soc_instance(1.0), SupportProfile(True, False)) == ["u", "w"]
        assert branches(soc_instance(1.0), SupportProfile(False, True)) == ["u", "v"]

    @pytest.mark.parametrize(
        "prof, message",
        [((True, True), "both overlap"), ((False, False), "no overlap")],
        ids=["both", "neither"],
    )
    def test_needs_exactly_one_overlap(self, prof, message):
        with pytest.raises(ValidationError, match=message):
            ontology.single_overlap_branches(xyz_instance(), SupportProfile(*prof))


class TestLpFeasible:
    def test_both_overlap_is_infeasible_with_certificate(self):
        decision = lp_feasible(build_problem(xyz_instance(), SupportProfile(True, True)))
        assert not decision.feasible
        assert decision.witness is None
        assert len(decision.certificate) == 6  # 4 zero rows + normalization + contradiction
        assert any("0 = 1" in line for line in decision.certificate)
        assert decision.method == "phase1-simplex"

    def test_single_overlap_has_uniform_witness(self):
        decision = lp_feasible(
            build_problem(xyz_instance(), SupportProfile(True, False), branch="u")
        )
        assert decision.feasible
        assert dict(decision.witness) == {"e1": 0.5, "e2": 0.5}

    def test_empty_zeroed_set_gives_uniform_over_all(self):
        prob = problem_from_zeroed(xyz_instance(), ())
        decision = lp_feasible(prob)
        assert decision.feasible
        assert dict(decision.witness) == {lab: 0.25 for lab in prob.outcome_labels}

    def test_witness_satisfies_the_constraints(self):
        prob = problem_from_zeroed(xyz_instance(), ("e2",))
        decision = lp_feasible(prob)
        w = dict(decision.witness)
        assert w.get("e2", 0.0) == 0.0
        assert sum(w.values()) == pytest.approx(1.0, abs=1e-12)

    def test_every_zeroed_subset_matches_oracle(self):
        inst = xyz_instance()
        labels = inst.outcome_labels
        for r in range(5):
            for combo in itertools.combinations(labels, r):
                prob = problem_from_zeroed(inst, combo)
                assert lp_feasible(prob).feasible == subset_rule_feasible(prob)

    @given(st.lists(st.sampled_from(["e1", "e2", "e3", "e4"]), max_size=4, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_randomized_zeroed_sets_match_oracle(self, zeroed):
        prob = problem_from_zeroed(xyz_instance(), tuple(zeroed))
        assert lp_feasible(prob).feasible == subset_rule_feasible(prob)

    def test_four_variable_lp_over_every_zeroed_subset(self, monkeypatch):
        # lp_feasible has no rows for p <= 1; nonnegativity and the
        # normalization must imply them on every zeroed set.
        systems = []

        def recording(a, b):
            result = phase1_feasible(a, b)
            systems.append((np.array(a), result))
            return result

        monkeypatch.setattr(ontology, "phase1_feasible", recording)
        ontology._decide.cache_clear()  # a cache hit would not reach the recorder
        inst = xyz_instance()
        for r in range(5):
            for combo in itertools.combinations(inst.outcome_labels, r):
                prob = problem_from_zeroed(inst, combo)
                decision = lp_feasible(prob)
                a, result = systems[-1]
                assert a.shape == (r + 1, 4)
                assert result.feasible == decision.feasible == subset_rule_feasible(prob)
                if result.feasible:
                    x = np.array(result.x)
                    assert np.all(x >= 0.0) and np.all(x <= 1.0)
                    assert x.sum() == pytest.approx(1.0, abs=1e-12)
                    labels = inst.outcome_labels
                    assert all(x[labels.index(out)] == 0.0 for _, out in prob.forbidden)
        assert len(systems) == 16

    def test_each_zeroed_set_is_decided_once_by_the_simplex(self, monkeypatch):
        calls = []

        def recording(a, b):
            calls.append(len(a))
            return phase1_feasible(a, b)

        monkeypatch.setattr(ontology, "phase1_feasible", recording)
        ontology._decide.cache_clear()
        for _ in range(2):
            for mask in range(16):
                rows = [[float(j == k) for j in range(4)] for k in range(4) if mask >> k & 1]
                rows.append([1.0] * 4)
                assert ontology._decide(mask) == phase1_feasible(rows, [0.0] * (len(rows) - 1) + [1.0])
        assert sorted(calls) == sorted(mask.bit_count() + 1 for mask in range(16))

    def test_every_zeroed_set_decision_is_pinned(self):
        # The 16 decisions as (feasible, x, iterations).  Bland's rule pivots
        # each zeroed outcome in, then the lowest-index free one, which is the
        # vertex; with all four zeroed the artificial sum stays at 1.
        e = [tuple(float(i == k) for i in range(4)) for k in range(4)]
        table = {
            0: (True, e[0], 1), 1: (True, e[1], 2), 2: (True, e[0], 2), 3: (True, e[2], 3),
            4: (True, e[0], 2), 5: (True, e[1], 3), 6: (True, e[0], 3), 7: (True, e[3], 4),
            8: (True, e[0], 2), 9: (True, e[1], 3), 10: (True, e[0], 3), 11: (True, e[2], 4),
            12: (True, e[0], 3), 13: (True, e[1], 4), 14: (True, e[0], 4), 15: (False, None, 4),
        }
        ontology._decide.cache_clear()
        decided = {mask: ontology._decide(mask) for mask in range(16)}
        assert {m: (r.feasible, r.x, r.iterations) for m, r in decided.items()} == table
        assert decided[15].artificial_sum == 1.0

    def test_cache_is_bounded_by_the_zeroed_sets(self):
        inst = xyz_instance()
        labels = inst.outcome_labels
        problems = [problem_from_zeroed(inst, combo) for r in range(5)
                    for combo in itertools.combinations(labels, r)]
        problems += [
            dataclasses.replace(problems[0], forbidden=(("u*u", "e1"),) * 50),
            dataclasses.replace(
                problems[0],
                forbidden=(("v*u", "e4"), ("u*u", "e2"), ("u*vbar", "e4"), ("v*vbar", "e1")),
            ),
            dataclasses.replace(
                problems[0], outcome_labels=labels[::-1], forbidden=tuple(zip("abc", labels[1:]))
            ),
        ]
        for prob in problems:
            for exact in (False, True):
                decision = lp_feasible(prob, exact=exact)
                assert decision.feasible == subset_rule_feasible(prob)
        assert ontology._decide.cache_info().currsize <= 16

    def test_unknown_zeroed_label_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="'zz'"):
            ontology.FeasibilityProblem(
                outcome_labels=("e1", "e2", "e3", "e4"), forbidden=(("u*u", "zz"),),
            )

    def test_repeated_outcome_label_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="4 distinct outcome labels"):
            ontology.FeasibilityProblem(
                outcome_labels=("e1", "e2", "e2", "e4"), forbidden=()
            )

    def test_exact_only_names_the_method(self):
        inst = xyz_instance()
        for combo in (("e1",), ("e1", "e2", "e3", "e4"), ()):
            prob = problem_from_zeroed(inst, combo)
            exact = lp_feasible(prob, exact=True)
            plain = lp_feasible(prob)
            assert (exact.feasible, exact.witness, exact.certificate) == (
                plain.feasible, plain.witness, plain.certificate
            )
            assert (exact.method, plain.method) == ("phase1-simplex-exact", "phase1-simplex")


@pytest.mark.parametrize("variant", list(Variant))
def test_support_problems_do_not_depend_on_theta(variant):
    # Why verify's exclusion check decides one instance per variant: the five
    # support problems keep the same labels and forbidden pairs at every theta.
    def support_problems(theta):
        inst = verify._instance(variant, theta)
        problems = [build_problem(inst, SupportProfile(True, True))]
        for prof in (SupportProfile(True, False), SupportProfile(False, True)):
            problems += [build_problem(inst, prof, branch=b) for b in ontology.single_overlap_branches(inst, prof)]
        return [(prob.outcome_labels, prob.forbidden) for prob in problems]

    reference = support_problems(math.pi / 3)
    assert len(reference) == 5
    for theta in [*verify._theta_grid(100), math.pi / 4]:
        assert support_problems(theta) == reference


class TestDeduce:
    def test_xyz_disjunction(self):
        inst = xyz_instance(math.pi / 3)
        verdicts = deduce(inst, lp_feasible(build_problem(inst, SupportProfile(True, True))))
        assert len(verdicts) == 1
        assert verdicts[0].relation is Relation.AT_LEAST_ONE_DISJOINT
        assert verdicts[0].pairs == (("u", "v"), ("u", "vbar"))

    def test_soc_disjunction_away_from_special_case(self):
        inst = soc_instance(math.pi / 3)
        verdicts = deduce(inst, lp_feasible(build_problem(inst, SupportProfile(True, True))))
        assert verdicts[0].relation is Relation.AT_LEAST_ONE_DISJOINT
        assert verdicts[0].pairs == (("u", "v"), ("u", "w"))

    def test_soc_special_case_collapses_to_disjoint(self):
        inst = soc_instance(math.pi / 4)
        # |<u|v>|^2 = cos^2(pi/4) = 1/2 exactly in this regime
        assert math.cos(inst.params.theta) ** 2 == pytest.approx(0.5, abs=1e-12)
        verdicts = deduce(inst, lp_feasible(build_problem(inst, SupportProfile(True, True))))
        assert len(verdicts) == 1
        assert verdicts[0].relation is Relation.DISJOINT
        assert verdicts[0].pairs == (("u", "v"),)

    def test_special_case_window_is_tight(self):
        for offset in (5e-9, -5e-9):
            inst = soc_instance(math.pi / 4 + offset)
            verdicts = deduce(
                inst, lp_feasible(build_problem(inst, SupportProfile(True, True)))
            )
            assert verdicts[0].relation is Relation.AT_LEAST_ONE_DISJOINT

    def test_feasible_input_is_a_logic_error(self):
        inst = xyz_instance()
        prob = build_problem(inst, SupportProfile(True, True))
        fake = FeasibilityDecision(
            feasible=True, witness=(("e1", 1.0),), certificate=None, problem=prob
        )
        with pytest.raises(LogicError, match="impossible"):
            deduce(inst, fake)

    def test_decision_must_be_the_both_overlap_problem(self):
        inst = xyz_instance()
        single = lp_feasible(build_problem(inst, SupportProfile(True, False), branch="u"))
        with pytest.raises(ValidationError, match="both-overlap"):
            deduce(inst, single)


class TestOverlapBound:
    def test_zero_noise_means_zero_overlap(self):
        assert overlap_bound(0.0) == 0.0

    def test_linear_example(self):
        assert overlap_bound(0.01) == pytest.approx(0.04, abs=1e-15)

    def test_monotone_nondecreasing(self):
        grid = np.linspace(0, 1, 101)
        values = [overlap_bound(float(e)) for e in grid]
        assert all(x <= y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize("eps", [-0.1, 1.1])
    def test_range_validation(self, eps):
        with pytest.raises(ValidationError):
            overlap_bound(eps)


class ToyOnticModel:
    """Brute-force ontological model with a planted shared-support weight.

    Each party's lambda is 'shared' with probability q; when both are shared
    the outcome follows a fixed response distribution (independent of the
    preparation, as it must), otherwise the preparation's forbidden outcome is
    respected exactly.
    """

    def __init__(self, q_a, q_b, response):
        self.q_a, self.q_b = q_a, q_b
        self.response = np.asarray(response)

    def forbidden_frequencies(self, n_per_prep, rng):
        freqs = []
        for prep in range(4):
            shared = (rng.random(n_per_prep) < self.q_a) & (
                rng.random(n_per_prep) < self.q_b
            )
            outcomes = np.empty(n_per_prep, dtype=int)
            n_shared = int(shared.sum())
            outcomes[shared] = rng.choice(4, size=n_shared, p=self.response)
            # Non-shared ontic states respect the preparation's zero: uniform
            # over the three allowed outcomes (forbidden outcome = prep index).
            allowed = [k for k in range(4) if k != prep]
            outcomes[~shared] = rng.choice(allowed, size=n_per_prep - n_shared)
            freqs.append(float(np.mean(outcomes == prep)))
        return freqs


class TestBoundAgainstToyModel:
    def test_planted_overlap_forces_visible_noise(self):
        # q_a * q_b = 0.1 planted: the bound says eps_hat >= 0.1 / 4 = 0.025.
        model = ToyOnticModel(q_a=0.4, q_b=0.25, response=(0.4, 0.3, 0.2, 0.1))
        for seed in range(5):
            rng = np.random.default_rng(seed)
            eps_hat = max(model.forbidden_frequencies(20_000, rng))
            assert eps_hat >= 0.025
            assert overlap_bound(eps_hat) >= 0.1

    def test_uniform_response_sits_at_the_bound(self):
        # Uniform response spreads the shared weight evenly: each preparation
        # sees q_a*q_b/4 forbidden frequency, saturating q_a*q_b = 4*eps_hat.
        model = ToyOnticModel(q_a=0.5, q_b=0.8, response=(0.25, 0.25, 0.25, 0.25))
        rng = np.random.default_rng(123)
        freqs = model.forbidden_frequencies(200_000, rng)
        sigma = math.sqrt(0.1 * 0.9 / 200_000)
        for f in freqs:
            assert abs(f - 0.1) <= 4 * sigma
