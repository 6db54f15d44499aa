"""Closed-form coupling solution against the bisection oracle."""

import math
import re

import numpy as np
import pytest

from pbrlab import (
    DegeneracyError,
    DomainError,
    NonFiniteError,
    SolverError,
    analytic_spectrum_soc,
    solve_by_root_finding,
    solve_closed_form,
)
from pbrlab.coupling_solver import CLOSED_FORM_RESIDUAL_TOL
from pbrlab.params import CouplingSet, constraint, mixing_angle


class TestClosedForm:
    def test_special_case_theta_pi_4(self):
        # At theta = pi/4 the sum vanishes; b = 0 there is doubly degenerate
        # (see test_b_zero_degeneracy), so pick a safe b.
        r = solve_closed_form(math.pi / 4, d=1.0, split=2.0, b=0.5)
        assert abs(r.couplings.a + r.couplings.c) <= 1e-12
        assert r.couplings.a == pytest.approx(1.0, abs=1e-12)
        assert r.couplings.c == pytest.approx(-1.0, abs=1e-12)
        assert r.alpha == pytest.approx(math.pi / 4, abs=1e-12)
        assert r.residual <= 1e-12

    def test_b_zero_degeneracy_suggests_perturbing_b(self):
        with pytest.raises(DegeneracyError, match="different b"):
            solve_closed_form(math.pi / 4, d=1.0, split=2.0)

    def test_theta_pi_3_example(self):
        r = solve_closed_form(math.pi / 3, d=1.0, split=2.0)
        assert r.couplings.a + r.couplings.c == pytest.approx(-2 / math.sqrt(3), abs=1e-12)
        assert r.alpha == pytest.approx(math.pi / 6, abs=1e-12)
        assert r.alpha + math.pi / 3 == pytest.approx(math.pi / 2, abs=1e-12)

    def test_theta_pi_6_mirrors_pi_3(self):
        r = solve_closed_form(math.pi / 6, d=1.0, split=2.0)
        assert r.couplings.a + r.couplings.c == pytest.approx(2 / math.sqrt(3), abs=1e-12)
        assert r.alpha == pytest.approx(math.pi / 3, abs=1e-12)

    def test_residual_verified_through_the_spectrum(self):
        r = solve_closed_form(1.1, d=0.7, split=-1.3, b=0.4)
        spec = analytic_spectrum_soc(r.couplings)
        assert abs(math.cos(spec.alpha + 1.1)) <= 1e-12

    @pytest.mark.parametrize(
        "theta,d,split,match",
        [
            (0.0, 1.0, 2.0, "theta"),
            (math.pi / 2, 1.0, 2.0, "theta"),
            (0.7, 0.0, 2.0, "d must be positive"),
            (0.7, -1.0, 2.0, "d must be positive"),
            (0.7, 1.0, 0.0, "split"),
        ],
    )
    def test_domain_errors(self, theta, d, split, match):
        with pytest.raises(DomainError, match=match):
            solve_closed_form(theta, d, split)
        with pytest.raises(DomainError, match=match):
            solve_by_root_finding(theta, d, split)


class TestRootFinding:
    def test_constraint_is_monotone_decreasing_in_s(self):
        for d in (0.2, 1.0, 3.0):
            values = [constraint(s, d, 0.8) for s in np.linspace(-50 * d, 50 * d, 400)]
            assert all(x > y for x, y in zip(values, values[1:]))

    @pytest.mark.parametrize(
        "theta,d,expected_sum",
        [
            (math.pi / 4, 1.0, 0.0),
            (math.pi / 3, 1.0, -1.15470054),
            (math.pi / 3, 2.0, -2.30940108),
        ],
    )
    def test_examples_match_closed_form(self, theta, d, expected_sum):
        r = solve_by_root_finding(theta, d, split=2.0, b=0.5)
        assert r.couplings.a + r.couplings.c == pytest.approx(expected_sum, abs=1e-8)
        assert r.residual <= 1e-10

    def test_agreement_over_seeded_draws(self):
        rng = np.random.default_rng(314)
        checked = 0
        while checked < 40:
            theta = rng.uniform(0.05, math.pi / 2 - 0.05)
            d = rng.uniform(0.1, 3.0)
            split = rng.uniform(0.5, 2.5) * rng.choice([-1.0, 1.0])
            b = rng.uniform(0.2, 0.9)
            try:
                closed = solve_closed_form(theta, d, split, b=b)
                rooted = solve_by_root_finding(theta, d, split, b=b)
            except DegeneracyError:
                continue
            checked += 1
            s1 = closed.couplings.a + closed.couplings.c
            s2 = rooted.couplings.a + rooted.couplings.c
            assert abs(s1 - s2) <= 1e-8

    @pytest.mark.parametrize("theta", [1e-4, 1e-6])
    def test_root_far_beyond_d(self, theta):
        # s* = 2d cot 2θ ≈ d/θ, so the bracket must grow to 1e4·d and 1e6·d.
        closed = solve_closed_form(theta, d=1.0, split=2.0)
        rooted = solve_by_root_finding(theta, d=1.0, split=2.0)
        s1 = closed.couplings.a + closed.couplings.c
        s2 = rooted.couplings.a + rooted.couplings.c
        assert abs(s2 - s1) <= 1e-8 * abs(s1)

    def test_linear_scaling_in_d(self):
        base = solve_closed_form(1.0, d=1.0, split=1.0, b=0.3)
        scaled = solve_closed_form(1.0, d=2.5, split=1.0, b=0.3)
        s_base = base.couplings.a + base.couplings.c
        s_scaled = scaled.couplings.a + scaled.couplings.c
        assert s_scaled == pytest.approx(2.5 * s_base, abs=1e-10)


class TestNearHalfPi:
    """theta next to pi/2 puts alpha next to 0, where s + sqrt(s^2 + 4d^2) cancels."""

    @pytest.mark.parametrize("d", [1e-3, 1.0, 50.0])
    @pytest.mark.parametrize("solver", [solve_closed_form, solve_by_root_finding])
    def test_both_solvers_meet_the_closed_form_tolerance(self, solver, d):
        r = solver(math.pi / 2 - 1e-7, d, 2.0)
        assert r.residual <= CLOSED_FORM_RESIDUAL_TOL

    @pytest.mark.parametrize("s", [-1e8, -1e12, -1e150])
    def test_mixing_angle_keeps_its_digits_for_negative_s(self, s):
        # alpha = atan(2d / (sqrt(s^2 + 4d^2) - s)) = d/|s| (1 + O((d/s)^2)) for |s| >> d.
        assert mixing_angle(s, 1.0) == pytest.approx(-1.0 / s, rel=1e-15)
        assert mixing_angle(-s, 1.0) == pytest.approx(math.pi / 2 + 1.0 / s, rel=1e-15)


_EIGENVALUES_OVERFLOW = r"2d = 2 \* 1e\+308 overflows: the spin-orbit eigenvalues"


class TestOverflow:
    @pytest.mark.parametrize(
        "solver, theta, d, message",
        [
            (solve_closed_form, 0.7, 1e308, _EIGENVALUES_OVERFLOW),  # 2d overflows
            (solve_by_root_finding, 0.7, 1e308, _EIGENVALUES_OVERFLOW),
            (solve_closed_form, 1e-300, 1e10, r"a \+ c = 2 d cot 2θ overflows"),  # cot 2theta does
            # a + c ~ 1.2e292 is small here, but the eigenvalues -b ± sqrt((a+c)² + 4d²)
            # lie >= 4d ~ 4e308 apart, so no float pair holds them.
            (solve_closed_form, math.pi / 4, 1e308, _EIGENVALUES_OVERFLOW),
            (solve_by_root_finding, math.pi / 4, 1e308, _EIGENVALUES_OVERFLOW),
        ],
        ids=["closed-form-2d", "bisection-2d", "closed-form-cot", "closed-form-2d-quarter-pi",
             "bisection-2d-quarter-pi"],
    )
    def test_overflowing_sum_is_a_non_finite_error(self, solver, theta, d, message):
        with pytest.raises(NonFiniteError, match=message):
            solver(theta, d, 2.0, b=0.5)

    @pytest.mark.parametrize(
        "s, d", [(2.76e307, 8e307), (1.2e308, 1e308), (-1.7e308, 1e308), (1.0, 1.5e308)]
    )
    def test_mixing_angle_rescales_an_overflowing_sum(self, s, d):
        # s + sqrt(s^2 + 4d^2) (or its s < 0 twin) overflows; the angle depends
        # only on s/d, which scaling both by a power of two keeps exactly.
        alpha = mixing_angle(s, d)
        assert alpha == mixing_angle(s * 2.0**-600, d * 2.0**-600)
        assert 0.0 <= alpha <= math.pi / 2

    @pytest.mark.parametrize(
        "s, d, want", [(1e308, 5e-324, math.pi / 2), (1e308, -5e-324, -math.pi / 2), (-1.7e308, 5e-324, 0.0)]
    )
    def test_mixing_angle_whose_rescale_underflows_d_is_its_limit(self, s, d, want):
        # The quarter-scale retry rounds |d| = 5e-324 to zero: for s >= 0 the
        # ratio (s + root) / 2d is past the float range, for s < 0 it is 2d / (root - s) -> 0.
        assert mixing_angle(s, d) == want

    @pytest.mark.parametrize("solver", [solve_closed_form, solve_by_root_finding])
    def test_near_overflow_couplings_meet_the_constraint(self, solver):
        r = solver(0.7, 8e307, 1e300)
        assert r.residual <= CLOSED_FORM_RESIDUAL_TOL
        assert r.alpha == pytest.approx(math.pi / 2 - 0.7, abs=1e-12)

    @pytest.mark.parametrize("solver", [solve_closed_form, solve_by_root_finding])
    def test_split_below_the_spacing_of_the_sum_is_named(self, solver):
        # a + c ~ 2.8e307 has ulp ~5e291, so a = (s + 2)/2 and c = (s - 2)/2 round equal.
        with pytest.raises(SolverError, match=r"split = 2\.0 is lost in rounding.*ulp"):
            solver(0.7, 8e307, 2.0)

    @pytest.mark.parametrize("solver", [solve_closed_form, solve_by_root_finding])
    @pytest.mark.parametrize("theta, d, split", [(0.99999, 0.99999, -4.3301048706151896e16), (0.7, 1.9, 1e308)])
    def test_split_that_swamps_the_sum_is_named(self, solver, theta, d, split):
        # |a + c| < 1 while a and c lie near ±split/2: their sum rounds to 0.
        message = rf"^split = {re.escape(repr(split))} swamps a \+ c = \S+: a and c round so that a \+ c = 0\.0; "
        with pytest.raises(SolverError, match=message):
            solver(theta, d, split)


class TestScalingInvariance:
    def test_uniform_coupling_scale_leaves_alpha_fixed(self):
        r = solve_closed_form(0.9, d=1.2, split=1.8, b=0.4)
        c = r.couplings
        for k in (0.5, 2.0, 17.0):
            scaled = CouplingSet(k * c.a, k * c.b, k * c.c, k * c.d)
            spec = analytic_spectrum_soc(scaled)
            assert spec.alpha == pytest.approx(r.alpha, abs=1e-12)
            assert abs(math.cos(spec.alpha + 0.9)) <= 1e-12
