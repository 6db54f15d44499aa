"""Symbolic proof that the closed-form couplings satisfy cos(alpha + theta) = 0.

With t = tan θ > 0 and d > 0, the closed form a + c = 2d cot 2θ is
s = d(1/t − t).  The mixing angle's tangent (s + √(s² + 4d²)) / 2d then
simplifies to 1/t = cot θ, so alpha = π/2 − θ.  The proof is bound to the
code by evaluating ``params.constraint`` at the closed form over seeded
(θ, d) points.
"""

import math
import random

import sympy as sp

from pbrlab.params import constraint

t, d, theta = sp.symbols("t d theta", positive=True)
S = d * (1 / t - t)


def test_closed_form_sum_is_d_times_cot_minus_tan():
    # cot 2θ = (1 − tan²θ) / (2 tan θ), the double-angle formula.
    cot_2theta = 1 / sp.expand_trig(sp.tan(2 * theta))
    closed_form = (2 * d * cot_2theta).subs(sp.tan(theta), t)
    assert sp.simplify(closed_form - S) == 0


def test_closed_form_gives_tan_alpha_cot_theta():
    # s² + 4d² = d²(t + 1/t)², a square of a positive, so the root resolves.
    square = d**2 * (t + 1 / t) ** 2
    assert sp.expand(S**2 + 4 * d**2 - square) == 0
    root = sp.sqrt(square)
    assert root == d * (t + 1 / t)
    tan_alpha = (S + root) / (2 * d)
    assert sp.simplify(tan_alpha - 1 / t) == 0


def test_constraint_vanishes_at_the_closed_form_to_rounding():
    draw = random.Random(20120229)
    worst = 0.0
    for _ in range(50):
        th = draw.uniform(0.01, math.pi / 2.0 - 0.01)
        dd = math.exp(draw.uniform(math.log(1e-3), math.log(1e3)))
        s = 2.0 * dd * math.cos(2.0 * th) / math.sin(2.0 * th)
        worst = max(worst, abs(constraint(s, dd, th)))
    assert worst <= 1e-15
