"""Phase-1 simplex against library and construction oracles."""

from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from pbrlab import ConvergenceError, ValidationError, simplex
from pbrlab.simplex import phase1_feasible


class TestSmallSystems:
    def test_trivially_feasible(self):
        r = phase1_feasible([[1.0, 1.0]], [1.0])
        assert r.feasible
        x = np.array(r.x)
        assert np.all(x >= -1e-12)
        assert abs(x.sum() - 1.0) <= 1e-9

    def test_trivially_infeasible(self):
        # x1 = 0, x2 = 0, x1 + x2 = 1 over x >= 0
        a = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        r = phase1_feasible(a, [0.0, 0.0, 1.0])
        assert not r.feasible
        assert r.artificial_sum > 1e-3

    def test_negative_rhs_rows_are_normalized(self):
        # -x1 = -2 with x1 <= 3 slack: feasible at x1 = 2
        a = [[-1.0, 0.0], [1.0, 1.0]]
        r = phase1_feasible(a, [-2.0, 3.0])
        assert r.feasible
        assert r.x[0] == pytest.approx(2.0, abs=1e-9)

    def test_shape_validation(self):
        with pytest.raises(ValidationError, match="shapes"):
            phase1_feasible([[1.0, 2.0]], [1.0, 2.0])

    def test_ragged_rows_are_a_shape_error(self):
        with pytest.raises(ValidationError, match="shapes"):
            phase1_feasible([[1, 2], [3]], [1, 2])

    def test_non_numeric_entries_are_a_validation_error(self):
        with pytest.raises(ValidationError, match="numbers"):
            phase1_feasible([["a"]], [1])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            phase1_feasible([[np.inf, 1.0]], [1.0])

    def test_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(simplex, "_MAX_ITER", 1)
        with pytest.raises(ConvergenceError, match="exceeded 1 iterations"):
            phase1_feasible(np.eye(3), np.ones(3))


def _linprog_feasible(a, b) -> bool:
    res = linprog(
        c=np.zeros(a.shape[1]),
        A_eq=a,
        b_eq=b,
        bounds=[(0, None)] * a.shape[1],
        method="highs",
    )
    assert res.status in (0, 2), res.message
    return res.status == 0


class TestAgainstLibrarySolver:
    def test_random_feasible_by_construction(self):
        # Integer a and x0 make b = a @ x0 exact, so every system is feasible,
        # also the ones with more rows than columns.  The vertex found is
        # rational with a denominator dividing the determinant of a basis of at
        # most 4 columns with entries in [-2, 2], so at most 4^4 = 256 (Hadamard).
        # The float x read back as the nearest rational with a denominator up
        # to 10^6 is therefore that vertex, and it must solve a x = b exactly.
        rng = np.random.default_rng(404)
        for _ in range(60):
            m, n = rng.integers(1, 5), rng.integers(2, 7)
            a = rng.integers(-2, 3, size=(m, n))
            x0 = rng.integers(0, 4, size=n)
            b = a @ x0
            r = phase1_feasible(a, b)
            assert r.feasible
            x = [Fraction(v).limit_denominator(10**6) for v in r.x]
            assert all(v >= 0 for v in x)
            assert [sum(int(aij) * xj for aij, xj in zip(row, x)) for row in a] == b.tolist()

    def test_random_systems_match_library_decision(self):
        rng = np.random.default_rng(505)
        decisions = {True: 0, False: 0}
        for _ in range(120):
            m, n = rng.integers(1, 6), rng.integers(2, 6)
            a = rng.uniform(-2, 2, size=(m, n))
            b = rng.uniform(-3, 3, size=m)
            mine = phase1_feasible(a, b).feasible
            assert mine == _linprog_feasible(a, b)
            decisions[mine] += 1
        # the draw ranges must actually exercise both answers
        assert decisions[True] > 10 and decisions[False] > 10


class TestExactArithmetic:
    def test_integer_systems_match_library_decision(self):
        rng = np.random.default_rng(606)
        for _ in range(40):
            m, n = rng.integers(1, 4), rng.integers(2, 5)
            a = rng.integers(-3, 4, size=(m, n)).astype(float)
            b = rng.integers(-4, 5, size=m).astype(float)
            assert phase1_feasible(a, b).feasible == _linprog_feasible(a, b)

    def test_exact_witness_is_exact(self):
        r = phase1_feasible([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]], [1.0, 1.0])
        assert r.feasible
        x = np.array(r.x)
        assert x[0] + x[1] == 1.0
        assert x[1] + x[2] == 1.0

    def test_exact_infeasible_has_zero_free_sum(self):
        a = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        r = phase1_feasible(a, [0.0, 0.0, 1.0])
        assert not r.feasible
        assert r.artificial_sum == 1.0
