"""Tests for repro.core.problem — the Eq. 21 program and Eq. 25 relaxation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.conformance.oracles import constraint_violation_reference
from repro.core.problem import LdaFpProblem, eta_inf, eta_sup
from repro.errors import InputValidationError, OptimizationError
from repro.fixedpoint.qformat import QFormat
from repro.stats.scatter import ClassStats, TwoClassStats


def toy_stats(m: int = 2, separation: float = 1.0) -> TwoClassStats:
    mean_a = np.zeros(m)
    mean_a[0] = separation / 2
    mean_b = -mean_a
    cov = np.eye(m) * 0.25
    return TwoClassStats(
        class_a=ClassStats(mean_a, cov, 100),
        class_b=ClassStats(mean_b, cov, 100),
        within_scatter=cov,
        mean_difference=mean_a - mean_b,
    )


@pytest.fixture
def problem() -> LdaFpProblem:
    return LdaFpProblem(stats=toy_stats(), fmt=QFormat(2, 2), rho=0.99)


class TestEtaRules:
    def test_sup_positive_interval(self):
        assert eta_sup(1.0, 3.0) == 9.0

    def test_sup_straddling(self):
        assert eta_sup(-3.0, 1.0) == 9.0

    def test_inf_positive_interval(self):
        assert eta_inf(1.0, 3.0) == 1.0

    def test_inf_straddling_is_zero(self):
        assert eta_inf(-1.0, 2.0) == 0.0
        assert eta_inf(0.0, 2.0) == 0.0

    def test_inf_negative_interval(self):
        assert eta_inf(-3.0, -2.0) == 4.0

    def test_empty_interval_rejected(self):
        with pytest.raises(OptimizationError):
            eta_sup(1.0, 0.0)
        with pytest.raises(OptimizationError):
            eta_inf(1.0, 0.0)


class TestBetaDerivation:
    def test_rho_to_beta(self):
        problem = LdaFpProblem(stats=toy_stats(), fmt=QFormat(2, 2), rho=0.95)
        assert problem.beta == pytest.approx(1.959964, abs=1e-5)

    def test_explicit_beta_wins(self):
        problem = LdaFpProblem(stats=toy_stats(), fmt=QFormat(2, 2), rho=0.5, beta=3.0)
        assert problem.beta == 3.0

    def test_negative_beta_rejected(self):
        with pytest.raises(OptimizationError):
            LdaFpProblem(stats=toy_stats(), fmt=QFormat(2, 2), beta=-1.0)


class TestDiscreteChecks:
    def test_on_grid(self, problem):
        assert problem.on_grid(np.array([0.25, -0.5]))
        assert not problem.on_grid(np.array([0.3, 0.0]))

    def test_cost_matches_fisher(self, problem):
        w = np.array([1.0, 0.25])
        assert problem.cost(w) == pytest.approx(problem.stats.fisher_cost(w))

    def test_zero_weight_infeasible_cost(self, problem):
        assert problem.cost(np.zeros(2)) == np.inf

    def test_small_weights_feasible(self, problem):
        assert problem.constraint_violation(np.array([0.25, 0.0])) <= 0.0
        assert problem.is_feasible(np.array([0.25, 0.0]))

    def test_violation_matches_manual_eq18(self, problem):
        w = np.array([1.5, -1.0])
        beta = problem.beta
        stats = problem.stats
        manual = -np.inf
        lo, hi = problem.value_lo, problem.value_hi
        for cls in (stats.class_a, stats.class_b):
            for i in range(2):
                upper = w[i] * cls.mean[i] + beta * abs(w[i]) * cls.std[i]
                lower = w[i] * cls.mean[i] - beta * abs(w[i]) * cls.std[i]
                manual = max(manual, upper - hi, lo - lower)
        for cls, chol in ((stats.class_a, problem._chol_a), (stats.class_b, problem._chol_b)):
            center = float(w @ cls.mean)
            spread = beta * float(np.linalg.norm(chol.T @ w))
            manual = max(manual, center + spread - hi, lo - (center - spread))
        manual = max(manual, float(np.max(w - hi)), float(np.max(lo - w)))
        assert problem.constraint_violation(w) == pytest.approx(manual)

    def test_projection_constraint_binds_for_large_weights(self):
        # Large variance makes the SOC constraint the binding one.
        stats = toy_stats()
        big_cov = np.eye(2) * 4.0
        stats = TwoClassStats(
            class_a=ClassStats(stats.class_a.mean, big_cov, 100),
            class_b=ClassStats(stats.class_b.mean, big_cov, 100),
            within_scatter=big_cov,
            mean_difference=stats.mean_difference,
        )
        problem = LdaFpProblem(stats=stats, fmt=QFormat(2, 2), rho=0.99)
        assert problem.constraint_violation(np.array([1.0, 1.0])) > 0.0


def correlated_problem() -> LdaFpProblem:
    """Q2.2, 3 features: 0 and 1 strongly correlated, 2 nearly constant.

    The correlation lets ``w = (1.5, -1.5, 0)`` break only the per-feature
    rows (Eq. 18) and ``w = (1, 1, 0)`` only the projection (Eq. 20); the
    small third feature lets ``w = (0, 0, 2)`` break only the range.
    """
    mean_a = np.array([0.05, 0.0, 0.0])
    cov = np.array([[0.25, 0.225, 0.0], [0.225, 0.25, 0.0], [0.0, 0.0, 0.0025]])
    stats = TwoClassStats(
        class_a=ClassStats(mean_a, cov, 100),
        class_b=ClassStats(-mean_a, cov, 100),
        within_scatter=cov,
        mean_difference=2 * mean_a,
    )
    return LdaFpProblem(stats=stats, fmt=QFormat(2, 2), rho=0.99)


def violation_parts(problem: LdaFpProblem, w: np.ndarray) -> "tuple[float, float, float]":
    """(Eq. 18, Eq. 20, Eq. 28) largest violations of one row, by hand."""
    lo, hi, beta = problem.value_lo, problem.value_hi, problem.beta
    eq18 = eq20 = -np.inf
    for cls, chol in (
        (problem.stats.class_a, problem._chol_a),
        (problem.stats.class_b, problem._chol_b),
    ):
        for i in range(w.size):
            half = beta * abs(w[i]) * cls.std[i]
            eq18 = max(eq18, w[i] * cls.mean[i] + half - hi, lo - (w[i] * cls.mean[i] - half))
        center = float(w @ cls.mean)
        spread = beta * float(np.sqrt(w @ cls.covariance @ w))
        eq20 = max(eq20, center + spread - hi, lo - (center - spread))
    box = max(float(np.max(w - hi)), float(np.max(lo - w)))
    return eq18, eq20, box


class TestBatchedCheck:
    """``constraint_violations`` against the scalar reference, row by row."""

    def assert_matches_reference(self, problem, rows):
        got = problem.constraint_violations(rows)
        assert got.shape == (len(rows),)
        for w, value in zip(rows, got):
            want = constraint_violation_reference(problem, w)
            assert (value <= 1e-9) == (want <= 1e-9)
            assert abs(value - want) <= 1e-12 * max(1.0, abs(want))
            one_row = problem.constraint_violation(w)
            assert abs(one_row - want) <= 1e-12 * max(1.0, abs(want))

    def test_each_constraint_alone(self):
        problem = correlated_problem()
        lo, hi = problem.value_lo, problem.value_hi
        rows = np.array(
            [
                [1.5, -1.5, 0.0],  # Eq. 18 only
                [1.0, 1.0, 0.0],  # Eq. 20 only
                [0.0, 0.0, 2.0],  # the range (Eq. 28) only
                [0.0, 0.0, 0.0],
                [0.0, 0.0, lo],
                [0.0, 0.0, hi],
            ]
        )
        parts = [violation_parts(problem, w) for w in rows]
        assert [tuple(p > 0 for p in part) for part in parts] == [
            (True, False, False),
            (False, True, False),
            (False, False, True),
            (False, False, False),
            (False, False, False),
            (False, False, False),
        ]
        # The range edges are feasible with the range row exactly tight.
        assert parts[4][2] == parts[5][2] == 0.0
        self.assert_matches_reference(problem, rows)
        got = problem.constraint_violations(rows)
        assert np.all(got[:3] > 0) and np.all(got[3:] <= 0)

    def test_whole_grid(self, problem):
        grid = problem.fmt.grid()
        rows = np.array([[a, b] for a in grid for b in grid])
        self.assert_matches_reference(problem, rows)

    def test_empty_matrix(self, problem):
        out = problem.constraint_violations(np.empty((0, 2)))
        assert out.shape == (0,)

    @pytest.mark.parametrize("shape", [(2,), (3, 3), (1, 1), (2, 2, 2), ()])
    def test_batched_rejects_shape(self, problem, shape):
        with pytest.raises(InputValidationError):
            problem.constraint_violations(np.zeros(shape))

    @pytest.mark.parametrize("shape", [(3,), (1,), (1, 2), (2, 2), ()])
    def test_one_row_rejects_shape(self, problem, shape):
        with pytest.raises(InputValidationError):
            problem.constraint_violation(np.zeros(shape))


class TestRootBox:
    def test_w_range_within_eq28(self, problem):
        box = problem.root_box()
        fmt = problem.fmt
        # Static Eq. 18 tightening can only shrink the Eq. 28 range.
        assert np.all(box.lo[:2] >= fmt.min_value - 1e-12)
        assert np.all(box.hi[:2] <= fmt.max_value + 1e-12)
        assert np.all(box.lo[:2] <= 0.0)  # w = 0 always inside
        assert np.all(box.hi[:2] >= 0.0)
        assert np.all(box.steps[:2] == fmt.resolution)
        assert box.steps[2] == 0.0  # t is continuous

    def test_static_bounds_never_cut_feasible_points(self, problem):
        """Grid points excluded by the static tightening must genuinely
        violate the Eq. 18 constraints."""
        lo, hi = problem.static_weight_bounds()
        grid = problem.fmt.grid()
        for w0 in grid:
            for w1 in grid:
                w = np.array([w0, w1])
                inside = np.all(w >= lo - 1e-12) and np.all(w <= hi + 1e-12)
                if not inside:
                    assert problem.constraint_violation(w) > 0.0

    def test_t_interval_contains_all_images_of_root(self, problem, rng):
        box = problem.root_box()
        d = problem.stats.mean_difference
        for _ in range(200):
            w = np.array(
                [
                    rng.choice(box.grid_values(0)),
                    rng.choice(box.grid_values(1)),
                ]
            )
            t = float(d @ w)
            assert box.lo[2] - 1e-12 <= t <= box.hi[2] + 1e-12

    def test_propagate_t_interval_tightens(self, problem):
        lo = np.array([-2.0, -2.0])
        hi = np.array([1.75, 1.75])
        d = problem.stats.mean_difference
        # Force t to its maximum: each w_i must sit at its extreme.
        t_max = float(np.sum(np.maximum(d * lo, d * hi)))
        result = problem.propagate_t_interval(lo, hi, t_max - 1e-9, t_max)
        assert result is not None
        new_lo, new_hi = result
        assert np.all(new_lo >= lo - 1e-12) and np.all(new_hi <= hi + 1e-12)
        # Dimensions that contribute to t (d_i != 0) get pinned to their
        # extremes; zero-coefficient dimensions carry no information.
        d = problem.stats.mean_difference
        widths = new_hi - new_lo
        assert np.all(widths[d != 0.0] < 1e-6)

    def test_propagate_t_interval_detects_empty(self, problem):
        lo = np.array([-0.25, -0.25])
        hi = np.array([0.25, 0.25])
        image_lo, image_hi = problem.linear_image(lo, hi)
        assert (
            problem.propagate_t_interval(lo, hi, image_hi + 1.0, image_hi + 2.0)
            is None
        )

    def test_exact_image_tighter_than_paper_eq29(self, problem):
        box = problem.root_box()
        fmt = problem.fmt
        d = problem.stats.mean_difference
        paper_hi = fmt.max_value * float(np.sum(np.abs(d)))
        paper_lo = fmt.min_value * float(np.sum(np.abs(d)))
        assert box.lo[2] >= paper_lo - 1e-12
        # our exact image can exceed the paper's (incorrect) upper bound
        assert box.hi[2] <= abs(fmt.min_value) * float(np.sum(np.abs(d))) + 1e-12


class TestContinuousOptimum:
    def test_formula(self, problem):
        d = problem.stats.mean_difference
        s = problem.stats.within_scatter
        expected = 1.0 / float(d @ np.linalg.solve(s, d))
        assert problem.continuous_optimum() == pytest.approx(expected)

    def test_lower_bounds_all_grid_points(self, problem):
        fmt = problem.fmt
        grid = fmt.grid()
        star = problem.continuous_optimum()
        for w0 in grid[::3]:
            for w1 in grid[::3]:
                w = np.array([w0, w1])
                cost = problem.cost(w)
                if np.isfinite(cost):
                    assert cost >= star - 1e-10

    def test_singular_within_scatter_returns_zero(self):
        stats = toy_stats()
        singular = TwoClassStats(
            class_a=stats.class_a,
            class_b=stats.class_b,
            within_scatter=np.zeros((2, 2)),
            mean_difference=stats.mean_difference,
        )
        problem = LdaFpProblem(stats=singular, fmt=QFormat(2, 2))
        assert problem.continuous_optimum() == 0.0


class TestNodeProgram:
    def test_row_count(self, problem):
        box = problem.root_box()
        program = problem.node_program(box, eta=1.0)
        # 8 rows per feature (Eq. 18) + 2 t rows
        assert len(program.linear) == 8 * 2 + 2
        assert len(program.socs) == 4

    def test_relaxation_lower_bounds_discrete_cost(self, problem):
        """The solved relaxation must lower-bound every feasible grid point
        inside the node — the core soundness property of Algorithm 1."""
        from repro.optim.slsqp_backend import solve_with_slsqp

        box = problem.root_box()
        eta = eta_sup(float(box.lo[2]), float(box.hi[2]))
        program = problem.node_program(box, eta)
        result = solve_with_slsqp(program)
        assert result.max_violation <= 1e-7
        fmt = problem.fmt
        grid = fmt.grid()
        for w0 in grid[::2]:
            for w1 in grid[::2]:
                w = np.array([w0, w1])
                if not problem.is_feasible(w):
                    continue
                cost = problem.cost(w)
                if np.isfinite(cost):
                    assert cost >= result.objective - 1e-6

    def test_eta_must_be_positive(self, problem):
        with pytest.raises(OptimizationError):
            problem.node_program(problem.root_box(), eta=0.0)

    def test_box_dimension_checked(self, problem):
        from repro.optim.boxes import Box

        bad = Box(np.zeros(2), np.ones(2), np.full(2, 0.25))
        with pytest.raises(OptimizationError):
            problem.node_program(bad, eta=1.0)

    def test_linear_image(self, problem):
        lo, hi = problem.linear_image(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
        d = problem.stats.mean_difference
        assert hi == pytest.approx(float(np.sum(np.abs(d))))
        assert lo == pytest.approx(-float(np.sum(np.abs(d))))
