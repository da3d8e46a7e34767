"""Tests for repro.optim.bruteforce."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import OptimizationError
from repro.optim.bruteforce import brute_force_minimize


class TestBruteForce:
    def test_finds_minimum(self):
        grids = [np.array([-1.0, 0.0, 1.0])] * 2
        result = brute_force_minimize(grids, lambda x: float(np.sum((x - 0.8) ** 2)))
        assert np.allclose(result.x, [1.0, 1.0])
        assert result.evaluated == 9
        assert result.feasible_count == 9

    def test_feasibility_filter(self):
        grids = [np.array([-1.0, 0.0, 1.0])]
        result = brute_force_minimize(
            grids,
            lambda x: float(x[0]),
            feasible=lambda x: x[0] >= 0.0,
        )
        assert result.x[0] == 0.0
        assert result.feasible_count == 2

    def test_no_feasible_point_raises(self):
        with pytest.raises(OptimizationError):
            brute_force_minimize(
                [np.array([0.0, 1.0])], lambda x: 0.0, feasible=lambda x: False
            )

    def test_cap_enforced(self):
        grids = [np.arange(100)] * 4
        with pytest.raises(OptimizationError):
            brute_force_minimize(grids, lambda x: 0.0, max_points=10)

    def test_inf_costs_skipped(self):
        grids = [np.array([0.0, 1.0])]
        result = brute_force_minimize(
            grids, lambda x: np.inf if x[0] == 0.0 else 1.0
        )
        assert result.x[0] == 1.0


class TestBnbMatchesBruteForce:
    """The branch-and-bound drivers against exhaustive enumeration.

    On grids tiny enough to enumerate, branch-and-bound must land on the
    brute-force optimum (same cost; the argmin may differ only between
    exact ties, which the toy quadratic does not have).
    """

    def _toy(self, target, step):
        from tests.test_bnb import QuadraticGridProblem

        return QuadraticGridProblem(np.asarray(target), -1.0, 1.0, step)

    @pytest.mark.parametrize(
        "target,step",
        [
            ([0.30], 0.25),
            ([0.31, -0.57], 0.25),
            ([0.1, 0.2, -0.3], 0.5),
        ],
    )
    def test_toy_grid(self, target, step):
        from repro.optim.bnb import BranchAndBoundConfig, BranchAndBoundSolver

        problem = self._toy(target, step)
        grids = [
            problem.box.grid_values(d) for d in range(problem.box.ndim)
        ]
        oracle = brute_force_minimize(grids, problem.cost)
        result = BranchAndBoundSolver(BranchAndBoundConfig()).solve(
            self._toy(target, step)
        )
        assert result.proven_optimal
        assert result.cost == pytest.approx(oracle.cost, abs=1e-12)
        assert np.allclose(result.x, oracle.x)

    def test_ldafp_tiny_instance(self):
        """The trainer matches brute force on a tiny LDA-FP grid."""
        from repro.core.ldafp import LdaFpConfig, train_lda_fp, _adjust_stats
        from repro.core.problem import LdaFpProblem
        from repro.fixedpoint.qformat import QFormat
        from repro.fixedpoint.quantize import quantize
        from repro.stats.scatter import estimate_two_class_stats
        from tests.test_properties import random_instance

        dataset, _ = random_instance(3)
        fmt = QFormat(2, 1)  # 2 or 3 features at 8 grid points each
        config = LdaFpConfig(max_nodes=4000, time_limit=None)
        classifier, report = train_lda_fp(dataset, fmt, config)
        assert report.proven_optimal

        quantized = dataset.map_features(lambda x: np.asarray(quantize(x, fmt)))
        stats = _adjust_stats(
            estimate_two_class_stats(quantized.class_a, quantized.class_b),
            fmt,
            config,
        )
        problem = LdaFpProblem(stats=stats, fmt=fmt, rho=config.rho)
        grid = np.arange(problem.value_lo, problem.value_hi + 1e-12, fmt.resolution)
        oracle = brute_force_minimize(
            [grid] * problem.num_features,
            lambda w: float(problem.cost(w)) if np.any(w) else np.inf,
            feasible=lambda w: problem.constraint_violation(w) <= 1e-9,
            max_points=10**6,
        )
        assert report.cost == pytest.approx(oracle.cost, rel=1e-9)
