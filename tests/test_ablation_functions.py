"""Unit tests for the ablation functions at minimal budgets.

The benchmark suite runs these at experiment scale; here each function is
exercised structurally so regressions surface in the fast suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.ablations import (
    run_backend_ablation,
    run_beta_ablation,
    run_bitexact_ablation,
    run_dimension_scaling,
    run_heuristic_ablation,
    run_propagation_ablation,
    run_rounding_ablation,
)


class TestBetaAblation:
    @pytest.fixture(scope="class")
    def points(self):
        return run_beta_ablation(rhos=(0.5, 0.99), max_nodes=5, time_limit=2.0)

    def test_structure(self, points):
        assert [p.rho for p in points] == [0.5, 0.99]
        for p in points:
            assert p.beta >= 0.0
            assert 0.0 <= p.float_error <= 1.0
            assert 0.0 <= p.bitexact_error <= 1.0

    def test_beta_monotone_in_rho(self, points):
        assert points[0].beta < points[1].beta


class TestRoundingAblation:
    def test_all_modes_present(self):
        points = run_rounding_ablation(word_length=10)
        assert {p.mode for p in points} == {
            "nearest-away",
            "nearest-even",
            "floor",
            "toward-zero",
        }


class TestHeuristicAblation:
    def test_full_matrix(self):
        points = run_heuristic_ablation(max_nodes=3, time_limit=1.0)
        assert len(points) == 8
        combos = {(p.warm_start, p.scale_sweep, p.local_search) for p in points}
        assert len(combos) == 8


class TestBackendAblation:
    def test_three_backends(self):
        points = run_backend_ablation(max_nodes=20, time_limit=4.0)
        assert [p.backend for p in points] == ["slsqp", "barrier", "auto"]
        costs = [p.cost for p in points]
        assert max(costs) - min(costs) < 1e-4


class TestPropagationAblation:
    def test_on_off(self, monkeypatch):
        # Count t-link propagation passes per arm: the ablation must toggle
        # the propagation it claims to, not run the same search twice.
        from repro.core.problem import LdaFpProblem
        from repro.experiments import ablations

        passes: "list[int]" = []
        propagate = LdaFpProblem.propagate_t_interval
        train = ablations.train_lda_fp

        def counting_propagate(self, *args, **kwargs):
            passes[-1] += 1
            return propagate(self, *args, **kwargs)

        def per_arm_train(*args, **kwargs):
            passes.append(0)
            return train(*args, **kwargs)

        monkeypatch.setattr(LdaFpProblem, "propagate_t_interval", counting_propagate)
        monkeypatch.setattr(ablations, "train_lda_fp", per_arm_train)
        points = run_propagation_ablation(max_nodes=15, time_limit=3.0)
        assert [p.bound_propagation for p in points] == [True, False]
        for p in points:
            assert np.isfinite(p.cost)
        assert passes[0] > 0
        assert passes[1] == 0


class TestDimensionScaling:
    def test_dimensions_covered(self):
        points = run_dimension_scaling(
            dimensions=(2, 3), max_nodes=5, time_limit=2.0
        )
        assert [p.num_features for p in points] == [2, 3]
        for p in points:
            assert p.lower_bound <= p.cost + 1e-9


class TestBitexactAblation:
    def test_three_paths_reported(self):
        points = run_bitexact_ablation(
            word_lengths=(4,), max_nodes=5, time_limit=2.0
        )
        assert len(points) == 1
        p = points[0]
        for value in (p.float_error, p.wrap_error, p.saturate_error):
            assert 0.0 <= value <= 1.0
