"""Tests for repro.core.localsearch."""

from __future__ import annotations

import numpy as np
import pytest

from repro.conformance.oracles import constraint_violation_reference
from repro.core.ldafp import LdaFpConfig, _adjust_stats
from repro.core.localsearch import coordinate_descent, scale_sweep_candidates
from repro.core.problem import LdaFpProblem
from repro.data.scaling import FeatureScaler
from repro.data.synthetic import make_synthetic_dataset
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import nearest_grid_neighbors, quantize
from repro.stats.scatter import ClassStats, TwoClassStats, estimate_two_class_stats


def toy_problem(fmt=None) -> LdaFpProblem:
    fmt = fmt or QFormat(2, 3)
    mean_a = np.array([0.4, 0.0])
    cov = np.array([[0.09, 0.0], [0.0, 0.09]])
    stats = TwoClassStats(
        class_a=ClassStats(mean_a, cov, 100),
        class_b=ClassStats(-mean_a, cov, 100),
        within_scatter=cov,
        mean_difference=2 * mean_a,
    )
    return LdaFpProblem(stats=stats, fmt=fmt, rho=0.99)


def pinned_q23_problem() -> LdaFpProblem:
    """The pinned Q2.3 case's problem, built as ``train_lda_fp`` builds it."""
    fmt = QFormat(2, 3)
    ds = make_synthetic_dataset(1000, seed=0)
    ds = ds.map_features(FeatureScaler(limit=0.9).fit(ds.features).transform)
    ds = ds.map_features(lambda x: np.asarray(quantize(x, fmt)))
    stats = _adjust_stats(estimate_two_class_stats(*ds.class_arrays()), fmt, LdaFpConfig())
    return LdaFpProblem(stats=stats, fmt=fmt, rho=0.99)


def reference_coordinate_descent(problem, start, radius=2, max_sweeps=25):
    """One candidate move at a time, checked by the scalar reference."""
    w = np.asarray(quantize(np.asarray(start, dtype=np.float64), problem.fmt))
    best_cost = problem.cost(w)
    moves = 0
    converged = False
    for _ in range(max_sweeps):
        improved = False
        for i in range(w.size):
            candidates = nearest_grid_neighbors(float(w[i]), problem.fmt, radius=radius)
            best_move = None
            for value in candidates:
                if value == w[i]:
                    continue
                trial = w.copy()
                trial[i] = value
                if constraint_violation_reference(problem, trial) > 1e-9:
                    continue
                cost = problem.cost(trial)
                if cost < best_cost - 1e-15 and (
                    best_move is None or cost < best_move[0]
                ):
                    best_move = (cost, value)
            if best_move is not None:
                best_cost, w[i] = best_move[0], best_move[1]
                moves += 1
                improved = True
        if not improved:
            converged = True
            break
    return w, best_cost, moves, converged


def reference_scale_sweep(problem, direction, num_scales=24, refine=True):
    """One scale and one sign at a time, checked by the scalar reference."""
    d = np.asarray(direction, dtype=np.float64)
    peak = float(np.max(np.abs(d)))
    if peak == 0.0 or not np.isfinite(peak):
        return []
    fmt = problem.fmt
    lo_scale = fmt.resolution / peak
    hi_scale = fmt.max_value / peak
    if hi_scale <= lo_scale:
        scales = [hi_scale]
    else:
        scales = list(np.geomspace(lo_scale, hi_scale, num=num_scales))

    out = []
    seen = set()

    def add(scale):
        best_here = None
        for sign in (1.0, -1.0):
            candidate = np.asarray(quantize(sign * scale * d, fmt))
            if not np.any(candidate):
                continue
            key = candidate.tobytes()
            if key in seen:
                continue
            seen.add(key)
            out.append(candidate)
            if constraint_violation_reference(problem, candidate) <= 1e-9:
                cost = problem.cost(candidate)
                if np.isfinite(cost) and (best_here is None or cost < best_here[0]):
                    best_here = (cost, candidate)
        return best_here

    best_scale = None
    best_cost = np.inf
    for scale in scales:
        result = add(float(scale))
        if result is not None and result[0] < best_cost:
            best_cost, best_scale = result[0], float(scale)

    if refine and best_scale is not None:
        for scale in np.linspace(best_scale / 1.4, min(best_scale * 1.4, hi_scale), 24):
            add(float(scale))
    return out


class TestCoordinateDescent:
    def test_improves_or_keeps_cost(self):
        problem = toy_problem()
        start = np.array([0.125, 0.5])
        result = coordinate_descent(problem, start)
        assert result.cost <= problem.cost(start) + 1e-12

    def test_result_feasible_and_on_grid(self):
        problem = toy_problem()
        result = coordinate_descent(problem, np.array([0.125, 0.25]))
        assert problem.is_feasible(result.weights)

    def test_local_optimum_unmoved(self):
        problem = toy_problem()
        # The best direction is (1, 0); a point already optimal in its
        # neighborhood should come back unchanged with zero moves.
        result = coordinate_descent(problem, np.array([0.5, 0.0]), radius=1)
        second = coordinate_descent(problem, result.weights, radius=1)
        assert second.moves_accepted == 0
        assert np.array_equal(second.weights, result.weights)

    def test_converged_flag(self):
        problem = toy_problem()
        result = coordinate_descent(problem, np.array([0.25, 0.25]), max_sweeps=25)
        assert result.converged

    def test_zero_sweeps_budget(self):
        problem = toy_problem()
        result = coordinate_descent(problem, np.array([0.25, 0.25]), max_sweeps=0)
        assert not result.converged
        assert result.moves_accepted == 0

    @pytest.mark.parametrize(
        "start, radius, max_sweeps",
        [
            ([0.125, 0.5], 2, 25),
            ([-1.0, 1.75], 3, 25),
            ([0.25, 0.25], 1, 2),
            ([1.875, -2.0], 2, 25),
        ],
    )
    def test_matches_per_candidate_reference_toy(self, start, radius, max_sweeps):
        problem = toy_problem()
        self.assert_matches_reference(problem, np.array(start), radius, max_sweeps)

    @pytest.mark.parametrize(
        "start", [[0.75, -0.5, 0.25], [1.875, 1.875, -2.0], [-0.125, 0.0, 0.125]]
    )
    def test_matches_per_candidate_reference_q23(self, start):
        problem = pinned_q23_problem()
        self.assert_matches_reference(problem, np.array(start), 2, 25)

    def assert_matches_reference(self, problem, start, radius, max_sweeps):
        result = coordinate_descent(problem, start, radius=radius, max_sweeps=max_sweeps)
        w, cost, moves, converged = reference_coordinate_descent(
            problem, start, radius=radius, max_sweeps=max_sweeps
        )
        assert np.array_equal(result.weights, w)
        assert result.cost == cost
        assert (result.moves_accepted, result.converged) == (moves, converged)


class TestScaleSweep:
    def test_candidates_on_grid_and_nonzero(self):
        problem = toy_problem()
        candidates = scale_sweep_candidates(problem, np.array([1.0, 0.3]))
        assert candidates
        for c in candidates:
            assert problem.on_grid(c)
            assert np.any(c)

    def test_includes_near_optimal_scaling(self):
        problem = toy_problem()
        direction = np.array([1.0, 0.0])
        candidates = scale_sweep_candidates(problem, direction)
        best = min(
            (problem.cost(c) for c in candidates if problem.is_feasible(c)),
            default=np.inf,
        )
        # continuous optimum for this toy problem
        star = problem.continuous_optimum()
        assert best <= star * 1.05

    def test_zero_direction_empty(self):
        problem = toy_problem()
        assert scale_sweep_candidates(problem, np.zeros(2)) == []

    def test_no_duplicates(self):
        problem = toy_problem()
        candidates = scale_sweep_candidates(problem, np.array([0.7, -0.2]))
        keys = {c.tobytes() for c in candidates}
        assert len(keys) == len(candidates)

    def test_both_signs_generated(self):
        problem = toy_problem()
        candidates = scale_sweep_candidates(problem, np.array([1.0, 0.0]), refine=False)
        signs = {np.sign(c[0]) for c in candidates}
        assert signs == {1.0, -1.0}

    @pytest.mark.parametrize(
        "direction",
        [[1.0, 0.3], [0.7, -0.2], [-1.0, 0.0], [0.0, -0.05], [-3.0, -1e-4]],
    )
    @pytest.mark.parametrize("refine", [True, False])
    def test_matches_per_scale_reference(self, direction, refine):
        problem = toy_problem()
        self.assert_matches_reference(problem, np.array(direction), refine)

    @pytest.mark.parametrize(
        "direction", [[0.2, -0.9, 0.4], [1.0, 0.0, -0.001], [-0.3, -0.3, 0.0]]
    )
    def test_matches_per_scale_reference_q23(self, direction):
        self.assert_matches_reference(pinned_q23_problem(), np.array(direction), True)

    def test_one_rung_ladder_matches_reference(self):
        # Q1.1: the top of the range is one quantum, so the ladder has a
        # single rung.
        problem = toy_problem(QFormat(1, 1))
        assert problem.fmt.max_value <= problem.fmt.resolution
        direction = np.array([0.8, -0.5])
        candidates = self.assert_matches_reference(problem, direction, True)
        assert len(candidates) == 2

    def assert_matches_reference(self, problem, direction, refine):
        got = scale_sweep_candidates(problem, direction, refine=refine)
        want = reference_scale_sweep(problem, direction, refine=refine)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.shape == w.shape
            assert g.tobytes() == w.tobytes()
        return got
