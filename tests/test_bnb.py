"""Tests for the generic branch-and-bound driver on toy separable problems."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SolverBudgetExceeded
from repro.optim.bnb import (
    BranchAndBoundConfig,
    BranchAndBoundSolver,
    Candidate,
    Relaxation,
)
from repro.optim.boxes import Box


class QuadraticGridProblem:
    """min ||x - target||^2 over a uniform grid in a box.

    The relaxation is the exact continuous minimum over the box (clipping the
    target), so bounds are tight and the driver must find the snapped target.
    """

    def __init__(self, target: np.ndarray, lo: float, hi: float, step: float) -> None:
        self.target = np.asarray(target, dtype=np.float64)
        n = self.target.size
        self.box = Box(np.full(n, lo), np.full(n, hi), np.full(n, step))
        self.step = step
        self.relax_calls = 0

    def cost(self, x: np.ndarray) -> float:
        return float(np.sum((x - self.target) ** 2))

    def initial_box(self) -> Box:
        return self.box

    def relax(self, box: Box) -> Relaxation:
        self.relax_calls += 1
        clipped = np.clip(self.target, box.lo, box.hi)
        return Relaxation(lower_bound=self.cost(clipped), solution=clipped)

    def candidates(self, box: Box, relaxation: Relaxation):
        if relaxation.solution is None:
            return []
        snapped = np.round(relaxation.solution / self.step) * self.step
        snapped = np.clip(snapped, self.box.lo, self.box.hi)
        return [Candidate(x=snapped, cost=self.cost(snapped))]

    def branch(self, box: Box, relaxation: Relaxation):
        return list(box.split(box.widest_dimension()))

    def is_terminal(self, box: Box) -> bool:
        return box.is_terminal()

    def resolve_terminal(self, box: Box):
        import itertools

        grids = [box.grid_values(d) for d in range(box.ndim)]
        return [
            Candidate(x=np.array(c), cost=self.cost(np.array(c)))
            for c in itertools.product(*grids)
        ]


class InfeasibleProblem(QuadraticGridProblem):
    def relax(self, box: Box) -> Relaxation:
        return Relaxation(lower_bound=np.inf)


class NoCandidateProblem(QuadraticGridProblem):
    """Feasible relaxations but no incumbents until a terminal box."""

    def candidates(self, box, relaxation):
        return []

    def is_terminal(self, box):
        return False  # never terminal: the driver can only run out of budget


class TestDriver:
    def test_finds_grid_optimum_1d(self):
        problem = QuadraticGridProblem(np.array([0.30]), -1.0, 1.0, 0.25)
        result = BranchAndBoundSolver().solve(problem)
        assert result.proven_optimal
        assert result.x[0] == pytest.approx(0.25)

    def test_finds_grid_optimum_3d(self):
        target = np.array([0.3, -0.6, 0.9])
        problem = QuadraticGridProblem(target, -1.0, 1.0, 0.25)
        result = BranchAndBoundSolver().solve(problem)
        assert result.proven_optimal
        assert np.allclose(result.x, [0.25, -0.5, 1.0])
        assert result.cost == pytest.approx(problem.cost(result.x))

    def test_gap_is_nonnegative(self):
        problem = QuadraticGridProblem(np.array([0.1, 0.1]), -1.0, 1.0, 0.25)
        result = BranchAndBoundSolver().solve(problem)
        assert result.gap >= -1e-12
        assert result.lower_bound <= result.cost + 1e-12

    def test_incumbent_warm_start_used(self):
        problem = QuadraticGridProblem(np.array([0.25]), -1.0, 1.0, 0.25)
        optimal = Candidate(x=np.array([0.25]), cost=0.0)
        result = BranchAndBoundSolver().solve(problem, initial_incumbent=optimal)
        assert result.cost == 0.0
        # A perfect warm start with tight root bound prunes everything.
        assert result.stats.nodes_expanded <= 1

    def test_node_budget_returns_incumbent(self):
        problem = QuadraticGridProblem(np.arange(4) / 10.0, -1.0, 1.0, 0.0625)
        config = BranchAndBoundConfig(max_nodes=3)
        result = BranchAndBoundSolver(config).solve(problem)
        assert np.isfinite(result.cost)

    def test_infeasible_root_raises(self):
        problem = InfeasibleProblem(np.array([0.0]), -1.0, 1.0, 0.5)
        with pytest.raises(SolverBudgetExceeded):
            BranchAndBoundSolver().solve(problem)

    def test_infeasible_with_warm_start_returns_it(self):
        problem = InfeasibleProblem(np.array([0.0]), -1.0, 1.0, 0.5)
        incumbent = Candidate(x=np.array([0.5]), cost=0.25)
        result = BranchAndBoundSolver().solve(problem, initial_incumbent=incumbent)
        assert result.cost == 0.25
        assert result.proven_optimal  # empty queue -> exhausted

    def test_stats_populated(self):
        problem = QuadraticGridProblem(np.array([0.3, 0.3]), -1.0, 1.0, 0.25)
        result = BranchAndBoundSolver().solve(problem)
        stats = result.stats
        assert stats.nodes_expanded > 0
        assert stats.wall_time > 0.0
        assert stats.incumbent_updates >= 1

    def test_time_limit_respected(self):
        import time

        problem = QuadraticGridProblem(np.arange(6) / 7.0, -1.0, 1.0, 2.0**-10)
        config = BranchAndBoundConfig(time_limit=0.2, max_nodes=10**9)
        start = time.perf_counter()
        BranchAndBoundSolver(config).solve(problem)
        assert time.perf_counter() - start < 5.0

    def test_relative_gap_termination(self):
        problem = QuadraticGridProblem(np.array([0.3]), -1.0, 1.0, 0.25)
        config = BranchAndBoundConfig(relative_gap=0.5)  # very loose
        result = BranchAndBoundSolver(config).solve(problem)
        assert np.isfinite(result.cost)

    def test_no_feasible_point_under_budget_raises(self):
        # A candidate-free problem and a tiny node budget: the budget
        # expires with no incumbent.
        problem = NoCandidateProblem(np.array([0.3, -0.2]), -1.0, 1.0, 2.0**-8)
        config = BranchAndBoundConfig(max_nodes=3)
        with pytest.raises(SolverBudgetExceeded):
            BranchAndBoundSolver(config).solve(problem)


class SlowChildrenProblem(QuadraticGridProblem):
    """Each child relaxation sleeps, exercising the in-loop time check."""

    def __init__(self, *args, delay: float, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.delay = delay

    def branch(self, box, relaxation):
        # Many children per node so the child loop dominates the wall time.
        children = list(box.split(box.widest_dimension()))
        out = []
        for child in children:
            out.extend(child.split(child.widest_dimension()))
        return out

    def relax(self, box):
        import time as _time

        _time.sleep(self.delay)
        return super().relax(box)


class TestStopReasons:
    def test_exhausted(self):
        problem = QuadraticGridProblem(np.array([0.3]), -1.0, 1.0, 0.25)
        result = BranchAndBoundSolver().solve(problem)
        assert result.proven_optimal
        assert result.stats.stop_reason == "exhausted"

    def test_nodes(self):
        problem = QuadraticGridProblem(np.arange(4) / 10.0, -1.0, 1.0, 2.0**-6)
        result = BranchAndBoundSolver(BranchAndBoundConfig(max_nodes=3)).solve(
            problem
        )
        assert not result.proven_optimal
        assert result.stats.stop_reason == "nodes"
        assert result.stats.nodes_expanded <= 3

    def test_time(self):
        problem = SlowChildrenProblem(
            np.arange(4) / 7.0, -1.0, 1.0, 2.0**-10, delay=0.02
        )
        config = BranchAndBoundConfig(time_limit=0.1, max_nodes=10**9)
        result = BranchAndBoundSolver(config).solve(problem)
        assert result.stats.stop_reason == "time"

    def test_gap(self):
        # Gap termination is only reachable via the relative gap: a bound
        # within absolute_gap of the incumbent is pruned instead.
        problem = QuadraticGridProblem(np.array([0.3, 0.1]), -1.0, 1.0, 0.25)
        config = BranchAndBoundConfig(relative_gap=100.0)
        result = BranchAndBoundSolver(config).solve(problem)
        assert result.stats.stop_reason == "gap"
        assert result.proven_optimal

    def test_time_checked_inside_child_loop(self):
        import time

        problem = SlowChildrenProblem(
            np.arange(3) / 7.0, -1.0, 1.0, 2.0**-9, delay=0.05
        )
        config = BranchAndBoundConfig(time_limit=0.2, max_nodes=10**9)
        start = time.perf_counter()
        result = BranchAndBoundSolver(config).solve(problem)
        elapsed = time.perf_counter() - start
        assert result.stats.stop_reason == "time"
        # Each node spawns ~4 children at 0.05 s each; without the in-loop
        # check the driver would only notice the budget one full node late.
        # With it, overshoot is bounded by ~one child relaxation.
        assert elapsed < 1.5
        assert result.lower_bound <= result.cost + 1e-12

    def test_stats_invariant(self):
        problem = QuadraticGridProblem(np.array([0.3, -0.6]), -1.0, 1.0, 0.125)
        stats = BranchAndBoundSolver().solve(problem).stats
        assert stats.nodes_expanded == (
            stats.nodes_pruned_after_pop + stats.nodes_branched + stats.terminal_nodes
        )
        assert stats.nodes_pruned == (
            stats.nodes_pruned_after_pop + stats.children_pruned
        )


class TestHeapTieBreaking:
    """Tie-heavy frontiers expand in a reproducible order: heap entries
    carry a monotone tick so equal bounds resolve FIFO, never by
    comparison of boxes or float identity."""

    def _event_stream(self):
        from repro.optim.trace import SolverTrace

        # A target exactly between grid points makes sibling bounds tie
        # throughout the tree.
        problem = QuadraticGridProblem(
            np.zeros(3) + 0.125, -1.0, 1.0, 0.25
        )
        trace = SolverTrace()
        result = BranchAndBoundSolver().solve(problem, trace=trace)
        return result, [
            (e.kind, e.bound, e.incumbent, e.detail)
            for e in trace.events
            if e.kind != "start"
        ]

    def test_tie_heavy_problem_solves(self):
        result, events = self._event_stream()
        assert result.proven_optimal
        assert result.cost == pytest.approx(3 * 0.125**2)
        assert any(kind == "expand" for kind, *_ in events)

    def test_runs_are_reproducible(self):
        first_result, first = self._event_stream()
        second_result, second = self._event_stream()
        assert first == second
        assert np.array_equal(first_result.x, second_result.x)
