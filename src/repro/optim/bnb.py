"""Generic best-first branch-and-bound framework (paper Algorithm 1).

The framework is problem-agnostic: a :class:`BranchAndBoundProblem`
implementation supplies the relaxation (lower bound), the incumbent
heuristic (upper bound / feasible point), the branching rule, and terminal
resolution.  The driver keeps a priority queue of open boxes ordered by
lower bound, prunes nodes whose bound exceeds the incumbent (Algorithm 1
step 5), and stops when the queue is empty (proven optimality), the gap
target is met, or a node/time budget runs out — in which case the incumbent
is returned with ``proven_optimal=False`` and
``BranchAndBoundStats.stop_reason`` records why.

The frontier is expanded serially, one node at a time, as in the paper,
and every split goes through ``problem.branch``.  Without a time budget
the node sequence is a pure function of the problem and the config: heap
ties on equal bounds break on a monotone sequence counter assigned at push
time, and every incumbent-dependent decision made *inside* a relaxation is
driven by the incumbent snapshot recorded when the node was pushed
(threaded through ``relax_child_with_incumbent``), not by the incumbent at
expansion time.  The snapshot is part of the search's definition: recorded
node counts depend on it.

Telemetry: pass a :class:`~repro.optim.trace.SolverTrace` to
:meth:`BranchAndBoundSolver.solve` to record typed events (expand, prune,
infeasible, incumbent, gap progress) with a periodic progress callback and
JSON export.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Optional, Protocol, Sequence

import numpy as np

from ..errors import InputValidationError, SolverBudgetExceeded
from .boxes import Box
from .trace import SolverTrace

__all__ = [
    "Candidate",
    "Relaxation",
    "BranchAndBoundProblem",
    "BranchAndBoundConfig",
    "BranchAndBoundStats",
    "BranchAndBoundResult",
    "BranchAndBoundSolver",
    "STOP_REASONS",
]

STOP_REASONS = ("nodes", "time", "gap", "exhausted")


@dataclass(frozen=True)
class Candidate:
    """A feasible discrete point and its true cost."""

    x: np.ndarray
    cost: float


@dataclass(frozen=True)
class Relaxation:
    """Result of relaxing one node.

    Attributes
    ----------
    lower_bound:
        Valid lower bound on the discrete cost within the node's box
        (``+inf`` marks an infeasible node).
    solution:
        Minimizer of the relaxation (used to guide rounding/branching);
        ``None`` when infeasible.
    """

    lower_bound: float
    solution: Optional[np.ndarray] = None

    @property
    def feasible(self) -> bool:
        return np.isfinite(self.lower_bound)


class BranchAndBoundProblem(Protocol):
    """The problem-specific callbacks the driver needs.

    Beyond the required methods, the driver honours one optional hook,
    ``relax_child_with_incumbent(box, parent_relaxation, incumbent)``: relax
    a child with its parent's relaxation available as a warm start and the
    incumbent cost snapshot recorded when the parent was pushed.  Problems
    whose relaxation takes incumbent-dependent shortcuts (analytic skips,
    objective-based presolve) should gate them on this snapshot.  Without
    the hook, children go through ``relax``.
    """

    def initial_box(self) -> Box:
        """The root search box (paper Eq. 28-29)."""
        ...

    def relax(self, box: Box) -> Relaxation:
        """Lower bound for the box (paper Eq. 25-26)."""
        ...

    def candidates(self, box: Box, relaxation: Relaxation) -> Iterable[Candidate]:
        """Feasible discrete points found inside/near the box (Eq. 27 + rounding)."""
        ...

    def branch(self, box: Box, relaxation: Relaxation) -> Sequence[Box]:
        """Partition the box (Algorithm 1 step 4)."""
        ...

    def is_terminal(self, box: Box) -> bool:
        """True when the box is small enough to resolve by enumeration."""
        ...

    def resolve_terminal(self, box: Box) -> Iterable[Candidate]:
        """Enumerate the discrete points of a terminal box."""
        ...


@dataclass(frozen=True)
class BranchAndBoundConfig:
    """Budgets and tolerances for the driver.

    Attributes
    ----------
    max_nodes:
        Maximum nodes popped (pruned, branched, or terminal) before
        returning the incumbent.
    time_limit:
        Wall-clock budget in seconds (``None`` = unlimited).  Checked per
        pop and between child relaxations, so ``stop_reason="time"`` fires
        within about one child relaxation of the budget.
    absolute_gap:
        Stop when ``incumbent - best_lower_bound <= absolute_gap``.
    relative_gap:
        Stop when the gap relative to the incumbent is below this.
    """

    max_nodes: int = 200_000
    time_limit: Optional[float] = None
    absolute_gap: float = 1e-9
    relative_gap: float = 1e-9


@dataclass
class BranchAndBoundStats:
    """Counters describing one solve.

    ``nodes_expanded`` counts every popped-and-processed node, so
    ``nodes_expanded == nodes_pruned_after_pop + nodes_branched +
    terminal_nodes``; ``nodes_pruned == nodes_pruned_after_pop +
    children_pruned``.
    """

    nodes_expanded: int = 0
    nodes_pruned: int = 0
    nodes_pruned_after_pop: int = 0
    nodes_branched: int = 0
    children_pruned: int = 0
    nodes_infeasible: int = 0
    terminal_nodes: int = 0
    incumbent_updates: int = 0
    seeds_adopted: int = 0
    wall_time: float = 0.0
    stop_reason: str = "exhausted"


@dataclass(frozen=True)
class BranchAndBoundResult:
    """Solution returned by the driver.

    ``proven_optimal`` is True only when the search space was exhausted (or
    closed by the gap test); a budget-limited run returns the incumbent with
    the best remaining lower bound in ``lower_bound``.
    """

    x: np.ndarray
    cost: float
    lower_bound: float
    proven_optimal: bool
    stats: BranchAndBoundStats

    @property
    def gap(self) -> float:
        return self.cost - self.lower_bound


def _relax_child(
    problem, child: Box, parent_relaxation: Relaxation, ctx: float
) -> Relaxation:
    hook = getattr(problem, "relax_child_with_incumbent", None)
    if hook is not None:
        return hook(child, parent_relaxation, ctx)
    return problem.relax(child)


class _SearchState:
    """Mutable state of one search: frontier heap, incumbent, counters."""

    def __init__(self, problem, config, stats, trace, start_time, incumbent):
        self.problem = problem
        self.config = config
        self.stats = stats
        self.trace = trace
        self.start_time = start_time
        self.best: "Candidate | None" = incumbent
        # Heap entries: (bound, tick, box, relaxation, ctx); the head holds
        # the smallest remaining bound.
        self.heap: "list[tuple]" = []
        self.ticks = itertools.count()
        self._last_gap_bound = -np.inf

    # ------------------------------------------------------------------ #
    def elapsed(self) -> float:
        return time.perf_counter() - self.start_time

    def out_of_time(self) -> bool:
        limit = self.config.time_limit
        return limit is not None and self.elapsed() > limit

    def push(self, bound: float, box: Box, relaxation: Relaxation) -> None:
        # The tick is assigned here, in push order, which pins equal-bound
        # ties deterministically.  ``ctx`` snapshots the incumbent cost at
        # the same sequence point, so expansion decisions never depend on
        # when the node is later expanded.
        ctx = np.inf if self.best is None else self.best.cost
        heapq.heappush(self.heap, (bound, next(self.ticks), box, relaxation, ctx))

    def improve(self, candidates: Iterable[Candidate]) -> None:
        for cand in candidates:
            if np.isfinite(cand.cost) and (
                self.best is None or cand.cost < self.best.cost
            ):
                self.best = cand
                self.stats.incumbent_updates += 1
                self.event("incumbent", incumbent=cand.cost)

    def event(self, kind: str, **kwargs) -> None:
        if self.trace is not None:
            self.trace.record(kind, **kwargs)

    def gap_progress(self, bound: float) -> None:
        """Emit a ``gap`` event when the global remaining bound advances
        (the popped bound is the minimum over the frontier at pop time)."""
        if self.trace is None or self.best is None:
            return
        reported = min(bound, self.best.cost)
        if reported > self._last_gap_bound:
            self._last_gap_bound = reported
            self.event("gap", bound=reported, incumbent=self.best.cost)

    def progress_tick(self) -> None:
        if self.trace is None or self.trace.progress is None:
            return
        lower = self.heap[0][0] if self.heap else None
        if lower is not None and self.best is not None:
            lower = min(lower, self.best.cost)
        self.trace.maybe_progress(
            nodes_expanded=self.stats.nodes_expanded,
            frontier=len(self.heap),
            incumbent=None if self.best is None else self.best.cost,
            lower_bound=lower,
            elapsed=self.elapsed(),
        )


class BranchAndBoundSolver:
    """Best-first branch-and-bound driver."""

    def __init__(self, config: "BranchAndBoundConfig | None" = None) -> None:
        self.config = config or BranchAndBoundConfig()

    def solve(
        self,
        problem: BranchAndBoundProblem,
        initial_incumbent: "Candidate | None" = None,
        trace: "SolverTrace | None" = None,
        seed_candidates: "Sequence[Candidate] | None" = None,
    ) -> BranchAndBoundResult:
        """Run the search.

        Parameters
        ----------
        problem:
            The problem callbacks.
        initial_incumbent:
            Optional warm-start feasible point (e.g. rounded conventional
            LDA) — the paper's heuristics rely on a good incumbent to prune
            early.
        trace:
            Optional :class:`SolverTrace` receiving typed events, the
            periodic progress callback, and the final stats.
        seed_candidates:
            Extra pre-validated feasible points (e.g. a requantized solution
            from an adjacent word length).  A seed replaces the starting
            incumbent only when its cost is *strictly* better, so a run with
            redundant seeds returns exactly what the unseeded run returns;
            ``stats.seeds_adopted`` counts the replacements.  The caller is
            responsible for feasibility — the driver only rejects non-finite
            costs.

        Raises
        ------
        SolverBudgetExceeded
            Only if the budget expires with *no* feasible point found.
        """
        config = self.config
        stats = BranchAndBoundStats()
        start_time = time.perf_counter()
        incumbent = initial_incumbent
        for seed in seed_candidates or ():
            if not np.isfinite(seed.cost):
                raise InputValidationError(
                    f"seed candidate has non-finite cost {seed.cost!r}"
                )
            if incumbent is None or seed.cost < incumbent.cost:
                incumbent = seed
                stats.seeds_adopted += 1
        if trace is not None:
            trace.begin(start_time)
            trace.record(
                "start",
                incumbent=None if incumbent is None else incumbent.cost,
            )

        state = _SearchState(problem, config, stats, trace, start_time, incumbent)
        root = problem.initial_box()
        root_relax = problem.relax(root)
        if root_relax.feasible:
            state.improve(problem.candidates(root, root_relax))
            state.push(root_relax.lower_bound, root, root_relax)
        else:
            stats.nodes_infeasible += 1
            state.event("infeasible", bound=np.inf, detail="root")

        self._run(state)

        stats.wall_time = time.perf_counter() - start_time
        best = state.best
        if best is None:
            if trace is not None:
                trace.record("stop", detail=stats.stop_reason)
                trace.finalize(stats)
            raise SolverBudgetExceeded(
                "branch-and-bound found no feasible point within its budget"
            )
        remaining_bound = state.heap[0][0] if state.heap else best.cost
        proven = not state.heap or self._gap_closed(best.cost, remaining_bound, config)
        result = BranchAndBoundResult(
            x=best.x,
            cost=best.cost,
            lower_bound=min(remaining_bound, best.cost),
            proven_optimal=proven,
            stats=stats,
        )
        if trace is not None:
            trace.record(
                "stop",
                bound=result.lower_bound,
                incumbent=result.cost,
                detail=stats.stop_reason,
            )
            trace.finalize(stats)
        return result

    # ------------------------------------------------------------------ #
    def _run(self, st: _SearchState) -> None:
        config, stats = self.config, st.stats
        while st.heap:
            if stats.nodes_expanded >= config.max_nodes:
                stats.stop_reason = "nodes"
                return
            if st.out_of_time():
                stats.stop_reason = "time"
                return
            bound, _, box, relaxation, ctx = heapq.heappop(st.heap)
            if self._process_node(st, bound, box, relaxation, ctx):
                return
            st.progress_tick()
        # Heap drained: proven optimality by exhaustion.
        stats.stop_reason = "exhausted"

    def _process_node(
        self,
        st: _SearchState,
        bound: float,
        box: Box,
        relaxation: Relaxation,
        ctx: float,
    ) -> bool:
        """Prune, resolve, or branch one popped node.

        Returns True when the search should end (gap closed or time budget
        expired).
        """
        config, stats = self.config, st.stats
        best = st.best
        if best is not None and bound > best.cost - config.absolute_gap:
            stats.nodes_expanded += 1
            stats.nodes_pruned_after_pop += 1
            stats.nodes_pruned += 1
            st.event("prune", bound=bound, incumbent=best.cost)
            return False
        if best is not None and self._gap_closed(best.cost, bound, config):
            # Bounds pop in increasing order, so the popped bound is the
            # global remaining bound and the gap is closed.
            st.push(bound, box, relaxation)
            stats.stop_reason = "gap"
            st.event(
                "gap", bound=min(bound, best.cost), incumbent=best.cost, detail="closed"
            )
            return True
        st.gap_progress(bound)

        stats.nodes_expanded += 1
        if st.problem.is_terminal(box):
            stats.terminal_nodes += 1
            st.event(
                "expand",
                bound=bound,
                incumbent=None if best is None else best.cost,
                detail="terminal",
            )
            st.improve(st.problem.resolve_terminal(box))
            return False

        stats.nodes_branched += 1
        children = list(st.problem.branch(box, relaxation))
        st.event(
            "expand",
            bound=bound,
            incumbent=None if best is None else best.cost,
            detail=f"branch:{len(children)}",
        )
        for index, child in enumerate(children):
            if st.out_of_time():
                # Unrelaxed children inherit the parent's bound, which is a
                # valid lower bound for any subset of the parent box, so the
                # returned lower_bound stays sound under a mid-node stop.
                for rest in children[index:]:
                    st.push(bound, rest, relaxation)
                stats.stop_reason = "time"
                return True
            child_relax = _relax_child(st.problem, child, relaxation, ctx)
            self._consume_child(st, child, child_relax)
        return False

    def _consume_child(self, st: _SearchState, child: Box, child_relax: Relaxation) -> None:
        stats = st.stats
        if not child_relax.feasible:
            stats.nodes_infeasible += 1
            st.event("infeasible", bound=np.inf)
            return
        st.improve(st.problem.candidates(child, child_relax))
        if (
            st.best is not None
            and child_relax.lower_bound > st.best.cost - self.config.absolute_gap
        ):
            stats.children_pruned += 1
            stats.nodes_pruned += 1
            st.event(
                "child_pruned",
                bound=child_relax.lower_bound,
                incumbent=st.best.cost,
            )
            return
        st.push(child_relax.lower_bound, child, child_relax)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _gap_closed(incumbent: float, bound: float, config: BranchAndBoundConfig) -> bool:
        gap = incumbent - bound
        if gap <= config.absolute_gap:
            return True
        scale = max(abs(incumbent), 1e-12)
        return gap / scale <= config.relative_gap
