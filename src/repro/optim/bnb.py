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

The frontier is expanded serially, one node at a time, as in the paper.
Without a time budget the node sequence is a pure function of the problem
and the config: heap ties on equal bounds break on a monotone sequence
counter assigned at push time, and every incumbent-dependent decision made
*inside* a relaxation is driven by the incumbent snapshot recorded when the
node was pushed (threaded through ``relax_child_with_incumbent``), not by
the incumbent at expansion time.  The snapshot is part of the search's
definition: recorded node counts depend on it.

Branching: the default (``branching="problem"``) delegates to
``problem.branch``.  ``branching="pseudocost"`` keeps per-dimension
degradation averages (how much each child's bound rose per quantum of
width, separately for the down/up child) and branches on the dimension
with the best product score, falling back to the problem's fixed order
(``branch_dimension`` hook, else widest-in-quanta) until both sides of
every candidate dimension have been observed.  The branching dimension is
chosen at *push* time from the table state at that sequence point.

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
from typing import Iterable, List, Optional, Protocol, Sequence, Tuple

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
    "PseudocostTable",
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

    Beyond the required methods, the driver honours several optional hooks:

    - ``relax_child(box, parent_relaxation)`` — relax a child with its
      parent's relaxation available as a warm start.
    - ``relax_child_with_incumbent(box, parent_relaxation, incumbent)`` —
      like ``relax_child`` but additionally receives the incumbent cost
      snapshot recorded when the parent was pushed.  Problems whose
      relaxation takes incumbent-dependent shortcuts (analytic skips,
      objective-based presolve) should gate them on this snapshot.
    - ``branch_dimension(box, relaxation)`` — the problem's fixed-order
      branching dimension; consulted by pseudocost branching before its
      table is initialized.
    - ``branch_override(box, relaxation)`` — return child boxes to force a
      structural split (e.g. separating a symmetric half-space), or
      ``None`` to let the active branching rule decide.  Consulted only
      under ``branching="pseudocost"`` (``problem.branch`` subsumes it in
      the default mode).
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
    strategy:
        ``"best-first"`` pops the node with the smallest lower bound
        (optimal for proving); ``"depth-first"`` pops the most recently
        created node (reaches terminal boxes — and hence exact incumbents —
        sooner under tight budgets).  Both use the same pruning, so the
        returned bounds are valid either way.
    branching:
        ``"problem"`` delegates every split to ``problem.branch``;
        ``"pseudocost"`` branches on per-dimension degradation averages
        (see the module docstring), falling back to the problem's fixed
        order until the table is initialized.
    """

    max_nodes: int = 200_000
    time_limit: Optional[float] = None
    absolute_gap: float = 1e-9
    relative_gap: float = 1e-9
    strategy: str = "best-first"
    branching: str = "problem"

    def __post_init__(self) -> None:
        if self.strategy not in ("best-first", "depth-first"):
            raise InputValidationError(f"unknown strategy {self.strategy!r}")
        if self.branching not in ("problem", "pseudocost"):
            raise InputValidationError(f"unknown branching {self.branching!r}")


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


class PseudocostTable:
    """Per-dimension degradation averages for pseudocost branching.

    For every branched dimension the table records, separately for the
    down (first) and up (second) child, the average *unit gain*: how much
    the child's lower bound rose above the parent's per quantum of child
    width.  The score of a candidate dimension is the product of both
    sides' predicted degradations (the classic product rule), and a
    dimension only participates once both sides have at least one
    observation.  Infeasible children record a large capped gain — cutting
    off a whole half-box is the best outcome branching can have.
    """

    #: cap on a single observed unit gain (an infeasible child is mapped
    #: here); keeps the averages finite and the ordering deterministic.
    GAIN_CAP = 1e6

    def __init__(self, ndim: int) -> None:
        self.sums = np.zeros((2, ndim))
        self.counts = np.zeros((2, ndim), dtype=np.int64)

    def observe(self, dim: int, side: int, unit_gain: float) -> None:
        self.sums[side, dim] += min(max(unit_gain, 0.0), self.GAIN_CAP)
        self.counts[side, dim] += 1

    def initialized(self, dim: int) -> bool:
        return bool(self.counts[0, dim] > 0 and self.counts[1, dim] > 0)

    def score(self, dim: int, half_width: float) -> float:
        """Predicted product degradation of splitting ``dim``."""
        down = self.sums[0, dim] / max(self.counts[0, dim], 1)
        up = self.sums[1, dim] / max(self.counts[1, dim], 1)
        return max(down * half_width, 1e-12) * max(up * half_width, 1e-12)


def _relax_child(
    problem, child: Box, parent_relaxation: Relaxation, ctx: float
) -> Relaxation:
    hook = getattr(problem, "relax_child_with_incumbent", None)
    if hook is not None:
        return hook(child, parent_relaxation, ctx)
    hook = getattr(problem, "relax_child", None)
    if hook is not None:
        return hook(child, parent_relaxation)
    return problem.relax(child)


def _branch_children(
    problem, box: Box, relaxation: Relaxation, dim: "int | None"
) -> "Tuple[List[Box], int | None]":
    """The node's children plus the dimension actually split (None when the
    problem's own rule or an override produced them)."""
    if dim is None:
        return list(problem.branch(box, relaxation)), None
    override = getattr(problem, "branch_override", None)
    if override is not None:
        forced = override(box, relaxation)
        if forced is not None:
            return list(forced), None
    return list(box.split(dim)), dim


class _SearchState:
    """Mutable state of one search: frontier heap, incumbent, counters."""

    def __init__(self, problem, config, stats, trace, start_time, incumbent):
        self.problem = problem
        self.config = config
        self.stats = stats
        self.trace = trace
        self.start_time = start_time
        self.best: "Candidate | None" = incumbent
        # Heap entries: (key, tick, bound, box, relaxation, ctx, dim).
        self.heap: "list[tuple]" = []
        self.ticks = itertools.count()
        self.depth_first = config.strategy == "depth-first"
        self.pseudocosts: "PseudocostTable | None" = None
        self._last_gap_bound = -np.inf

    # ------------------------------------------------------------------ #
    def elapsed(self) -> float:
        return time.perf_counter() - self.start_time

    def out_of_time(self) -> bool:
        limit = self.config.time_limit
        return limit is not None and self.elapsed() > limit

    def push(self, bound: float, box: Box, relaxation: Relaxation) -> None:
        # The heap entry is (key, tiebreak, bound, box, relaxation, ctx,
        # dim).  Best-first keys on the bound; depth-first keys on negative
        # creation order, turning the heap into a stack while the true
        # bound rides along for pruning and gap accounting.  The tiebreak
        # tick is assigned here, in push order, which pins equal-bound ties
        # deterministically.  ``ctx`` snapshots the incumbent cost and
        # ``dim`` the pseudocost branching choice at the same sequence
        # point, so expansion decisions never depend on when the node is
        # later expanded.
        tick = next(self.ticks)
        key = float(-tick) if self.depth_first else bound
        ctx = np.inf if self.best is None else self.best.cost
        dim = None if self.pseudocosts is None else self.choose_dimension(box, relaxation)
        heapq.heappush(self.heap, (key, tick, bound, box, relaxation, ctx, dim))

    def choose_dimension(self, box: Box, relaxation: Relaxation) -> "int | None":
        """Pseudocost branching choice (falls back to the fixed order)."""
        table = self.pseudocosts
        candidates = [
            d
            for d in range(box.ndim)
            if (
                box.steps[d] > 0
                and box.grid_count(d) >= 2
            )
            or (box.steps[d] <= 0 and box.hi[d] - box.lo[d] > 0)
        ]
        if not candidates:
            return None  # nothing to split: defer to problem.branch
        if table is not None and all(table.initialized(d) for d in candidates):
            widths = box.widths_in_quanta()
            best_dim, best_score = candidates[0], -np.inf
            for d in candidates:
                score = table.score(d, 0.5 * widths[d])
                if score > best_score:
                    best_dim, best_score = d, score
            return best_dim
        hook = getattr(self.problem, "branch_dimension", None)
        if hook is not None:
            fixed = int(hook(box, relaxation))
            if fixed in candidates:
                return fixed
        widths = box.widths_in_quanta()
        best_dim, best_width = candidates[0], -np.inf
        for d in candidates:
            if widths[d] > best_width:
                best_dim, best_width = d, widths[d]
        return best_dim

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
        """Emit a ``gap`` event when the global remaining bound advances.

        Only meaningful for best-first, where the popped bound is the
        global minimum over the frontier at pop time.
        """
        if self.trace is None or self.depth_first or self.best is None:
            return
        reported = min(bound, self.best.cost)
        if reported > self._last_gap_bound:
            self._last_gap_bound = reported
            self.event("gap", bound=reported, incumbent=self.best.cost)

    def progress_tick(self) -> None:
        if self.trace is None or self.trace.progress is None:
            return
        lower = min((entry[2] for entry in self.heap), default=None)
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
        if config.branching == "pseudocost":
            state.pseudocosts = PseudocostTable(root.ndim)
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
        remaining_bound = min((entry[2] for entry in state.heap), default=best.cost)
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
            _, _, bound, box, relaxation, ctx, dim = heapq.heappop(st.heap)
            if self._process_node(st, bound, box, relaxation, ctx, dim):
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
        dim: "int | None",
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
        if (
            best is not None
            and not st.depth_first
            and self._gap_closed(best.cost, bound, config)
        ):
            # Best-first pops bounds in increasing order, so the popped
            # bound is the global remaining bound and the gap is closed.
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
        children, used_dim = _branch_children(st.problem, box, relaxation, dim)
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
            self._observe_branching(st, used_dim, index, bound, child, child_relax)
            self._consume_child(st, child, child_relax)
        return False

    def _observe_branching(
        self,
        st: _SearchState,
        used_dim: "int | None",
        side: int,
        parent_bound: float,
        child: Box,
        child_relax: Relaxation,
    ) -> None:
        """Feed one child's bound degradation into the pseudocost table
        (before the child is consumed)."""
        table = st.pseudocosts
        if table is None or used_dim is None or side > 1:
            return
        half_width = max(float(child.widths_in_quanta()[used_dim]), 1e-12)
        gain = child_relax.lower_bound - parent_bound
        if not np.isfinite(gain):
            table.observe(used_dim, side, PseudocostTable.GAIN_CAP)
        else:
            table.observe(used_dim, side, gain / half_width)

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
