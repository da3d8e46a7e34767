"""LDA-FP training: Algorithm 1 (branch-and-bound) plus the heuristic layer.

:class:`LdaFpNodeProblem` adapts an :class:`LdaFpProblem` to the generic
:class:`~repro.optim.bnb.BranchAndBoundSolver`:

- **relax** builds the Eq. 25 cone program with ``eta = sup t^2`` (Eq. 26)
  and solves it with the barrier solver (SLSQP fallback).  The node's lower
  bound is the relaxation optimum minus the solver's duality gap.  Cheap
  interval arithmetic prunes nodes whose ``t`` interval cannot be realized
  by any ``w`` in the box.
- **candidates** implements the Eq. 27 upper-bound rule: round the
  relaxation solution to the grid, plus the scale-sweep and (optionally)
  coordinate-descent heuristics from :mod:`repro.core.localsearch`.
- **branch** bisects the dimension with the largest width relative to its
  root width, grid-aligned for ``w`` dimensions (Algorithm 1 step 4).
- **terminal** boxes (small enough to enumerate) are resolved exactly.

:func:`train_lda_fp` is the user-facing entry point: it wires the problem,
warm-starts the incumbent from rounded conventional LDA (another of the
paper's undisclosed-heuristics slots), runs the search, and returns a
:class:`~repro.core.classifier.FixedPointLinearClassifier` plus a training
report.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from ..errors import InfeasibleProblemError, InputValidationError, TrainingError
from ..fixedpoint.qformat import QFormat
from ..fixedpoint.quantize import quantize
from ..fixedpoint.rounding import RoundingMode
from ..optim.barrier import BarrierSolver
from ..optim.bnb import (
    BranchAndBoundConfig,
    BranchAndBoundResult,
    BranchAndBoundSolver,
    BranchAndBoundStats,
    Candidate,
    Relaxation,
)
from ..optim.boxes import Box
from ..optim.slsqp_backend import solve_with_slsqp
from ..optim.trace import SolverTrace
from ..data.dataset import Dataset
from ..stats.scatter import estimate_two_class_stats
from .classifier import FixedPointLinearClassifier
from .lda import fit_lda
from .localsearch import coordinate_descent, scale_sweep_candidates
from .problem import LdaFpProblem, eta_inf, eta_sup

__all__ = ["LdaFpConfig", "LdaFpReport", "LdaFpNodeProblem", "train_lda_fp"]

_FEAS_TOL = 1e-9


@dataclass(frozen=True)
class LdaFpConfig:
    """Knobs of the LDA-FP trainer.

    Attributes
    ----------
    rho:
        Overflow confidence level (Eq. 16).
    beta:
        Explicit ``beta`` overriding ``rho``.
    backend:
        ``"slsqp"`` (scipy, fast — the default inside ``"auto"``),
        ``"barrier"`` (from-scratch interior point with a duality-gap
        certificate), or ``"auto"`` (SLSQP per node, barrier retry when
        SLSQP fails to converge or reports infeasibility).  The ablation
        bench compares the two backends node for node.
    max_nodes, time_limit:
        Branch-and-bound budgets.
    local_search:
        Run coordinate-descent polish on new incumbents.
    local_search_radius:
        Window (in quanta) of each coordinate-descent move.
    scale_sweep:
        Try grid roundings of the relaxation direction at many scales.
    terminal_enumeration_cap:
        A box is terminal when the product of per-dimension grid counts is
        at most this (then it is enumerated exactly).
    shrinkage:
        Within/class covariance shrinkage applied to the statistics before
        building the problem (BCI regime).
    quantization_noise_floor:
        Add the pseudo-quantization-noise variance ``LSB^2 / 12`` to every
        covariance diagonal.  Without it, two features that quantize to
        identical columns create a spurious zero-within-variance direction
        whose Fisher cost is ~0 on the training set but which classifies at
        chance on deployment (the projection is constantly zero).  The PQN
        floor is the standard fixed-point-DSP noise model and is ablated in
        ``benchmarks/test_ablations.py``.
    warm_start:
        Seed the incumbent with rounded conventional LDA.
    presolve:
        Run the MIP-style node presolve (FBBT over the Eq. 18/20 rows,
        grid snapping, incumbent ellipsoid reduction) in place of the plain
        ``t``-link propagation.  Exact: never excludes a point at least as
        good as the incumbent snapshot it is given.
    symmetry_cuts:
        Prune negative-``t`` boxes whose feasible points provably have
        feasible equal-cost mirrors in the searched region (the Eq. 21 cost
        is invariant under ``w -> -w``); see :mod:`repro.optim.cuts` for
        why the two's-complement asymmetry makes this a proof obligation
        rather than a free halving.
    """

    rho: float = 0.99
    beta: Optional[float] = None
    backend: str = "auto"
    max_nodes: int = 20_000
    time_limit: Optional[float] = None
    absolute_gap: float = 1e-9
    relative_gap: float = 1e-4
    local_search: bool = True
    local_search_radius: int = 2
    scale_sweep: bool = True
    terminal_enumeration_cap: int = 256
    shrinkage: float = 0.0
    quantization_noise_floor: bool = True
    bound_propagation: bool = True
    warm_start: bool = True
    rounding: RoundingMode = RoundingMode.NEAREST_AWAY
    presolve: bool = True
    symmetry_cuts: bool = True

    def __post_init__(self) -> None:
        if self.backend not in ("barrier", "slsqp", "auto"):
            raise InputValidationError(f"unknown backend {self.backend!r}")


@dataclass
class LdaFpReport:
    """What happened during one LDA-FP training run."""

    cost: float
    lower_bound: float
    proven_optimal: bool
    nodes_expanded: int
    nodes_pruned: int
    nodes_infeasible: int
    incumbent_updates: int
    train_seconds: float
    relaxations_solved: int
    backend_fallbacks: int
    stop_reason: str = "exhausted"
    seeds_injected: int = 0
    seeds_rejected: int = 0
    seeds_adopted: int = 0
    symmetry_pruned: int = 0


class LdaFpNodeProblem:
    """Adapter exposing :class:`LdaFpProblem` to the generic B&B driver.

    Every incumbent-dependent decision inside a child relaxation (the
    analytic skip, the presolve ellipsoid reduction) is driven by the
    incumbent snapshot the driver recorded when the parent was pushed
    (``relax_child_with_incumbent``), not by the adapter's own
    ``_best_cost``, which ``candidates`` advances as new incumbents appear.
    Warm-start hints flow through the parent's relaxation solution rather
    than mutable instance state.
    """

    def __init__(self, problem: LdaFpProblem, config: LdaFpConfig) -> None:
        self.problem = problem
        self.config = config
        self.relaxations_solved = 0
        self.backend_fallbacks = 0
        self.symmetry_pruned = 0
        self._root = problem.root_box()
        self._root_widths = np.maximum(self._root.widths, 1e-300)
        self._barrier = BarrierSolver(gap_tol=1e-10)
        self._seen_candidates: "set[bytes]" = set()
        self._best_cost = np.inf  # best candidate cost seen (gates polishing)
        self._presolver = problem.presolver() if config.presolve else None
        self._cut = problem.reflection_cut() if config.symmetry_cuts else None
        # Global continuous bound, deflated by a hair so floating-point error
        # in the ill-conditioned SPD solve cannot make it invalid.
        self._cost_star = problem.continuous_optimum() * (1.0 - 1e-7)

    # ------------------------------------------------------------------ #
    def initial_box(self) -> Box:
        """The searched root: the Eq. 28-29 box, presolve-tightened.

        Root presolve runs exactly once, against the warm-start incumbent
        (set by the trainer before the solve).  A presolve-infeasible
        verdict at the root would contradict the validated incumbent, so
        it is treated as a numerical artifact and the plain root is kept.
        """
        root = self._root
        m = self.problem.num_features
        if self._presolver is not None:
            reduced = self._presolver.presolve(
                root.lo[:m],
                root.hi[:m],
                float(root.lo[m]),
                float(root.hi[m]),
                incumbent=self._best_cost,
            )
            if reduced.feasible:
                # OBBT over the exact cone relaxation, then one more
                # presolve pass to grid-snap the tightened bounds and
                # re-intersect the t link.
                obbt_lo, obbt_hi = self.problem.obbt_weight_bounds(
                    reduced.w_lo, reduced.w_hi
                )
                snapped = self._presolver.presolve(
                    obbt_lo,
                    obbt_hi,
                    reduced.t_lo,
                    reduced.t_hi,
                    incumbent=self._best_cost,
                )
                if snapped.feasible:
                    reduced = snapped
                root = Box(
                    lo=np.concatenate([reduced.w_lo, [reduced.t_lo]]),
                    hi=np.concatenate([reduced.w_hi, [reduced.t_hi]]),
                    steps=root.steps,
                )
        self._root_widths = np.maximum(root.widths, 1e-300)
        return root

    # ------------------------------------------------------------------ #
    def relax(self, box: Box) -> Relaxation:
        # Root relaxation: runs once before the search starts, against the
        # adapter's own incumbent cost.
        return self._relax(box, hint=None, ctx=self._best_cost)

    def relax_child_with_incumbent(
        self, box: Box, parent_relaxation: Relaxation, incumbent: float
    ) -> Relaxation:
        return self._relax(box, hint=parent_relaxation.solution, ctx=float(incumbent))

    def _relax(self, box: Box, hint: "np.ndarray | None", ctx: float) -> Relaxation:
        m = self.problem.num_features
        t_lo, t_hi = float(box.lo[m]), float(box.hi[m])
        w_lo, w_hi = box.lo[:m].copy(), box.hi[:m].copy()
        if self._presolver is not None:
            # MIP-style presolve: t-link FBBT over the Eq. 18/20 rows, grid
            # snapping, and the incumbent ellipsoid reduction — against the
            # push-time incumbent snapshot.
            reduced = self._presolver.presolve(w_lo, w_hi, t_lo, t_hi, incumbent=ctx)
            if not reduced.feasible:
                return Relaxation(lower_bound=np.inf)
            w_lo, w_hi = reduced.w_lo, reduced.w_hi
            t_lo, t_hi = reduced.t_lo, reduced.t_hi
        else:
            # Cheap interval pruning: the node's t interval must intersect
            # the image of its w box under the linear map.
            image_lo, image_hi = self.problem.linear_image(w_lo, w_hi)
            t_lo, t_hi = max(t_lo, image_lo), min(t_hi, image_hi)
            if t_hi < t_lo:
                return Relaxation(lower_bound=np.inf)
            if self.config.bound_propagation:
                tightened = self.problem.propagate_t_interval(w_lo, w_hi, t_lo, t_hi)
                if tightened is None:
                    return Relaxation(lower_bound=np.inf)
                w_lo, w_hi = tightened
        eta = eta_sup(t_lo, t_hi)
        if eta <= 0.0:
            return Relaxation(lower_bound=np.inf)  # t pinned to 0: cost undefined
        # Any w dimension with no grid point inside cannot hold a discrete
        # solution (tightening or odd splits can produce this).
        node_box = Box(
            lo=np.concatenate([w_lo, [t_lo]]),
            hi=np.concatenate([w_hi, [t_hi]]),
            steps=box.steps,
        )
        for dim in range(m):
            if node_box.grid_count(dim) == 0:
                return Relaxation(lower_bound=np.inf)
        # Symmetry cut, on the *tightened* box (presolve only removed points
        # that are infeasible or worse than the incumbent snapshot, which
        # need no mirror): a proven-covered box is discarded outright — its
        # surviving points all have feasible equal-cost mirrors on the kept
        # side.  Pure function of the box.
        if self._cut is not None and self._cut.covered(node_box):
            self.symmetry_pruned += 1
            return Relaxation(lower_bound=np.inf)
        # Analytic pre-bound: min w'S_W w given d'w = s is s^2 * cost_star,
        # so the node cost is at least (inf s^2) * cost_star / (sup s^2).
        # When this alone beats the incumbent snapshot, skip the cone solve
        # entirely.  Every discrete point anywhere costs at least the
        # continuous optimum, so cost_star lifts all node bounds (including
        # the otherwise-zero bound of origin-containing nodes).
        analytic = max(
            eta_inf(t_lo, t_hi) * self._cost_star / eta, self._cost_star
        )
        if analytic >= ctx:
            return Relaxation(lower_bound=analytic, solution=None)

        program = self.problem.node_program(node_box, eta)
        self.relaxations_solved += 1
        backend = self.config.backend
        if backend == "barrier":
            return self._relax_barrier(program, analytic, hint, allow_fallback=False)
        # SLSQP primary path (fast); barrier verifies failures under "auto".
        result = solve_with_slsqp(program, x0=hint)
        if result.success and result.max_violation <= 1e-7:
            # SLSQP gives no duality certificate; subtract a safety margin so
            # the bound stays conservative.
            slack = 1e-9 + 1e-6 * abs(result.objective)
            return Relaxation(
                lower_bound=max(result.objective - slack, analytic),
                solution=result.x,
            )
        if backend == "slsqp":
            if result.max_violation > 1e-6:
                return Relaxation(lower_bound=np.inf)
            slack = 1e-9 + 1e-5 * abs(result.objective)
            return Relaxation(
                lower_bound=max(result.objective - slack, analytic),
                solution=result.x,
            )
        self.backend_fallbacks += 1
        return self._relax_barrier(
            program, analytic, hint, allow_fallback=True, slsqp_result=result
        )

    def _relax_barrier(
        self,
        program,
        analytic: float,
        hint: "np.ndarray | None",
        allow_fallback: bool,
        slsqp_result=None,
    ) -> Relaxation:
        try:
            result = self._barrier.solve(program, x0=hint)
            bound = result.objective - result.duality_gap - 1e-12
            return Relaxation(lower_bound=max(bound, analytic), solution=result.x)
        except InfeasibleProblemError:
            if allow_fallback and slsqp_result is not None and slsqp_result.max_violation <= 1e-6:
                # Barrier phase-I failed on a thin-but-nonempty set that
                # SLSQP did reach: keep the conservative SLSQP bound.
                slack = 1e-9 + 1e-5 * abs(slsqp_result.objective)
                return Relaxation(
                    lower_bound=max(slsqp_result.objective - slack, analytic),
                    solution=slsqp_result.x,
                )
            return Relaxation(lower_bound=np.inf)

    # ------------------------------------------------------------------ #
    def candidates(self, box: Box, relaxation: Relaxation) -> Iterable[Candidate]:
        if relaxation.solution is None:
            return []
        base = np.asarray(relaxation.solution, dtype=np.float64)
        trials: List[np.ndarray] = [np.asarray(quantize(base, self.problem.fmt))]
        if self.config.scale_sweep:
            trials.extend(scale_sweep_candidates(self.problem, base))
        out: List[Candidate] = []
        for trial in trials:
            key = trial.tobytes()
            if key in self._seen_candidates:
                continue
            self._seen_candidates.add(key)
            if not np.any(trial):
                continue
            if self.problem.constraint_violation(trial) > _FEAS_TOL:
                continue
            cost = self.problem.cost(trial)
            if not np.isfinite(cost):
                continue
            # Polishing every rounded point is wasteful: only points already
            # competitive with the best incumbent are worth refining.
            if self.config.local_search and cost <= 2.0 * self._best_cost:
                polished = coordinate_descent(
                    self.problem, trial, radius=self.config.local_search_radius
                )
                cost, trial = polished.cost, polished.weights
            out.append(Candidate(x=trial, cost=cost))
            self._best_cost = min(self._best_cost, cost)
        return out

    # ------------------------------------------------------------------ #
    def branch(self, box: Box, relaxation: Relaxation) -> Sequence[Box]:
        # Children get the parent's relaxation solution as warm start via
        # relax_child_with_incumbent; branching itself is pure.
        m = self.problem.num_features
        if self._cut is not None:
            # With symmetry cuts active, the first split of a t-straddling
            # box goes at exactly t = 0: the cut can only ever cover boxes
            # entirely on the negative side, so separating the sign regions
            # early is what lets it fire.
            if box.lo[m] < 0.0 < box.hi[m]:
                return box.split_at(m, 0.0)
            # On the negative side, shave the one-LSB two's-complement strip
            # (the lone grid value below -value_hi, i.e. value_lo) off any
            # dimension still touching it: the strip slice is a thin pinned
            # box and the remaining body becomes mirrorable by the
            # reflection cut.
            if box.hi[m] <= 0.0:
                limit = -self.problem.value_hi
                step = self.problem.fmt.resolution
                for dim in range(m):
                    if box.lo[dim] < limit - 1e-12 and box.hi[dim] > limit - 1e-12:
                        return box.split_at(dim, limit - 0.5 * step)
                # Cut-guided split: separate the largest mirror-safe slice
                # so the reflection cut kills it at relaxation time (no cone
                # solve), leaving a strictly thinner surviving child.  This
                # turns the bound-driven search of the near-symmetric region
                # into a short chain of guided splits.
                guided = self._cut.guided_split(box)
                if guided is not None:
                    return box.split_at(guided[0], guided[1])
        # Fixed order: the widest dimension relative to the root, skipping
        # dimensions already at one grid step.
        widths = box.widths / self._root_widths
        for dim in range(m):
            if box.grid_count(dim) <= 1:
                widths[dim] = -1.0
        dim = int(np.argmax(widths))
        if widths[dim] <= 0.0:
            dim = m  # only t left to split
        return box.split(dim)

    # ------------------------------------------------------------------ #
    def is_terminal(self, box: Box) -> bool:
        m = self.problem.num_features
        count = 1
        for dim in range(m):
            count *= max(1, box.grid_count(dim))
            if count > self.config.terminal_enumeration_cap:
                return False
        return True

    def resolve_terminal(self, box: Box) -> Iterable[Candidate]:
        m = self.problem.num_features
        grids = [box.grid_values(dim) for dim in range(m)]
        out: List[Candidate] = []
        # Cartesian product over the (small) terminal grid; the size cap is
        # guaranteed by is_terminal.
        for combo in itertools.product(*grids):
            w = np.array(combo)
            if not np.any(w):
                continue
            if self.problem.constraint_violation(w) > _FEAS_TOL:
                continue
            cost = self.problem.cost(w)
            if np.isfinite(cost):
                out.append(Candidate(x=w, cost=cost))
        return out


def _warm_start_candidate(
    dataset: Dataset,
    problem: LdaFpProblem,
    config: LdaFpConfig,
    direction: "np.ndarray | None" = None,
) -> "Candidate | None":
    """Rounded conventional LDA (several scales) as the initial incumbent.

    The primary direction is computed from the problem's own (quantized,
    PQN-floored, possibly shrunk) statistics so the warm start targets the
    exact objective the branch-and-bound will optimize — this is what lets
    the early exit fire at large word lengths.  A sweep engine that trains
    many word lengths on the same scaled data can pass a precomputed
    ``direction`` (the float-LDA fit on pre-quantization data, which is
    word-length-invariant) as an *additional* try: both directions go
    through the scale sweep and the better rounded candidate wins, so the
    hint can only tighten the incumbent.
    """
    from ..linalg.cholesky import solve_spd

    directions: "List[np.ndarray]" = []
    if direction is not None:
        direction = np.asarray(direction, dtype=np.float64)
        if direction.shape != (problem.num_features,):
            raise InputValidationError(
                f"warm-start direction has shape {direction.shape}, "
                f"expected ({problem.num_features},)"
            )
        directions.append(direction)
    try:
        directions.append(
            solve_spd(
                problem.stats.within_scatter, problem.stats.mean_difference, jitter=1e-10
            )
        )
    except Exception:
        try:
            model = fit_lda(dataset, shrinkage=max(config.shrinkage, 1e-3))
            directions.append(model.weights)
        except TrainingError:
            pass
    best: "Candidate | None" = None
    for raw in directions:
        norm = float(np.linalg.norm(raw))
        if norm == 0.0 or not np.isfinite(norm):
            continue
        for candidate in scale_sweep_candidates(problem, raw / norm):
            if problem.constraint_violation(candidate) > _FEAS_TOL:
                continue
            cost = problem.cost(candidate)
            if np.isfinite(cost) and (best is None or cost < best.cost):
                best = Candidate(x=candidate, cost=cost)
    if best is not None and config.local_search:
        polished = coordinate_descent(
            problem, best.x, radius=config.local_search_radius
        )
        if polished.cost < best.cost:
            best = Candidate(x=polished.weights, cost=polished.cost)
    return best


def _requantize_seeds(
    problem: LdaFpProblem,
    config: LdaFpConfig,
    seeds: "Sequence[np.ndarray]",
) -> "tuple[List[Candidate], int]":
    """Requantize cross-word-length seeds onto this grid and validate them.

    Each seed (typically the solved ``w`` of an adjacent word length) is
    rounded onto this problem's ``QK.F`` grid and checked against the exact
    Eq. 18 + Eq. 20 overflow constraints *before* it can reach the solver;
    a requantized seed that violates them, collapses to zero, or has a
    non-finite Fisher cost is rejected — never silently used — and counted.
    Returns the surviving candidates (true cost attached) and the number of
    rejected seeds.
    """
    valid: "List[Candidate]" = []
    rejected = 0
    for seed in seeds:
        w = np.asarray(seed, dtype=np.float64)
        if w.shape != (problem.num_features,):
            raise InputValidationError(
                f"incumbent seed has shape {w.shape}, "
                f"expected ({problem.num_features},)"
            )
        w = np.asarray(quantize(w, problem.fmt, rounding=config.rounding))
        if not np.any(w) or problem.constraint_violation(w) > _FEAS_TOL:
            rejected += 1
            continue
        cost = problem.cost(w)
        if not np.isfinite(cost):
            rejected += 1
            continue
        valid.append(Candidate(x=w, cost=cost))
    return valid, rejected


def _maximize_scale(problem: LdaFpProblem, weights: np.ndarray) -> np.ndarray:
    """Double the weight vector while it stays representable and feasible.

    The Eq. 21 cost is *exactly* invariant under ``w -> 2w`` (numerator and
    denominator both scale by 4) and the ``QK.F`` grid is closed under
    doubling within range, so this pass is free in cost terms — but it
    maximizes the margin of every weight to the rounding grid, which is
    what makes the trained boundary robust to perturbations (the Figure 2
    property).  Doubling stops at the first range or overflow-constraint
    violation.
    """
    w = np.asarray(weights, dtype=np.float64)
    for _ in range(problem.fmt.word_length + 1):
        doubled = 2.0 * w
        if np.any(doubled < problem.value_lo) or np.any(doubled > problem.value_hi):
            break
        if problem.constraint_violation(doubled) > _FEAS_TOL:
            break
        w = doubled
    return w


def _adjust_stats(stats, fmt: QFormat, config: LdaFpConfig):
    """Apply shrinkage and the PQN noise floor to the quantized-data stats."""
    from ..linalg.shrinkage import shrink_covariance
    from ..stats.scatter import ClassStats, TwoClassStats

    cov_a = stats.class_a.covariance
    cov_b = stats.class_b.covariance
    if config.shrinkage > 0.0:
        cov_a = shrink_covariance(cov_a, config.shrinkage).covariance
        cov_b = shrink_covariance(cov_b, config.shrinkage).covariance
    if config.quantization_noise_floor:
        # Pseudo-quantization-noise model: rounding to a grid of step q adds
        # (approximately) independent uniform noise of variance q^2 / 12.
        pqn = (fmt.resolution**2 / 12.0) * np.eye(stats.num_features)
        cov_a = cov_a + pqn
        cov_b = cov_b + pqn
    if cov_a is stats.class_a.covariance:
        return stats
    return TwoClassStats(
        class_a=ClassStats(stats.class_a.mean, cov_a, stats.class_a.count),
        class_b=ClassStats(stats.class_b.mean, cov_b, stats.class_b.count),
        within_scatter=0.5 * (cov_a + cov_b),
        mean_difference=stats.mean_difference,
    )


def train_lda_fp(
    dataset: Dataset,
    fmt: QFormat,
    config: "LdaFpConfig | None" = None,
    trace: "SolverTrace | None" = None,
    warm_start_direction: "np.ndarray | None" = None,
    incumbent_seeds: "Sequence[np.ndarray] | None" = None,
) -> "tuple[FixedPointLinearClassifier, LdaFpReport]":
    """Train an LDA-FP classifier (Algorithm 1 end to end).

    Steps (paper Algorithm 1): quantize the training data to ``QK.F``,
    estimate the class statistics, build the Eq. 21 program, run
    branch-and-bound, and assemble the fixed-point classifier with the
    threshold ``w' (mu_A + mu_B) / 2`` quantized to the same format.

    Pass a :class:`~repro.optim.trace.SolverTrace` to record the solver's
    event stream (the warm-start early exit emits a minimal start/stop
    trace so the export is well-formed either way).

    ``warm_start_direction`` optionally supplies the float-LDA direction
    the warm start rounds from (hoisted by a word-length sweep, which fits
    it once on the shared scaled data).  ``incumbent_seeds`` are weight
    vectors solved at adjacent word lengths: each is requantized onto this
    grid, validated against the exact overflow constraints (violating
    seeds are rejected and counted in the report), and handed to the
    branch-and-bound as a seed candidate that only replaces the warm-start
    incumbent when strictly better.  Seeds tighten the initial upper bound
    — they never loosen it — so a seeded search prunes at least as hard.

    Returns the classifier and a :class:`LdaFpReport`.  The report's
    ``proven_optimal`` is True only when the search closed the gap within
    its budgets.
    """
    config = config or LdaFpConfig()
    start_time = time.perf_counter()

    # Algorithm 1 step 1: round training data to QK.F.
    quantized = dataset.map_features(
        lambda x: np.asarray(quantize(x, fmt, rounding=config.rounding))
    )
    stats = estimate_two_class_stats(*quantized.class_arrays())
    stats = _adjust_stats(stats, fmt, config)

    problem = LdaFpProblem(stats=stats, fmt=fmt, rho=config.rho, beta=config.beta)
    node_problem = LdaFpNodeProblem(problem, config)
    incumbent = (
        _warm_start_candidate(quantized, problem, config, direction=warm_start_direction)
        if config.warm_start
        else None
    )
    if incumbent is not None:
        node_problem._best_cost = incumbent.cost
    seed_candidates, seeds_rejected = (
        _requantize_seeds(problem, config, incumbent_seeds)
        if incumbent_seeds
        else ([], 0)
    )

    # Early exit on the global continuous bound (paper Table 1: at large
    # word lengths the rounded conventional solution is already optimal and
    # LDA-FP's runtime collapses to milliseconds): if the warm start meets
    # the continuous Fisher optimum to within the gap tolerances, the search
    # cannot improve it.  Seeds are deliberately not consulted here: the
    # early exit must fire (and return) exactly as it would unseeded.
    cost_star = node_problem._cost_star
    if (
        incumbent is not None
        and incumbent.cost
        <= cost_star * (1.0 + config.relative_gap) + config.absolute_gap
    ):
        solver_stats = BranchAndBoundStats(stop_reason="gap")
        if trace is not None:
            trace.begin()
            trace.record("start", incumbent=incumbent.cost)
            trace.record(
                "stop", bound=cost_star, incumbent=incumbent.cost, detail="gap"
            )
            trace.finalize(solver_stats)
        result = BranchAndBoundResult(
            x=incumbent.x,
            cost=incumbent.cost,
            lower_bound=cost_star,
            proven_optimal=True,
            stats=solver_stats,
        )
    else:
        solver = BranchAndBoundSolver(
            BranchAndBoundConfig(
                max_nodes=config.max_nodes,
                time_limit=config.time_limit,
                absolute_gap=config.absolute_gap,
                relative_gap=config.relative_gap,
            )
        )
        result = solver.solve(
            node_problem,
            initial_incumbent=incumbent,
            trace=trace,
            seed_candidates=seed_candidates,
        )
        if cost_star > result.lower_bound:
            result = BranchAndBoundResult(
                x=result.x,
                cost=result.cost,
                lower_bound=min(cost_star, result.cost),
                proven_optimal=result.proven_optimal,
                stats=result.stats,
            )

    weights = _maximize_scale(problem, np.asarray(quantize(result.x, fmt)))
    threshold = float(weights @ stats.midpoint)
    # Orient the comparator: Eq. 10 is invariant under w -> -w, so the
    # solver may return the mirrored vector; class A must end up on the
    # positive side of the boundary (Eq. 12).
    polarity = 1 if float(stats.mean_difference @ weights) >= 0.0 else -1
    classifier = FixedPointLinearClassifier(
        weights=weights,
        threshold=threshold,
        fmt=fmt,
        rounding=config.rounding,
        polarity=polarity,
    )
    report = LdaFpReport(
        cost=result.cost,
        lower_bound=result.lower_bound,
        proven_optimal=result.proven_optimal,
        nodes_expanded=result.stats.nodes_expanded,
        nodes_pruned=result.stats.nodes_pruned,
        nodes_infeasible=result.stats.nodes_infeasible,
        incumbent_updates=result.stats.incumbent_updates,
        train_seconds=time.perf_counter() - start_time,
        relaxations_solved=node_problem.relaxations_solved,
        backend_fallbacks=node_problem.backend_fallbacks,
        stop_reason=result.stats.stop_reason,
        seeds_injected=len(seed_candidates),
        seeds_rejected=seeds_rejected,
        seeds_adopted=result.stats.seeds_adopted,
        symmetry_pruned=node_problem.symmetry_pruned,
    )
    return classifier, report
