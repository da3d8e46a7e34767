"""Discrete local search over the ``QK.F`` grid.

Part of the "additional heuristics" layer (paper Section 4 mentions
speed-up heuristics without detail).  Two roles:

1. **Polish**: coordinate-descent on the exact Eq. 21 cost starting from a
   feasible grid point (typically a rounded relaxation solution), moving one
   coordinate at a time within a small window of grid steps, accepting the
   best feasible improving move until a local optimum.  This is what makes
   large-``M`` (BCI) runs productive under a node budget.
2. **Scale sweep**: the continuous cost (Eq. 10) is scale-invariant but the
   grid is not — ``round(lambda * w)`` for different ``lambda`` yields very
   different discrete costs.  ``scale_sweep_candidates`` scans a ladder of
   scales that place the largest weight at every usable magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..fixedpoint.quantize import nearest_grid_neighbors, quantize
from .problem import LdaFpProblem

__all__ = ["LocalSearchResult", "coordinate_descent", "scale_sweep_candidates"]


@dataclass(frozen=True)
class LocalSearchResult:
    """Outcome of a coordinate-descent polish."""

    weights: np.ndarray
    cost: float
    moves_accepted: int
    converged: bool


def coordinate_descent(
    problem: LdaFpProblem,
    start: np.ndarray,
    radius: int = 2,
    max_sweeps: int = 25,
) -> LocalSearchResult:
    """Exact-cost coordinate descent from a feasible grid point.

    Parameters
    ----------
    problem:
        The LDA-FP instance (provides cost + exact feasibility).
    start:
        Feasible grid starting point.
    radius:
        Moves considered per coordinate: grid values within ``radius``
        quanta of the current value.
    max_sweeps:
        Sweep budget; ``converged`` is False if it runs out first.
    """
    w = np.asarray(quantize(np.asarray(start, dtype=np.float64), problem.fmt))
    best_cost = problem.cost(w)
    moves = 0
    converged = False
    for _ in range(max_sweeps):
        improved = False
        for i in range(w.size):
            values = nearest_grid_neighbors(float(w[i]), problem.fmt, radius=radius)
            values = values[values != w[i]]
            # This coordinate's moves as one matrix: row j is w with
            # w[i] = values[j].  Coordinates stay sequential because an
            # accepted move changes w.
            trials = np.repeat(w[None, :], values.size, axis=0)
            trials[:, i] = values
            feasible = problem.constraint_violations(trials) <= 1e-9
            best_move = None
            for value, trial in zip(values[feasible], trials[feasible]):
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
    return LocalSearchResult(weights=w, cost=best_cost, moves_accepted=moves, converged=converged)


def scale_sweep_candidates(
    problem: LdaFpProblem,
    direction: np.ndarray,
    num_scales: int = 24,
    refine: bool = True,
) -> "list[np.ndarray]":
    """Grid roundings of ``lambda * direction`` over a ladder of scales.

    The continuous cost (Eq. 10) is invariant to ``lambda`` but the rounded
    cost is not, so the ladder runs from "largest element at one quantum" up
    to "largest element at the top of the range", geometrically spaced, in
    both signs.  With ``refine``, a second, finer ladder is placed around
    the coarse ladder's best feasible scale — this is what lets the rounded
    conventional solution reach the continuous optimum at large word
    lengths (paper Table 1, 14-16 bit rows).  The all-zero rounding is
    dropped; infeasible candidates are kept for the caller to filter (they
    are cheap to test).
    """
    d = np.asarray(direction, dtype=np.float64)
    peak = float(np.max(np.abs(d)))
    if peak == 0.0 or not np.isfinite(peak):
        return []
    fmt = problem.fmt
    lo_scale = fmt.resolution / peak
    hi_scale = fmt.max_value / peak
    if hi_scale <= lo_scale:
        scales = np.array([hi_scale])
    else:
        scales = np.geomspace(lo_scale, hi_scale, num=num_scales)

    out: "list[np.ndarray]" = []
    seen: "set[bytes]" = set()

    def add(ladder: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Round the ladder as one matrix, in ``(scale, +), (scale, -)`` order.

        Keeps each nonzero rounding not seen before; returns the kept rows
        and the scale each came from.
        """
        mults = np.stack([ladder, -ladder], axis=1).ravel()
        rows = np.asarray(quantize(mults[:, None] * d, fmt))
        kept = []
        for k in np.flatnonzero(rows.any(axis=1)):
            key = rows[k].tobytes()
            if key not in seen:
                seen.add(key)
                kept.append(k)
        rows = rows[kept]
        out.extend(rows)
        return rows, ladder[np.asarray(kept, dtype=np.intp) // 2]

    coarse, coarse_scales = add(scales)
    if refine:
        # The first feasible row in ladder order with the lowest finite
        # cost picks the scale the finer ladder is centred on.
        best_scale = None
        best_cost = np.inf
        feasible = problem.constraint_violations(coarse) <= 1e-9
        for row, scale in zip(coarse[feasible], coarse_scales[feasible]):
            cost = problem.cost(row)
            if np.isfinite(cost) and cost < best_cost:
                best_cost, best_scale = cost, float(scale)
        if best_scale is not None:
            add(np.linspace(best_scale / 1.4, min(best_scale * 1.4, hi_scale), 24))
    return out
