"""Warm-started word-length sweep engine.

The naive sweep retrains every ``QK.F`` point from scratch: it refits the
feature scaler, refits the conventional-LDA warm start, and hands
branch-and-bound an incumbent that knows nothing about the adjacent word
length's solution.  This engine removes all three redundancies:

1. **Hoisting** — the :class:`~repro.data.scaling.FeatureScaler` depends
   only on ``K`` (via ``scale_margin * 2^(K-1)``), which makes the *scaled
   train and test datasets* word-length-invariant too, and the float-LDA
   direction used by the warm start depends only on that scaled,
   pre-quantization data.  All three are computed once per sweep and
   threaded into every :meth:`~repro.core.pipeline.TrainingPipeline.run`
   call (``pre_scaled=True``), leaving only the genuinely grid-dependent
   work — quantization, statistics, and the solve — per point.
2. **Cross-word-length incumbent seeding** — each point after the first
   passes the previous point's solved ``w`` to
   :func:`~repro.core.ldafp.train_lda_fp`, which requantizes it onto the
   new grid, validates it against the exact overflow constraints (invalid
   seeds are rejected and counted, never silently used), and injects it as
   a branch-and-bound seed candidate.  A seed replaces the warm-start
   incumbent only when strictly better, so seeding tightens the initial
   upper bound — making the search prune harder — without loosening
   anything.  Sweeping a descending ``word_lengths`` list seeds each point
   from the *next* (wider) word length's solution, as the chain simply
   follows the order given.

Points are solved one after another in the given order, each with its own
serial branch-and-bound.

Telemetry: pass a :class:`~repro.wordlength.sweeptrace.SweepTrace` to
record one ``repro.sweep-trace/v1`` point record per word length, each
optionally embedding that point's full ``repro.solver-trace/v1`` stream.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Sequence

import numpy as np

from ..core.pipeline import PipelineConfig, TrainingPipeline
from ..data.dataset import Dataset
from ..errors import DataError, InputValidationError
from ..hardware.power import paper_power_model
from ..optim.trace import SolverTrace
from ..stats.scatter import estimate_two_class_stats
from .search import SweepPoint
from .sweeptrace import SweepPointRecord, SweepTrace

__all__ = ["SweepConfig", "run_sweep", "float_warm_direction"]


@dataclass(frozen=True)
class SweepConfig:
    """Engine knobs.

    Attributes
    ----------
    seed_incumbents:
        Seed each point's branch-and-bound incumbent with the previous
        point's solved weights, requantized onto the new grid (lda-fp
        only).
    point_time_limit:
        Per-point wall-clock budget in seconds: clamps (never extends) the
        ``LdaFpConfig.time_limit`` of every sweep point.  Either a single
        float applied to every point, or a ``{word_length: seconds}``
        mapping budgeting individual points (word lengths absent from the
        mapping run uncapped) — the knob that lets one sweep mix fully
        certified points with tightly budgeted exploratory ones.
    """

    seed_incumbents: bool = True
    point_time_limit: "float | dict[int, float] | None" = None

    def __post_init__(self) -> None:
        if isinstance(self.point_time_limit, dict):
            for wl, budget in self.point_time_limit.items():
                if budget <= 0:
                    raise InputValidationError(
                        f"point_time_limit for word length {wl} must be > 0, "
                        f"got {budget}"
                    )
        elif self.point_time_limit is not None and self.point_time_limit <= 0:
            raise InputValidationError(
                f"point_time_limit must be > 0, got {self.point_time_limit}"
            )


def float_warm_direction(train_scaled: Dataset) -> "np.ndarray | None":
    """The word-length-invariant float-LDA direction for the warm start.

    Fisher's direction ``S_W^-1 (mu_A - mu_B)`` computed from the *scaled,
    pre-quantization* statistics — the only inputs of the conventional-LDA
    fit that do not depend on the grid, which is what makes this hoistable.
    Returns ``None`` (caller falls back to the per-word-length fit) when
    the scatter is too singular to solve.
    """
    from ..linalg.cholesky import solve_spd

    stats = estimate_two_class_stats(train_scaled.class_a, train_scaled.class_b)
    try:
        direction = solve_spd(stats.within_scatter, stats.mean_difference, jitter=1e-10)
    except Exception:
        return None
    norm = float(np.linalg.norm(direction))
    if norm == 0.0 or not np.isfinite(norm):
        return None
    return direction / norm


def _budget_for(
    point_time_limit: "float | dict[int, float] | None", word_length: int
) -> "float | None":
    """Resolve the configured budget for one word length (None = uncapped)."""
    if isinstance(point_time_limit, dict):
        return point_time_limit.get(word_length)
    return point_time_limit


def _point_pipeline_config(
    pipeline_config: PipelineConfig, point_time_limit: "float | None"
) -> PipelineConfig:
    """Clamp the per-point solver time budget (never extend it)."""
    if point_time_limit is None or pipeline_config.method != "lda-fp":
        return pipeline_config
    current = pipeline_config.ldafp.time_limit
    effective = (
        point_time_limit if current is None else min(current, point_time_limit)
    )
    if effective == current:
        return pipeline_config
    return replace(
        pipeline_config, ldafp=replace(pipeline_config.ldafp, time_limit=effective)
    )


def run_sweep(
    train: Dataset,
    test: Dataset,
    word_lengths: Sequence[int],
    pipeline_config: "PipelineConfig | None" = None,
    sweep_config: "SweepConfig | None" = None,
    sweep_trace: "SweepTrace | None" = None,
    trace_factory: "Callable[[int], object] | None" = None,
) -> "List[SweepPoint]":
    """Run the sweep engine; returns one :class:`SweepPoint` per word length.

    Points are solved and returned in the order of ``word_lengths``.
    ``sweep_trace`` collects ``repro.sweep-trace/v1`` telemetry;
    ``trace_factory`` maps each word length to the
    :class:`~repro.optim.trace.SolverTrace` (or ``None``) that point's
    solve records into.
    """
    if not word_lengths:
        raise DataError("no word lengths given")
    pipeline_config = pipeline_config or PipelineConfig()
    sweep_config = sweep_config or SweepConfig()
    is_ldafp = pipeline_config.method == "lda-fp"
    # Hoisted, word-length-invariant work: one scaler fit, one transform of
    # each dataset, one float warm-start fit.
    pipeline = TrainingPipeline(pipeline_config)
    scaler = pipeline.scaler_for(max(word_lengths))
    scaler.fit(train.features)
    train_scaled = train.map_features(scaler.transform)
    test_scaled = test.map_features(scaler.transform)
    warm_direction = None
    if is_ldafp and pipeline_config.ldafp.warm_start:
        warm_direction = float_warm_direction(train_scaled)

    model = paper_power_model()
    points: "List[SweepPoint]" = []
    prev_weights: "np.ndarray | None" = None
    for wl in word_lengths:
        budget = _budget_for(sweep_config.point_time_limit, wl)
        if trace_factory is not None:
            trace = trace_factory(wl)
        elif sweep_trace is not None and is_ldafp:
            trace = SolverTrace()
        else:
            trace = None
        seeds = (
            [prev_weights]
            if sweep_config.seed_incumbents and is_ldafp and prev_weights is not None
            else None
        )
        result = TrainingPipeline(_point_pipeline_config(pipeline_config, budget)).run(
            train_scaled,
            test_scaled,
            wl,
            trace=trace,
            scaler=scaler,
            warm_start_direction=warm_direction,
            incumbent_seeds=seeds,
            pre_scaled=True,
        )
        report = result.ldafp_report
        point = SweepPoint(
            word_length=wl,
            test_error=result.test_error,
            power=model.power(wl),
            train_seconds=result.train_seconds,
            proven_optimal=None if report is None else report.proven_optimal,
            stop_reason=None if report is None else report.stop_reason,
            cost=None if report is None else report.cost,
            weights=tuple(float(w) for w in result.classifier.weights),
        )
        points.append(point)
        if sweep_trace is not None:
            sweep_trace.add_point(
                SweepPointRecord(
                    word_length=wl,
                    seeded=bool(seeds),
                    seeds_injected=0 if report is None else report.seeds_injected,
                    seeds_rejected=0 if report is None else report.seeds_rejected,
                    seeds_adopted=0 if report is None else report.seeds_adopted,
                    cost=point.cost,
                    test_error=point.test_error,
                    train_seconds=point.train_seconds,
                    proven_optimal=point.proven_optimal,
                    stop_reason=point.stop_reason,
                ),
                solver_trace=trace if isinstance(trace, SolverTrace) else None,
            )
        prev_weights = np.asarray(result.classifier.weights, dtype=np.float64)
    if sweep_trace is not None:
        sweep_trace.meta = {
            "word_lengths": [int(wl) for wl in word_lengths],
            "method": pipeline_config.method,
            "seed_incumbents": sweep_config.seed_incumbents,
            "point_time_limit": (
                {str(wl): limit for wl, limit in sweep_config.point_time_limit.items()}
                if isinstance(sweep_config.point_time_limit, dict)
                else sweep_config.point_time_limit
            ),
            "warm_direction_hoisted": warm_direction is not None,
        }
    return points
