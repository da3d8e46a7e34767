"""Minimum-word-length search and error/power Pareto fronts.

Ties the pieces together: given train/test data and a target error, find
the smallest total word length whose (retrained) classifier meets it, and
build the (word length, error, power) Pareto front a designer reads.

:func:`wordlength_sweep` is the reference sweep; it delegates to the
engine in :mod:`repro.wordlength.engine` with no incumbent seeding, so
work that is invariant across word lengths (the feature scaler, the
float-LDA warm-start direction) is hoisted out of the loop exactly once
either way.

Monotonicity caveat: measured error is *not* guaranteed monotone in word
length on small test sets (the paper notes the same for its Table 2), so
the minimum search scans linearly rather than bisecting, and reports all
evaluated points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from ..core.pipeline import PipelineConfig

__all__ = ["SweepPoint", "wordlength_sweep", "minimum_wordlength", "pareto_front"]


@dataclass(frozen=True)
class SweepPoint:
    """One evaluated word length.

    ``weights`` (the solved classifier weights, grid-exact) and ``cost``
    (the solver's Fisher cost, ``None`` for conventional LDA) let adjacent
    sweep points seed each other and let differential tests compare sweeps
    exactly; :meth:`canonical` strips the one timing field so two runs of
    the same sweep serialize byte-identically.
    """

    word_length: int
    test_error: float
    power: float
    train_seconds: float
    proven_optimal: Optional[bool]
    stop_reason: Optional[str] = None
    cost: Optional[float] = None
    weights: Optional[Tuple[float, ...]] = None

    def canonical(self) -> dict:
        """Deterministic dict view: everything except wall-clock timing."""
        return {
            "word_length": self.word_length,
            "test_error": self.test_error,
            "power": self.power,
            "proven_optimal": self.proven_optimal,
            "stop_reason": self.stop_reason,
            "cost": self.cost,
            "weights": None if self.weights is None else list(self.weights),
        }


def wordlength_sweep(
    train,
    test,
    word_lengths: Sequence[int],
    pipeline_config: "PipelineConfig | None" = None,
    trace_factory: "Callable[[int], object] | None" = None,
) -> "List[SweepPoint]":
    """Train and score the pipeline at each word length (serial reference).

    ``trace_factory`` maps a word length to a
    :class:`~repro.optim.trace.SolverTrace` (or ``None``) so callers can
    collect per-word-length solver telemetry; each point's ``stop_reason``
    echoes why that word length's search stopped.
    """
    from .engine import SweepConfig, run_sweep

    return run_sweep(
        train,
        test,
        word_lengths,
        pipeline_config=pipeline_config,
        sweep_config=SweepConfig(seed_incumbents=False),
        trace_factory=trace_factory,
    )


def minimum_wordlength(
    points: Sequence[SweepPoint], target_error: float
) -> Optional[SweepPoint]:
    """Smallest evaluated word length meeting the target error (or None)."""
    eligible = [p for p in points if p.test_error <= target_error]
    if not eligible:
        return None
    return min(eligible, key=lambda p: p.word_length)


def pareto_front(points: Sequence[SweepPoint]) -> "List[SweepPoint]":
    """Non-dominated (power, error) points, sorted by (power, word length).

    A point is kept when no other point has both lower-or-equal power and
    strictly lower error (or equal error at lower power).  Two sweep points
    that tie on *both* power and error are redundant on the front: only the
    first occurrence is kept, and the returned order is a stable sort on
    ``(power, word_length)`` so equal-power entries come out deterministic.
    """
    front: "List[SweepPoint]" = []
    seen_ties: "set[tuple[float, float]]" = set()
    for candidate in points:
        dominated = any(
            (other.power <= candidate.power and other.test_error < candidate.test_error)
            or (
                other.power < candidate.power
                and other.test_error <= candidate.test_error
            )
            for other in points
        )
        if dominated:
            continue
        tie_key = (candidate.power, candidate.test_error)
        if tie_key in seen_ties:
            continue
        seen_ties.add(tie_key)
        front.append(candidate)
    return sorted(front, key=lambda p: (p.power, p.word_length))
