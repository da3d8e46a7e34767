"""Ablations over the design choices DESIGN.md calls out.

Each ablation isolates one ingredient of LDA-FP and measures its effect on
the synthetic benchmark at a small word length, where the effects are
largest:

- **beta sweep** — the overflow confidence level (Eq. 16) trades
  feasible-set size against wrap risk.  We report both the Fisher cost and
  the bit-exact (wrapping-datapath) test error per beta.
- **rounding mode** — how the conventional baseline degrades under floor /
  nearest / stochastic rounding of its weights.
- **wrap vs saturate** — datapath overflow policy when the overflow
  constraints are deliberately loosened (small beta): wrapping damage vs
  saturation damage.
- **solver heuristics** — warm start / scale sweep / local search on-off
  matrix: incumbent cost reached under a fixed node budget.
- **backend** — from-scratch barrier vs scipy SLSQP node solver agreement
  and speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..core.ldafp import LdaFpConfig, train_lda_fp
from ..core.lda import fit_lda, quantize_lda
from ..data.scaling import FeatureScaler
from ..data.synthetic import make_synthetic_dataset
from ..fixedpoint.overflow import OverflowMode
from ..fixedpoint.qformat import QFormat
from ..fixedpoint.rounding import RoundingMode

__all__ = [
    "BetaAblationPoint",
    "run_beta_ablation",
    "RoundingAblationPoint",
    "run_rounding_ablation",
    "HeuristicAblationPoint",
    "run_heuristic_ablation",
    "BackendAblationPoint",
    "run_backend_ablation",
    "PropagationAblationPoint",
    "run_propagation_ablation",
    "DimensionScalingPoint",
    "run_dimension_scaling",
    "BitexactAblationPoint",
    "run_bitexact_ablation",
]


def _scaled_pair(word_length: int, integer_bits: int, margin: float, seed: int = 0):
    fmt = QFormat(integer_bits, word_length - integer_bits)
    train = make_synthetic_dataset(1500, seed=seed)
    test = make_synthetic_dataset(4000, seed=seed + 1)
    scaler = FeatureScaler(limit=margin * (2.0 ** (integer_bits - 1)))
    scaler.fit(train.features)
    return (
        fmt,
        train.map_features(scaler.transform),
        test.map_features(scaler.transform),
    )


# --------------------------------------------------------------------- #
# Beta / confidence-level ablation
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BetaAblationPoint:
    rho: float
    beta: float
    cost: float
    float_error: float
    bitexact_error: float


def run_beta_ablation(
    rhos: Sequence[float] = (0.5, 0.9, 0.99, 0.999),
    word_length: int = 6,
    integer_bits: int = 2,
    margin: float = 0.45,
    max_nodes: int = 600,
    time_limit: float = 15.0,
) -> List[BetaAblationPoint]:
    """Sweep the Eq. 16 confidence level and measure wrap damage."""
    from ..stats.normal import confidence_beta

    fmt, train, test = _scaled_pair(word_length, integer_bits, margin)
    points: List[BetaAblationPoint] = []
    for rho in rhos:
        config = LdaFpConfig(rho=rho, max_nodes=max_nodes, time_limit=time_limit)
        classifier, report = train_lda_fp(train, fmt, config)
        points.append(
            BetaAblationPoint(
                rho=rho,
                beta=confidence_beta(rho),
                cost=report.cost,
                float_error=classifier.error_on(test, bitexact=False),
                bitexact_error=classifier.error_on(test, bitexact=True),
            )
        )
    return points


# --------------------------------------------------------------------- #
# Rounding-mode ablation (conventional baseline)
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class RoundingAblationPoint:
    mode: str
    error: float


def run_rounding_ablation(
    word_length: int = 12,
    integer_bits: int = 2,
    margin: float = 0.45,
) -> List[RoundingAblationPoint]:
    """How the LDA baseline's error depends on the weight-rounding mode."""
    fmt, train, test = _scaled_pair(word_length, integer_bits, margin)
    model = fit_lda(train, shrinkage=0.0)
    points: List[RoundingAblationPoint] = []
    for mode in (
        RoundingMode.NEAREST_AWAY,
        RoundingMode.NEAREST_EVEN,
        RoundingMode.FLOOR,
        RoundingMode.TOWARD_ZERO,
    ):
        classifier = quantize_lda(model, fmt, rounding=mode)
        points.append(
            RoundingAblationPoint(mode=mode.value, error=classifier.error_on(test))
        )
    return points


# --------------------------------------------------------------------- #
# Heuristic on/off matrix
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class HeuristicAblationPoint:
    warm_start: bool
    scale_sweep: bool
    local_search: bool
    cost: float
    nodes: int
    seconds: float


def run_heuristic_ablation(
    word_length: int = 6,
    integer_bits: int = 2,
    margin: float = 0.45,
    max_nodes: int = 300,
    time_limit: float = 10.0,
) -> List[HeuristicAblationPoint]:
    """Incumbent quality under a fixed budget with heuristics toggled."""
    fmt, train, _ = _scaled_pair(word_length, integer_bits, margin)
    points: List[HeuristicAblationPoint] = []
    for warm in (True, False):
        for sweep in (True, False):
            for polish in (True, False):
                config = LdaFpConfig(
                    warm_start=warm,
                    scale_sweep=sweep,
                    local_search=polish,
                    max_nodes=max_nodes,
                    time_limit=time_limit,
                )
                start = time.perf_counter()
                _, report = train_lda_fp(train, fmt, config)
                points.append(
                    HeuristicAblationPoint(
                        warm_start=warm,
                        scale_sweep=sweep,
                        local_search=polish,
                        cost=report.cost,
                        nodes=report.nodes_expanded,
                        seconds=time.perf_counter() - start,
                    )
                )
    return points


# --------------------------------------------------------------------- #
# Float-path vs bit-exact deployment ablation
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BitexactAblationPoint:
    word_length: int
    float_error: float
    wrap_error: float
    saturate_error: float


def run_bitexact_ablation(
    word_lengths: "tuple[int, ...]" = (4, 6, 8),
    integer_bits: int = 2,
    margin: float = 0.45,
    max_nodes: int = 200,
    time_limit: float = 10.0,
) -> List[BitexactAblationPoint]:
    """Does the deployed (wrapping) datapath match the float evaluation?

    The whole point of the Eq. 18/20 overflow constraints is that the
    *wrapping* hardware path stays faithful; this ablation measures the
    LDA-FP test error through three evaluation paths: the float fast path,
    the bit-exact wrapping datapath, and the bit-exact saturating variant.
    """
    points: List[BitexactAblationPoint] = []
    for wl in word_lengths:
        fmt, train, test = _scaled_pair(wl, integer_bits, margin, seed=7)
        classifier, _ = train_lda_fp(
            train, fmt, LdaFpConfig(max_nodes=max_nodes, time_limit=time_limit)
        )
        # Keep the datapath replay affordable: a slice of the test set.
        subset_idx = np.arange(min(600, test.num_samples))
        subset = test.subset(subset_idx)
        points.append(
            BitexactAblationPoint(
                word_length=wl,
                float_error=classifier.error_on(subset, bitexact=False),
                wrap_error=classifier.error_on(subset, bitexact=True),
                saturate_error=float(
                    np.mean(
                        classifier.predict_bitexact(
                            subset.features, overflow=OverflowMode.SATURATE
                        )
                        != subset.labels
                    )
                ),
            )
        )
    return points


# --------------------------------------------------------------------- #
# Bound-propagation ablation
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class PropagationAblationPoint:
    bound_propagation: bool
    cost: float
    nodes: int
    relaxations: int
    seconds: float
    proven: bool


def run_propagation_ablation(
    word_length: int = 6,
    integer_bits: int = 2,
    margin: float = 0.45,
    max_nodes: int = 3000,
    time_limit: "float | None" = None,
) -> List[PropagationAblationPoint]:
    """Domain propagation on/off: node count to prove the same optimum.

    Both arms run without node presolve: presolve subsumes the ``t``-link
    propagation, and ``bound_propagation`` is only read on the
    ``presolve=False`` path, so with presolve on the two arms would be the
    same search.
    """
    fmt, train, _ = _scaled_pair(word_length, integer_bits, margin)
    points: List[PropagationAblationPoint] = []
    for enabled in (True, False):
        config = LdaFpConfig(
            bound_propagation=enabled,
            presolve=False,
            max_nodes=max_nodes,
            time_limit=time_limit,
            relative_gap=1e-6,
        )
        start = time.perf_counter()
        _, report = train_lda_fp(train, fmt, config)
        points.append(
            PropagationAblationPoint(
                bound_propagation=enabled,
                cost=report.cost,
                nodes=report.nodes_expanded,
                relaxations=report.relaxations_solved,
                seconds=time.perf_counter() - start,
                proven=report.proven_optimal,
            )
        )
    return points


# --------------------------------------------------------------------- #
# Runtime-vs-dimension scaling study
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class DimensionScalingPoint:
    num_features: int
    cost: float
    lower_bound: float
    nodes: int
    seconds: float


def run_dimension_scaling(
    dimensions: "tuple[int, ...]" = (2, 3, 5, 8, 12),
    word_length: int = 5,
    integer_bits: int = 2,
    margin: float = 0.45,
    max_nodes: int = 200,
    time_limit: float = 10.0,
    seed: int = 0,
) -> List[DimensionScalingPoint]:
    """How solve effort grows with feature count (noise-cancellation family).

    The paper's two cases are M = 3 and M = 42; this fills in the curve in
    between on the generalized Eq. 30-32 family.
    """
    from ..data.synthetic import make_noise_cancellation_dataset

    fmt = QFormat(integer_bits, word_length - integer_bits)
    points: List[DimensionScalingPoint] = []
    for m in dimensions:
        ds = make_noise_cancellation_dataset(
            800, num_noise_features=m - 1, seed=seed
        )
        scaler = FeatureScaler(limit=margin * (2.0 ** (integer_bits - 1)))
        ds = ds.map_features(scaler.fit(ds.features).transform)
        config = LdaFpConfig(max_nodes=max_nodes, time_limit=time_limit)
        start = time.perf_counter()
        _, report = train_lda_fp(ds, fmt, config)
        points.append(
            DimensionScalingPoint(
                num_features=m,
                cost=report.cost,
                lower_bound=report.lower_bound,
                nodes=report.nodes_expanded,
                seconds=time.perf_counter() - start,
            )
        )
    return points


# --------------------------------------------------------------------- #
# Node-solver backend ablation
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class BackendAblationPoint:
    backend: str
    cost: float
    lower_bound: float
    seconds: float
    proven: bool


def run_backend_ablation(
    word_length: int = 4,
    integer_bits: int = 2,
    margin: float = 0.45,
    max_nodes: int = 2000,
    time_limit: float = 30.0,
) -> List[BackendAblationPoint]:
    """Barrier vs SLSQP node relaxations on the same instance."""
    fmt, train, _ = _scaled_pair(word_length, integer_bits, margin)
    points: List[BackendAblationPoint] = []
    for backend in ("slsqp", "barrier", "auto"):
        config = LdaFpConfig(
            backend=backend, max_nodes=max_nodes, time_limit=time_limit
        )
        start = time.perf_counter()
        _, report = train_lda_fp(train, fmt, config)
        points.append(
            BackendAblationPoint(
                backend=backend,
                cost=report.cost,
                lower_bound=report.lower_bound,
                seconds=time.perf_counter() - start,
                proven=report.proven_optimal,
            )
        )
    return points
