"""Bit-accurate simulation of the classifier's fixed-point datapath.

The on-chip classifier computes ``y = w' x - threshold`` and compares the
result against zero (paper Eq. 12).  All operands live in one ``QK.F``
format (paper Section 3); hardware performs:

1. ``M`` multiplications ``w_m * x_m``.  Each full-precision product has
   ``2K`` integer and ``2F`` fractional bits; the datapath rounds it back to
   ``QK.F`` (drop ``F`` low bits with the configured rounding) and wraps.
2. A chain of additions in ``QK.F`` with two's-complement **wrapping**.
   Intermediate sums may overflow freely — the paper's Section 3 example
   ``3 + 3 - 4`` in ``Q3.0`` wraps to ``-2`` after the first add yet the
   final result ``2`` is exact.  This simulator reproduces that behaviour
   exactly and is property-tested against exact integer arithmetic.
3. A final subtraction of the threshold and a sign comparison.

:meth:`FixedPointDatapath.project_traced` is the per-sample reference, on
Python ints, so bit-exact at any word length.  :func:`project_batch_raws` is
the one batch kernel; ``project_batch`` and the serving engine run it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..errors import InputValidationError, OverflowModeError
from .overflow import OverflowMode, apply_overflow_raw
from .qformat import QFormat, int64_path_available
from .quantize import dequantize_raw, quantize_raw
from .rounding import RoundingMode, shift_right_rounded, shift_right_rounded_array

__all__ = [
    "DatapathConfig", "DatapathTrace", "FixedPointDatapath", "project_batch_raws", "quantize_batch"
]


@dataclass(frozen=True)
class DatapathConfig:
    """Static configuration of the MAC datapath.

    Parameters
    ----------
    fmt:
        The single ``QK.F`` format used by every operand and register.
    rounding:
        Rounding applied when narrowing each product back to ``QK.F``.
    overflow:
        Overflow policy of the adders/registers; ``WRAP`` matches the
        paper's hardware assumption, ``SATURATE`` is provided for ablations.
    product_overflow:
        Overflow policy applied to each narrowed product.  Separate from
        ``overflow`` because the paper's per-feature constraints (Eq. 18)
        are specifically about keeping products in range — the ablation
        benchmarks disable those constraints and observe wrap damage here.
    """

    fmt: QFormat
    rounding: RoundingMode = RoundingMode.NEAREST_AWAY
    overflow: OverflowMode = OverflowMode.WRAP
    product_overflow: OverflowMode = OverflowMode.WRAP


@dataclass
class DatapathTrace:
    """Step-by-step record of one dot-product evaluation.

    Attributes
    ----------
    product_raws:
        Raw words of each narrowed product ``w_m * x_m``.
    accumulator_raws:
        Raw accumulator word after each addition (length ``M``).
    result_raw:
        Final raw word of ``w' x - threshold``.
    product_overflowed / accumulator_overflowed:
        Flags marking where the exact value fell outside the format before
        the overflow policy was applied; used to diagnose overflow damage.
    """

    product_raws: list = field(default_factory=list)
    accumulator_raws: list = field(default_factory=list)
    result_raw: int = 0
    product_overflowed: list = field(default_factory=list)
    accumulator_overflowed: list = field(default_factory=list)

    @property
    def any_product_overflow(self) -> bool:
        return any(self.product_overflowed)

    @property
    def any_accumulator_overflow(self) -> bool:
        return any(self.accumulator_overflowed)


class FixedPointDatapath:
    """Simulates ``sign(w' x - threshold)`` exactly as the RTL would compute it.

    The weight vector and threshold are fixed at construction (they are
    constants in the silicon); feature vectors stream through ``project`` /
    ``classify``.

    Parameters
    ----------
    weights:
        Real-valued weights; quantized to ``config.fmt`` on construction
        (values already on the grid pass through unchanged).
    threshold:
        Real-valued decision threshold ``w' (mu_A + mu_B) / 2``; quantized
        likewise.
    config:
        Datapath configuration.
    """

    def __init__(
        self,
        weights: Sequence[float],
        threshold: float,
        config: DatapathConfig,
    ) -> None:
        self.config = config
        fmt = config.fmt
        self.weight_raws = np.asarray(
            quantize_raw(
                np.asarray(weights, dtype=np.float64),
                fmt,
                rounding=config.rounding,
                overflow=OverflowMode.SATURATE,
            ),
            dtype=np.int64,
        )
        self.threshold_raw = int(
            quantize_raw(
                float(threshold),
                fmt,
                rounding=config.rounding,
                overflow=OverflowMode.SATURATE,
            )
        )

    # ------------------------------------------------------------------ #
    # Scalar path with tracing (reference implementation)
    # ------------------------------------------------------------------ #
    def project_traced(self, features: Sequence[float]) -> DatapathTrace:
        """Compute ``w' x - threshold`` for one sample, recording every step."""
        fmt = self.config.fmt
        x_raws = quantize_raw(
            np.asarray(features, dtype=np.float64),
            fmt,
            rounding=self.config.rounding,
            overflow=OverflowMode.SATURATE,
        )
        if x_raws.shape != self.weight_raws.shape:
            raise InputValidationError(
                f"feature length {x_raws.shape} does not match weight length "
                f"{self.weight_raws.shape}"
            )
        trace = DatapathTrace()
        acc = 0
        for w_raw, x_raw in zip(self.weight_raws.tolist(), x_raws.tolist()):
            # Full product has 2F fractional bits; narrow by F with rounding.
            full = int(w_raw) * int(x_raw)
            narrowed = shift_right_rounded(full, fmt.fraction_bits, self.config.rounding)
            prod_overflow = narrowed < fmt.min_raw or narrowed > fmt.max_raw
            prod = int(
                apply_overflow_raw(narrowed, fmt, mode=self.config.product_overflow)
            )
            trace.product_raws.append(prod)
            trace.product_overflowed.append(prod_overflow)

            exact_sum = acc + prod
            acc_overflow = exact_sum < fmt.min_raw or exact_sum > fmt.max_raw
            acc = int(apply_overflow_raw(exact_sum, fmt, mode=self.config.overflow))
            trace.accumulator_raws.append(acc)
            trace.accumulator_overflowed.append(acc_overflow)

        final = acc - self.threshold_raw
        trace.result_raw = int(
            apply_overflow_raw(final, fmt, mode=self.config.overflow)
        )
        return trace

    def project(self, features: Sequence[float]) -> float:
        """Real value of ``w' x - threshold`` as computed by the hardware."""
        return self.config.fmt.to_real(self.project_traced(features).result_raw)

    def classify(self, features: Sequence[float]) -> int:
        """Decision per Eq. 12: 1 (class A) if ``w'x - threshold >= 0`` else 0."""
        return 1 if self.project_traced(features).result_raw >= 0 else 0

    # ------------------------------------------------------------------ #
    # Vectorized path (used by evaluation loops; tested against the traced path)
    # ------------------------------------------------------------------ #
    def project_batch(self, features: np.ndarray) -> np.ndarray:
        """Vectorized ``w' x - threshold`` over the rows of ``features``.

        Runs :func:`project_batch_raws` on int64 words when
        :func:`int64_path_available` holds, else on object words.  Bit-exact
        with :meth:`project` (covered by a property test).
        """
        fmt, m = self.config.fmt, self.weight_raws.size
        x_raws = quantize_batch(features, m, fmt, self.config.rounding)
        dtype = np.int64 if int64_path_available(fmt, m) else object
        raws, _, _ = project_batch_raws(
            x_raws.astype(dtype, copy=False), self.weight_raws, self.threshold_raw, self.config
        )
        return dequantize_raw(raws, fmt)

    def classify_batch(self, features: np.ndarray) -> np.ndarray:
        """Vectorized decisions (1 = class A, 0 = class B)."""
        return (self.project_batch(features) >= 0.0).astype(np.int64)


def quantize_batch(
    features: np.ndarray, num_features: int, fmt: QFormat, rounding: RoundingMode
) -> np.ndarray:
    """``(n, M)`` real features, or one length-``M`` vector, as int64 words.

    Quantizes with saturation, as :meth:`FixedPointDatapath.project_traced`
    does; any other shape raises :class:`~repro.errors.InputValidationError`.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != num_features:
        raise InputValidationError(f"features must have shape (n, {num_features}), got {x.shape}")
    return quantize_raw(x, fmt, rounding=rounding, overflow=OverflowMode.SATURATE)


def project_batch_raws(
    x_raws: np.ndarray, weight_raws: np.ndarray, threshold_raw: int, config: DatapathConfig
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The batch datapath kernel: Eq. 12 over ``(n, M)`` in-range raw words.

    The words' dtype picks the arithmetic: int64, exact only when
    :func:`~repro.fixedpoint.qformat.int64_path_available` holds, or object
    (unbounded Python ints).  The steps and flags are those of
    :meth:`FixedPointDatapath.project_traced`.  Returns the ``(n,)``
    projection raws and the ``(n, M)`` product and accumulator overflow flags.
    """
    fmt = config.fmt
    n, m = x_raws.shape
    # 1. Full-precision products, narrowed back to QK.F with rounding.
    full = x_raws * weight_raws.astype(x_raws.dtype, copy=False)[None, :]
    narrowed = shift_right_rounded_array(full, fmt.fraction_bits, config.rounding)
    product_overflowed = (narrowed < fmt.min_raw) | (narrowed > fmt.max_raw)
    prods = _overflow_words(narrowed, fmt, config.product_overflow)

    # 2. Sequential accumulation in QK.F: the overflow policy applies after
    #    every addition, exactly as the adder chain does.
    acc = np.zeros(n, dtype=x_raws.dtype)
    accumulator_overflowed = np.empty((n, m), dtype=bool)
    for col in range(m):
        exact_sum = acc + prods[:, col]
        accumulator_overflowed[:, col] = (exact_sum < fmt.min_raw) | (exact_sum > fmt.max_raw)
        acc = _overflow_words(exact_sum, fmt, config.overflow)

    # 3. Threshold subtraction.
    result = _overflow_words(acc - threshold_raw, fmt, config.overflow)
    return result, product_overflowed, accumulator_overflowed


def _overflow_words(raws: np.ndarray, fmt: QFormat, mode: OverflowMode) -> np.ndarray:
    """Bring kernel words into ``fmt`` under ``mode``, keeping their dtype.

    ``RAISE`` raises ``OverflowModeError`` for the first out-of-range word
    in C order.  Exact on object words, and on int64 words when
    ``int64_path_available`` holds: every word then leaves room in 63
    magnitude bits for the wrap offset.
    """
    if mode is OverflowMode.WRAP:
        half = fmt.modulus >> 1
        return (raws + half) % fmt.modulus - half
    if mode is OverflowMode.SATURATE:
        return np.clip(raws, fmt.min_raw, fmt.max_raw)
    out_of_range = (raws < fmt.min_raw) | (raws > fmt.max_raw)
    if np.any(out_of_range):
        offender = int(raws[out_of_range][0])
        raise OverflowModeError(fmt.to_real(offender), fmt.min_value, fmt.max_value)
    return raws
