"""Fixed-point FIR filtering — the on-chip front end at a given word length.

The paper's classifier is only the last stage of an on-chip pipeline; the
filters feeding it are fixed-point too (word-length optimization for DSP is
exactly the literature the paper cites, [10]-[12]).  This module runs an
FIR filter with quantized coefficients and quantized data through the same
exact integer arithmetic as the classifier datapath: full-precision
products narrowed back to ``QK.F`` with the configured rounding, and a
**wide accumulator** (the standard FIR datapath choice — unlike the
classifier's single-format accumulator, FIR accumulators conventionally
carry guard bits, and we model ``guard_bits`` explicitly).

The one-shot :meth:`FixedPointFir.apply` and the chunked stepper
(:meth:`FixedPointFir.stream`) run one vectorized kernel,
:class:`repro.signal.stream.FixedPointFirStream`, held bit for bit to the
per-sample, per-tap loop kept as
:func:`repro.conformance.oracles.fxfir_reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..fixedpoint.overflow import OverflowMode
from ..fixedpoint.qformat import QFormat
from ..fixedpoint.quantize import quantize_raw
from ..fixedpoint.rounding import RoundingMode

__all__ = ["FixedPointFir"]


@dataclass(frozen=True)
class FixedPointFir:
    """An FIR filter evaluated in exact fixed-point arithmetic.

    Parameters
    ----------
    taps:
        Real-valued coefficient vector (quantized to ``fmt`` internally).
    fmt:
        The ``QK.F`` format of coefficients, inputs, and outputs.
    guard_bits:
        Extra accumulator integer bits; the accumulator wraps only if the
        running sum exceeds ``2^(K-1+guard_bits)`` — with
        ``guard_bits >= ceil(log2(num_taps))`` it never wraps.
    rounding:
        Rounding used to narrow products and the final accumulator value.
    """

    taps: np.ndarray
    fmt: QFormat
    guard_bits: int = 8
    rounding: RoundingMode = RoundingMode.NEAREST_AWAY

    def __post_init__(self) -> None:
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.ndim != 1 or taps.size == 0:
            raise DataError(f"taps must be a non-empty vector, got {taps.shape}")
        if self.guard_bits < 0:
            raise DataError(f"guard_bits must be >= 0, got {self.guard_bits}")
        object.__setattr__(self, "taps", taps)
        object.__setattr__(
            self,
            "_tap_raws",
            np.asarray(
                quantize_raw(
                    taps, self.fmt, rounding=self.rounding,
                    overflow=OverflowMode.SATURATE,
                ),
                dtype=np.int64,
            ),
        )

    @property
    def quantized_taps(self) -> np.ndarray:
        """The coefficient values actually implemented."""
        return self._tap_raws.astype(np.float64) * self.fmt.resolution

    @property
    def tap_raws(self) -> np.ndarray:
        """The quantized coefficients as raw words (int64, read-only view).

        Exposed for the static signal-chain certifier
        (:mod:`repro.check.signal_certifier`), which propagates exact
        intervals over these words.
        """
        return self._tap_raws

    @property
    def accumulator_format(self) -> QFormat:
        return QFormat(
            self.fmt.integer_bits + self.guard_bits, self.fmt.fraction_bits
        )

    def coefficient_error(self) -> float:
        """Max absolute coefficient quantization error."""
        return float(np.max(np.abs(self.quantized_taps - self.taps)))

    def apply(self, signal: np.ndarray) -> np.ndarray:
        """Filter a 1-D signal; returns real values on the ``fmt`` grid.

        The input is quantized to ``fmt`` first (saturating), products are
        narrowed to ``fmt``'s fraction with the configured rounding, the
        accumulation runs in the guarded accumulator format with wrapping,
        and the final value is saturated back into ``fmt``.  This is the
        stepper (:meth:`stream`) run over the whole signal, so the one-shot
        and chunked filters share one kernel.
        """
        x = np.asarray(signal, dtype=np.float64)
        if x.ndim != 1:
            raise DataError(f"signal must be 1-D, got shape {x.shape}")
        return self.stream().process(x)

    def reference_apply(self, signal: np.ndarray) -> np.ndarray:
        """Float filtering with the quantized coefficients (no datapath
        effects) — the baseline the fixed-point error is measured against."""
        x = np.asarray(signal, dtype=np.float64)
        return np.convolve(x, self.quantized_taps)[: x.size]

    def stream(self):
        """A stateful stepper over this filter: the fixed-point FIR kernel.

        See :class:`repro.signal.stream.FixedPointFirStream`.
        """
        from .stream import FixedPointFirStream

        return FixedPointFirStream(self)
