"""Fixed-point biquad (IIR) sections: coefficient quantization + stability.

IIR coefficient quantization is qualitatively different from FIR: the
feedback coefficients move the poles, and a pole pushed onto or outside the
unit circle turns a filter into an oscillator.  This module quantizes
biquad coefficients to ``QK.F``, *checks pole stability after
quantization* (the classic word-length failure mode), and runs the
difference equation in exact fixed-point arithmetic (direct form I, wide
product narrowed per multiply, saturating state registers — the standard
low-power IIR datapath choice, since wrapping feedback state is
catastrophic).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError
from ..fixedpoint.qformat import QFormat
from ..fixedpoint.quantize import quantize_raw
from ..fixedpoint.rounding import RoundingMode
from .filters import Biquad

__all__ = ["FixedPointBiquad", "quantized_poles", "is_stable_after_quantization"]


def quantized_poles(section: Biquad, fmt: QFormat) -> np.ndarray:
    """Poles of the section after quantizing ``a1, a2`` to ``fmt``."""
    a1 = float(np.asarray(quantize_raw(section.a1, fmt))) * fmt.resolution
    a2 = float(np.asarray(quantize_raw(section.a2, fmt))) * fmt.resolution
    return np.roots([1.0, a1, a2])


def is_stable_after_quantization(section: Biquad, fmt: QFormat, margin: float = 0.0) -> bool:
    """True when both quantized poles stay strictly inside the unit circle."""
    return bool(np.all(np.abs(quantized_poles(section, fmt)) < 1.0 - margin))


@dataclass(frozen=True)
class FixedPointBiquad:
    """A biquad evaluated in exact fixed-point arithmetic (direct form I).

    Parameters
    ----------
    section:
        The designed (float) biquad.
    fmt:
        The ``QK.F`` format of coefficients, data, and state.
    rounding:
        Product-narrowing rounding mode.

    Raises
    ------
    DataError
        If coefficient quantization destabilizes the section — silent
        oscillation is never acceptable, the caller must widen the format.
    """

    section: Biquad
    fmt: QFormat
    rounding: RoundingMode = RoundingMode.NEAREST_AWAY

    def __post_init__(self) -> None:
        if not is_stable_after_quantization(self.section, self.fmt):
            raise DataError(
                f"biquad becomes unstable when its coefficients are quantized "
                f"to {self.fmt}; use more fractional bits"
            )
        raw = {
            name: int(np.asarray(quantize_raw(getattr(self.section, name), self.fmt)))
            for name in ("b0", "b1", "b2", "a1", "a2")
        }
        object.__setattr__(self, "_raw", raw)

    @property
    def raw_coefficients(self) -> "dict[str, int]":
        """The quantized coefficients as raw words (``b0 b1 b2 a1 a2``).

        Exposed for the static signal-chain certifier
        (:mod:`repro.check.signal_certifier`).
        """
        return dict(self._raw)

    @property
    def quantized_section(self) -> Biquad:
        """The coefficients actually implemented."""
        res = self.fmt.resolution
        raw = self._raw
        return Biquad(
            b0=raw["b0"] * res,
            b1=raw["b1"] * res,
            b2=raw["b2"] * res,
            a1=raw["a1"] * res,
            a2=raw["a2"] * res,
        )

    def coefficient_error(self) -> float:
        q = self.quantized_section
        return max(
            abs(q.b0 - self.section.b0),
            abs(q.b1 - self.section.b1),
            abs(q.b2 - self.section.b2),
            abs(q.a1 - self.section.a1),
            abs(q.a2 - self.section.a2),
        )

    def apply(self, signal: np.ndarray) -> np.ndarray:
        """Run the difference equation exactly in fixed point.

        Direct form I with saturating state: ``y[n] = b0 x[n] + b1 x[n-1] +
        b2 x[n-2] - a1 y[n-1] - a2 y[n-2]``, every product narrowed to
        ``fmt`` and the output saturated (wrapping feedback would inject
        full-scale errors into the recursion).  This is the stepper
        (:meth:`stream`) run over the whole signal.
        """
        x = np.asarray(signal, dtype=np.float64)
        if x.ndim != 1:
            raise DataError(f"signal must be 1-D, got shape {x.shape}")
        return self.stream().process(x)

    def reference_apply(self, signal: np.ndarray) -> np.ndarray:
        """Float filtering with the quantized coefficients (no datapath
        effects)."""
        return self.quantized_section.apply(np.asarray(signal, dtype=np.float64))

    def stream(self):
        """A stateful stepper over this section: the direct-form-I loop.

        See :class:`repro.signal.stream.FixedPointBiquadStream`.
        """
        from .stream import FixedPointBiquadStream

        return FixedPointBiquadStream(self)
