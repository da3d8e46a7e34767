"""Stateful (chunked) signal processing, bit-exact with the one-shot calls.

The serving plane's streaming sessions receive raw waveforms in arbitrary
chunk partitions, but the certification story of the repo is pinned to the
*one-shot* filter implementations: :meth:`FixedPointFir.apply`,
:meth:`FixedPointBiquad.apply`, :func:`remove_powerline`,
:func:`decimate`.  Every class here carries exactly the state those loops
carry implicitly (delay lines, biquad registers, window buffers) so that

    ``concatenate(stream.process(c) for c in chunks) == one_shot(signal)``

holds **bit for bit** for every partition of the signal.  The
``stream_vs_batch`` conformance oracle (:mod:`repro.conformance.oracles`)
fuzzes this equality; the proofs are simple:

- **Fixed-point FIR** — the one-shot call *is* this stepper over the whole
  signal, and the oracle holds both to the per-sample, per-tap reference
  loop (:func:`repro.conformance.oracles.fxfir_reference`), which skips
  products of samples before the signal start and wraps after every add.
  The stepper seeds its raw delay line with zeros instead: a zero raw's
  product narrows to exactly 0, so it adds nothing to the exact sum.  And
  it wraps once at the end: WRAP is reduction modulo the accumulator's
  ``2**(K + guard_bits + F)``, so wrapping after every add equals one
  wrap of the exact sum.  Each output therefore depends only on its
  window of inputs, whatever the chunk boundaries.
- **Fixed-point / float biquads** — the one-shot calls are the steppers
  over the whole signal (fixed point) or already sequential recurrences
  (float); carrying their registers across chunks changes nothing.
- **Float FIR / decimation** — per-output sums are *exactly rounded*
  (:func:`~repro.signal.filters.fir_direct`), so they depend only on the
  window contents, never on chunk boundaries, summation order, or buffer
  alignment (a plain ``np.convolve`` slice is **not** chunk-stable — its
  low bits move with BLAS kernel/alignment choices).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import InputValidationError
from ..fixedpoint.overflow import OverflowMode, apply_overflow_raw
from ..fixedpoint.qformat import int64_path_available
from ..fixedpoint.quantize import quantize_raw
from ..fixedpoint.rounding import shift_right_rounded, shift_right_rounded_array
from .filters import Biquad
from .fxbiquad import FixedPointBiquad
from .fxfir import FixedPointFir
from .preprocess import decimation_taps, powerline_sections

__all__ = [
    "FixedPointFirStream",
    "FixedPointBiquadStream",
    "BiquadStream",
    "BiquadCascadeStream",
    "PowerlineStream",
    "FirStream",
    "DecimatorStream",
    "WindowStream",
    "slice_windows",
]


_INT64_MAX = int(np.iinfo(np.int64).max)

#: Products per block of the fixed-point FIR kernel (128 KiB of int64):
#: bounds its working set whatever the chunk length and tap count.
_BLOCK_WORDS = 1 << 14


def _chunk_1d(chunk: np.ndarray) -> np.ndarray:
    x = np.asarray(chunk, dtype=np.float64)
    if x.ndim != 1:
        raise InputValidationError(f"chunk must be 1-D, got shape {x.shape}")
    return x


class FixedPointFirStream:
    """Incremental :meth:`FixedPointFir.apply` — the fixed-point FIR kernel.

    Carries the last ``num_taps - 1`` quantized input words, so the stream
    of outputs is the same for every chunk partition of the input (raw
    words and therefore the float grid values); the one-shot call is this
    stepper over the whole signal.

    The kernel is a blocked window matrix over ``ext = [history, chunk]``.
    For each block of outputs ``[lo, hi)``, the sliding windows of
    ``ext[lo : hi + m - 1]`` form an ``(m, hi - lo)`` view whose row ``r``
    holds the inputs ``m - 1 - r`` samples back; it is multiplied by the
    reversed taps as a column, every product is narrowed with one
    vectorized exact shift, and the rows are summed into the block's
    outputs.  Rows are taps, so the sum adds whole contiguous rows, which
    stays fast for short filters.  Blocks hold at most
    :data:`_BLOCK_WORDS` products, so the working set stays bounded
    whatever the chunk length or tap count a client asks for.  At the end
    the sums wrap once into the accumulator format and saturate to
    ``fmt``.  WRAP is reduction modulo ``2**(K + guard_bits + F)``, so
    wrapping after every add (the hardware adder chain) equals one wrap
    of the exact sum.  The words run on int64 when every intermediate fits
    (:func:`~repro.fixedpoint.qformat.int64_path_available` over the taps,
    plus an int64 accumulator modulus), else on object dtype through the
    same expressions.
    """

    def __init__(self, fir: FixedPointFir) -> None:
        self.fir = fir
        m = int(fir.tap_raws.size)
        self._modulus = fir.accumulator_format.modulus
        exact_in_int64 = (
            int64_path_available(fir.fmt, m) and self._modulus <= _INT64_MAX
        )
        self._dtype = np.int64 if exact_in_int64 else object
        # Row r of a block's window matrix meets tap m - 1 - r.
        self._taps_column = fir.tap_raws[::-1, None].astype(self._dtype)
        self._history = np.zeros(max(m - 1, 0), dtype=self._dtype)
        self.samples_in = 0

    def process(self, chunk: np.ndarray) -> np.ndarray:
        """Filter one chunk; returns real values on the ``fmt`` grid."""
        x = _chunk_1d(chunk)
        fir = self.fir
        fmt = fir.fmt
        x_raws = np.asarray(
            quantize_raw(
                x, fmt, rounding=fir.rounding, overflow=OverflowMode.SATURATE
            ),
            dtype=np.int64,
        )
        n, m = x_raws.size, self._taps_column.shape[0]
        # ext[m - 1 + i] is input i; the zero-seeded history contributes
        # exact-zero products.
        ext = np.concatenate(
            [self._history, x_raws.astype(self._dtype, copy=False)]
        )
        acc = np.empty(n, dtype=self._dtype)
        cols = max(1, _BLOCK_WORDS // m)
        step = ext.strides[0]
        for lo in range(0, n, cols):
            hi = min(lo + cols, n)
            # sliding_window_view(ext[lo : hi + m - 1], hi - lo), without
            # its argument checks (about a fifth of a 100-sample chunk):
            # row r, column c is ext[lo + r + c], and the last word read,
            # ext[hi + m - 2], lies inside ext.
            windows = as_strided(
                ext[lo:], (m, hi - lo), (step, step), writeable=False
            )
            products = shift_right_rounded_array(
                self._taps_column * windows, fmt.fraction_bits, fir.rounding
            )
            products.sum(axis=0, out=acc[lo:hi])
        half = self._modulus >> 1
        acc = (acc + half) % self._modulus - half
        out = apply_overflow_raw(acc, fmt, OverflowMode.SATURATE)
        if m > 1:
            self._history = ext[-(m - 1):].copy()
        self.samples_in += n
        return out.astype(np.float64) * fmt.resolution


class FixedPointBiquadStream:
    """Incremental :meth:`FixedPointBiquad.apply` (direct form I registers).

    The one-shot call is this stepper over the whole signal.  The
    saturating recurrence feeds each output back into the next, so the loop
    stays scalar.
    """

    def __init__(self, biquad: FixedPointBiquad) -> None:
        self.biquad = biquad
        self._x1 = self._x2 = self._y1 = self._y2 = 0

    def process(self, chunk: np.ndarray) -> np.ndarray:
        """Filter one chunk; returns real values on the ``fmt`` grid."""
        x = _chunk_1d(chunk)
        bq = self.biquad
        fmt = bq.fmt
        raw = bq.raw_coefficients
        x_raws = np.asarray(
            quantize_raw(x, fmt, rounding=bq.rounding, overflow=OverflowMode.SATURATE),
            dtype=np.int64,
        )
        out = np.empty(x_raws.size, dtype=np.int64)
        x1, x2, y1, y2 = self._x1, self._x2, self._y1, self._y2

        def mul(coeff_raw: int, value_raw: int) -> int:
            return shift_right_rounded(
                coeff_raw * value_raw, fmt.fraction_bits, bq.rounding
            )

        for i, x0 in enumerate(x_raws.tolist()):
            acc = (
                mul(raw["b0"], x0)
                + mul(raw["b1"], x1)
                + mul(raw["b2"], x2)
                - mul(raw["a1"], y1)
                - mul(raw["a2"], y2)
            )
            y0 = int(apply_overflow_raw(acc, fmt, OverflowMode.SATURATE))
            out[i] = y0
            x2, x1 = x1, x0
            y2, y1 = y1, y0
        self._x1, self._x2, self._y1, self._y2 = x1, x2, y1, y2
        return out.astype(np.float64) * fmt.resolution


class BiquadStream:
    """Incremental :meth:`Biquad.apply` (direct form II transposed state)."""

    def __init__(self, section: Biquad) -> None:
        self.section = section
        self._s1 = 0.0
        self._s2 = 0.0

    def process(self, chunk: np.ndarray) -> np.ndarray:
        x = _chunk_1d(chunk)
        section = self.section
        y = np.empty_like(x)
        s1, s2 = self._s1, self._s2
        for i, xi in enumerate(x):
            yi = section.b0 * xi + s1
            s1 = section.b1 * xi - section.a1 * yi + s2
            s2 = section.b2 * xi - section.a2 * yi
            y[i] = yi
        self._s1, self._s2 = s1, s2
        return y


class BiquadCascadeStream:
    """Incremental :func:`~repro.signal.filters.apply_biquads`."""

    def __init__(self, sections: Sequence[Biquad]) -> None:
        if not sections:
            raise InputValidationError("cascade needs at least one section")
        self.stages = [BiquadStream(section) for section in sections]

    def process(self, chunk: np.ndarray) -> np.ndarray:
        out = _chunk_1d(chunk)
        for stage in self.stages:
            out = stage.process(out)
        return out


class PowerlineStream(BiquadCascadeStream):
    """Incremental :func:`~repro.signal.preprocess.remove_powerline`."""

    def __init__(
        self,
        sample_rate: float,
        mains_hz: float = 50.0,
        harmonics: int = 2,
        quality: float = 30.0,
    ) -> None:
        super().__init__(
            powerline_sections(
                sample_rate, mains_hz=mains_hz, harmonics=harmonics, quality=quality
            )
        )


class FirStream:
    """Incremental :func:`~repro.signal.filters.fir_direct`.

    Exactly-rounded window sums make every output a pure function of its
    window contents, so carrying the last ``num_taps - 1`` input samples
    reproduces the one-shot bits for any chunk partition.
    """

    def __init__(self, taps: np.ndarray) -> None:
        h = np.asarray(taps, dtype=np.float64)
        if h.ndim != 1 or h.size == 0:
            raise InputValidationError(
                f"taps must be a non-empty vector, got {h.shape}"
            )
        self._reversed = h[::-1].copy()
        self._tail = np.zeros(h.size - 1)

    def process(self, chunk: np.ndarray) -> np.ndarray:
        x = _chunk_1d(chunk)
        m = self._reversed.size
        buf = np.concatenate([self._tail, x])
        out = np.empty(x.size)
        for i in range(x.size):
            out[i] = math.fsum(buf[i : i + m] * self._reversed)
        if m > 1:
            self._tail = buf[-(m - 1):].copy()
        return out


class DecimatorStream:
    """Incremental :func:`~repro.signal.preprocess.decimate`.

    The one-shot call shifts the filtered signal left by the FIR group
    delay, zero-pads the end back to the input length, and keeps every
    ``factor``-th sample.  The stream emits filtered samples as their
    positions pass ``delay + k * factor`` and :meth:`flush` appends the
    trailing zeros once the input length is known (end of stream).
    """

    def __init__(self, factor: int, num_taps: int = 63) -> None:
        if factor < 1:
            raise InputValidationError(f"factor must be >= 1, got {factor}")
        self.factor = int(factor)
        self.num_taps = int(num_taps)
        if factor > 1:
            self._fir: Optional[FirStream] = FirStream(
                decimation_taps(factor, num_taps)
            )
            self._delay = (num_taps - 1) // 2
        else:
            self._fir = None
            self._delay = 0
        self._filtered_pos = 0  # filtered samples produced so far
        self.samples_in = 0
        self.samples_out = 0
        self._flushed = False

    def process(self, chunk: np.ndarray) -> np.ndarray:
        if self._flushed:
            raise InputValidationError("stream already flushed")
        x = _chunk_1d(chunk)
        self.samples_in += x.size
        if self._fir is None:
            self.samples_out += x.size
            return x.copy()
        filtered = self._fir.process(x)
        out: "List[float]" = []
        # Emit filtered[p] for p = delay + k * factor as they materialize.
        next_pos = self._delay + self.samples_out * self.factor
        end = self._filtered_pos + filtered.size
        while next_pos < end:
            if next_pos >= self._filtered_pos:
                out.append(float(filtered[next_pos - self._filtered_pos]))
                self.samples_out += 1
            next_pos += self.factor
        self._filtered_pos = end
        return np.asarray(out, dtype=np.float64)

    def flush(self) -> np.ndarray:
        """End of stream: the zero-padding tail of the one-shot alignment."""
        if self._flushed:
            raise InputValidationError("stream already flushed")
        self._flushed = True
        if self._fir is None:
            return np.zeros(0)
        # The one-shot aligned signal is filtered[delay:] + delay zeros, so
        # its length is max(n, delay) — the delay floor matters for inputs
        # shorter than the FIR group delay.
        aligned = max(self.samples_in, self._delay)
        total_out = -(-aligned // self.factor)  # ceil(aligned / factor)
        tail = np.zeros(total_out - self.samples_out)
        self.samples_out = total_out
        return tail


def slice_windows(
    signal: np.ndarray, window_size: int, hop: int
) -> "List[np.ndarray]":
    """One-shot sliding windows: ``signal[k*hop : k*hop + window_size]``.

    The reference for :class:`WindowStream`; both return copies.
    """
    if window_size < 1:
        raise InputValidationError(f"window_size must be >= 1, got {window_size}")
    if hop < 1:
        raise InputValidationError(f"hop must be >= 1, got {hop}")
    x = _chunk_1d(signal)
    return [
        x[start : start + window_size].copy()
        for start in range(0, x.size - window_size + 1, hop)
    ]


class WindowStream:
    """Incremental :func:`slice_windows`: assemble hop-strided windows.

    Feeds the per-session feature extractor: every completed window is
    emitted exactly once, in order, as a copy.
    """

    def __init__(self, window_size: int, hop: int) -> None:
        if window_size < 1:
            raise InputValidationError(
                f"window_size must be >= 1, got {window_size}"
            )
        if hop < 1:
            raise InputValidationError(f"hop must be >= 1, got {hop}")
        self.window_size = int(window_size)
        self.hop = int(hop)
        self._buffer = np.zeros(0)
        self._skip = 0  # samples still to drop when hop > window_size
        self.windows_out = 0

    def process(self, chunk: np.ndarray) -> "List[np.ndarray]":
        x = _chunk_1d(chunk)
        if self._skip:
            drop = min(self._skip, x.size)
            x = x[drop:]
            self._skip -= drop
        self._buffer = np.concatenate([self._buffer, x])
        windows: "List[np.ndarray]" = []
        while self._buffer.size >= self.window_size:
            windows.append(self._buffer[: self.window_size].copy())
            self.windows_out += 1
            drop = min(self.hop, self._buffer.size)
            self._buffer = self._buffer[drop:]
            self._skip = self.hop - drop
        return windows

    @property
    def pending_samples(self) -> int:
        """Samples buffered toward the next (incomplete) window."""
        return int(self._buffer.size)
