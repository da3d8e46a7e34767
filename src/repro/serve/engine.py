"""Vectorized batch inference engine, bit-exact with the RTL simulator.

:class:`~repro.fixedpoint.datapath.FixedPointDatapath` is the reference
implementation of the paper's Eq. 12 datapath: per-sample Python-int
arithmetic, exact at any word length, but far too slow to sit behind a
serving endpoint.  :class:`BatchInferenceEngine` reproduces the same
wrap/rounding semantics on whole ``(n_samples, n_features)`` integer arrays:

- **int64 fast path** — plain numpy ``int64`` arithmetic with explicit
  two's-complement reduction.  Selected when every intermediate word fits:
  the widest value the datapath ever forms is a full-precision product
  (``2 * (K + F)`` bits) and the deepest un-wrapped sum adds
  ``ceil(log2(M))`` carry bits, so the path is enabled iff
  ``2 * (K + F) + ceil(log2(M))`` fits in an int64 (63 magnitude bits).
- **object fallback** — the same vectorized expressions on ``object``-dtype
  arrays of unbounded Python ints, used for wide formats.
- **native backend** — a per-artifact C kernel generated by
  :func:`repro.hardware.cgen.generate_batch_kernel_c`, compiled at
  engine-construction time into a content-hash-cached shared library and
  called through ctypes (:mod:`repro.hardware.native`).  Requested with
  ``backend="native"``; any unavailability (no compiler, wide format,
  ``RAISE`` overflow) falls back gracefully to the numpy paths with the
  reason recorded on :attr:`BatchInferenceEngine.native_fallback_reason`.

All paths share the wrap semantics pinned by
:attr:`~repro.fixedpoint.qformat.QFormat.wrap_mask` /
:attr:`~repro.fixedpoint.qformat.QFormat.sign_bit` and are differentially
tested against
:meth:`~repro.fixedpoint.datapath.FixedPointDatapath.project_traced`:
projection raws, labels, and per-step overflow flags must agree bit for bit,
including forced-wrap cases (see the ``engine-datapath`` and
``native_vs_fast`` conformance oracles).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..errors import InputValidationError, OverflowModeError
from ..fixedpoint.overflow import OverflowMode
from ..fixedpoint.qformat import QFormat
from ..fixedpoint.quantize import quantize_raw
from ..fixedpoint.rounding import RoundingMode

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations only
    from ..core.classifier import FixedPointLinearClassifier
    from ..hardware.native import NativeKernel

__all__ = [
    "BatchResult",
    "BatchInferenceEngine",
    "int64_path_available",
    "ENGINE_BACKENDS",
]

# numpy int64 carries 63 magnitude bits plus sign.
_INT64_MAGNITUDE_BITS = 63

#: Accepted ``backend=`` values: ``auto`` picks int64-fast when exact else
#: object; the explicit modes pin one path (``native`` falls back to auto
#: with a recorded reason when the kernel cannot be built).
ENGINE_BACKENDS = ("auto", "object", "native")


def int64_path_available(fmt: QFormat, num_features: int) -> bool:
    """True when the int64 fast path is exact for ``fmt`` and ``M`` features.

    The widest intermediate is a full-precision product (``2 * (K + F)``
    bits); accumulation contributes at most ``ceil(log2(M))`` carry bits
    before each wrap.  The fast path is safe iff the total fits in int64.
    """
    carry_bits = math.ceil(math.log2(max(int(num_features), 2)))
    return 2 * fmt.word_length + carry_bits <= _INT64_MAGNITUDE_BITS


def _shift_right_rounded_array(raws: np.ndarray, shift: int, mode: RoundingMode) -> np.ndarray:
    """Vectorized exact ``raws / 2**shift`` rounding, dtype-generic.

    Mirrors :func:`repro.fixedpoint.rounding.shift_right_rounded` case by
    case; uses floor division and remainder (Python semantics on both int64
    and object dtypes) so one body serves both engine paths.
    """
    if shift == 0:
        return raws
    div = 1 << shift
    floor_q = raws // div
    rem = raws - floor_q * div  # non-negative: floor division rounds to -inf
    if mode is RoundingMode.FLOOR:
        return floor_q
    if mode is RoundingMode.CEIL:
        return floor_q + (rem != 0)
    if mode is RoundingMode.TOWARD_ZERO:
        return floor_q + ((rem != 0) & (raws < 0))
    half = div >> 1
    if mode is RoundingMode.NEAREST_AWAY:
        return floor_q + ((rem > half) | ((rem == half) & (raws >= 0)))
    if mode is RoundingMode.NEAREST_EVEN:
        return floor_q + np.where(rem == half, floor_q & 1, rem > half)
    raise ValueError(f"unsupported mode for exact shift: {mode}")


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batch projection through the engine.

    Attributes
    ----------
    projection_raws:
        Raw words of ``w' x - threshold`` per sample, shape ``(n,)``.
    labels:
        Decisions per Eq. 12 with the classifier's polarity applied,
        shape ``(n,)`` int64 (1 = class A).
    product_overflowed / accumulator_overflowed:
        Boolean matrices of shape ``(n, M)`` marking where the exact value
        fell outside the format before the overflow policy was applied —
        same semantics as the flags on
        :class:`~repro.fixedpoint.datapath.DatapathTrace`.
    """

    projection_raws: np.ndarray
    labels: np.ndarray
    product_overflowed: np.ndarray
    accumulator_overflowed: np.ndarray

    @property
    def num_samples(self) -> int:
        """Number of samples in the batch."""
        return int(self.labels.shape[0])

    @property
    def product_overflow_events(self) -> int:
        """Total product-overflow events across the batch (for metrics)."""
        return int(np.count_nonzero(self.product_overflowed))

    @property
    def accumulator_overflow_events(self) -> int:
        """Total accumulator-overflow events across the batch (for metrics)."""
        return int(np.count_nonzero(self.accumulator_overflowed))

    def slice(self, lo: int, hi: int) -> "BatchResult":
        """The per-request view ``[lo:hi)`` of a micro-batched result."""
        return BatchResult(
            projection_raws=self.projection_raws[lo:hi],
            labels=self.labels[lo:hi],
            product_overflowed=self.product_overflowed[lo:hi],
            accumulator_overflowed=self.accumulator_overflowed[lo:hi],
        )


class BatchInferenceEngine:
    """Bit-exact vectorized inference for one deployed classifier.

    Parameters
    ----------
    classifier:
        The trained :class:`~repro.core.classifier.FixedPointLinearClassifier`
        (weights/threshold already on the ``QK.F`` grid).
    overflow:
        Overflow policy of products and accumulator, as in
        :class:`~repro.fixedpoint.datapath.DatapathConfig`; ``WRAP`` matches
        the hardware.
    backend:
        One of :data:`ENGINE_BACKENDS`.  ``"auto"`` (default) reproduces the
        historical behaviour (int64 fast path when exact, else object);
        ``"object"`` skips the int64 fast path even when it would be exact
        (the differential tests use it to cover the fallback on small
        formats);
        ``"native"`` additionally compiles and loads the generated C kernel,
        falling back to ``"auto"`` — with the reason recorded on
        :attr:`native_fallback_reason` — when it cannot (no C compiler,
        non-int64-safe format, ``RAISE`` overflow, compile/load failure).
    native_cache:
        Build-cache directory override for the native kernel (defaults to
        ``$REPRO_NATIVE_CACHE`` or ``~/.cache/repro/native``).
    """

    def __init__(
        self,
        classifier: "FixedPointLinearClassifier",
        overflow: "OverflowMode | str" = OverflowMode.WRAP,
        backend: str = "auto",
        native_cache: "str | None" = None,
    ) -> None:
        if backend not in ENGINE_BACKENDS:
            raise InputValidationError(
                f"unknown backend {backend!r}; expected one of {ENGINE_BACKENDS}"
            )
        fmt = classifier.fmt
        self.fmt = fmt
        self.rounding = classifier.rounding
        self.overflow = OverflowMode.coerce(overflow)
        self.polarity = int(classifier.polarity)
        self.weight_raws = np.asarray(fmt.to_raw(classifier.weights), dtype=np.int64)
        self.threshold_raw = int(fmt.to_raw(classifier.threshold))
        self.requested_backend = backend
        self.native_kernel: "Optional[NativeKernel]" = None
        self.native_fallback_reason: "str | None" = None
        if backend == "native":
            import os

            from ..errors import NativeBackendError
            from ..hardware.native import load_native_kernel

            # REPRO_NATIVE_SANITIZE=1 swaps in the UBSan/ASan-instrumented
            # build (separate cache key) so the conformance fuzzer and
            # golden vectors exercise the sanitized kernel; the caller is
            # responsible for LD_PRELOAD-ing the ASan runtime first (see
            # repro.hardware.compile.sanitizer_runtime_preload).
            sanitize = os.environ.get("REPRO_NATIVE_SANITIZE", "") not in ("", "0")
            try:
                self.native_kernel = load_native_kernel(
                    classifier,
                    overflow=self.overflow,
                    cache_dir=native_cache,
                    sanitize=sanitize,
                )
            except NativeBackendError as exc:
                self.native_fallback_reason = str(exc)
        self.fast_path = (
            self.native_kernel is not None
            or backend != "object"
            and int64_path_available(fmt, self.weight_raws.size)
        )
        #: The path actually serving requests ("native", "fast", or "object").
        self.backend = (
            "native"
            if self.native_kernel is not None
            else ("fast" if self.fast_path else "object")
        )

    # ------------------------------------------------------------------ #
    @property
    def num_features(self) -> int:
        """Expected feature-vector length ``M``."""
        return int(self.weight_raws.size)

    def _apply_overflow(self, raws: np.ndarray) -> np.ndarray:
        fmt = self.fmt
        if self.overflow is OverflowMode.WRAP:
            half = fmt.modulus >> 1
            return (raws + half) % fmt.modulus - half
        if self.overflow is OverflowMode.SATURATE:
            return np.where(
                raws < fmt.min_raw,
                fmt.min_raw,
                np.where(raws > fmt.max_raw, fmt.max_raw, raws),
            )
        out_of_range = (raws < fmt.min_raw) | (raws > fmt.max_raw)
        if np.any(out_of_range):
            offender = int(np.asarray(raws)[out_of_range].flat[0])
            raise OverflowModeError(fmt.to_real(offender), fmt.min_value, fmt.max_value)
        return raws

    # ------------------------------------------------------------------ #
    def run(self, features: np.ndarray) -> BatchResult:
        """Project and classify a batch, recording overflow flags.

        ``features`` is ``(n, M)`` (or a single length-``M`` vector) of real
        values; they are quantized to the grid with saturation exactly as
        :meth:`FixedPointDatapath.project_traced` does.
        """
        fmt = self.fmt
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        if x.ndim != 2 or x.shape[1] != self.num_features:
            raise InputValidationError(
                f"features must have shape (n, {self.num_features}), got {x.shape}"
            )
        x_raws = np.asarray(
            quantize_raw(
                x, fmt, rounding=self.rounding, overflow=OverflowMode.SATURATE
            ),
            dtype=np.int64,
        )
        return self._run_raws(x_raws)

    def run_raw(self, x_raws: np.ndarray) -> BatchResult:
        """Raw-word entry point: project a batch of already-quantized words.

        Conformance-oracle hook: differential fuzzing drives *exact raw
        words* through every implementation, and for wide formats the
        float round-trip of :meth:`run` could not represent them.  Words
        outside the format's range are saturated, mirroring what input
        quantization does in :meth:`run`; non-integer inputs are rejected.
        """
        fmt = self.fmt
        arr = np.asarray(x_raws)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.num_features:
            raise InputValidationError(
                f"raw words must have shape (n, {self.num_features}), got {arr.shape}"
            )
        if arr.dtype.kind not in "iu":
            if arr.dtype != object or any(
                not isinstance(v, (int, np.integer)) for v in arr.flat
            ):
                raise InputValidationError(
                    f"raw words must be integers, got dtype {arr.dtype}"
                )
        clipped = np.where(
            arr < fmt.min_raw, fmt.min_raw, np.where(arr > fmt.max_raw, fmt.max_raw, arr)
        )
        if self.fast_path:
            clipped = np.asarray(clipped, dtype=np.int64)
        return self._run_raws(clipped)

    def _run_raws(self, x_raws: np.ndarray) -> BatchResult:
        """Shared body: in-range raw words through the vectorized datapath."""
        fmt = self.fmt
        n, m = x_raws.shape
        if n == 0:
            empty = np.zeros((0, m), dtype=bool)
            return BatchResult(
                projection_raws=np.zeros(0, dtype=np.int64),
                labels=np.zeros(0, dtype=np.int64),
                product_overflowed=empty,
                accumulator_overflowed=empty.copy(),
            )

        if self.native_kernel is not None:
            raws, labels, product_over, acc_over = self.native_kernel.run_raws(
                np.asarray(x_raws, dtype=np.int64)
            )
            return BatchResult(
                projection_raws=raws,
                labels=labels,
                product_overflowed=product_over,
                accumulator_overflowed=acc_over,
            )

        if self.fast_path:
            arr = x_raws
            weights = self.weight_raws
        else:
            arr = x_raws.astype(object)
            weights = self.weight_raws.astype(object)

        # 1. Full-precision products, narrowed back to QK.F with rounding.
        full = arr * weights[None, :]
        narrowed = _shift_right_rounded_array(full, fmt.fraction_bits, self.rounding)
        product_overflowed = np.asarray(
            (narrowed < fmt.min_raw) | (narrowed > fmt.max_raw), dtype=bool
        )
        prods = self._apply_overflow(narrowed)

        # 2. Sequential accumulation in QK.F — the overflow policy applies
        #    after every addition, exactly as the adder chain does.
        acc = np.zeros(n, dtype=np.int64 if self.fast_path else object)
        accumulator_overflowed = np.empty((n, m), dtype=bool)
        for col in range(m):
            exact_sum = acc + prods[:, col]
            accumulator_overflowed[:, col] = np.asarray(
                (exact_sum < fmt.min_raw) | (exact_sum > fmt.max_raw), dtype=bool
            )
            acc = self._apply_overflow(exact_sum)

        # 3. Threshold subtraction and decision.
        result = self._apply_overflow(acc - self.threshold_raw)
        projection_raws = (
            result if self.fast_path else np.asarray(result, dtype=object)
        )
        labels = np.asarray(
            self.polarity * projection_raws >= 0, dtype=bool
        ).astype(np.int64)
        return BatchResult(
            projection_raws=projection_raws,
            labels=labels,
            product_overflowed=product_overflowed,
            accumulator_overflowed=accumulator_overflowed,
        )

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Labels only (1 = class A), matching ``predict_bitexact``."""
        return self.run(features).labels

    def projections(self, features: np.ndarray) -> np.ndarray:
        """Real-valued ``w' x - threshold`` per sample (float64)."""
        raws = self.run(features).projection_raws
        return np.asarray(raws, dtype=np.float64) * self.fmt.resolution

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.backend == "native":
            path = "native"
        elif self.fast_path:
            path = "int64"
        else:
            path = "object"
        return (
            f"BatchInferenceEngine(fmt={self.fmt}, M={self.num_features}, "
            f"path={path}, overflow={self.overflow.value})"
        )
