"""The deployable fixed-point linear classifier (paper Eq. 12 in ``QK.F``).

A trained classifier is three constants baked into silicon: the quantized
weight vector ``w``, the quantized threshold ``w' (mu_A + mu_B) / 2``, and
the format ``QK.F``.  Prediction offers two paths:

- ``predict`` — float evaluation of the quantized constants (fast; exact
  when no datapath overflow occurs), used by the big experiment sweeps;
- ``predict_bitexact`` — runs the batch through the
  :class:`~repro.fixedpoint.datapath.FixedPointDatapath` RTL-equivalent
  simulator's vectorized kernel, reproducing product rounding and wrapping
  accumulation bit for bit.

The test suite asserts the two paths agree whenever the datapath reports no
overflow, and the overflow ablation studies where they diverge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError, TrainingError
from ..fixedpoint.datapath import DatapathConfig, FixedPointDatapath
from ..fixedpoint.overflow import OverflowMode
from ..fixedpoint.qformat import QFormat
from ..fixedpoint.quantize import quantize
from ..fixedpoint.rounding import RoundingMode
from ..data.dataset import Dataset
from ..stats.metrics import classification_error

__all__ = ["FixedPointLinearClassifier"]


@dataclass(frozen=True)
class FixedPointLinearClassifier:
    """Quantized weights + threshold in one ``QK.F`` format.

    Attributes
    ----------
    weights:
        Grid-exact weight vector (every element representable in ``fmt``).
    threshold:
        Grid-exact decision threshold.
    fmt:
        The shared fixed-point format.
    rounding:
        Rounding mode of the datapath multipliers (kept so the bit-exact
        path matches how the classifier was characterized).
    polarity:
        ``+1`` predicts class A when ``w'x - threshold >= 0`` (Eq. 12);
        ``-1`` inverts the comparator output.  The Fisher cost (Eq. 10) is
        invariant under ``w -> -w``, so a solver may return the mirrored
        vector; because the ``QK.F`` range is asymmetric by one LSB,
        ``-w`` is not always representable, and flipping the comparator —
        free in hardware — is the faithful fix.
    """

    weights: np.ndarray
    threshold: float
    fmt: QFormat
    rounding: RoundingMode = RoundingMode.NEAREST_AWAY
    polarity: int = 1

    def __post_init__(self) -> None:
        if self.polarity not in (1, -1):
            raise TrainingError(f"polarity must be +1 or -1, got {self.polarity}")
        w = np.asarray(self.weights, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise TrainingError(f"weights must be a non-empty vector, got {w.shape}")
        snapped = np.asarray(quantize(w, self.fmt, rounding=self.rounding))
        if not np.allclose(snapped, w, atol=0.0):
            raise TrainingError(
                "weights are not exactly representable in "
                f"{self.fmt}; quantize before constructing the classifier"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(
            self,
            "threshold",
            float(quantize(float(self.threshold), self.fmt, rounding=self.rounding)),
        )

    # ------------------------------------------------------------------ #
    @property
    def num_features(self) -> int:
        return int(self.weights.size)

    @property
    def word_length(self) -> int:
        return self.fmt.word_length

    # ------------------------------------------------------------------ #
    def decision_values(self, features: np.ndarray) -> np.ndarray:
        """Float ``w'x - threshold`` over rows (features quantized to the grid)."""
        x = np.asarray(features, dtype=np.float64)
        if x.ndim == 1:
            x = x[None, :]
        xq = np.asarray(
            quantize(x, self.fmt, rounding=self.rounding, overflow=OverflowMode.SATURATE)
        )
        out = xq @ self.weights
        out -= self.threshold
        return out

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Labels (1 = class A) from the float fast path (Eq. 12)."""
        values = self.decision_values(features)
        # Fold the +/-1 polarity into the comparison direction instead of
        # multiplying it through the whole batch (0 ties stay class A
        # either way: -1 * 0 >= 0 and 0 <= 0 are both true).
        if self.polarity >= 0:
            return (values >= 0.0).astype(np.int64)
        return (values <= 0.0).astype(np.int64)

    def datapath(
        self, overflow: OverflowMode = OverflowMode.WRAP
    ) -> FixedPointDatapath:
        """The RTL-equivalent simulator for this classifier."""
        config = DatapathConfig(
            fmt=self.fmt,
            rounding=self.rounding,
            overflow=overflow,
            product_overflow=overflow,
        )
        return FixedPointDatapath(self.weights, self.threshold, config)

    def predict_bitexact(
        self, features: np.ndarray, overflow: OverflowMode = OverflowMode.WRAP
    ) -> np.ndarray:
        """Labels computed through the bit-accurate datapath."""
        projections = self.datapath(overflow=overflow).project_batch(
            np.atleast_2d(np.asarray(features, dtype=np.float64))
        )
        return (self.polarity * projections >= 0.0).astype(np.int64)

    # ------------------------------------------------------------------ #
    def error_on(self, dataset: Dataset, bitexact: bool = False) -> float:
        """Classification error on a labeled dataset."""
        if bitexact:
            predictions = self.predict_bitexact(dataset.features)
            return classification_error(dataset.labels, predictions)
        if dataset.labels.size == 0:
            raise DataError("empty label arrays")
        # Same mismatch fraction as classification_error(labels, predict()),
        # staying in the bool domain: the sweep scores every word length on
        # the full test set, so the int64 label round-trip is measurable.
        values = self.decision_values(dataset.features)
        predicted_a = values >= 0.0 if self.polarity >= 0 else values <= 0.0
        return float(np.mean(predicted_a != (dataset.labels != 0)))

    def describe(self) -> str:
        """One-line human-readable summary."""
        return (
            f"FixedPointLinearClassifier(fmt={self.fmt}, M={self.num_features}, "
            f"threshold={self.threshold:+.6g})"
        )
