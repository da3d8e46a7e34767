"""Tests for repro.fixedpoint.datapath — the bit-accurate MAC simulator."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro.conformance.strategies import (
    case_classifier,
    case_features,
    classifier_cases,
)
from repro.core.classifier import FixedPointLinearClassifier
from repro.errors import InputValidationError
from repro.fixedpoint.datapath import DatapathConfig, FixedPointDatapath
from repro.fixedpoint.overflow import OverflowMode
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.rounding import RoundingMode


def make_datapath(weights, threshold, fmt, **kwargs):
    return FixedPointDatapath(weights, threshold, DatapathConfig(fmt=fmt, **kwargs))


class TestPaperWrapProperty:
    """Section 3: intermediate overflow is harmless with wrapping."""

    def test_3_plus_3_minus_4(self, q3_0):
        dp = make_datapath([1.0, 1.0, 1.0], 0.0, q3_0)
        trace = dp.project_traced([3.0, 3.0, -4.0])
        assert trace.accumulator_overflowed[1]  # 3 + 3 overflows
        assert trace.result_raw == 2  # ...but the final result is exact

    def test_final_value_matches_exact_sum_when_in_range(self, q3_0):
        dp = make_datapath([1.0, 1.0, 1.0, 1.0], 0.0, q3_0)
        # Many permutations whose exact sum is in range but whose partial
        # sums overflow; wrapping must always recover the exact value.
        for features in ([3, 3, -4, 0], [3, 2, -3, 1], [-4, -4, 3, 3 + 2]):
            clipped = [max(-4, min(3, f)) for f in features]
            exact = sum(clipped)
            if not (-4 <= exact <= 3):
                continue
            assert dp.project(clipped) == exact

    def test_saturating_datapath_breaks_the_property(self, q3_0):
        wrap = make_datapath([1.0, 1.0, 1.0], 0.0, q3_0)
        sat = make_datapath(
            [1.0, 1.0, 1.0], 0.0, q3_0,
            overflow=OverflowMode.SATURATE, product_overflow=OverflowMode.SATURATE,
        )
        features = [3.0, 3.0, -4.0]
        assert wrap.project(features) == 2.0
        assert sat.project(features) == -1.0  # 3+3 saturates at 3, then -4


class TestBasicProjection:
    def test_simple_dot_product(self, q4_4):
        dp = make_datapath([0.5, -0.25], 0.0, q4_4)
        assert dp.project([1.0, 1.0]) == pytest.approx(0.25)

    def test_threshold_subtraction(self, q4_4):
        dp = make_datapath([1.0], 0.5, q4_4)
        assert dp.project([1.0]) == pytest.approx(0.5)

    def test_classify_sign(self, q4_4):
        dp = make_datapath([1.0], 0.0, q4_4)
        assert dp.classify([1.0]) == 1
        assert dp.classify([-1.0]) == 0
        assert dp.classify([0.0]) == 1  # >= 0 is class A (Eq. 12)

    def test_feature_length_mismatch(self, q4_4):
        dp = make_datapath([1.0, 2.0], 0.0, q4_4)
        with pytest.raises(ValueError):
            dp.project([1.0])

    def test_weights_quantized_on_construction(self, q2_2):
        dp = make_datapath([0.3], 0.0, q2_2)
        assert dp.weight_raws[0] == 1  # 0.3 -> 0.25 -> raw 1

    def test_product_rounding_mode_respected(self, q2_2):
        dp_floor = make_datapath([0.25], 0.0, q2_2, rounding=RoundingMode.FLOOR)
        # 0.25 * 0.75: full product raw = 1*3 = 3, narrowed by 2 bits:
        # floor(3/4) = 0
        assert dp_floor.project([0.75]) == 0.0


class TestBatchAgreesWithTraced:
    @given(classifier_cases(max_integer_bits=4, max_fraction_bits=5, max_features=5))
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_scalar_path(self, case):
        dp = case_classifier(case).datapath()
        features = case_features(case)
        batch = dp.project_batch(features)
        for row, expected in zip(features, batch):
            assert dp.project(row) == expected

    def test_wrong_width_batch_rejected(self):
        """A one-column matrix must not broadcast against three weights."""
        clf = FixedPointLinearClassifier(
            np.array([0.5, -0.25, 0.75]), 0.0, QFormat(3, 5)
        )
        features = np.array([[1.0], [-2.0]])
        with pytest.raises(InputValidationError, match="shape"):
            clf.datapath().project_batch(features)
        with pytest.raises(InputValidationError, match="shape"):
            clf.predict_bitexact(features)

    def test_classify_batch(self, q4_4):
        dp = make_datapath([1.0, -1.0], 0.0, q4_4)
        features = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert list(dp.classify_batch(features)) == [1, 0, 1]


class TestOverflowFlags:
    def test_no_overflow_flags_on_small_values(self, q4_4):
        dp = make_datapath([0.5, 0.5], 0.0, q4_4)
        trace = dp.project_traced([0.5, 0.5])
        assert not trace.any_product_overflow
        assert not trace.any_accumulator_overflow

    def test_product_overflow_flagged(self, q3_0):
        dp = make_datapath([3.0], 0.0, q3_0)
        trace = dp.project_traced([3.0])  # 9 overflows Q3.0
        assert trace.any_product_overflow

    def test_raise_mode_raises(self, q3_0):
        from repro.errors import OverflowModeError

        dp = make_datapath(
            [3.0], 0.0, q3_0,
            overflow=OverflowMode.RAISE, product_overflow=OverflowMode.RAISE,
        )
        with pytest.raises(OverflowModeError):
            dp.project([3.0])


class TestWideFormatExactness:
    def test_no_float_loss_at_32_bits(self):
        fmt = QFormat(8, 24)
        dp = make_datapath([100.0 + fmt.resolution], 0.0, DatapathConfig(fmt=fmt).fmt)
        # ensure construction through config path works and value is exact
        assert dp.weight_raws[0] == fmt.to_raw(100.0) + 1
