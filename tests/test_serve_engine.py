"""Differential tests: BatchInferenceEngine vs the per-sample RTL simulator.

The acceptance criterion for the serving engine is bit-identity with
:meth:`~repro.fixedpoint.datapath.FixedPointDatapath.project_traced` —
projection raws, labels, and per-step overflow flags — across randomized
formats, weights, and rounding modes, **including forced-wrap cases**, on
both the int64 fast path and the object fallback.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.conformance.strategies import (
    DETERMINISTIC_ROUNDING_MODES as _DET_MODES,
    random_classifier as _random_classifier,
)
from repro.core.classifier import FixedPointLinearClassifier
from repro.errors import OverflowModeError
from repro.fixedpoint.overflow import OverflowMode
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import quantize
from repro.fixedpoint.rounding import RoundingMode
from repro.serve.engine import BatchInferenceEngine, BatchResult, int64_path_available


def _engine(classifier, object_path):
    return BatchInferenceEngine(classifier, backend="object" if object_path else "auto")


def _assert_engine_matches_datapath(classifier, features, object_path):
    engine = _engine(classifier, object_path)
    result = engine.run(features)
    datapath = classifier.datapath()
    for i, sample in enumerate(np.atleast_2d(features)):
        trace = datapath.project_traced(sample)
        assert int(result.projection_raws[i]) == trace.result_raw
        assert list(result.product_overflowed[i]) == trace.product_overflowed
        assert list(result.accumulator_overflowed[i]) == trace.accumulator_overflowed
    assert np.array_equal(result.labels, classifier.predict_bitexact(features))
    return result


class TestDifferentialRandomized:
    @given(
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=1, max_value=8),
        st.sampled_from(_DET_MODES),
        st.sampled_from([1, -1]),
        st.booleans(),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_traced_datapath(self, k, f, m, mode, polarity, object_path, seed):
        """Projection raws, labels, and overflow flags agree bit for bit."""
        rng = np.random.default_rng(seed)
        classifier = _random_classifier(rng, k, f, m, mode, polarity)
        fmt = classifier.fmt
        # Sample beyond the representable range so input saturation and
        # product/accumulator wrap paths are all exercised.
        features = rng.uniform(3 * fmt.min_value, 3 * fmt.max_value, size=(13, m))
        _assert_engine_matches_datapath(classifier, features, object_path)

    @pytest.mark.parametrize("object_path", [False, True])
    def test_forced_wrap_case(self, object_path):
        """The paper's 3 + 3 - 4 wrap example survives vectorization."""
        fmt = QFormat(3, 0)
        classifier = FixedPointLinearClassifier(
            weights=np.array([1.0, 1.0, 1.0]), threshold=0.0, fmt=fmt
        )
        engine = _engine(classifier, object_path)
        result = engine.run(np.array([[3.0, 3.0, -4.0]]))
        assert bool(result.accumulator_overflowed[0, 1])  # 3 + 3 wraps...
        assert int(result.projection_raws[0]) == 2  # ...yet the result is exact
        _assert_engine_matches_datapath(
            classifier, np.array([[3.0, 3.0, -4.0]]), object_path
        )

    @pytest.mark.parametrize("object_path", [False, True])
    def test_forced_product_wrap(self, object_path):
        """Large weight x feature products overflow QK.F and must wrap alike."""
        fmt = QFormat(3, 1)
        classifier = FixedPointLinearClassifier(
            weights=np.array([3.5, -3.5]), threshold=0.0, fmt=fmt
        )
        features = np.array([[3.5, 3.5], [-4.0, 3.5], [3.5, -4.0]])
        result = _assert_engine_matches_datapath(classifier, features, object_path)
        assert result.product_overflow_events > 0

    def test_wide_format_selects_object_fallback(self):
        fmt = QFormat(30, 10)
        rng = np.random.default_rng(3)
        weights = np.asarray(quantize(rng.uniform(-1000, 1000, size=5), fmt))
        classifier = FixedPointLinearClassifier(weights=weights, threshold=0.5, fmt=fmt)
        engine = BatchInferenceEngine(classifier)
        assert not engine.fast_path
        features = rng.uniform(-1e5, 1e5, size=(7, 5))
        _assert_engine_matches_datapath(classifier, features, object_path=False)

    def test_fast_and_fallback_agree_with_each_other(self):
        rng = np.random.default_rng(11)
        classifier = _random_classifier(rng, 4, 4, 6, RoundingMode.NEAREST_AWAY)
        features = rng.uniform(-40, 40, size=(50, 6))
        fast = BatchInferenceEngine(classifier).run(features)
        slow = BatchInferenceEngine(classifier, backend="object").run(features)
        assert [int(r) for r in fast.projection_raws] == [
            int(r) for r in slow.projection_raws
        ]
        assert np.array_equal(fast.labels, slow.labels)
        assert np.array_equal(fast.product_overflowed, slow.product_overflowed)
        assert np.array_equal(
            fast.accumulator_overflowed, slow.accumulator_overflowed
        )


class TestPathSelection:
    def test_small_format_uses_int64(self):
        assert int64_path_available(QFormat(4, 4), 8)

    def test_wide_format_does_not(self):
        assert not int64_path_available(QFormat(32, 0), 4)

    def test_boundary_accounts_for_feature_count(self):
        # 2*W + ceil(log2(M)) must fit in 63 magnitude bits.
        fmt = QFormat(15, 15)  # W = 30 -> 60 bits of product
        assert int64_path_available(fmt, 8)  # 60 + 3 = 63: exactly fits
        assert not int64_path_available(fmt, 16)  # 60 + 4 = 64: too wide


class TestEngineApi:
    @pytest.fixture
    def classifier(self):
        return FixedPointLinearClassifier(
            weights=np.array([0.5, -0.25, 1.0]), threshold=0.125, fmt=QFormat(2, 4)
        )

    def test_single_vector_accepted(self, classifier):
        engine = BatchInferenceEngine(classifier)
        result = engine.run(np.array([0.5, 0.25, 1.0]))
        assert result.num_samples == 1

    def test_empty_batch(self, classifier):
        engine = BatchInferenceEngine(classifier)
        result = engine.run(np.zeros((0, 3)))
        assert result.num_samples == 0
        assert result.product_overflow_events == 0

    def test_shape_mismatch_rejected(self, classifier):
        engine = BatchInferenceEngine(classifier)
        with pytest.raises(ValueError, match="shape"):
            engine.run(np.zeros((4, 5)))

    def test_predict_matches_bitexact(self, classifier, rng):
        engine = BatchInferenceEngine(classifier)
        features = rng.uniform(-2, 2, size=(40, 3))
        assert np.array_equal(
            engine.predict(features), classifier.predict_bitexact(features)
        )

    def test_projections_are_scaled_raws(self, classifier):
        engine = BatchInferenceEngine(classifier)
        features = np.array([[0.5, 0.25, 1.0]])
        raw = int(engine.run(features).projection_raws[0])
        assert engine.projections(features)[0] == raw * classifier.fmt.resolution

    def test_raise_mode_raises_on_overflow(self):
        fmt = QFormat(3, 0)
        classifier = FixedPointLinearClassifier(
            weights=np.array([1.0, 1.0, 1.0]), threshold=0.0, fmt=fmt
        )
        engine = BatchInferenceEngine(classifier, overflow=OverflowMode.RAISE)
        with pytest.raises(OverflowModeError):
            engine.run(np.array([[3.0, 3.0, -4.0]]))

    def test_saturate_mode_matches_datapath(self, rng):
        fmt = QFormat(3, 1)
        classifier = FixedPointLinearClassifier(
            weights=np.array([3.5, -3.5]), threshold=0.0, fmt=fmt
        )
        features = rng.uniform(-8, 8, size=(20, 2))
        engine = BatchInferenceEngine(classifier, overflow=OverflowMode.SATURATE)
        datapath = classifier.datapath(overflow=OverflowMode.SATURATE)
        result = engine.run(features)
        for i in range(features.shape[0]):
            trace = datapath.project_traced(features[i])
            assert int(result.projection_raws[i]) == trace.result_raw

    def test_slice_round_trip(self, classifier, rng):
        engine = BatchInferenceEngine(classifier)
        features = rng.uniform(-2, 2, size=(10, 3))
        whole = engine.run(features)
        part = whole.slice(3, 7)
        assert isinstance(part, BatchResult)
        assert part.num_samples == 4
        assert np.array_equal(part.labels, whole.labels[3:7])

    def test_describe_names_the_path(self, classifier):
        assert "int64" in BatchInferenceEngine(classifier).describe()
        assert "object" in BatchInferenceEngine(
            classifier, backend="object"
        ).describe()
