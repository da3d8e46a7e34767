"""Tests for the warm-started, seeded word-length sweep engine.

Covers the differential identity guarantees (engine output == serial
reference sweep, point for point), the incumbent-seeding properties
(seeded never worse; invalid seeds rejected, never silently used), the
hoisting invariants (one scaler fit per sweep), the ``repro.sweep-trace/v1``
telemetry, and the engine's input validation.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.ldafp import LdaFpConfig, train_lda_fp
from repro.core.pipeline import PipelineConfig, TrainingPipeline
from repro.data.ecg import make_ecg_dataset
from repro.data.scaling import FeatureScaler
from repro.data.synthetic import make_synthetic_dataset
from repro.errors import DataError, InputValidationError
from repro.wordlength import (
    SweepConfig,
    SweepTrace,
    run_sweep,
    wordlength_sweep,
)
from repro.wordlength.engine import _point_pipeline_config


def assert_points_identical(reference, candidate):
    """Point-for-point canonical equality, modulo time-budget stops."""
    assert len(reference) == len(candidate)
    for ref, got in zip(reference, candidate):
        if ref.stop_reason == "time" or got.stop_reason == "time":
            assert ref.word_length == got.word_length
            continue
        assert ref.canonical() == got.canonical()


@pytest.fixture(scope="module")
def exact_config():
    # relative_gap=0 forces every point to close its gap exactly, so the
    # seeded runs cannot legally stop at a different (equally
    # gap-certified) incumbent than the reference.
    return PipelineConfig(
        method="lda-fp",
        ldafp=LdaFpConfig(max_nodes=4000, time_limit=60.0, relative_gap=0.0),
    )


@pytest.fixture(scope="module")
def small_train():
    return make_synthetic_dataset(100, seed=0)


@pytest.fixture(scope="module")
def small_test():
    return make_synthetic_dataset(200, seed=1)


class TestDifferentialIdentity:
    @pytest.fixture(scope="class")
    def reference(self, exact_config, small_train, small_test):
        return wordlength_sweep(
            small_train, small_test, (4, 5), pipeline_config=exact_config
        )

    def test_seeded_serial_matches_reference(
        self, exact_config, small_train, small_test, reference
    ):
        seeded = run_sweep(
            small_train,
            small_test,
            (4, 5),
            pipeline_config=exact_config,
            sweep_config=SweepConfig(seed_incumbents=True),
        )
        assert_points_identical(reference, seeded)

    def test_ecg_seeded_matches_reference(self):
        # The ECG fixture exercises the identity on an 8-feature problem in
        # the early-exit regime (warm start provably optimal within the
        # default gaps), where seeded and unseeded sweeps must agree exactly.
        train = make_ecg_dataset(60, seed=0)
        test = make_ecg_dataset(80, seed=1)
        config = PipelineConfig(
            method="lda-fp", ldafp=LdaFpConfig(max_nodes=150, time_limit=30.0)
        )
        reference = wordlength_sweep(
            train, test, (7, 8, 9), pipeline_config=config
        )
        seeded = run_sweep(
            train,
            test,
            (7, 8, 9),
            pipeline_config=config,
            sweep_config=SweepConfig(seed_incumbents=True),
        )
        assert_points_identical(reference, seeded)
        assert all(p.stop_reason == "gap" for p in reference)


def _scaled_fixture(train, word_length, config):
    pipeline = TrainingPipeline(config)
    scaler = pipeline.scaler_for(word_length)
    scaler.fit(train.features)
    return train.map_features(scaler.transform), pipeline.format_for(word_length)


class TestSeedProperties:
    @pytest.fixture(scope="class")
    def setup(self):
        train = make_synthetic_dataset(120, seed=0)
        config = PipelineConfig(
            method="lda-fp",
            ldafp=LdaFpConfig(max_nodes=60, time_limit=10.0),
        )
        scaled, fmt = _scaled_fixture(train, 5, config)
        return scaled, fmt, config.ldafp

    def test_seeded_solve_never_worse(self, setup):
        # Property: injecting the adjacent word length's solution can only
        # tighten the incumbent, so the seeded cost is never worse than the
        # unseeded one beyond the solver's own gap slack.
        scaled, fmt, ldafp = setup
        train = make_synthetic_dataset(120, seed=0)
        config = PipelineConfig(method="lda-fp", ldafp=ldafp)
        coarse_scaled, coarse_fmt = _scaled_fixture(train, 4, config)
        coarse_clf, _ = train_lda_fp(coarse_scaled, coarse_fmt, ldafp)

        _, unseeded = train_lda_fp(scaled, fmt, ldafp)
        _, seeded = train_lda_fp(
            scaled, fmt, ldafp, incumbent_seeds=[coarse_clf.weights]
        )
        slack = ldafp.absolute_gap + ldafp.relative_gap * abs(unseeded.cost)
        assert seeded.cost <= unseeded.cost + slack

    def test_overflow_violating_seed_rejected(self, setup):
        scaled, fmt, ldafp = setup
        huge = np.full(scaled.num_features, 100.0)
        classifier, report = train_lda_fp(
            scaled, fmt, ldafp, incumbent_seeds=[huge]
        )
        assert report.seeds_rejected == 1
        assert report.seeds_injected == 0
        assert report.seeds_adopted == 0
        assert np.any(classifier.weights)  # training still succeeded

    def test_zero_collapsing_seed_rejected(self, setup):
        scaled, fmt, ldafp = setup
        tiny = np.full(scaled.num_features, 1e-6)  # quantizes to the zero vector
        _, report = train_lda_fp(scaled, fmt, ldafp, incumbent_seeds=[tiny])
        assert report.seeds_rejected == 1
        assert report.seeds_injected == 0

    def test_valid_seed_counted_and_adopted(self, setup):
        scaled, fmt, ldafp = setup
        classifier, _ = train_lda_fp(scaled, fmt, ldafp)
        _, report = train_lda_fp(
            scaled, fmt, ldafp, incumbent_seeds=[classifier.weights]
        )
        assert report.seeds_injected == 1
        assert report.seeds_rejected == 0

    def test_wrong_shape_seed_raises(self, setup):
        scaled, fmt, ldafp = setup
        with pytest.raises(InputValidationError):
            train_lda_fp(
                scaled, fmt, ldafp,
                incumbent_seeds=[np.ones(scaled.num_features + 2)],
            )


class TestHoisting:
    def test_scaler_fitted_exactly_once_per_sweep(self, monkeypatch):
        # The regression this guards: the pre-engine sweep refit the scaler
        # at every word length even though its limit depends only on K.
        calls = {"fit": 0}
        original_fit = FeatureScaler.fit

        def counting_fit(self, features):
            calls["fit"] += 1
            return original_fit(self, features)

        monkeypatch.setattr(FeatureScaler, "fit", counting_fit)
        train = make_synthetic_dataset(80, seed=0)
        test = make_synthetic_dataset(80, seed=1)
        wordlength_sweep(
            train,
            test,
            (6, 8, 10),
            pipeline_config=PipelineConfig(method="lda", lda_shrinkage=0.0),
        )
        assert calls["fit"] == 1

    def test_precomputed_scaler_must_match_config(self, small_train, small_test):
        pipeline = TrainingPipeline(PipelineConfig(method="lda"))
        wrong = FeatureScaler(limit=123.0)
        wrong.fit(small_train.features)
        with pytest.raises(InputValidationError):
            pipeline.run(small_train, small_test, 8, scaler=wrong)

    def test_precomputed_scaler_must_be_fitted(self, small_train, small_test):
        pipeline = TrainingPipeline(PipelineConfig(method="lda"))
        unfitted = pipeline.scaler_for(8)
        with pytest.raises(InputValidationError):
            pipeline.run(small_train, small_test, 8, scaler=unfitted)


class TestSweepTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        train = make_ecg_dataset(40, seed=0)
        test = make_ecg_dataset(40, seed=1)
        config = PipelineConfig(
            method="lda-fp", ldafp=LdaFpConfig(max_nodes=50, time_limit=20.0)
        )
        trace = SweepTrace()
        points = run_sweep(
            train,
            test,
            (7, 8),
            pipeline_config=config,
            sweep_config=SweepConfig(seed_incumbents=True),
            sweep_trace=trace,
        )
        return points, trace

    def test_one_record_per_point(self, traced):
        points, trace = traced
        assert [r.word_length for r in trace.records] == [7, 8]
        for point, record in zip(points, trace.records):
            assert record.test_error == point.test_error
            assert record.stop_reason == point.stop_reason
            assert record.cost == point.cost

    def test_schedule_metadata(self, traced):
        _, trace = traced
        assert "workers" not in trace.meta
        assert "chunks" not in trace.meta
        assert trace.meta["seed_incumbents"] is True
        assert trace.records[0].seeded is False
        assert trace.records[1].seeded is True

    def test_embeds_solver_traces(self, traced):
        _, trace = traced
        for wl in (7, 8):
            solver = trace.solver_traces[wl]
            assert solver.events[0].kind == "start"
            assert solver.events[-1].kind == "stop"

    def test_json_round_trip(self, traced):
        _, trace = traced
        restored = SweepTrace.from_json(trace.to_json())
        assert restored.meta == trace.meta
        assert restored.records == trace.records
        assert sorted(restored.solver_traces) == sorted(trace.solver_traces)
        assert json.loads(restored.to_json()) == json.loads(trace.to_json())

    def test_schema_mismatch_rejected(self):
        with pytest.raises(InputValidationError):
            SweepTrace.from_json(json.dumps({"schema": "bogus/v9", "points": []}))

    def test_record_for(self, traced):
        _, trace = traced
        assert trace.record_for(7) is trace.records[0]
        assert trace.record_for(99) is None


def _point_entry(**overrides) -> dict:
    entry = {
        "word_length": 6, "seeded": False,
        "seeds_injected": 0, "seeds_rejected": 0, "seeds_adopted": 0,
        "cost": 0.5, "test_error": 0.1, "train_seconds": 0.2,
        "proven_optimal": True, "stop_reason": "exhausted", "solver": None,
    }
    entry.update(overrides)
    return entry


def _sweep_json(*points) -> str:
    return json.dumps(
        {"schema": SweepTrace.SCHEMA, "meta": {}, "points": list(points)}
    )


class TestSweepTraceValidation:
    def test_unknown_key_named(self):
        with pytest.raises(InputValidationError, match="unknown key 'bogus'"):
            SweepTrace.from_json(_sweep_json(_point_entry(bogus=1)))

    def test_missing_key_named(self):
        entry = _point_entry()
        del entry["seeded"]
        with pytest.raises(InputValidationError, match="missing key 'seeded'"):
            SweepTrace.from_json(_sweep_json(entry))

    def test_non_object_point_rejected(self):
        with pytest.raises(InputValidationError, match="point 0"):
            SweepTrace.from_json(_sweep_json([6, 0]))

    def test_old_format_point_loads(self):
        """Points written while the solver had a parallel frontier carry
        two executor keys, and points written while the sweep had a
        parallel pool carry the chunk they were solved in; all four are
        dropped on read."""
        old = _point_entry(
            solver_executor="serial",
            solver_executor_fallback="",
            chunk=1,
            index_in_chunk=0,
        )
        trace = SweepTrace.from_json(_sweep_json(old))
        assert trace.records[0].word_length == 6
        point = json.loads(trace.to_json())["points"][0]
        for key in ("solver_executor", "solver_executor_fallback"):
            assert key not in point
        assert "chunk" not in point and "index_in_chunk" not in point


class TestEngineValidation:
    def test_empty_word_lengths_rejected(self, small_train):
        with pytest.raises(DataError):
            run_sweep(small_train, small_train, ())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"point_time_limit": 0.0},
            {"point_time_limit": -1.0},
            {"point_time_limit": {6: 0.0}},
        ],
    )
    def test_bad_sweep_config_rejected(self, kwargs):
        with pytest.raises(InputValidationError):
            SweepConfig(**kwargs)

    def test_point_time_limit_clamps_not_extends(self):
        base = PipelineConfig(
            method="lda-fp", ldafp=LdaFpConfig(time_limit=10.0)
        )
        clamped = _point_pipeline_config(base, 2.0)
        assert clamped.ldafp.time_limit == 2.0
        untouched = _point_pipeline_config(base, 60.0)
        assert untouched.ldafp.time_limit == 10.0
        unlimited = PipelineConfig(
            method="lda-fp", ldafp=LdaFpConfig(time_limit=None)
        )
        assert _point_pipeline_config(unlimited, 3.0).ldafp.time_limit == 3.0
        lda = PipelineConfig(method="lda")
        assert _point_pipeline_config(lda, 3.0) is lda
