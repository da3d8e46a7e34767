"""Tests for the asyncio micro-batching queue.

The batcher's contract: co-batched requests receive exactly the slices of
one vectorized engine call, flushes happen on size or on the next event-loop
turn, a batch up to the flush size runs on the loop thread and a larger one
off it, and a poisoned batch rejects every member with the engine's error.
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro.core.classifier import FixedPointLinearClassifier
from repro.errors import ServeError
from repro.fixedpoint.qformat import QFormat
from repro.serve.batcher import BatcherConfig, MicroBatcher
from repro.serve.metrics import ServeMetrics
from repro.serve.registry import ModelRegistry


@pytest.fixture
def registry():
    reg = ModelRegistry()
    reg.register(
        "m",
        FixedPointLinearClassifier(
            weights=np.array([0.5, -0.25, 1.0]), threshold=0.125, fmt=QFormat(2, 4)
        ),
    )
    return reg


def _features(rng, k):
    return rng.uniform(-2, 2, size=(k, 3))


class TestConfig:
    def test_invalid_batch_size_rejected(self):
        with pytest.raises(ServeError):
            BatcherConfig(max_batch_size=0)

    def test_removed_max_delay_rejected(self):
        with pytest.raises(TypeError):
            BatcherConfig(max_delay=0.005)


class TestCoalescing:
    def test_concurrent_submits_share_one_batch(self, registry, rng):
        """Requests submitted in one loop turn run as a single batch."""
        metrics = ServeMetrics()
        batcher = MicroBatcher(
            registry, config=BatcherConfig(max_batch_size=64), metrics=metrics
        )

        async def scenario():
            chunks = [_features(rng, 2) for _ in range(5)]
            results = await asyncio.gather(
                *[batcher.submit("m", chunk) for chunk in chunks]
            )
            return chunks, results

        chunks, results = asyncio.run(scenario())
        assert metrics.to_dict()["batches_total"] == 1  # all five coalesced
        engine = registry.get("m").engine
        for chunk, (result, model) in zip(chunks, results):
            assert model.name == "m"
            assert np.array_equal(result.labels, engine.predict(chunk))

    def test_size_triggered_flush(self, registry, rng):
        """Hitting max_batch_size flushes at once, inside the submitting turn.

        Five 2-row submits in one turn fill two 4-row batches on size; only
        the fifth request is left for the next-turn flush.
        """
        metrics = ServeMetrics()
        batcher = MicroBatcher(
            registry, config=BatcherConfig(max_batch_size=4), metrics=metrics
        )

        async def scenario():
            return await asyncio.wait_for(
                asyncio.gather(
                    *[batcher.submit("m", _features(rng, 2)) for _ in range(5)]
                ),
                timeout=5.0,
            )

        results = asyncio.run(scenario())
        assert len(results) == 5
        assert metrics.to_dict()["batches_total"] == 3

    def test_lone_request_flushes_on_next_turn(self, registry, rng):
        """A lone request far below size is answered within a few loop
        turns; it never sleeps on a timer."""

        async def scenario():
            batcher = MicroBatcher(registry, config=BatcherConfig(max_batch_size=1024))
            task = asyncio.ensure_future(batcher.submit("m", _features(rng, 1)))
            for _ in range(10):
                await asyncio.sleep(0)
            assert task.done()
            result, _ = task.result()
            return result

        result = asyncio.run(scenario())
        assert result.num_samples == 1

    def test_engine_thread_follows_batch_size(self, registry, rng, monkeypatch):
        """A batch up to max_batch_size runs on the loop thread; a larger
        one (a request that overshoots the flush size) runs off it."""
        engine = registry.get("m").engine
        run = engine.run
        threads = {}

        def recording_run(features):
            threads[len(features)] = threading.get_ident()
            return run(features)

        monkeypatch.setattr(engine, "run", recording_run)

        async def scenario():
            batcher = MicroBatcher(registry, config=BatcherConfig(max_batch_size=4))
            for k in (4, 5):
                await asyncio.wait_for(
                    batcher.submit("m", _features(rng, k)), timeout=5.0
                )
            return threading.get_ident()

        loop_thread = asyncio.run(scenario())
        assert threads[4] == loop_thread
        assert threads[5] != loop_thread

    def test_small_request_answered_while_large_batch_runs(
        self, registry, rng, monkeypatch
    ):
        """An overshooting batch held in the executor does not block a
        1-row request behind it."""
        engine = registry.get("m").engine
        run = engine.run
        release = threading.Event()

        def gated_run(features):
            if len(features) > 4:
                assert release.wait(timeout=5.0)
            return run(features)

        monkeypatch.setattr(engine, "run", gated_run)

        async def scenario():
            batcher = MicroBatcher(registry, config=BatcherConfig(max_batch_size=4))
            large = asyncio.ensure_future(batcher.submit("m", _features(rng, 5)))
            await asyncio.sleep(0)  # the large batch flushes on size
            small, _ = await asyncio.wait_for(
                batcher.submit("m", _features(rng, 1)), timeout=5.0
            )
            held = not large.done()
            release.set()
            big, _ = await asyncio.wait_for(large, timeout=5.0)
            return small, big, held

        try:
            small, big, held = asyncio.run(scenario())
        finally:
            release.set()
        assert held  # the small answer arrived while the large batch ran
        assert small.num_samples == 1
        assert big.num_samples == 5

    def test_results_are_request_slices(self, registry, rng):
        """Slicing returns each caller exactly its own rows, in order."""
        engine = registry.get("m").engine

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=64)
            )
            chunks = [_features(rng, k) for k in (1, 3, 2)]
            gathered = await asyncio.gather(
                *[batcher.submit("m", chunk) for chunk in chunks]
            )
            return chunks, gathered

        chunks, gathered = asyncio.run(scenario())
        for chunk, (result, _) in zip(chunks, gathered):
            expected = engine.run(chunk)
            assert [int(r) for r in result.projection_raws] == [
                int(r) for r in expected.projection_raws
            ]
            assert np.array_equal(result.labels, expected.labels)


class TestErrors:
    def test_wrong_shape_rejected_before_queueing(self, registry):
        async def scenario():
            batcher = MicroBatcher(registry)
            with pytest.raises(ServeError, match=r"\(k, M\)"):
                await batcher.submit("m", np.zeros(3))

        asyncio.run(scenario())

    def test_wrong_feature_count_rejected_before_queueing(self, registry):
        """A width mismatch errors alone at submit, not at flush time."""

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=64)
            )
            with pytest.raises(ServeError, match="expects 3 features"):
                await batcher.submit("m", np.zeros((1, 5)))

        asyncio.run(scenario())

    def test_wrong_width_does_not_hang_batch_mates(self, registry, rng):
        """A malformed request never stalls well-formed co-batched callers."""

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=64)
            )
            good = _features(rng, 2)
            results = await asyncio.wait_for(
                asyncio.gather(
                    batcher.submit("m", good),
                    batcher.submit("m", np.zeros((2, 5))),
                    return_exceptions=True,
                ),
                timeout=5.0,
            )
            return good, results

        good, (ok, bad) = asyncio.run(scenario())
        result, model = ok
        assert np.array_equal(result.labels, model.engine.predict(good))
        assert isinstance(bad, ServeError)

    def test_flush_failure_rejects_every_member(self, registry, rng, monkeypatch):
        """An engine error at flush time rejects all co-batched callers."""
        model = registry.get("m")
        monkeypatch.setattr(
            model.engine, "run", lambda features: (_ for _ in ()).throw(
                RuntimeError("engine exploded")
            )
        )

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=64)
            )
            return await asyncio.wait_for(
                asyncio.gather(
                    batcher.submit("m", _features(rng, 1)),
                    batcher.submit("m", _features(rng, 2)),
                    return_exceptions=True,
                ),
                timeout=5.0,
            )

        outcomes = asyncio.run(scenario())
        assert len(outcomes) == 2
        for outcome in outcomes:
            assert isinstance(outcome, RuntimeError)

    def test_unknown_model_rejected(self, registry, rng):
        async def scenario():
            batcher = MicroBatcher(registry)
            from repro.errors import ModelNotFoundError

            with pytest.raises(ModelNotFoundError):
                await batcher.submit("ghost", _features(rng, 1))

        asyncio.run(scenario())

    def test_unregister_between_submit_and_flush_still_serves(self, registry, rng):
        """The model captured at submit survives a concurrent unregister."""

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=64)
            )
            features = _features(rng, 2)
            task = asyncio.ensure_future(batcher.submit("m", features))
            await asyncio.sleep(0)  # let submit resolve and enqueue
            registry.unregister("m")
            result, model = await asyncio.wait_for(task, timeout=5.0)
            return features, result, model

        features, result, model = asyncio.run(scenario())
        assert model.name == "m"
        assert np.array_equal(result.labels, model.engine.predict(features))


class TestPinStability:
    def test_hot_swap_between_submit_and_flush_keeps_pinned_bits(self, rng):
        """A request resolved at submit is served by those exact bits even
        if the registry entry is replaced before the flush."""
        registry = ModelRegistry()
        first = FixedPointLinearClassifier(
            weights=np.array([0.5, -0.25, 1.0]), threshold=0.125, fmt=QFormat(2, 4)
        )
        second = FixedPointLinearClassifier(
            weights=np.array([-1.0, 0.75, -0.5]), threshold=-0.25, fmt=QFormat(2, 4)
        )
        registry.register("m", first)
        pinned_hash = registry.get("m").content_hash

        async def scenario():
            batcher = MicroBatcher(
                registry, config=BatcherConfig(max_batch_size=64)
            )
            features = _features(rng, 2)
            task = asyncio.ensure_future(
                batcher.submit(f"sha256:{pinned_hash[:16]}", features)
            )
            await asyncio.sleep(0)  # submit resolves the pin, then we swap
            registry.register("m", second)
            result, model = await asyncio.wait_for(task, timeout=5.0)
            return features, result, model

        features, result, model = asyncio.run(scenario())
        assert model.content_hash == pinned_hash
        assert np.array_equal(
            result.labels, first.predict_bitexact(features)
        )


class TestDrain:
    def test_drain_completes_pending_work(self, registry, rng):
        async def scenario():
            batcher = MicroBatcher(registry, config=BatcherConfig(max_batch_size=1024))
            # Submit without awaiting, then drain: the pending batch must
            # flush inside drain(), ahead of its next-turn flush.
            task = asyncio.ensure_future(batcher.submit("m", _features(rng, 2)))
            await asyncio.sleep(0)
            await batcher.drain()
            result, _ = await asyncio.wait_for(task, timeout=5.0)
            return result

        result = asyncio.run(scenario())
        assert result.num_samples == 2
