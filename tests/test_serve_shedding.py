"""Admission control, deadlines, and graceful shutdown.

The serving-plane overload contract: a full queue sheds *at the door* with
a structured, distinguishable rejection (``OverloadedError`` → 503 with
``shed: true``), an expired deadline drops the request at flush time
(``DeadlineExceededError`` → the same shape with a different reason), and
neither path can ever change the bits of a request that was accepted.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.core.classifier import FixedPointLinearClassifier
from repro.errors import DeadlineExceededError, OverloadedError
from repro.fixedpoint.qformat import QFormat
from repro.serve import (
    BatcherConfig,
    ModelRegistry,
    ServeConfig,
    start_server_thread,
    wire,
)
from repro.serve.batcher import MicroBatcher
from repro.serve.engine import BatchInferenceEngine
from repro.serve.metrics import ServeMetrics
from repro.serve.server import InferenceServer


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


class TestBatcherAdmission:
    def test_over_bound_submit_sheds_without_enqueueing(self, registry, rng):
        batcher = MicroBatcher(
            registry,
            config=BatcherConfig(max_batch_size=64, max_pending_samples=4),
        )

        async def scenario():
            with pytest.raises(OverloadedError):
                await batcher.submit("m", _features(rng, 5))
            assert batcher.load == 0  # nothing was queued

        asyncio.run(scenario())

    def test_load_frees_after_flush_then_accepts_again(self, registry, rng):
        batcher = MicroBatcher(
            registry,
            config=BatcherConfig(max_batch_size=4, max_pending_samples=4),
        )

        async def scenario():
            first = asyncio.ensure_future(batcher.submit("m", _features(rng, 3)))
            await asyncio.sleep(0)  # let it enqueue
            with pytest.raises(OverloadedError):
                await batcher.submit("m", _features(rng, 2))
            await asyncio.wait_for(first, timeout=5.0)
            # The flush released the admission budget.
            result, _ = await asyncio.wait_for(
                batcher.submit("m", _features(rng, 2)), timeout=5.0
            )
            return result

        result = asyncio.run(scenario())
        assert result.num_samples == 2

    def test_accepted_bits_unchanged_by_shedding(self, registry, rng):
        """Requests accepted alongside shed ones return bit-exact answers."""
        engine = registry.get("m").engine
        batcher = MicroBatcher(
            registry,
            config=BatcherConfig(max_batch_size=64, max_pending_samples=6),
        )
        accepted = _features(rng, 4)

        async def scenario():
            task = asyncio.ensure_future(batcher.submit("m", accepted))
            await asyncio.sleep(0)
            with pytest.raises(OverloadedError):
                await batcher.submit("m", _features(rng, 5))
            return await asyncio.wait_for(task, timeout=5.0)

        result, _ = asyncio.run(scenario())
        expected = engine.run(accepted)
        assert np.array_equal(result.projection_raws, expected.projection_raws)
        assert np.array_equal(result.labels, expected.labels)

    def test_zero_bound_is_unbounded(self, registry, rng):
        batcher = MicroBatcher(registry, config=BatcherConfig(max_batch_size=512))

        async def scenario():
            result, _ = await asyncio.wait_for(
                batcher.submit("m", _features(rng, 200)), timeout=5.0
            )
            return result

        assert asyncio.run(scenario()).num_samples == 200

    def test_negative_bound_rejected(self):
        from repro.errors import ServeError

        with pytest.raises(ServeError):
            BatcherConfig(max_pending_samples=-1)


class TestDeadlines:
    def test_expired_deadline_rejects_at_flush(self, registry, rng):
        batcher = MicroBatcher(registry, config=BatcherConfig(max_batch_size=1024))

        async def scenario():
            submitted = asyncio.ensure_future(
                batcher.submit("m", _features(rng, 1), deadline_ms=1)
            )
            await asyncio.sleep(0)  # enqueue; the flush is due next turn
            time.sleep(0.005)  # hold the loop past the 1 ms deadline
            with pytest.raises(DeadlineExceededError):
                await submitted

        asyncio.run(scenario())

    def test_generous_deadline_is_served(self, registry, rng):
        batcher = MicroBatcher(registry, config=BatcherConfig(max_batch_size=1024))

        async def scenario():
            result, _ = await asyncio.wait_for(
                batcher.submit("m", _features(rng, 2), deadline_ms=60000),
                timeout=5.0,
            )
            return result

        assert asyncio.run(scenario()).num_samples == 2

    def test_expired_item_does_not_poison_batch_mates(self, registry, rng):
        """One expired deadline in a batch: the others still get answers."""
        engine = registry.get("m").engine
        live_features = _features(rng, 2)
        batcher = MicroBatcher(registry, config=BatcherConfig(max_batch_size=1024))

        async def scenario():
            doomed = asyncio.ensure_future(
                batcher.submit("m", _features(rng, 1), deadline_ms=1)
            )
            survivor = asyncio.ensure_future(batcher.submit("m", live_features))
            await asyncio.sleep(0)  # both enqueue into one pending batch
            time.sleep(0.005)  # hold the loop past the 1 ms deadline
            with pytest.raises(DeadlineExceededError):
                await doomed
            return await asyncio.wait_for(survivor, timeout=5.0)

        result, _ = asyncio.run(scenario())
        expected = engine.run(live_features)
        assert np.array_equal(result.labels, expected.labels)
        assert batcher.load == 0


class TestServerSheds:
    @pytest.fixture
    def tight_server(self, registry):
        handle = start_server_thread(
            registry,
            ServeConfig(
                port=0,
                batcher=BatcherConfig(max_batch_size=1024, max_pending_samples=4),
            ),
        )
        yield handle
        handle.stop()

    def test_http_503_shed_shape(self, tight_server):
        body = json.dumps(
            {"model": "m", "features": [[0.5, 0.25, 1.0]] * 5}
        ).encode()
        request = urllib.request.Request(
            tight_server.url + "/predict",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 503
        payload = json.loads(excinfo.value.read())
        assert payload["shed"] is True
        assert payload["reason"] == "overloaded"

        status, text = 0, ""
        with urllib.request.urlopen(
            tight_server.url + "/metrics", timeout=10
        ) as response:
            status, text = response.status, response.read().decode()
        assert status == 200
        assert "repro_serve_requests_shed_total 1" in text
        assert 'repro_serve_requests_shed_reason_total{reason="overloaded"} 1' in text

    def test_wire_503_shed_frame(self, tight_server):
        with wire.WireClient("127.0.0.1", tight_server.server.port) as client:
            reply = client.request(
                np.tile([0.5, 0.25, 1.0], (5, 1)), model="m"
            )
            assert isinstance(reply, wire.WireError)
            assert reply.status == 503
            assert reply.shed is True
            # The connection survives a shed: a small request still answers.
            again = client.request([[0.5, 0.25, 1.0]], model="m")
            assert isinstance(again, wire.WireResponse)

    def test_deadline_503_reason(self, registry):
        body = json.dumps(
            {"model": "m", "features": [0.5, 0.25, 1.0], "deadline_ms": 1}
        ).encode()
        metrics = ServeMetrics()
        server = InferenceServer(registry, metrics=metrics)

        async def scenario():
            posted = asyncio.ensure_future(server._post("/predict", body))
            await asyncio.sleep(0)  # enqueue; the flush is due next turn
            time.sleep(0.005)  # hold the loop past the 1 ms deadline
            return await asyncio.wait_for(posted, timeout=5.0)

        status, _, text = asyncio.run(scenario())
        assert status == 503
        payload = json.loads(text)
        assert payload["shed"] is True
        assert payload["reason"] == "deadline"
        assert metrics.to_dict()["requests_shed_total"] == 1

    def test_accepted_requests_still_bit_exact(self, tight_server, registry, rng):
        features = _features(rng, 3)
        expected = BatchInferenceEngine(
            registry.get("m").classifier
        ).run(features)
        body = json.dumps(
            {"model": "m", "features": [[float(v) for v in r] for r in features]}
        ).encode()
        request = urllib.request.Request(
            tight_server.url + "/predict",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read())
        assert payload["labels"] == [int(v) for v in expected.labels]


class TestGracefulShutdown:
    def test_close_drains_pending_work(self, registry, rng):
        """A request in flight when close() starts still gets its answer."""
        engine = registry.get("m").engine
        features = _features(rng, 2)
        metrics = ServeMetrics()

        async def scenario():
            server = InferenceServer(
                registry,
                ServeConfig(port=0, batcher=BatcherConfig(max_batch_size=1024)),
                metrics=metrics,
            )
            await server.start()
            try:
                submitted = asyncio.ensure_future(
                    server.batcher.submit("m", features)
                )
                await asyncio.sleep(0)  # enqueue before the drain begins
            finally:
                await server.close()
            result, _ = await asyncio.wait_for(submitted, timeout=5.0)
            return result

        result = asyncio.run(scenario())
        expected = engine.run(features)
        assert np.array_equal(result.labels, expected.labels)
        assert metrics.to_dict()["batches_total"] == 1
