"""Tests for the pre-fork cluster supervisor.

Pure-function and config tests run everywhere; the end-to-end class boots
one real two-worker cluster (spawn context, SO_REUSEPORT) and drives it
through the full life cycle: bit-identity against a single-process engine
over both wire and HTTP, control-plane scraping, crash restart, and
graceful stop.  One cluster fixture serves all of those assertions to keep
the spawn cost paid once.
"""

from __future__ import annotations

import json
import os
import signal
import time
import urllib.request

import numpy as np
import pytest

from repro.core.classifier import FixedPointLinearClassifier
from repro.core.serialize import save_classifier
from repro.errors import ServeError
from repro.fixedpoint.qformat import QFormat
from repro.serve import (
    BatcherConfig,
    ClusterConfig,
    ClusterSupervisor,
    shard_of,
    wire,
)
from repro.serve.engine import BatchInferenceEngine


class TestShardOf:
    def test_deterministic_and_in_range(self):
        digest = "deadbeef" * 8
        assert shard_of(digest, 1) == 0
        assert shard_of(digest, 4) == shard_of(digest, 4)
        for shards in (1, 2, 3, 7):
            assert 0 <= shard_of(digest, shards) < shards

    def test_matches_modular_arithmetic(self):
        digest = "0f" * 32
        assert shard_of(digest, 5) == int(digest, 16) % 5

    def test_invalid_inputs(self):
        with pytest.raises(ServeError):
            shard_of("deadbeef", 0)
        with pytest.raises(ServeError):
            shard_of("not-hex!", 2)


class TestClusterConfig:
    def test_requires_artifacts(self):
        with pytest.raises(ServeError):
            ClusterConfig(artifacts=())

    def test_requires_positive_workers_and_shards(self):
        with pytest.raises(ServeError):
            ClusterConfig(artifacts=(("m", "x.json"),), workers=0)
        with pytest.raises(ServeError):
            ClusterConfig(artifacts=(("m", "x.json"),), shards=0)


class TestRouting:
    def test_empty_shard_is_rejected(self, tmp_path):
        clf = FixedPointLinearClassifier(
            weights=np.array([0.5]), threshold=0.0, fmt=QFormat(2, 4)
        )
        path = tmp_path / "m.json"
        save_classifier(clf, str(path))
        # One model cannot populate two shards: exactly one shard ends up
        # empty, which start() must refuse rather than serve 404s from.
        supervisor = ClusterSupervisor(
            ClusterConfig(artifacts=(("m", str(path)),), workers=1, shards=2)
        )
        with pytest.raises(ServeError, match="received no models"):
            supervisor.start()
        supervisor.stop()


@pytest.fixture(scope="module")
def cluster(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cluster")
    classifier = FixedPointLinearClassifier(
        weights=np.array([0.5, -0.25, 1.0]), threshold=0.125, fmt=QFormat(2, 4)
    )
    path = tmp_path / "clf.json"
    save_classifier(classifier, str(path))
    config = ClusterConfig(
        artifacts=(("m", str(path)),),
        workers=2,
        shards=1,
        batcher=BatcherConfig(max_batch_size=64),
        health_interval=0.1,
        drain_timeout=10.0,
    )
    supervisor = ClusterSupervisor(config)
    supervisor.start()
    yield supervisor, classifier
    supervisor.stop()


class TestClusterEndToEnd:
    def _data_port(self, supervisor):
        return supervisor.shard_ports[0]

    def test_healthz_topology(self, cluster):
        supervisor, _ = cluster
        health = supervisor.healthz()
        assert health["status"] == "ok"
        assert len(health["workers"]) == 2
        assert all(w["alive"] for w in health["workers"])
        (model_hash, shard) = supervisor.routing["m"]
        assert health["models"]["m"] == {"content_hash": model_hash, "shard": shard}
        assert health["hash_to_shard"][model_hash] == shard

    def test_wire_and_json_bit_identical_to_engine(self, cluster, rng):
        supervisor, classifier = cluster
        port = self._data_port(supervisor)
        features = rng.uniform(-2, 2, size=(12, 3))
        expected = BatchInferenceEngine(classifier).run(features)

        with wire.WireClient("127.0.0.1", port) as client:
            reply = client.request(features, model="m")
        assert isinstance(reply, wire.WireResponse)
        assert list(reply.projection_raws) == [
            int(v) for v in expected.projection_raws
        ]
        assert list(reply.labels) == [int(v) for v in expected.labels]

        request = urllib.request.Request(
            f"http://127.0.0.1:{port}/predict",
            data=json.dumps(
                {"model": "m", "features": [[float(v) for v in r] for r in features]}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            payload = json.loads(response.read())
        assert payload["labels"] == [int(v) for v in expected.labels]
        assert payload["content_hash"] == reply.content_hash

    def test_raw_lane_round_trip(self, cluster, rng):
        supervisor, classifier = cluster
        raws = rng.integers(-40, 40, size=(6, 3), dtype=np.int64)
        expected = BatchInferenceEngine(classifier).run_raw(raws)
        with wire.WireClient("127.0.0.1", self._data_port(supervisor)) as client:
            reply = client.request(raws, raw=True, model="m")
        assert isinstance(reply, wire.WireResponse)
        assert list(reply.labels) == [int(v) for v in expected.labels]

    def test_control_plane_aggregates_metrics(self, cluster):
        supervisor, _ = cluster
        url = f"http://127.0.0.1:{supervisor.control_port}/metrics.json"
        with urllib.request.urlopen(url, timeout=10) as response:
            payload = json.loads(response.read())
        assert payload["schema"] == "repro.serve-cluster-metrics/v1"
        assert payload["aggregate"]["schema"] == "repro.serve-metrics/v3"
        # Both workers must be scrapable regardless of which one the kernel
        # handed the data-port connections to.
        assert set(payload["workers"]) == {"s0.w0", "s0.w1"}
        # Earlier tests in this class pushed requests through the fleet.
        assert payload["aggregate"]["requests_total"] >= 1

        with urllib.request.urlopen(
            f"http://127.0.0.1:{supervisor.control_port}/metrics", timeout=10
        ) as response:
            text = response.read().decode()
        assert "repro_serve_requests_total" in text

    def test_killed_worker_is_restarted_and_port_still_serves(self, cluster):
        supervisor, classifier = cluster
        victim = supervisor._workers[0]
        old_pid = victim.process.pid
        os.kill(old_pid, signal.SIGKILL)
        deadline = time.monotonic() + 15.0
        while time.monotonic() < deadline:
            if victim.alive and victim.process.pid != old_pid:
                break
            time.sleep(0.1)
        assert victim.alive and victim.process.pid != old_pid
        assert victim.restarts >= 1 and not victim.failed

        features = [[0.5, 0.25, 1.0]]
        expected = BatchInferenceEngine(classifier).run(np.asarray(features))
        # The shared port answers throughout — the kernel routes to
        # whichever worker is listening.
        for _ in range(4):
            with wire.WireClient(
                "127.0.0.1", self._data_port(supervisor)
            ) as client:
                reply = client.request(features, model="m")
            assert isinstance(reply, wire.WireResponse)
            assert list(reply.labels) == [int(v) for v in expected.labels]


class TestGracefulStop:
    def test_sigterm_drains_and_workers_exit_zero(self, tmp_path):
        classifier = FixedPointLinearClassifier(
            weights=np.array([0.5, -0.25, 1.0]), threshold=0.125, fmt=QFormat(2, 4)
        )
        path = tmp_path / "clf.json"
        save_classifier(classifier, str(path))
        with ClusterSupervisor(
            ClusterConfig(
                artifacts=(("m", str(path)),),
                workers=1,
                batcher=BatcherConfig(max_batch_size=8),
            )
        ) as supervisor:
            with wire.WireClient(
                "127.0.0.1", supervisor.shard_ports[0]
            ) as client:
                assert isinstance(
                    client.request([[0.5, 0.25, 1.0]], model="m"),
                    wire.WireResponse,
                )
            workers = list(supervisor._workers)
        # Context exit ran stop(): SIGTERM -> drain -> clean exit.
        assert all(not w.alive for w in workers)
        assert all(w.process.exitcode == 0 for w in workers)
