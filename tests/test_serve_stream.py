"""Session-lifecycle tests for the streaming serving plane.

The streaming contract under test (see docs/streaming.md):

- chunks are strictly ordered per session — a gap or reorder is a 409
  that leaves filter state untouched;
- sessions are **pinned** to the model bits they opened on — a hot reload
  mid-session never changes a stream in flight;
- the session registry is bounded (structured 503 shed beyond the cap)
  and evicts idle sessions on a deadline;
- interleaved sessions are perfectly isolated: each one's windows are
  bit-identical to :func:`repro.serve.stream.run_offline` on its own
  waveform alone;
- both transports (HTTP ``/stream/*`` and ``repro.serve-wire/v2``
  frames) expose the same bits.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.conformance.strategies import random_classifier
from repro.core.serialize import save_classifier
from repro.errors import (
    CertificationError,
    InputValidationError,
    OverloadedError,
    ServeError,
    StreamSessionError,
)
from repro.serve import (
    BatcherConfig,
    ModelRegistry,
    ServeConfig,
    StreamManager,
    StreamSession,
    WireClient,
    start_server_thread,
)
from repro.serve.stream import FrontEndConfig, run_offline
from repro.serve.wire import (
    StreamClosed,
    StreamOpened,
    StreamResult,
    WireError,
)


def make_registry(seed: int = 7) -> ModelRegistry:
    registry = ModelRegistry()
    rng = np.random.default_rng(seed)
    registry.register("ecg", random_classifier(rng, 3, 5, 8))
    return registry


def waveform(n: int = 600, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, size=n)


SMALL = FrontEndConfig(window_size=50, hop=50, num_taps=7)


# --------------------------------------------------------------------- #
# FrontEndConfig
# --------------------------------------------------------------------- #
class TestFrontEndConfig:
    def test_roundtrip(self):
        config = FrontEndConfig(sample_rate=360.0, window_size=90, hop=45)
        assert FrontEndConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sample_rate": 0.0},
            {"num_taps": 4},
            {"num_taps": 1},
            {"band": (40.0, 1.0)},
            {"band": (0.0, 40.0)},
            {"band": (1.0, 130.0)},  # above Nyquist at 250 Hz
            {"guard_bits": -1},
            {"window_size": 39},
            {"hop": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(InputValidationError):
            FrontEndConfig(**kwargs)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(InputValidationError):
            FrontEndConfig.from_dict({"window": 200})

    def test_from_dict_rejects_non_numeric(self):
        with pytest.raises(InputValidationError):
            FrontEndConfig.from_dict({"window_size": "big"})


# --------------------------------------------------------------------- #
# Session semantics
# --------------------------------------------------------------------- #
class TestStreamSession:
    def test_chunked_equals_offline(self):
        registry = make_registry()
        model = registry.get("ecg")
        samples = waveform(500)
        offline = run_offline(model, SMALL, samples)
        session = StreamSession("s", model, SMALL)
        got_features, got_indices = [], []
        for seq, start in enumerate(range(0, samples.size, 37)):
            features, indices = session.process_chunk(
                seq, samples[start : start + 37]
            )
            if len(indices):
                got_features.append(features)
                got_indices.extend(indices)
        assert got_indices == list(range(offline["num_windows"]))
        assert np.array_equal(
            np.concatenate(got_features), offline["features"]
        )
        result = model.engine.run(np.concatenate(got_features))
        assert np.array_equal(
            np.asarray(result.labels), np.asarray(offline["labels"])
        )
        assert np.array_equal(
            np.asarray(result.projection_raws),
            np.asarray(offline["projection_raws"]),
        )

    def test_reordered_chunk_rejected_state_untouched(self):
        registry = make_registry()
        session = StreamSession("s", registry.get("ecg"), SMALL)
        session.process_chunk(0, waveform(30))
        before = (session.next_seq, session.chunks, session.samples)
        with pytest.raises(StreamSessionError):
            session.process_chunk(2, waveform(30))  # gap
        with pytest.raises(StreamSessionError):
            session.process_chunk(0, waveform(30))  # replay
        assert (session.next_seq, session.chunks, session.samples) == before
        # the in-order chunk still works after the rejections
        session.process_chunk(1, waveform(30))

    def test_bad_chunk_payload(self):
        registry = make_registry()
        session = StreamSession("s", registry.get("ecg"), SMALL)
        with pytest.raises(InputValidationError):
            session.process_chunk(0, np.zeros((2, 5)))
        with pytest.raises(InputValidationError):
            session.process_chunk(0, np.zeros(0))

    def test_wrong_feature_width_model_refused(self):
        registry = ModelRegistry()
        rng = np.random.default_rng(1)
        registry.register("narrow", random_classifier(rng, 3, 5, 3))
        with pytest.raises(ServeError):
            StreamSession("s", registry.get("narrow"), SMALL)

    def test_bit_pinning_across_hot_reload(self, tmp_path):
        rng = np.random.default_rng(3)
        original = random_classifier(rng, 3, 5, 8)
        replacement = random_classifier(rng, 3, 5, 8)
        path = str(tmp_path / "m.json")
        save_classifier(original, path)
        registry = ModelRegistry()
        registry.register_file("m", path)
        model = registry.get("m")
        samples = waveform(400, seed=5)
        want = run_offline(model, SMALL, samples)

        session = StreamSession("s", model, SMALL)
        half = samples.size // 2
        features_a, _ = session.process_chunk(0, samples[:half])

        # Hot reload swaps the registry entry to different bits ...
        save_classifier(replacement, path)
        assert registry.reload("m") is True
        assert registry.get("m").content_hash != model.content_hash

        # ... but the open session keeps serving the pinned hash.
        features_b, _ = session.process_chunk(1, samples[half:])
        assert session.model.content_hash == model.content_hash
        features = np.concatenate([features_a, features_b])
        assert np.array_equal(features, want["features"])
        result = session.model.engine.run(features)
        assert np.array_equal(
            np.asarray(result.labels), np.asarray(want["labels"])
        )


# --------------------------------------------------------------------- #
# Manager: bounds, eviction, isolation
# --------------------------------------------------------------------- #
class TestStreamManager:
    def test_session_cap_sheds(self):
        registry = make_registry()
        model = registry.get("ecg")
        manager = StreamManager(max_sessions=2)
        manager.open("a", model, SMALL)
        manager.open("b", model, SMALL)
        with pytest.raises(OverloadedError):
            manager.open("c", model, SMALL)
        manager.close("a")
        manager.open("c", model, SMALL)  # freed capacity is reusable

    def test_duplicate_key_rejected(self):
        registry = make_registry()
        manager = StreamManager()
        manager.open("a", registry.get("ecg"), SMALL)
        with pytest.raises(StreamSessionError):
            manager.open("a", registry.get("ecg"), SMALL)

    def test_idle_eviction_with_injected_clock(self):
        registry = make_registry()
        model = registry.get("ecg")
        now = [0.0]
        manager = StreamManager(idle_timeout=10.0, clock=lambda: now[0])
        session = manager.open("a", model, SMALL)
        now[0] = 9.0
        assert manager.get("a") is session  # still within the deadline
        now[0] = 25.0
        with pytest.raises(StreamSessionError):
            manager.get("a")  # evicted lazily on lookup
        assert session.closed
        assert manager.active == 0
        # the key is reusable after eviction
        manager.open("a", model, SMALL)

    def test_activity_defers_eviction(self):
        registry = make_registry()
        now = [0.0]
        manager = StreamManager(idle_timeout=10.0, clock=lambda: now[0])
        session = manager.open("a", registry.get("ecg"), SMALL)
        for step in (8.0, 16.0, 24.0):
            now[0] = step
            manager.get("a").process_chunk(session.next_seq, waveform(10))
        now[0] = 33.0
        assert manager.get("a") is session  # chunk at t=24 reset the clock

    def test_zero_timeout_disables_eviction(self):
        registry = make_registry()
        now = [0.0]
        manager = StreamManager(idle_timeout=0.0, clock=lambda: now[0])
        manager.open("a", registry.get("ecg"), SMALL)
        now[0] = 1e9
        manager.get("a")

    def test_close_unknown_session(self):
        with pytest.raises(StreamSessionError):
            StreamManager().close("ghost")

    def test_interleaved_sessions_are_isolated(self):
        registry = make_registry()
        model = registry.get("ecg")
        manager = StreamManager()
        waves = {k: waveform(400, seed=i) for i, k in enumerate("ab")}
        sessions = {k: manager.open(k, model, SMALL) for k in waves}
        collected = {k: [] for k in waves}
        # strict alternation: a0 b0 a1 b1 ...
        for seq, start in enumerate(range(0, 400, 23)):
            for k in waves:
                features, indices = sessions[k].process_chunk(
                    seq, waves[k][start : start + 23]
                )
                if len(indices):
                    collected[k].append(features)
        for k, wave in waves.items():
            offline = run_offline(model, SMALL, wave)
            assert np.array_equal(
                np.concatenate(collected[k]), offline["features"]
            )

    def test_certification_gate(self):
        registry = make_registry()
        model = registry.get("ecg")  # no certificate at all
        # Default: uncertified models are admitted ...
        StreamManager().open("a", model, SMALL)
        # ... but a require_certified manager refuses them.
        with pytest.raises(CertificationError):
            StreamManager(require_certified=True).open("b", model, SMALL)


# --------------------------------------------------------------------- #
# HTTP transport
# --------------------------------------------------------------------- #
def _post(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=10.0) as response:
        return json.loads(response.read())


def _post_error(url: str, payload: dict) -> "tuple[int, dict]":
    try:
        _post(url, payload)
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())
    raise AssertionError("expected an HTTP error")


@pytest.fixture(scope="module")
def http_server():
    registry = make_registry()
    handle = start_server_thread(
        registry,
        ServeConfig(
            port=0,
            batcher=BatcherConfig(max_delay=0.002),
            stream_max_sessions=2,
        ),
    )
    yield handle, registry
    handle.stop()


class TestHttpStreaming:
    def test_full_session_bit_identical(self, http_server):
        handle, registry = http_server
        base = f"http://127.0.0.1:{handle.port}"
        samples = waveform(400, seed=9)
        offline = run_offline(registry.get("ecg"), SMALL, samples)

        opened = _post(
            f"{base}/stream/open",
            {"session": "h1", "model": "ecg", "config": SMALL.to_dict()},
        )
        assert opened["content_hash"] == registry.get("ecg").content_hash
        labels, raws = [], []
        for seq, start in enumerate(range(0, samples.size, 60)):
            reply = _post(
                f"{base}/stream/chunk",
                {
                    "session": "h1",
                    "seq": seq,
                    "samples": samples[start : start + 60].tolist(),
                },
            )
            labels += [w["label"] for w in reply["windows"]]
            raws += [w["projection_raw"] for w in reply["windows"]]
        closed = _post(f"{base}/stream/close", {"session": "h1"})
        assert labels == [int(v) for v in offline["labels"]]
        assert raws == [int(r) for r in offline["projection_raws"]]
        assert closed["windows"] == offline["num_windows"]
        assert closed["samples"] == samples.size

    def test_reorder_is_409(self, http_server):
        handle, _ = http_server
        base = f"http://127.0.0.1:{handle.port}"
        _post(f"{base}/stream/open", {"session": "h2", "model": "ecg"})
        try:
            status, body = _post_error(
                f"{base}/stream/chunk",
                {"session": "h2", "seq": 5, "samples": [0.0, 1.0]},
            )
            assert status == 409
            assert "seq" in body["error"]
        finally:
            _post(f"{base}/stream/close", {"session": "h2"})

    def test_unknown_session_is_409(self, http_server):
        handle, _ = http_server
        status, _ = _post_error(
            f"http://127.0.0.1:{handle.port}/stream/chunk",
            {"session": "ghost", "seq": 0, "samples": [0.0]},
        )
        assert status == 409

    def test_unknown_model_is_404(self, http_server):
        handle, _ = http_server
        status, _ = _post_error(
            f"http://127.0.0.1:{handle.port}/stream/open",
            {"session": "h3", "model": "nope"},
        )
        assert status == 404

    def test_bad_config_is_400(self, http_server):
        handle, _ = http_server
        status, _ = _post_error(
            f"http://127.0.0.1:{handle.port}/stream/open",
            {"session": "h4", "model": "ecg", "config": {"window_size": 5}},
        )
        assert status == 400

    def test_session_cap_is_structured_503(self, http_server):
        handle, _ = http_server
        base = f"http://127.0.0.1:{handle.port}"
        opened = []
        try:
            for i in range(2):
                _post(
                    f"{base}/stream/open",
                    {"session": f"cap{i}", "model": "ecg"},
                )
                opened.append(f"cap{i}")
            status, body = _post_error(
                f"{base}/stream/open", {"session": "cap2", "model": "ecg"}
            )
            assert status == 503
            assert body["shed"] is True
            assert body["reason"] == "sessions"
        finally:
            for key in opened:
                _post(f"{base}/stream/close", {"session": key})

    @pytest.mark.parametrize("path", ["/stream/open", "/stream/chunk", "/stream/close"])
    def test_undecodable_body_is_counted_400(self, http_server, path):
        handle, _ = http_server
        before = handle.server.metrics.errors_total
        request = urllib.request.Request(
            f"http://127.0.0.1:{handle.port}{path}", data=b"\xff\xfe{", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10.0)
        with excinfo.value as error:
            assert error.code == 400
            assert "error" in json.loads(error.read())
        assert handle.server.metrics.errors_total == before + 1

    def test_metrics_v3_counters_advance(self, http_server):
        handle, _ = http_server
        base = f"http://127.0.0.1:{handle.port}"
        with urllib.request.urlopen(f"{base}/metrics.json", timeout=10.0) as r:
            before = json.loads(r.read())
        _post(f"{base}/stream/open", {"session": "m1", "model": "ecg"})
        _post(
            f"{base}/stream/chunk",
            {"session": "m1", "seq": 0, "samples": [0.0] * 10},
        )
        _post(f"{base}/stream/close", {"session": "m1"})
        with urllib.request.urlopen(f"{base}/metrics.json", timeout=10.0) as r:
            after = json.loads(r.read())
        assert after["schema"] == "repro.serve-metrics/v3"
        assert after["sessions_opened_total"] == before["sessions_opened_total"] + 1
        assert after["sessions_closed_total"] == before["sessions_closed_total"] + 1
        assert after["stream_chunks_total"] == before["stream_chunks_total"] + 1
        assert (
            after["stream_samples_total"] == before["stream_samples_total"] + 10
        )


# --------------------------------------------------------------------- #
# Wire transport
# --------------------------------------------------------------------- #
class TestWireStreaming:
    def test_full_session_bit_identical(self, http_server):
        handle, registry = http_server
        samples = waveform(400, seed=13)
        offline = run_offline(registry.get("ecg"), SMALL, samples)
        with WireClient("127.0.0.1", handle.port) as client:
            opened = client.open_stream(
                "w1", config=SMALL.to_dict(), model="ecg"
            )
            assert isinstance(opened, StreamOpened)
            assert opened.content_hash == registry.get("ecg").content_hash
            labels, raws = [], []
            for seq, start in enumerate(range(0, samples.size, 45)):
                reply = client.send_chunk(
                    "w1", seq, samples[start : start + 45]
                )
                assert isinstance(reply, StreamResult)
                labels += [int(v) for v in reply.labels]
                raws += [int(r) for r in reply.projection_raws]
            closed = client.close_stream("w1")
        assert isinstance(closed, StreamClosed)
        assert labels == [int(v) for v in offline["labels"]]
        assert raws == [int(r) for r in offline["projection_raws"]]
        assert closed.windows == offline["num_windows"]
        assert closed.samples == samples.size

    def test_reorder_is_wire_409(self, http_server):
        handle, _ = http_server
        with WireClient("127.0.0.1", handle.port) as client:
            opened = client.open_stream("w2", model="ecg")
            assert isinstance(opened, StreamOpened)
            reply = client.send_chunk("w2", 7, np.zeros(4))
            assert isinstance(reply, WireError)
            assert reply.status == 409
            client.close_stream("w2")

    def test_unknown_model_is_wire_404(self, http_server):
        handle, _ = http_server
        with WireClient("127.0.0.1", handle.port) as client:
            reply = client.open_stream("w3", model="nope")
        assert isinstance(reply, WireError)
        assert reply.status == 404

    def test_long_non_ascii_error_decodes_and_connection_survives(self, http_server):
        """An error message cut at 1024 bytes still decodes: one of the two
        configs below puts the cut inside a two-byte character."""
        handle, _ = http_server
        with WireClient("127.0.0.1", handle.port) as client:
            for pad in ("", "x"):
                reply = client.open_stream("w4", config={pad + "\u00e9" * 600: 1}, model="ecg")
                assert isinstance(reply, WireError)
                assert reply.status == 400
                assert "\u00e9" * 100 in reply.message
                assert len(reply.message.encode("utf-8")) <= 1024
            assert isinstance(client.open_stream("w4", model="ecg"), StreamOpened)
            assert isinstance(client.close_stream("w4"), StreamClosed)
