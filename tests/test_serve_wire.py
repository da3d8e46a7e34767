"""Tests for the ``repro.serve-wire/v1`` binary protocol.

Three layers: the codec in isolation (encode/decode round-trips, caps,
malformed-frame rejection — including a hypothesis sweep over mutated
frames), the framing helpers (``split_frames`` over concatenated and
truncated streams), and :class:`WireClient` against a live server on the
same port that answers HTTP (magic-byte dispatch).
"""

from __future__ import annotations

import socket

import numpy as np
import pytest
from hypothesis import given, settings

import repro.conformance.strategies as cst
from repro.core.classifier import FixedPointLinearClassifier
from repro.errors import DataError
from repro.fixedpoint.qformat import QFormat
from repro.serve import (
    BatcherConfig,
    ModelRegistry,
    ServeConfig,
    start_server_thread,
)
from repro.serve.engine import BatchInferenceEngine
from repro.serve import wire


@pytest.fixture(scope="module")
def classifier():
    return FixedPointLinearClassifier(
        weights=np.array([0.5, -0.25, 1.0]), threshold=0.125, fmt=QFormat(2, 4)
    )


@pytest.fixture(scope="module")
def server(classifier):
    registry = ModelRegistry()
    registry.register("primary", classifier)
    handle = start_server_thread(
        registry,
        ServeConfig(port=0, batcher=BatcherConfig(max_batch_size=8)),
    )
    yield handle
    handle.stop()


class TestCodecRoundTrip:
    def test_float_request(self):
        features = np.array([[0.5, -0.25, 1.0], [0.125, 0.0, -2.0]])
        frame = wire.encode_request(features, model="primary", deadline_ms=250)
        decoded, consumed = wire.decode_frame(frame)
        assert consumed == len(frame)
        assert isinstance(decoded, wire.WireRequest)
        assert decoded.raw is False
        assert decoded.model == "primary"
        assert decoded.deadline_ms == 250
        assert decoded.features.dtype == np.float64
        np.testing.assert_array_equal(decoded.features, features)

    def test_raw_request_and_default_model(self):
        raws = np.array([[3, -8, 17]], dtype=np.int64)
        decoded, _ = wire.decode_frame(wire.encode_request(raws, raw=True))
        assert decoded.raw is True
        assert decoded.model is None
        assert decoded.features.dtype == np.int64
        np.testing.assert_array_equal(decoded.features, raws)

    def test_one_dimensional_vector_promoted(self):
        decoded, _ = wire.decode_frame(wire.encode_request([0.5, 0.25]))
        assert decoded.features.shape == (1, 2)

    def test_response(self):
        frame = wire.encode_response(
            "ab" * 32, np.array([7, -3], dtype=np.int64), np.array([1, 0]), 2, 5
        )
        decoded, _ = wire.decode_frame(frame)
        assert isinstance(decoded, wire.WireResponse)
        assert decoded.status == 200
        assert decoded.content_hash == "ab" * 32
        assert list(decoded.projection_raws) == [7, -3]
        assert list(decoded.labels) == [1, 0]
        assert decoded.product_overflow_events == 2
        assert decoded.accumulator_overflow_events == 5

    def test_error(self):
        decoded, _ = wire.decode_frame(
            wire.encode_error(503, "queue full", shed=True)
        )
        assert isinstance(decoded, wire.WireError)
        assert (decoded.status, decoded.message, decoded.shed) == (
            503,
            "queue full",
            True,
        )

    def test_error_message_cut_on_a_character_boundary(self):
        # 1023 ASCII bytes, then a two-byte character across the 1024 cut.
        decoded, _ = wire.decode_frame(wire.encode_error(400, "a" * 1023 + "\u00e9" * 4))
        assert decoded.message == "a" * 1023
        decoded, _ = wire.decode_frame(wire.encode_error(400, "bad key \ud800"))
        assert decoded.message == "bad key ?"

    def test_nan_features_rejected_at_encode(self):
        with pytest.raises(DataError):
            wire.encode_request([0.5, float("nan")])

    def test_oversized_model_key_rejected(self):
        with pytest.raises(DataError):
            wire.encode_request([0.5], model="k" * 300)

    def test_deadline_out_of_range_rejected(self):
        with pytest.raises(DataError):
            wire.encode_request([0.5], deadline_ms=-1)


class TestMalformedFrames:
    def test_truncated_frame(self):
        frame = wire.encode_request([0.5, 0.25])
        with pytest.raises(DataError):
            wire.decode_frame(frame[: len(frame) - 3])

    def test_bad_magic(self):
        frame = bytearray(wire.encode_request([0.5]))
        frame[0] ^= 0xFF
        with pytest.raises(DataError):
            wire.decode_frame(bytes(frame))

    def test_huge_declared_length(self):
        bad = wire.WIRE_MAGIC + (wire.MAX_BODY_BYTES + 1).to_bytes(4, "little")
        with pytest.raises(DataError):
            wire.decode_frame(bad + b"\x00" * 16)

    def test_ragged_sample_count(self):
        frame = bytearray(wire.encode_request([[0.5, 0.25]]))
        # n_samples lives at body offset 10 -> frame offset 18.
        frame[18:22] = (40).to_bytes(4, "little")
        with pytest.raises(DataError):
            wire.decode_frame(bytes(frame))

    def test_unknown_kind(self):
        body = bytes([9]) + b"\x00" * 20
        frame = wire.WIRE_MAGIC + len(body).to_bytes(4, "little") + body
        with pytest.raises(DataError):
            wire.decode_frame(frame)

    def test_deeply_nested_stream_config(self):
        config = b"[" * 40000
        body = bytes([wire.KIND_STREAM_OPEN, 0, 1, 0]) + len(config).to_bytes(4, "little")
        body += b"k" + config
        with pytest.raises(DataError, match="not valid JSON"):
            wire.decode_frame(wire.WIRE_MAGIC + len(body).to_bytes(4, "little") + body)

    @settings(max_examples=60, deadline=None)
    @given(case=cst.wire_frame_mutations())
    def test_mutated_frames_never_crash(self, case):
        """Any mutation either decodes cleanly or raises DataError — never
        a bare struct.error / ValueError / hang."""
        try:
            wire.decode_frame(bytes.fromhex(case["frame_hex"]))
        except DataError:
            pass


class TestSplitFrames:
    def test_concatenated_stream(self):
        a = wire.encode_request([0.5])
        b = wire.encode_error(400, "nope")
        frames, rest = wire.split_frames(a + b + a[:5])
        assert len(frames) == 2
        assert rest == a[:5]
        assert isinstance(frames[0], wire.WireRequest)
        assert isinstance(frames[1], wire.WireError)

    def test_partial_header_is_all_rest(self):
        frames, rest = wire.split_frames(wire.WIRE_MAGIC[:2])
        assert frames == []
        assert rest == wire.WIRE_MAGIC[:2]


class TestWireClientFraming:
    """The client against a scripted peer that controls the byte stream."""

    @staticmethod
    def _reads(payload: bytes, count: int) -> list:
        outcomes = []
        with socket.create_server(("127.0.0.1", 0)) as listener:
            port = listener.getsockname()[1]
            with wire.WireClient("127.0.0.1", port, timeout=2.0) as client:
                peer, _ = listener.accept()
                with peer:
                    peer.sendall(payload)
                    for _ in range(count):
                        try:
                            outcomes.append(client.send_bytes(b""))
                        except DataError as exc:
                            outcomes.append(exc)
        return outcomes

    def test_two_frames_in_one_read_are_both_returned(self):
        first, second = self._reads(
            wire.encode_stream_closed("a", 1, 2, 3) + wire.encode_stream_closed("b", 4, 5, 6),
            2,
        )
        assert (first.key, second.key) == ("a", "b")
        assert (second.chunks, second.samples, second.windows) == (4, 5, 6)

    def test_malformed_frame_is_consumed_before_raising(self):
        bad = wire.WIRE_MAGIC + (3).to_bytes(4, "little") + bytes([200, 0, 0])
        failed, answer = self._reads(bad + wire.encode_error(409, "next"), 2)
        assert isinstance(failed, DataError)
        assert isinstance(answer, wire.WireError)
        assert (answer.status, answer.message) == (409, "next")


class TestWireClientAgainstServer:
    def test_float_lane_bit_identical_to_engine(self, server, classifier, rng):
        features = rng.uniform(-2, 2, size=(16, 3))
        expected = BatchInferenceEngine(classifier).run(features)
        with wire.WireClient("127.0.0.1", server.server.port) as client:
            reply = client.request(features, model="primary")
        assert isinstance(reply, wire.WireResponse)
        assert list(reply.projection_raws) == [int(v) for v in expected.projection_raws]
        assert list(reply.labels) == [int(v) for v in expected.labels]
        assert reply.product_overflow_events == expected.product_overflow_events
        assert reply.accumulator_overflow_events == expected.accumulator_overflow_events

    def test_raw_lane_bit_identical_to_engine(self, server, classifier, rng):
        raws = rng.integers(-40, 40, size=(9, 3), dtype=np.int64)
        expected = BatchInferenceEngine(classifier).run_raw(raws)
        with wire.WireClient("127.0.0.1", server.server.port) as client:
            reply = client.request(raws, raw=True, model="primary")
        assert isinstance(reply, wire.WireResponse)
        assert list(reply.projection_raws) == [int(v) for v in expected.projection_raws]
        assert list(reply.labels) == [int(v) for v in expected.labels]

    def test_persistent_connection_many_requests(self, server):
        with wire.WireClient("127.0.0.1", server.server.port) as client:
            for _ in range(4):
                reply = client.request([[0.5, 0.25, 1.0]], model="primary")
                assert isinstance(reply, wire.WireResponse)

    def test_unknown_model_is_error_frame_connection_survives(self, server):
        with wire.WireClient("127.0.0.1", server.server.port) as client:
            reply = client.request([[0.5, 0.25, 1.0]], model="ghost")
            assert isinstance(reply, wire.WireError)
            assert reply.status == 404
            assert reply.shed is False
            # Frame boundary was sound, so the stream stays usable.
            again = client.request([[0.5, 0.25, 1.0]], model="primary")
            assert isinstance(again, wire.WireResponse)

    def test_http_still_answers_on_the_same_port(self, server):
        import json
        import urllib.request

        request = urllib.request.Request(
            server.url + "/predict",
            data=json.dumps(
                {"model": "primary", "features": [0.5, 0.25, 1.0]}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert response.status == 200
