"""Stdlib-only serving endpoint: HTTP/1.1 plus the binary wire protocol.

A deliberately small server on ``asyncio.start_server`` — no web framework,
no new dependencies — exposing:

- ``POST /predict`` — body ``{"model": <name|sha256:prefix>?, "features":
  [..] | [[..], ..], "deadline_ms": <int>?}``; features go through the
  micro-batcher and the bit-exact engine; the response carries labels,
  real-valued projections, the serving model's name, content hash and
  engine backend, and the batch's overflow event counts.  ``model`` may be
  omitted when exactly one model is registered.
- ``GET /healthz`` — liveness plus the registry inventory.
- ``GET /metrics`` — Prometheus text exposition.
- ``GET /metrics.json`` — the same counters as a versioned
  ``repro.serve-metrics/v3`` JSON snapshot.
- ``POST /stream/open`` / ``/stream/chunk`` / ``/stream/close`` — the
  JSON surface of streaming sessions (:mod:`repro.serve.stream`): open a
  keyed session pinned to a model, push raw waveform chunks in sequence,
  receive the completed windows' classifications per chunk.
- **binary wire connections** — any connection whose first four bytes are
  the ``repro.serve-wire/v2`` magic (:mod:`repro.serve.wire`) speaks the
  length-prefixed frame protocol instead of HTTP; no HTTP method starts
  with those bytes, so one listening port serves both.  Wire connections
  are persistent (many frames per connection) and their payloads decode
  vectorized straight into the batcher with zero per-sample JSON work.
  The same streaming sessions are reachable as stream frames (kinds 4-9).

HTTP connections stay single-request (``Connection: close``): that
protocol surface stays a few dozen lines and trivially auditable, and the
throughput-critical path is the wire protocol anyway.

Both protocols run each operation through one shared core (predict, and
the stream open/chunk/close steps) and map every failure to its status
through one policy, :meth:`InferenceServer._failure`.  Overload produces
*structured* 503s: admission-control rejections
(:class:`~repro.errors.OverloadedError`) and queue-deadline expiries
(:class:`~repro.errors.DeadlineExceededError`) are counted on the
``requests_shed_total`` metric, separate from errors, and shed requests
are never partially served — an accepted request is always answered with
exactly the per-sample datapath's bits.

:func:`start_server_thread` runs the whole stack on a daemon-thread event
loop and returns a handle with the bound port — this is what the tests, the
CI smoke jobs, and the ECG example use to serve and query in one process.
Cluster workers (:mod:`repro.serve.cluster`) run the same server with
``ServeConfig(reuse_port=True)`` so the kernel balances connections across
the worker pool.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .._version import __version__
from ..errors import (
    CertificationError,
    DataError,
    DeadlineExceededError,
    ModelNotFoundError,
    OverloadedError,
    ReproError,
    ServeError,
    StreamSessionError,
)
from . import wire
from .batcher import BatcherConfig, MicroBatcher
from .engine import BatchResult
from .metrics import ServeMetrics
from .registry import ModelRegistry, RegisteredModel
from .stream import FrontEndConfig, StreamManager, StreamSession

__all__ = ["ServeConfig", "InferenceServer", "ServerHandle", "start_server_thread"]

# Statuses of the failures that are neither sheds (503) nor malformed
# requests (400); the first matching class wins.
_ERROR_STATUS = (
    (ModelNotFoundError, 404),
    (StreamSessionError, 409),
    (CertificationError, 403),
)
_POST_PATHS = ("/predict", "/stream/open", "/stream/chunk", "/stream/close")
# The frame kinds a client may send; any other kind closes the connection.
_CLIENT_FRAMES = (wire.WireRequest, wire.StreamOpen, wire.StreamChunk, wire.StreamClose)


@dataclass(frozen=True)
class ServeConfig:
    """Bind address, batching policy, and protocol options of one server.

    ``port=0`` binds an ephemeral port; read the actual one from
    :attr:`InferenceServer.port` after :meth:`InferenceServer.start`.
    ``reuse_port=True`` binds with ``SO_REUSEPORT`` so several worker
    processes can share one port (cluster mode).  ``wire=False`` turns the
    binary protocol off, leaving a pure HTTP endpoint.  ``drain_timeout``
    bounds how long :meth:`InferenceServer.close` waits for open
    connections to finish before dropping idle ones.

    The ``stream_*`` options govern streaming sessions
    (:mod:`repro.serve.stream`): the concurrent-session bound (opens
    beyond it shed with a structured 503, reason ``"sessions"``), the
    idle-eviction timeout in seconds (0 disables eviction), and whether
    entirely uncertified models are refused sessions.
    """

    host: str = "127.0.0.1"
    port: int = 0
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    reuse_port: bool = False
    wire: bool = True
    drain_timeout: float = 5.0
    stream_max_sessions: int = 64
    stream_idle_timeout: float = 60.0
    stream_require_certified: bool = False


def _parse_features(payload: object) -> np.ndarray:
    """Validate and shape the request's feature payload to ``(k, M)``."""
    if not isinstance(payload, list) or not payload:
        raise ServeError("'features' must be a non-empty list")
    rows = payload if isinstance(payload[0], list) else [payload]
    if len(rows) > wire.MAX_SAMPLES_PER_FRAME:
        raise ServeError(
            f"request carries {len(rows)} samples; "
            f"limit is {wire.MAX_SAMPLES_PER_FRAME}"
        )
    try:
        features = np.asarray(rows, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ServeError(f"features are not numeric: {exc}") from exc
    if features.ndim != 2:
        raise ServeError(
            f"features must be one vector or a list of equal-length vectors, "
            f"got shape {features.shape}"
        )
    if not np.all(np.isfinite(features)):
        raise ServeError("features contain NaN or infinity")
    return features


def _parse_deadline(payload: dict) -> int:
    deadline = payload.get("deadline_ms", 0)
    if deadline is None:
        return 0
    if not isinstance(deadline, int) or isinstance(deadline, bool) or deadline < 0:
        raise ServeError(
            f"'deadline_ms' must be a non-negative integer, got {deadline!r}"
        )
    return deadline


def _parse_samples(payload: dict) -> "Tuple[int, np.ndarray]":
    """Validate a ``/stream/chunk`` body's ``seq`` and flat ``samples``."""
    seq = payload.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ServeError(f"'seq' must be a non-negative integer, got {seq!r}")
    samples = payload.get("samples")
    if not isinstance(samples, list) or not samples:
        raise ServeError("'samples' must be a non-empty list")
    try:
        chunk = np.asarray(samples, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ServeError(f"samples are not numeric: {exc}") from exc
    if chunk.ndim != 1:
        raise ServeError(f"'samples' must be a flat list, got shape {chunk.shape}")
    if not np.all(np.isfinite(chunk)):
        raise ServeError("samples contain NaN or infinity")
    return seq, chunk


class InferenceServer:
    """The asyncio server wrapping registry, batcher, metrics, and protocols."""

    def __init__(
        self,
        registry: ModelRegistry,
        config: "ServeConfig | None" = None,
        metrics: "ServeMetrics | None" = None,
    ) -> None:
        self.registry = registry
        self.config = config or ServeConfig()
        self.metrics = metrics or ServeMetrics()
        self.batcher = MicroBatcher(
            registry, config=self.config.batcher, metrics=self.metrics
        )
        self.streams = StreamManager(
            max_sessions=self.config.stream_max_sessions,
            idle_timeout=self.config.stream_idle_timeout,
            require_certified=self.config.stream_require_certified,
            metrics=self.metrics,
        )
        self._server: "Optional[asyncio.AbstractServer]" = None
        self._connections: "set[asyncio.Task]" = set()
        self._closing = False
        self.port: "Optional[int]" = None

    # ------------------------------------------------------------------ #
    async def start(self) -> None:
        """Bind the listening socket and record the actual port."""
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            reuse_port=self.config.reuse_port or None,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def serve_forever(self) -> None:
        """Run until cancelled (starts the socket if needed)."""
        if self._server is None:
            await self.start()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        """Graceful shutdown: stop accepting, finish work, release the socket.

        The drain order matters: close the listener first (no new
        connections), give open connections ``drain_timeout`` seconds to
        finish their accepted requests, cancel whatever is still open
        (idle persistent wire connections waiting for a frame that will
        never come), and only then drain the batcher so every accepted
        request's batch completes.
        """
        self._closing = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._connections:
            done, live = await asyncio.wait(
                list(self._connections), timeout=self.config.drain_timeout
            )
            for task in live:
                task.cancel()
            if live:
                await asyncio.gather(*live, return_exceptions=True)
        await self.batcher.drain()
        self.streams.close_all()

    # ------------------------------------------------------------------ #
    # One core per operation and one error policy, shared by both protocols
    # ------------------------------------------------------------------ #
    def _failure(
        self, exc: Exception, shed_reason: str = "overloaded"
    ) -> "Tuple[int, Optional[str]]":
        """Map a failed request to ``(status, shed reason)`` and count it.

        The error policy of every handler on both protocols (tabled in
        ``docs/serving.md``): an overload or an expired queue deadline is a
        503 shed, counted on ``requests_shed_total`` under its reason;
        every other failure counts on ``errors_total`` and answers with
        its ``_ERROR_STATUS`` entry, else 400, and no reason.
        ``shed_reason`` names the operation's overload source: the session
        cap on open (``"sessions"``) or, by default, batcher admission
        (``"overloaded"``).
        """
        if isinstance(exc, (OverloadedError, DeadlineExceededError)):
            reason = "deadline" if isinstance(exc, DeadlineExceededError) else shed_reason
            self.metrics.observe_shed(reason)
            return 503, reason
        self.metrics.observe_error()
        return next((s for cls, s in _ERROR_STATUS if isinstance(exc, cls)), 400), None

    async def _predict(
        self,
        started: float,
        model_key: "str | None",
        features: np.ndarray,
        raw: bool = False,
        deadline_ms: int = 0,
    ) -> "Tuple[BatchResult, RegisteredModel, float]":
        """Serve one predict request; returns (result, model, latency).

        The batcher returns the model captured at submit time, so the
        reported name/hash always describe the engine that actually
        computed the result, even across hot reloads or unregisters.
        """
        result, model = await self.batcher.submit(
            model_key, features, raw=raw, deadline_ms=deadline_ms
        )
        elapsed = time.perf_counter() - started
        self.metrics.observe_request(
            model.name, result.num_samples, elapsed, content_hash=model.content_hash
        )
        return result, model, elapsed

    def _open(self, key: str, config_payload: dict) -> StreamSession:
        """Resolve model + front-end config and open the session."""
        payload = dict(config_payload)
        model_key = payload.pop("model", None)
        if model_key is not None and not isinstance(model_key, str):
            raise ServeError(
                f"stream config 'model' must be a string, got {model_key!r}"
            )
        model = self.registry.get(model_key)
        config = FrontEndConfig.from_dict(payload)
        return self.streams.open(key, model, config)

    async def _chunk(
        self, key: str, seq: int, samples: np.ndarray
    ) -> "Tuple[StreamSession, List[int], Optional[BatchResult]]":
        """Advance a session by one chunk and classify the windows it completed.

        Returns the session, the completed windows' indices, and their
        batch result — None when the chunk completed no window.
        """
        session = self.streams.get(key)
        features, indices = session.process_chunk(seq, samples)
        self.metrics.observe_stream_chunk(samples.size, len(indices))
        if not indices:
            return session, indices, None
        return session, indices, await self.batcher.submit_model(session.model, features)

    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            try:
                prefix = await reader.readexactly(4)
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if self.config.wire and prefix == wire.WIRE_MAGIC:
                await self._handle_wire_connection(prefix, reader, writer)
            else:
                await self._handle_http_connection(prefix, reader, writer)
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()

    # ------------------------------------------------------------------ #
    # HTTP
    # ------------------------------------------------------------------ #
    async def _handle_http_connection(
        self, prefix: bytes, reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            status, content_type, body = await self._handle_request(prefix, reader)
        except Exception:
            status, content_type, body = 500, "application/json", json.dumps(
                {"error": "internal server error"}
            )
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Server: repro-serve/{__version__}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        try:
            writer.write(head.encode("ascii") + payload)
            await writer.drain()
        except ConnectionError:
            pass

    async def _handle_request(
        self, prefix: bytes, reader: asyncio.StreamReader
    ) -> "Tuple[int, str, str]":
        try:
            request_line = prefix + await reader.readline()
        except (ConnectionError, asyncio.LimitOverrunError):
            return 400, "application/json", json.dumps({"error": "bad request"})
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, "application/json", json.dumps({"error": "bad request line"})
        method, path = parts[0].upper(), parts[1]

        content_length = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, "application/json", json.dumps(
                        {"error": "bad Content-Length"}
                    )
        if content_length > wire.MAX_BODY_BYTES:
            return 413, "application/json", json.dumps({"error": "body too large"})
        body = await reader.readexactly(content_length) if content_length else b""

        if path == "/healthz" and method == "GET":
            return 200, "application/json", json.dumps(
                {
                    "status": "ok",
                    "version": __version__,
                    "worker": self.metrics.worker,
                    "models": [m.describe() for m in self.registry.models()],
                }
            )
        if path == "/metrics" and method == "GET":
            return 200, "text/plain; version=0.0.4", self.metrics.render_prometheus()
        if path == "/metrics.json" and method == "GET":
            return 200, "application/json", self.metrics.to_json()
        if path in _POST_PATHS:
            if method != "POST":
                return 405, "application/json", json.dumps(
                    {"error": f"use POST {path}"}
                )
            return await self._post(path, body)
        return 404, "application/json", json.dumps({"error": f"no route {path}"})

    async def _post(self, path: str, body: bytes) -> "Tuple[int, str, str]":
        """Serve one JSON POST endpoint; any failure answers per :meth:`_failure`.

        ``/predict`` latency is timed from here, before the body is parsed.
        The ``/stream/*`` endpoints share the session registry and signal
        chain with the wire frames, so the two surfaces are
        interchangeable mid-session (a session opened over HTTP can be fed
        over the wire and vice versa).
        """
        started = time.perf_counter()
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
            if not isinstance(payload, dict):
                raise ServeError("request body must be a JSON object")
            if path == "/predict":
                doc = await self._predict_json(payload, started)
            else:
                doc = await self._stream_json(path, payload)
        except (ReproError, ValueError) as exc:
            shed_reason = "sessions" if path == "/stream/open" else "overloaded"
            status, reason = self._failure(exc, shed_reason)
            error: dict = {"error": str(exc)}
            if reason is not None:
                error.update(shed=True, reason=reason)
            return status, "application/json", json.dumps(error)
        return 200, "application/json", json.dumps(doc)

    async def _predict_json(self, payload: dict, started: float) -> dict:
        features = _parse_features(payload.get("features"))
        model_key = payload.get("model")
        deadline_ms = _parse_deadline(payload)
        result, model, elapsed = await self._predict(
            started, model_key, features, deadline_ms=deadline_ms
        )
        resolution = model.classifier.fmt.resolution
        return {
            "model": model.name,
            "content_hash": model.content_hash,
            "backend": model.engine.backend,
            "labels": [int(v) for v in result.labels],
            "projections": [float(int(r) * resolution) for r in result.projection_raws],
            "overflow": {
                "product_events": result.product_overflow_events,
                "accumulator_events": result.accumulator_overflow_events,
            },
            "latency_seconds": elapsed,
        }

    async def _stream_json(self, path: str, payload: dict) -> dict:
        key = payload.get("session")
        if not isinstance(key, str) or not key:
            raise ServeError("'session' must be a non-empty string")
        if len(key.encode("utf-8")) > wire.MAX_SESSION_KEY_BYTES:
            raise ServeError(f"'session' exceeds {wire.MAX_SESSION_KEY_BYTES} bytes")
        if path == "/stream/close":
            return self.streams.close(key).summary()
        if path == "/stream/open":
            config_payload = payload.get("config", {})
            if not isinstance(config_payload, dict):
                raise ServeError("'config' must be a JSON object")
            if "model" in payload:
                config_payload = {**config_payload, "model": payload["model"]}
            session = self._open(key, config_payload)
            return {
                "session": key,
                "model": session.model.name,
                "content_hash": session.model.content_hash,
                "config": session.config.to_dict(),
            }
        seq, chunk = _parse_samples(payload)
        session, indices, result = await self._chunk(key, seq, chunk)
        response: dict = {
            "session": key,
            "seq": seq,
            "windows": [],
            "overflow": {"product_events": 0, "accumulator_events": 0},
        }
        if result is None:
            return response
        resolution = session.model.classifier.fmt.resolution
        response["windows"] = [
            {
                "index": index,
                "label": int(label),
                "projection": float(int(raw) * resolution),
                "projection_raw": int(raw),
            }
            for index, label, raw in zip(indices, result.labels, result.projection_raws)
        ]
        response["overflow"] = {
            "product_events": result.product_overflow_events,
            "accumulator_events": result.accumulator_overflow_events,
        }
        return response

    # ------------------------------------------------------------------ #
    # Binary wire protocol
    # ------------------------------------------------------------------ #
    async def _handle_wire_connection(
        self, header: bytes, reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Serve frames until the peer hangs up or sends garbage.

        ``header`` holds the four magic bytes already read to pick the
        protocol.  Protocol-level malformations (a bad header, an
        undecodable body, a frame kind clients never send) answer with an
        error frame and close — there is no reliable way to resynchronize a
        corrupt length-prefixed stream.  Request-level failures (unknown
        model, shed, wrong feature count) answer with an error frame and
        keep the connection open: the frame boundary was sound, so the
        stream is still in sync.
        """
        try:
            while not self._closing:
                try:
                    # A frame header is 8 bytes: magic + uint32 body length.
                    header += await reader.readexactly(8 - len(header))
                    body = await reader.readexactly(wire.read_header(header))
                    request = wire.decode_body(body)
                    if not isinstance(request, _CLIENT_FRAMES):
                        raise DataError(
                            "only request (kind=1) and stream (kinds 4/6/8) "
                            "frames are accepted"
                        )
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # clean EOF between frames, or the peer vanished
                except DataError as exc:
                    await self._send_frame(writer, self._error_frame(exc))
                    return
                header = b""
                if not await self._send_frame(writer, await self._answer(request)):
                    return
        except asyncio.CancelledError:
            # Shutdown drain cancelled an idle connection; exit quietly.
            pass

    async def _send_frame(
        self, writer: asyncio.StreamWriter, frame: bytes
    ) -> bool:
        try:
            writer.write(frame)
            await writer.drain()
            return True
        except ConnectionError:
            return False

    def _error_frame(self, exc: Exception, shed_reason: str = "overloaded") -> bytes:
        status, reason = self._failure(exc, shed_reason)
        return wire.encode_error(status, str(exc), shed=reason is not None)

    async def _answer(
        self,
        request: "wire.WireRequest | wire.StreamOpen | wire.StreamChunk | wire.StreamClose",
    ) -> bytes:
        """Serve one client frame; every failure becomes an error frame."""
        try:
            if isinstance(request, wire.WireRequest):
                result, model, _ = await self._predict(
                    time.perf_counter(),
                    request.model,
                    request.features,
                    raw=request.raw,
                    deadline_ms=request.deadline_ms,
                )
                return wire.encode_response(
                    model.content_hash,
                    result.projection_raws,
                    result.labels,
                    result.product_overflow_events,
                    result.accumulator_overflow_events,
                )
            if isinstance(request, wire.StreamOpen):
                session = self._open(request.key, request.config)
                return wire.encode_stream_opened(request.key, session.model.content_hash)
            if isinstance(request, wire.StreamChunk):
                _, indices, chunk_result = await self._chunk(
                    request.key, request.seq, request.samples
                )
                if chunk_result is None:
                    return wire.encode_stream_result(request.seq, [], [], [], 0, 0)
                return wire.encode_stream_result(
                    request.seq,
                    indices,
                    chunk_result.projection_raws,
                    chunk_result.labels,
                    chunk_result.product_overflow_events,
                    chunk_result.accumulator_overflow_events,
                )
            session = self.streams.close(request.key)
            return wire.encode_stream_closed(
                request.key, session.chunks, session.samples, session.windows
            )
        except (ReproError, ValueError) as exc:
            shed_reason = "sessions" if isinstance(request, wire.StreamOpen) else "overloaded"
            return self._error_frame(exc, shed_reason)


# Read-only HTTP status-code table: never mutated, safe to share across
# threads and duplicate into spawn workers.
_REASONS = {  # repro: noqa-RPC005
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class ServerHandle:
    """A running server on a daemon-thread event loop.

    Attributes
    ----------
    port:
        The bound TCP port (useful with ``ServeConfig(port=0)``).
    server:
        The underlying :class:`InferenceServer` (registry/metrics access).
    """

    def __init__(
        self, server: InferenceServer, loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread
        self.port = server.port

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.server.config.host}:{self.port}"

    def stop(self, timeout: float = 5.0) -> None:
        """Close the server (graceful drain) and join the event-loop thread."""
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.close(), self._loop)
        future.result(timeout=timeout)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=timeout)


def start_server_thread(
    registry: ModelRegistry,
    config: "ServeConfig | None" = None,
    metrics: "ServeMetrics | None" = None,
    timeout: float = 5.0,
) -> ServerHandle:
    """Start an :class:`InferenceServer` on a background daemon thread.

    Returns once the socket is bound, so :attr:`ServerHandle.port` is ready
    immediately — the in-process path used by tests and the ECG demo.
    """
    server = InferenceServer(registry, config=config, metrics=metrics)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _start() -> None:
            await server.start()
            started.set()

        loop.run_until_complete(_start())
        loop.run_forever()
        # Drain callbacks scheduled between stop() and loop teardown.
        loop.run_until_complete(asyncio.sleep(0))
        loop.close()

    thread = threading.Thread(target=_run, name="repro-serve", daemon=True)
    thread.start()
    if not started.wait(timeout=timeout):
        raise ServeError("server failed to start within the timeout")
    return ServerHandle(server, loop, thread)
