"""``repro.serve.cluster`` — the pre-fork, shared-nothing serving plane.

One Python process cannot saturate a multi-core host: the GIL serializes
request handling and even the native kernel runs one batch at a time.  The
cluster turns the single-process :class:`~repro.serve.server.InferenceServer`
into N independent worker processes that share nothing but listening
sockets:

- **Workers** are spawned (``multiprocessing`` spawn context — no
  inherited locks, a clean interpreter per worker) and each runs the
  ordinary server stack: registry → micro-batcher → bit-exact engine.
  Identical code, identical bits — the cluster-vs-single-process oracle
  holds by construction and is still enforced by ``repro fuzz``.
- **``SO_REUSEPORT``** lets every worker of a shard bind the *same*
  host:port; the kernel load-balances incoming connections across them.
  The supervisor holds one bound-but-not-listening reservation socket per
  shard, which pins ephemeral ports without stealing connections
  (only listening sockets receive them).
- **Shards** partition the model set by registry content hash:
  ``shard_of(hash, shards)`` routes every model to exactly one shard,
  each shard listens on its own port, and each of its workers loads only
  that shard's artifacts.  The hash → shard map is surfaced on the
  supervisor's ``/healthz`` so clients route deterministically.
- **The supervisor** watches worker processes (restart-on-crash up to
  ``max_restarts`` per slot), runs a small control-plane HTTP server with
  ``/healthz`` (topology + liveness) and aggregate ``/metrics`` +
  ``/metrics.json`` (per-worker ``repro.serve-metrics/v3`` snapshots
  scraped over private admin ports and folded with
  :func:`~repro.serve.metrics.merge_snapshots`), and on ``stop()`` sends
  SIGTERM so every worker drains its batcher before exiting.

Each worker also binds a private **admin port** (plain HTTP, ephemeral,
reported to the supervisor at ready time).  That is how per-worker metrics
stay observable even though the kernel decides which worker answers any
given connection on the shared data port.

Overload behaviour is per worker: each worker's batcher enforces
``max_pending_samples`` and sheds with structured 503s (see
:mod:`repro.serve.batcher`), so a saturated cluster degrades by rejecting
cleanly at the door, never by queueing into latency collapse and never by
answering with different bits.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import signal
import socket
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, List, Optional, Tuple

from .._version import __version__
from ..errors import ServeError
from .batcher import BatcherConfig
from .metrics import ServeMetrics, merge_snapshots, render_prometheus_snapshot
from .registry import ModelRegistry
from .server import InferenceServer, ServeConfig

__all__ = [
    "ClusterConfig",
    "ClusterSupervisor",
    "WorkerState",
    "shard_of",
    "shard_for_session",
]

_READY_TIMEOUT = 30.0


def shard_of(model_hash: str, num_shards: int) -> int:
    """Deterministic shard index for a registry content hash.

    The hash is the SHA-256 hex digest of the canonical artifact JSON, so
    this routing is a pure function of the deployed bits: every process —
    supervisor, worker, client — computes the same shard for the same
    model without coordination.
    """
    if num_shards < 1:
        raise ServeError(f"num_shards must be >= 1, got {num_shards}")
    try:
        value = int(model_hash, 16)
    except ValueError as exc:
        raise ServeError(f"not a hex content hash: {model_hash!r}") from exc
    return value % num_shards


def shard_for_session(session_key: str, num_shards: int) -> int:
    """Deterministic shard index for a streaming-session key.

    Sessions are stateful (filter registers + window buffer live in one
    worker process), so every chunk of a session must land on the shard
    that opened it.  Clients hash their session key through here and
    connect to that shard's data port; like :func:`shard_of` this is a
    pure function, so client and smoke tooling agree without
    coordination.  Note the *worker* within the shard is then pinned by
    the connection itself — streaming clients keep one persistent wire
    connection, and the kernel's ``SO_REUSEPORT`` balancing is
    per-connection, not per-frame.
    """
    if num_shards < 1:
        raise ServeError(f"num_shards must be >= 1, got {num_shards}")
    if not session_key:
        raise ServeError("session key must be non-empty")
    digest = hashlib.sha256(session_key.encode("utf-8")).hexdigest()
    return int(digest, 16) % num_shards


@dataclass(frozen=True)
class ClusterConfig:
    """Topology and policy of one serving cluster.

    Parameters
    ----------
    artifacts:
        ``(name, path)`` pairs; every artifact is loaded by the supervisor
        once (to learn its content hash for routing) and by each worker of
        its shard.
    workers:
        Worker processes **per shard**.
    shards:
        Model partitions; each shard gets its own shared data port.
    host / port:
        Bind address.  ``port=0`` reserves an ephemeral port per shard;
        a fixed port puts shard ``s`` on ``port + s``.
    control_port:
        The supervisor's control-plane HTTP port (0 = ephemeral).
    batcher:
        Per-worker flush/admission policy (see :class:`BatcherConfig`;
        ``max_pending_samples`` is the load-shedding bound).
    backend / native_cache:
        Forwarded to every worker's engines.
    wire:
        Serve the binary wire protocol on the data ports (on by default).
    max_restarts:
        Crash restarts allowed per worker slot before it is left down.
    health_interval:
        Seconds between supervisor liveness sweeps.
    drain_timeout:
        Seconds a SIGTERM'd worker gets to drain before SIGKILL.
    stream_max_sessions / stream_idle_timeout:
        Per-worker streaming-session policy, forwarded to every worker's
        :class:`~repro.serve.server.ServeConfig` (sessions are worker-local
        state; route a session's chunks over one persistent connection —
        see :func:`shard_for_session`).
    """

    artifacts: Tuple[Tuple[str, str], ...] = ()
    workers: int = 2
    shards: int = 1
    host: str = "127.0.0.1"
    port: int = 0
    control_port: int = 0
    batcher: BatcherConfig = field(default_factory=BatcherConfig)
    backend: str = "auto"
    native_cache: Optional[str] = None
    wire: bool = True
    max_restarts: int = 3
    health_interval: float = 0.5
    drain_timeout: float = 10.0
    stream_max_sessions: int = 64
    stream_idle_timeout: float = 60.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ServeError(f"workers must be >= 1, got {self.workers}")
        if self.shards < 1:
            raise ServeError(f"shards must be >= 1, got {self.shards}")
        if not self.artifacts:
            raise ServeError("a cluster needs at least one artifact to serve")


# --------------------------------------------------------------------- #
# Worker process
# --------------------------------------------------------------------- #
def _worker_main(spec: dict, ready: "multiprocessing.Queue") -> None:
    """Entry point of one worker process (must stay importable: spawn ctx).

    Builds the standard single-process stack — registry, metrics labeled
    with the worker name, batcher, server — binds the shard's shared data
    port with ``SO_REUSEPORT`` plus a private ephemeral admin port, reports
    readiness, and serves until SIGTERM, which triggers the graceful path:
    stop accepting, finish accepted requests, drain the batcher, exit 0.
    """
    import asyncio

    async def _run() -> None:
        registry = ModelRegistry(
            backend=spec["backend"], native_cache=spec["native_cache"]
        )
        for name, path in spec["artifacts"]:
            registry.register_file(name, path)
        metrics = ServeMetrics(worker=spec["worker"])
        batcher_config = BatcherConfig(**spec["batcher"])
        data_server = InferenceServer(
            registry,
            ServeConfig(
                host=spec["host"],
                port=spec["port"],
                batcher=batcher_config,
                reuse_port=True,
                wire=spec["wire"],
                stream_max_sessions=spec["stream_max_sessions"],
                stream_idle_timeout=spec["stream_idle_timeout"],
            ),
            metrics=metrics,
        )
        admin_server = InferenceServer(
            registry,
            ServeConfig(host=spec["host"], port=0, wire=False),
            metrics=metrics,
        )
        # The admin server shares registry and metrics with the data
        # server, so scraping it observes exactly what this worker served.
        await data_server.start()
        await admin_server.start()

        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        loop.add_signal_handler(signal.SIGINT, stop.set)
        ready.put(
            {
                "worker": spec["worker"],
                "shard": spec["shard"],
                "port": data_server.port,
                "admin_port": admin_server.port,
            }
        )
        await stop.wait()
        # Graceful drain: accepted requests finish, the batcher flushes.
        await data_server.close()
        await admin_server.close()

    asyncio.run(_run())


@dataclass
class WorkerState:
    """Supervisor-side view of one worker slot."""

    worker: str
    shard: int
    process: "multiprocessing.process.BaseProcess"
    admin_port: int
    restarts: int = 0
    failed: bool = False

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


# --------------------------------------------------------------------- #
# Supervisor
# --------------------------------------------------------------------- #
class ClusterSupervisor:
    """Spawns, watches, scrapes, and drains the worker fleet."""

    def __init__(self, config: ClusterConfig) -> None:
        self.config = config
        self._ctx = multiprocessing.get_context("spawn")
        self._ready: "multiprocessing.Queue" = self._ctx.Queue()
        self._reservations: "List[socket.socket]" = []
        self._workers: "List[WorkerState]" = []
        self._monitor: "Optional[threading.Thread]" = None
        self._control: "Optional[ThreadingHTTPServer]" = None
        self._control_thread: "Optional[threading.Thread]" = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        #: shard index -> data port (fixed after start()).
        self.shard_ports: "Dict[int, int]" = {}
        #: model name -> (content hash, shard index).
        self.routing: "Dict[str, Tuple[str, int]]" = {}
        self.control_port: "Optional[int]" = None

    # ------------------------------------------------------------------ #
    def _reserve_port(self, port: int) -> int:
        """Bind (without listening) so the port stays ours between restarts.

        A bound-but-not-listening ``SO_REUSEPORT`` socket receives no
        connections, so the reservation never eats a client; it only keeps
        another process from claiming the port while a worker restarts.
        """
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((self.config.host, port))
        self._reservations.append(sock)
        return sock.getsockname()[1]

    def _route_models(self) -> None:
        """Compute the hash → shard map from the artifacts' content hashes."""
        loader = ModelRegistry()
        for name, path in self.config.artifacts:
            loader.register_file(name, path)
        self.routing = {
            name: (model_hash, shard_of(model_hash, self.config.shards))
            for name, model_hash in loader.inventory().items()
        }
        for shard in range(self.config.shards):
            if not any(s == shard for _, s in self.routing.values()):
                # An empty shard is almost always a misconfigured --shards.
                raise ServeError(
                    f"shard {shard} received no models under hash routing; "
                    f"use fewer shards than models or accept uneven routing"
                )

    def _shard_artifacts(self, shard: int) -> "Tuple[Tuple[str, str], ...]":
        return tuple(
            (name, path)
            for name, path in self.config.artifacts
            if self.routing[name][1] == shard
        )

    def _spawn(self, worker: str, shard: int) -> "multiprocessing.process.BaseProcess":
        batcher = self.config.batcher
        spec = {
            "worker": worker,
            "shard": shard,
            "host": self.config.host,
            "port": self.shard_ports[shard],
            "artifacts": self._shard_artifacts(shard),
            "batcher": {
                "max_batch_size": batcher.max_batch_size,
                "max_pending_samples": batcher.max_pending_samples,
            },
            "backend": self.config.backend,
            "native_cache": self.config.native_cache,
            "wire": self.config.wire,
            "stream_max_sessions": self.config.stream_max_sessions,
            "stream_idle_timeout": self.config.stream_idle_timeout,
        }
        process = self._ctx.Process(
            target=_worker_main, args=(spec, self._ready), name=worker, daemon=True
        )
        process.start()
        return process

    def _await_ready(self, worker: str) -> dict:
        deadline = time.monotonic() + _READY_TIMEOUT
        while time.monotonic() < deadline:
            try:
                message = self._ready.get(timeout=0.25)
            except Exception:
                continue
            if message.get("worker") == worker:
                return message
            # A restart raced another worker's ready message; requeue it.
            self._ready.put(message)
        raise ServeError(f"worker {worker} failed to report ready")

    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Route models, reserve ports, spawn the fleet, start the control plane."""
        self._route_models()
        for shard in range(self.config.shards):
            wanted = 0 if self.config.port == 0 else self.config.port + shard
            self.shard_ports[shard] = self._reserve_port(wanted)
        for shard in range(self.config.shards):
            for index in range(self.config.workers):
                name = f"s{shard}.w{index}"
                process = self._spawn(name, shard)
                info = self._await_ready(name)
                self._workers.append(
                    WorkerState(
                        worker=name,
                        shard=shard,
                        process=process,
                        admin_port=info["admin_port"],
                    )
                )
        self._start_control_plane()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="repro-cluster-monitor", daemon=True
        )
        self._monitor.start()

    def _monitor_loop(self) -> None:
        while not self._stopping.wait(self.config.health_interval):
            with self._lock:
                slots = list(self._workers)
            for state in slots:
                if self._stopping.is_set():
                    return
                if state.alive or state.failed:
                    continue
                if state.restarts >= self.config.max_restarts:
                    state.failed = True
                    continue
                # Crash restart: same name, same shard, same shared port.
                state.restarts += 1
                try:
                    state.process = self._spawn(state.worker, state.shard)
                    info = self._await_ready(state.worker)
                    state.admin_port = info["admin_port"]
                except ServeError:
                    state.failed = state.restarts >= self.config.max_restarts

    # ------------------------------------------------------------------ #
    # Control plane
    # ------------------------------------------------------------------ #
    def _scrape_worker(self, state: WorkerState) -> "Optional[dict]":
        url = f"http://{self.config.host}:{state.admin_port}/metrics.json"
        try:
            with urllib.request.urlopen(url, timeout=2.0) as response:
                return json.loads(response.read().decode("utf-8"))
        except (urllib.error.URLError, OSError, ValueError):
            return None

    def snapshots(self) -> "Dict[str, dict]":
        """Live per-worker metrics snapshots (dead workers omitted)."""
        out = {}
        with self._lock:
            slots = list(self._workers)
        for state in slots:
            if not state.alive:
                continue
            snap = self._scrape_worker(state)
            if snap is not None:
                out[state.worker] = snap
        return out

    def healthz(self) -> dict:
        """Topology + liveness view served on the control plane."""
        with self._lock:
            workers = [
                {
                    "worker": state.worker,
                    "shard": state.shard,
                    "pid": state.process.pid,
                    "alive": state.alive,
                    "restarts": state.restarts,
                    "failed": state.failed,
                    "admin_port": state.admin_port,
                }
                for state in self._workers
            ]
        alive = sum(1 for w in workers if w["alive"])
        return {
            "status": "ok" if alive else "down",
            "version": __version__,
            "workers": workers,
            "shard_ports": {str(s): p for s, p in self.shard_ports.items()},
            "models": {
                name: {"content_hash": h, "shard": s}
                for name, (h, s) in sorted(self.routing.items())
            },
            "hash_to_shard": {
                h: s for _, (h, s) in sorted(self.routing.items())
            },
        }

    def _start_control_plane(self) -> None:
        supervisor = self

        class _Handler(BaseHTTPRequestHandler):
            def log_message(self, *args: object) -> None:  # silence stderr
                pass

            def _send(self, status: int, content_type: str, body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
                if self.path == "/healthz":
                    body = json.dumps(supervisor.healthz()).encode("utf-8")
                    self._send(200, "application/json", body)
                elif self.path == "/metrics":
                    merged = merge_snapshots(list(supervisor.snapshots().values()))
                    body = render_prometheus_snapshot(merged).encode("utf-8")
                    self._send(200, "text/plain; version=0.0.4", body)
                elif self.path == "/metrics.json":
                    snaps = supervisor.snapshots()
                    payload = {
                        "schema": "repro.serve-cluster-metrics/v1",
                        "aggregate": merge_snapshots(list(snaps.values())),
                        "workers": snaps,
                    }
                    body = json.dumps(payload).encode("utf-8")
                    self._send(200, "application/json", body)
                else:
                    self._send(
                        404,
                        "application/json",
                        json.dumps({"error": f"no route {self.path}"}).encode(),
                    )

        self._control = ThreadingHTTPServer(
            (self.config.host, self.config.control_port), _Handler
        )
        self.control_port = self._control.server_address[1]
        self._control_thread = threading.Thread(
            target=self._control.serve_forever,
            name="repro-cluster-control",
            daemon=True,
        )
        self._control_thread.start()

    # ------------------------------------------------------------------ #
    def stop(self) -> None:
        """Graceful teardown: SIGTERM the fleet, wait for drains, clean up."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=self.config.health_interval * 4)
        with self._lock:
            slots = list(self._workers)
        for state in slots:
            if state.alive:
                state.process.terminate()  # SIGTERM -> graceful drain
        deadline = time.monotonic() + self.config.drain_timeout
        for state in slots:
            remaining = max(0.1, deadline - time.monotonic())
            state.process.join(timeout=remaining)
            if state.alive:
                state.process.kill()
                state.process.join(timeout=2.0)
        if self._control is not None:
            self._control.shutdown()
            self._control.server_close()
            if self._control_thread is not None:
                self._control_thread.join(timeout=2.0)
            self._control = None
        for sock in self._reservations:
            try:
                sock.close()
            except OSError:
                pass
        self._reservations.clear()

    def __enter__(self) -> "ClusterSupervisor":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
