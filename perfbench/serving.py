"""Serving workloads: ``repro serve`` in its own process, driven over the wire.

One load-generating process runs one thread per wire connection (two in
all), each a closed loop: the next op is sent only when the previous
answer has arrived and been checked bit for bit.  The server is a
separate ``python -m repro serve`` process with its defaults, so the load
generator never competes with it for the interpreter lock.

``stream_ecg`` pushes 100-sample ECG chunks through keyed sessions; each
connection interleaves four sessions.  ``predict_wire`` sends kind-1
frames of 64 feature vectors.  The traced run replays every op's inputs
in-process through each layer's public function, in the order the server
composes them, and attributes the rest of the client round trip to the
server (socket, event loop, dispatch).
"""

from __future__ import annotations

import http.client
import json
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from common import (
    ROOT,
    WORK,
    BenchError,
    FailLedger,
    Tracer,
    child_env,
    op_summary,
    peak_rss_mb,
    residual_us,
)

from repro.core.classifier import FixedPointLinearClassifier
from repro.core.serialize import save_classifier
from repro.data.ecg import EcgBeatConfig, extract_beat_features, synthesize_beat
from repro.fixedpoint.qformat import QFormat
from repro.serve import ModelRegistry, wire
from repro.serve.stream import FrontEndConfig, build_frontend, run_offline
from repro.signal.stream import WindowStream

MODEL = "ecg"
CONNECTIONS = 2
SESSIONS_PER_CONNECTION = 4
CHUNK = 100
BEATS_PER_RECORDING = 12
ROWS_PER_REQUEST = 64
REQUEST_POOL = 32
SETUP_SPAWNS = 3
FRONTEND = FrontEndConfig()  # 31-tap band-pass FIR, 200-sample windows


# --------------------------------------------------------------------- #
# Inputs (all from the seed)
# --------------------------------------------------------------------- #
def make_classifier(seed: int) -> FixedPointLinearClassifier:
    """A grid-exact Q3.5 classifier over the 8 beat features."""
    fmt = QFormat(3, 5)
    rng = np.random.default_rng([seed, 1])
    raws = rng.integers(fmt.min_raw, fmt.max_raw + 1, size=8)
    return FixedPointLinearClassifier(
        weights=np.array([fmt.to_real(int(r)) for r in raws]),
        threshold=float(fmt.to_real(int(rng.integers(fmt.min_raw, fmt.max_raw + 1)))),
        fmt=fmt,
    )


def make_recordings(seed: int) -> List[List[np.ndarray]]:
    """Per connection, one ECG recording per session slot (normal + PVC beats)."""
    beat = EcgBeatConfig(sample_rate=FRONTEND.sample_rate)
    out = []
    for conn in range(CONNECTIONS):
        slots = []
        for slot in range(SESSIONS_PER_CONNECTION):
            rng = np.random.default_rng([seed, 2, conn, slot])
            slots.append(np.concatenate([
                synthesize_beat(beat, rng, abnormal=bool(rng.random() < 0.3))
                for _ in range(BEATS_PER_RECORDING)
            ]))
        out.append(slots)
    return out


def make_requests(seed: int) -> List[np.ndarray]:
    """Feature batches of real beats (raw waveform features)."""
    beat = EcgBeatConfig()
    rng = np.random.default_rng([seed, 3])
    return [
        np.stack([
            extract_beat_features(synthesize_beat(beat, rng, abnormal=bool(rng.random() < 0.3)), beat)
            for _ in range(ROWS_PER_REQUEST)
        ])
        for _ in range(REQUEST_POOL)
    ]


def windows_after(samples: int) -> int:
    """Windows a session has completed after ``samples`` samples."""
    if samples < FRONTEND.window_size:
        return 0
    return (samples - FRONTEND.window_size) // FRONTEND.hop + 1


# --------------------------------------------------------------------- #
# The server process
# --------------------------------------------------------------------- #
class ServerProcess:
    """``python -m repro serve`` on an ephemeral port, with its defaults."""

    def __init__(self, artifact: str, log_path) -> None:
        self.artifact = artifact
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait for ``/healthz``; returns the seconds that took."""
        started = time.perf_counter()
        log = open(self.log_path, "ab")
        try:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--artifact",
                 f"{MODEL}={self.artifact}", "--port", "0"],
                cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=log,
            )
        finally:
            log.close()
        self._lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        line = ""
        while not line.startswith("serving on http://"):
            try:
                line = self._lines.get(timeout=max(0.0, 60.0 - (time.perf_counter() - started)))
            except queue.Empty:
                line = "<no output>"
            if line in ("<no output>", "<eof>"):
                self.stop()
                raise BenchError(f"repro serve did not start ({line})")
        self.port = int(line.split()[2].rsplit(":", 1)[1])
        while True:
            try:
                self.get_json("/healthz")
                break
            except (OSError, http.client.HTTPException):
                if time.perf_counter() - started > 60.0:
                    self.stop()
                    raise BenchError("repro serve never answered /healthz")
                time.sleep(0.005)
        return time.perf_counter() - started

    def _drain(self) -> None:
        """Read the server's stdout to its end so the pipe never fills."""
        assert self.proc is not None and self.proc.stdout is not None
        for raw in self.proc.stdout:
            self._lines.put(raw.decode("utf-8", "replace").strip())
        self._lines.put("<eof>")

    def get_json(self, path: str) -> dict:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            body = response.read()
        finally:
            conn.close()
        if response.status != 200:
            raise BenchError(f"GET {path} answered {response.status}")
        return json.loads(body)

    def peak_rss_mb(self) -> Optional[float]:
        return None if self.proc is None else peak_rss_mb(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=10)
        self.proc.stdout.close()
        self.proc = None


# --------------------------------------------------------------------- #
# Closed-loop clients
# --------------------------------------------------------------------- #
@dataclass
class Op:
    """One client op as the traced replay needs it."""

    start: float
    end: float
    conn: int
    samples: int = 0  # bit-verified samples the op delivered (0 if it failed)
    key: str = ""
    slot: int = 0
    seq: int = 0
    request: int = 0


@dataclass
class ConnResult:
    ledger: FailLedger = field(default_factory=FailLedger)
    ops: List[Op] = field(default_factory=list)
    error: Optional[str] = None


def _stream_client(port: int, conn: int, recordings, expected, order_seed,
                   deadline: float, out: ConnResult) -> None:
    ledger = out.ledger
    config = FRONTEND.to_dict()
    chunks = recordings[0].size // CHUNK
    # A seeded shuffle of the session order at every step: a fixed order
    # locks the two connections' window-completing chunks in or out of
    # phase for a whole run, and which one happens changes run to run.
    order = np.random.default_rng(order_seed)
    with wire.WireClient("127.0.0.1", port, timeout=60.0) as client:
        round_ = 0
        while time.perf_counter() < deadline:
            keys = [f"c{conn}-s{slot}-r{round_}" for slot in range(SESSIONS_PER_CONNECTION)]
            for key in keys:
                reply = client.open_stream(key, config=config, model=MODEL)
                ledger.record(isinstance(reply, wire.StreamOpened), f"open: {reply!r:.80}")
            for seq in range(chunks):
                if time.perf_counter() >= deadline:
                    break
                for slot in order.permutation(SESSIONS_PER_CONNECTION):
                    key = keys[slot]
                    samples = recordings[slot][seq * CHUNK:(seq + 1) * CHUNK]
                    start = time.perf_counter()
                    reply = client.send_chunk(key, seq, samples)
                    end = time.perf_counter()
                    ok, reason = _check_chunk(reply, seq, expected[slot])
                    ledger.record(ok, reason)
                    out.ops.append(Op(start, end, conn, samples=samples.size if ok else 0,
                                      key=key, slot=int(slot), seq=seq))
            for key in keys:
                reply = client.close_stream(key)
                ledger.record(isinstance(reply, wire.StreamClosed), f"close: {reply!r:.80}")
            round_ += 1


def _check_chunk(reply, seq: int, expected: dict):
    if not isinstance(reply, wire.StreamResult):
        return False, f"chunk: {reply!r:.80}"
    first, last = windows_after(seq * CHUNK), windows_after((seq + 1) * CHUNK)
    if reply.seq != seq or list(reply.window_indices) != list(range(first, last)):
        return False, "chunk: wrong windows"
    if not (np.array_equal(reply.labels, expected["labels"][first:last])
            and np.array_equal(reply.projection_raws, expected["projection_raws"][first:last])):
        return False, "chunk: bits differ from run_offline"
    return True, ""


def _predict_client(port: int, conn: int, requests, expected, deadline: float,
                    out: ConnResult) -> None:
    index = conn
    with wire.WireClient("127.0.0.1", port, timeout=60.0) as client:
        while time.perf_counter() < deadline:
            which = index % len(requests)
            index += CONNECTIONS
            start = time.perf_counter()
            reply = client.request(requests[which], model=MODEL)
            end = time.perf_counter()
            want = expected[which]
            ok = (isinstance(reply, wire.WireResponse)
                  and np.array_equal(reply.labels, want.labels)
                  and np.array_equal(reply.projection_raws, want.projection_raws))
            out.ledger.record(ok, "predict: bits differ from engine.run" if isinstance(
                reply, wire.WireResponse) else f"predict: {reply!r:.80}")
            out.ops.append(Op(start, end, conn, samples=ROWS_PER_REQUEST if ok else 0,
                              request=which))


# --------------------------------------------------------------------- #
# The workload driver
# --------------------------------------------------------------------- #
class ServingWorkload:
    """One serving workload: its seeded inputs, expected answers and server."""

    def __init__(self, name: str, seed: int) -> None:
        if name not in ("stream_ecg", "predict_wire"):
            raise BenchError(f"not a serving workload: {name}")
        self.name = name
        self.seed = seed
        self.workdir = WORK / f"{name}-{seed}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        classifier = make_classifier(seed)
        self.artifact = str(self.workdir / f"{MODEL}.json")
        save_classifier(classifier, self.artifact)
        self.model = ModelRegistry().register(MODEL, classifier)
        if name == "stream_ecg":
            self.recordings = make_recordings(seed)
            self.expected = [
                [run_offline(self.model, FRONTEND, rec) for rec in slots]
                for slots in self.recordings
            ]
        else:
            self.requests = make_requests(seed)
            self.expected = [self.model.engine.run(r) for r in self.requests]
        self.server: Optional[ServerProcess] = None
        self.setup_runs: List[float] = []
        self.backend: Optional[str] = None

    # -- set-up -------------------------------------------------------- #
    def start(self) -> None:
        """Spawn the server several times; keep the last one running."""
        for attempt in range(SETUP_SPAWNS):
            server = ServerProcess(self.artifact, self.workdir / "server.log")
            self.setup_runs.append(server.start())
            if attempt < SETUP_SPAWNS - 1:
                server.stop()
        self.server = server
        health = server.get_json("/healthz")
        described = " ".join(health.get("models", []))
        self.backend = described.split("path=", 1)[1].split(",", 1)[0] if "path=" in described else None

    def stop(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- one timed loop ------------------------------------------------ #
    def run_loop(self, seconds: float) -> dict:
        assert self.server is not None
        before = self.server.get_json("/metrics.json")
        if self.name == "stream_ecg":
            args = [(self.server.port, c, self.recordings[c], self.expected[c],
                     [self.seed, 4, c]) for c in range(CONNECTIONS)]
            target = _stream_client
        else:
            args = [(self.server.port, c, self.requests, self.expected)
                    for c in range(CONNECTIONS)]
            target = _predict_client
        results = [ConnResult() for _ in args]

        def guarded(arg, result, deadline):
            try:
                target(*arg, deadline, result)
            except Exception as exc:  # a dead connection fails the run, loudly
                result.error = f"{type(exc).__name__}: {exc}"

        deadline = time.perf_counter() + seconds
        threads = [threading.Thread(target=guarded, args=(a, r, deadline))
                   for a, r in zip(args, results)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        after = self.server.get_json("/metrics.json")

        ledger = FailLedger()
        ops: List[Op] = []
        for result in results:
            if result.error is not None:
                ledger.record(False, result.error)
            ledger.merge(result.ledger)
            ops += result.ops
        if not ops:
            raise BenchError("no op completed")
        ops.sort(key=lambda op: op.start)
        return {
            "ledger": ledger,
            "ops": ops,
            "summary": op_summary([(op.start, op.end, op.samples) for op in ops]),
            "metrics_before": before,
            "metrics_after": after,
        }

    def end_to_end(self, loop: dict) -> Dict[str, float]:
        summary = loop["summary"]
        return {
            "setup_s": statistics.median(self.setup_runs),
            "samples_per_s": summary["samples_per_s"],
            "mean_ms": summary["mean_ms"],
            "p99_ms": summary["p99_ms"],
            "peak_rss_mb": self.server.peak_rss_mb() if self.server else None,
        }

    # -- traced replay ------------------------------------------------- #
    def replay(self, loop: dict, tracer: Tracer) -> "tuple[Dict[str, float], List[str]]":
        """Replay every op through the layers; returns per-layer values and traffic errors."""
        delta = _metrics_delta(loop["metrics_before"], loop["metrics_after"])
        if self.name == "stream_ecg":
            return self._replay_stream(loop, delta, tracer)
        return self._replay_predict(loop, delta, tracer)

    def _replay_stream(self, loop, delta, tracer):
        engine = self.model.engine
        beat = EcgBeatConfig(sample_rate=FRONTEND.sample_rate)
        sessions: Dict[str, tuple] = {}
        totals = dict(chunks=0, samples=0, windows=0, engine_calls=0, bytes=0)
        roots, submitting = [], []
        for op_id, op in enumerate(loop["ops"]):
            root = tracer.add("serve.server", op.start, op.end, op=op_id)
            roots.append(root)
            if op.key not in sessions:
                fir = build_frontend(self.model, FRONTEND).stream()
                sessions[op.key] = (fir, WindowStream(FRONTEND.window_size, FRONTEND.hop))
            fir, windows = sessions[op.key]
            samples = self.recordings[op.conn][op.slot][op.seq * CHUNK:(op.seq + 1) * CHUNK]
            with tracer.span("serve.wire.encode", root, op_id):
                frame = wire.encode_stream_chunk(op.key, op.seq, samples)
            with tracer.span("serve.wire.decode", root, op_id):
                request, _ = wire.decode_frame(frame)
            with tracer.span("signal.fxfir", root, op_id):
                filtered = fir.process(request.samples)
            with tracer.span("signal.stream", root, op_id):
                completed = windows.process(filtered)
            first = windows_after(op.seq * CHUNK)
            indices = list(range(first, first + len(completed)))
            raws: list = []
            labels: list = []
            if completed:
                with tracer.span("data.ecg", root, op_id):
                    features = np.stack([extract_beat_features(w, beat) for w in completed])
                with tracer.span("serve.engine", root, op_id):
                    result = engine.run(features)
                raws, labels = result.projection_raws, result.labels
                totals["engine_calls"] += 1
                submitting.append(root)
            with tracer.span("serve.wire.encode", root, op_id):
                answer = wire.encode_stream_result(op.seq, indices, raws, labels, 0, 0)
            with tracer.span("serve.wire.decode", root, op_id):
                wire.decode_frame(answer)
            totals["chunks"] += 1
            totals["samples"] += samples.size
            totals["windows"] += len(completed)
            totals["bytes"] += len(frame) + len(answer)
        batches = delta["batches_total"]
        errors = []
        for name, replayed, served in (
            ("chunks", totals["chunks"], delta["stream_chunks_total"]),
            ("samples", totals["samples"], delta["stream_samples_total"]),
            ("windows", totals["windows"], delta["stream_windows_total"]),
        ):
            if replayed != served:
                errors.append(f"replayed {name} {replayed} != server {served}")
        # Each connection has at most one window in flight, so a flush holds
        # between one window and one per connection.
        if not -(-totals["windows"] // CONNECTIONS) <= batches <= totals["windows"]:
            errors.append(f"server batches {batches} impossible for {totals['windows']} windows")
        model = delta["models"].get(MODEL, {})
        hop_s = model.get("batch_latency_s", 0.0) / max(batches, 1)
        return self._layer_values(tracer, roots, submitting, totals, delta, batches,
                                  submits=totals["windows"], server_wait_s=hop_s * totals["windows"],
                                  rows=totals["windows"], errors=errors)

    def _replay_predict(self, loop, delta, tracer):
        engine = self.model.engine
        totals = dict(chunks=0, samples=0, windows=0, engine_calls=0, bytes=0)
        roots = []
        for op_id, op in enumerate(loop["ops"]):
            root = tracer.add("serve.server", op.start, op.end, op=op_id)
            roots.append(root)
            features = self.requests[op.request]
            with tracer.span("serve.wire.encode", root, op_id):
                frame = wire.encode_request(features, model=MODEL)
            with tracer.span("serve.wire.decode", root, op_id):
                request, _ = wire.decode_frame(frame)
            with tracer.span("serve.engine", root, op_id):
                result = engine.run(request.features)
            with tracer.span("serve.wire.encode", root, op_id):
                answer = wire.encode_response(self.model.content_hash, result.projection_raws,
                                              result.labels, result.product_overflow_events,
                                              result.accumulator_overflow_events)
            with tracer.span("serve.wire.decode", root, op_id):
                wire.decode_frame(answer)
            totals["engine_calls"] += 1
            totals["bytes"] += len(frame) + len(answer)
        requests = len(loop["ops"])
        rows = requests * ROWS_PER_REQUEST
        errors = []
        for name, replayed, served in (
            ("requests", requests, delta["requests_total"]),
            ("rows", rows, delta["samples_total"]),
            ("batches", totals["engine_calls"], delta["batches_total"]),
        ):
            if replayed != served:
                errors.append(f"replayed {name} {replayed} != server {served}")
        return self._layer_values(tracer, roots, roots, totals, delta, delta["batches_total"],
                                  submits=requests, server_wait_s=delta["request_latency_s"],
                                  rows=rows, errors=errors)

    def _layer_values(self, tracer, roots, submitting, totals, delta, batches, submits,
                      server_wait_s, rows, errors):
        """Per-layer values; the batcher span is server-side time minus engine time."""
        by_name = _span_seconds(tracer)
        engine_s = by_name.get("serve.engine", 0.0)
        engine_calls = max(totals["engine_calls"], 1)
        # Server-side batcher time per submit, minus the engine's share of it.
        wait_s = server_wait_s - engine_s * submits / engine_calls
        per_submit_wait = wait_s / max(submits, 1)
        ops = len(roots)
        # The wait is derived, not replayed: one span per submitting op.
        for root in submitting:
            start = tracer.spans[root]["end"]
            tracer.add("serve.batcher", start, start + per_submit_wait,
                       parent=root, op=tracer.spans[root]["op"])
        by_name["serve.batcher"] = per_submit_wait * len(submitting)
        round_trip_us = statistics.fmean(
            tracer.spans[r]["end"] - tracer.spans[r]["start"] for r in roots) * 1e6
        residual = residual_us(round_trip_us, {
            name: seconds * 1e6 / len(roots) for name, seconds in by_name.items()})
        if residual < 0:
            errors.append(f"serve.server.residual_us is negative ({residual:.1f})")
        layers = {
            "signal.fxfir.us_per_sample": by_name.get("signal.fxfir", 0.0) * 1e6 / max(totals["samples"], 1),
            "signal.stream.us_per_chunk": by_name.get("signal.stream", 0.0) * 1e6 / max(totals["chunks"], 1),
            "data.ecg.us_per_window": by_name.get("data.ecg", 0.0) * 1e6 / max(totals["windows"], 1),
            "serve.engine.us_per_call": engine_s * 1e6 / engine_calls,
            "serve.engine.rows_per_call": rows / max(batches, 1),
            "serve.batcher.wait_us": per_submit_wait * 1e6,
            "serve.batcher.rows_per_batch": rows / max(batches, 1),
            "serve.batcher.submits_per_batch": submits / max(batches, 1),
            "serve.wire.encode_us": by_name.get("serve.wire.encode", 0.0) * 1e6 / ops,
            "serve.wire.decode_us": by_name.get("serve.wire.decode", 0.0) * 1e6 / ops,
            "serve.wire.bytes_per_op": totals["bytes"] / ops,
            "serve.server.residual_us": residual,
            "serve.server.failed": float(delta["errors_total"] + delta["requests_shed_total"]),
        }
        return layers, errors


def _span_seconds(tracer: Tracer) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for s in tracer.spans:
        if s["parent"] is not None:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"])
    return out


def _metrics_delta(before: dict, after: dict) -> dict:
    """Counter deltas of two ``/metrics.json`` snapshots."""
    keys = ("requests_total", "samples_total", "batches_total", "errors_total",
            "requests_shed_total", "stream_chunks_total", "stream_samples_total",
            "stream_windows_total")
    delta = {key: after[key] - before[key] for key in keys}
    delta["request_latency_s"] = (after["request_latency"]["sum_seconds"]
                                  - before["request_latency"]["sum_seconds"])
    delta["models"] = {}
    for name, model in after["models"].items():
        old = before["models"].get(name, {"batches": 0, "batch_latency": {"sum_seconds": 0.0}})
        delta["models"][name] = {
            "batches": model["batches"] - old["batches"],
            "batch_latency_s": model["batch_latency"]["sum_seconds"] - old["batch_latency"]["sum_seconds"],
        }
    return delta
