"""Streaming-session throughput: concurrent sessions vs the offline pipeline.

Measures the sessionful streaming plane end-to-end over the binary wire
protocol: N concurrent patient streams, each pushing a chunked ECG
recording through its own pinned session, against the sequential offline
pipeline (:func:`repro.serve.stream.run_offline`) processing the same
recordings one after another in-process.

Every streamed window is checked **bit-identical** to the offline
pipeline before it counts — a throughput number with wrong bits is not a
result.  The emission lands in ``results/BENCH_stream.json`` (schema
``repro.bench-stream/v1``), validated by ``.github/scripts/check_bench.py``
in the stream-smoke CI job.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.conformance.strategies import random_classifier
from repro.data.ecg import EcgBeatConfig, synthesize_beat
from repro.serve import (
    BatcherConfig,
    ModelRegistry,
    ServeConfig,
    start_server_thread,
    wire,
)
from repro.serve.stream import FrontEndConfig, run_offline

SCHEMA = "repro.bench-stream/v1"
CHUNK = 100  # samples per pushed chunk (0.4 s of ECG at 250 Hz)


def _recordings(num_sessions: int, beats: int):
    """One synthesized ECG recording per session, distinct morphologies."""
    config = EcgBeatConfig(sample_rate=250.0)
    recordings = []
    for i in range(num_sessions):
        rng = np.random.default_rng(1000 + i)
        recordings.append(
            np.concatenate(
                [
                    synthesize_beat(config, rng, abnormal=(i + b) % 2 == 1)
                    for b in range(beats)
                ]
            )
        )
    return recordings


def _stream_session(port, key, samples, config, expected, wrong):
    """Drive one full session over a persistent wire connection."""
    labels, raws = [], []
    with wire.WireClient("127.0.0.1", port, timeout=30.0) as client:
        opened = client.open_stream(key, config=config.to_dict(), model="ecg")
        if not isinstance(opened, wire.StreamOpened):
            wrong.append(f"{key}: open failed: {opened!r}")
            return
        for seq, start in enumerate(range(0, samples.size, CHUNK)):
            reply = client.send_chunk(key, seq, samples[start : start + CHUNK])
            if not isinstance(reply, wire.StreamResult):
                wrong.append(f"{key}: chunk {seq} failed: {reply!r}")
                return
            labels += [int(v) for v in reply.labels]
            raws += [int(r) for r in reply.projection_raws]
        closed = client.close_stream(key)
        if not isinstance(closed, wire.StreamClosed):
            wrong.append(f"{key}: close failed: {closed!r}")
            return
    if labels != [int(v) for v in expected["labels"]] or raws != [
        int(r) for r in expected["projection_raws"]
    ]:
        wrong.append(f"{key}: streamed bits diverge from run_offline")


def test_stream_throughput(paper_budget, merge_bench):
    num_sessions = 16 if paper_budget else 8
    beats = 40 if paper_budget else 12
    config = FrontEndConfig()  # the ECG demo front end: 31 taps, 200/200

    registry = ModelRegistry()
    rng = np.random.default_rng(3)
    registry.register("ecg", random_classifier(rng, 3, 5, 8))
    model = registry.get("ecg")
    recordings = _recordings(num_sessions, beats)
    total_samples = int(sum(r.size for r in recordings))

    # Phase 1: the sequential offline pipeline, one recording at a time.
    started = time.perf_counter()
    offline = [run_offline(model, config, r) for r in recordings]
    offline_seconds = time.perf_counter() - started
    total_windows = int(sum(o["num_windows"] for o in offline))
    assert total_windows > 0

    # Phase 2: the same recordings as concurrent streaming sessions.
    handle = start_server_thread(
        registry,
        ServeConfig(
            port=0,
            batcher=BatcherConfig(max_batch_size=256),
            stream_max_sessions=num_sessions + 1,
        ),
    )
    wrong: list = []
    try:
        threads = [
            threading.Thread(
                target=_stream_session,
                args=(
                    handle.port, f"patient-{i}", recordings[i], config,
                    offline[i], wrong,
                ),
                daemon=True,
            )
            for i in range(num_sessions)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stream_seconds = time.perf_counter() - started
    finally:
        handle.stop()

    assert wrong == [], wrong

    record = {
        "schema": SCHEMA,
        "concurrent_sessions": {
            "sessions": num_sessions,
            "chunk_samples": CHUNK,
            "total_samples": total_samples,
            "total_windows": total_windows,
            "seconds": stream_seconds,
            "samples_per_second": total_samples / stream_seconds,
            "windows_per_second": total_windows / stream_seconds,
            "bit_identical_to_offline": True,
        },
        "offline_baseline": {
            "recordings": num_sessions,
            "total_samples": total_samples,
            "total_windows": total_windows,
            "seconds": offline_seconds,
            "samples_per_second": total_samples / offline_seconds,
        },
        "front_end": config.to_dict(),
        "model_hash": model.content_hash,
    }
    merge_bench("BENCH_stream.json", record)
    print(
        f"\nstream: {num_sessions} sessions, {total_samples} samples, "
        f"{total_windows} windows | concurrent "
        f"{record['concurrent_sessions']['samples_per_second']:.0f} "
        f"samples/s vs offline "
        f"{record['offline_baseline']['samples_per_second']:.0f} samples/s"
    )
