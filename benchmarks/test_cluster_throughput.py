"""Cluster saturation benchmark: N workers vs one process, same bits.

Drives the binary wire protocol from concurrent client threads against

- one single-process :class:`~repro.serve.InferenceServer`, and
- a :class:`~repro.serve.ClusterSupervisor` fleet sized to the host
  (one worker per core, capped at 4),

with every response checked bit-identical to a direct engine run before it
counts.  A third phase saturates a deliberately tiny admission bound and
verifies the overload contract: some requests shed with structured 503s,
zero accepted requests answer with wrong bits.

Results land in the ``single_process`` / ``cluster`` / ``overload``
sections of ``results/BENCH_serve.json`` (schema ``repro.bench-serve/v1``;
the ``engine_baseline`` section comes from ``test_serve_throughput.py``).
The ≥3x aggregate-throughput acceptance gate applies on hosts with at
least 4 cores — a single-core CI container cannot parallelize anything,
so there the numbers are recorded but the ratio is informational.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.core.classifier import FixedPointLinearClassifier
from repro.core.serialize import save_classifier
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import quantize
from repro.serve import (
    BatcherConfig,
    ClusterConfig,
    ClusterSupervisor,
    ModelRegistry,
    ServeConfig,
    start_server_thread,
    wire,
)
from repro.serve.engine import BatchInferenceEngine

NUM_FEATURES = 8
BATCH_K = 64  # samples per wire request


def _classifier() -> FixedPointLinearClassifier:
    fmt = QFormat(3, 5)
    rng = np.random.default_rng(42)
    weights = np.asarray(quantize(rng.uniform(-2, 2, size=NUM_FEATURES), fmt))
    return FixedPointLinearClassifier(weights=weights, threshold=0.25, fmt=fmt)


def _request_batches(classifier, num_requests):
    """Pre-built (features, expected labels) pairs so timing excludes setup."""
    rng = np.random.default_rng(7)
    engine = BatchInferenceEngine(classifier)
    batches = []
    for _ in range(num_requests):
        features = rng.uniform(-2, 2, size=(BATCH_K, NUM_FEATURES))
        batches.append((features, [int(v) for v in engine.run(features).labels]))
    return batches


def _drive(port, batches, clients):
    """Fan ``batches`` across ``clients`` persistent wire connections.

    Returns (elapsed seconds, wrong-answer count).  Every response is
    checked against the pre-computed engine labels — a throughput number
    only counts if the bits are right.
    """
    shares = [batches[i::clients] for i in range(clients)]
    wrong = [0] * clients

    def run(index):
        with wire.WireClient("127.0.0.1", port, timeout=30.0) as client:
            for features, expected in shares[index]:
                reply = client.request(features, model="m")
                if not isinstance(reply, wire.WireResponse) or (
                    list(reply.labels) != expected
                ):
                    wrong[index] += 1

    threads = [
        threading.Thread(target=run, args=(i,), daemon=True)
        for i in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started, sum(wrong)


def test_cluster_saturation(tmp_path, paper_budget, merge_bench):
    cpu_cores = os.cpu_count() or 1
    workers = max(2, min(4, cpu_cores))
    num_requests = 400 if paper_budget else 120
    clients = 2 * workers
    classifier = _classifier()
    path = tmp_path / "clf.json"
    save_classifier(classifier, str(path))
    batches = _request_batches(classifier, num_requests)
    total_samples = num_requests * BATCH_K
    batcher = BatcherConfig(max_batch_size=256)

    # Phase 1: single-process baseline on the identical stack.
    registry = ModelRegistry()
    registry.register_file("m", str(path))
    handle = start_server_thread(registry, ServeConfig(port=0, batcher=batcher))
    try:
        single_seconds, single_wrong = _drive(
            handle.server.port, batches, clients
        )
    finally:
        handle.stop()
    assert single_wrong == 0

    # Phase 2: the pre-fork fleet, same artifact, same client load.
    with ClusterSupervisor(
        ClusterConfig(
            artifacts=(("m", str(path)),),
            workers=workers,
            batcher=batcher,
        )
    ) as supervisor:
        cluster_seconds, cluster_wrong = _drive(
            supervisor.shard_ports[0], batches, clients
        )
        per_worker = {
            name: snap.get("samples_total", 0)
            for name, snap in supervisor.snapshots().items()
        }
    assert cluster_wrong == 0

    single_rate = total_samples / single_seconds
    cluster_rate = total_samples / cluster_seconds
    speedup = cluster_rate / single_rate

    # Phase 3: overload a tiny admission bound; shedding must be loud
    # (structured 503 frames) and harmless (zero wrong accepted answers).
    registry = ModelRegistry()
    registry.register_file("m", str(path))
    handle = start_server_thread(
        registry,
        ServeConfig(
            port=0,
            batcher=BatcherConfig(max_batch_size=1024, max_pending_samples=BATCH_K),
        ),
    )
    overload_batches = batches[:40]
    overload_clients = 8
    tallies = [[0, 0, 0] for _ in range(overload_clients)]  # shed/served/wrong

    def overload_run(index):
        # Eight connections deliver frames in the same loop turns, so a
        # request arriving while an accepted one waits for its next-turn
        # flush finds the admission budget spent and gets shed.
        with wire.WireClient(
            "127.0.0.1", handle.server.port, timeout=30.0
        ) as client:
            for features, expected in overload_batches[index::overload_clients]:
                reply = client.request(features, model="m")
                if isinstance(reply, wire.WireError):
                    assert reply.status == 503 and reply.shed
                    tallies[index][0] += 1
                else:
                    tallies[index][1] += 1
                    if list(reply.labels) != expected:
                        tallies[index][2] += 1

    try:
        threads = [
            threading.Thread(target=overload_run, args=(i,), daemon=True)
            for i in range(overload_clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        handle.stop()
    shed = sum(t[0] for t in tallies)
    served = sum(t[1] for t in tallies)
    overload_wrong = sum(t[2] for t in tallies)
    assert shed > 0, "overload phase never tripped admission control"
    assert overload_wrong == 0, "an accepted request answered with wrong bits"

    record = merge_bench(
        "BENCH_serve.json",
        {
            "schema": "repro.bench-serve/v1",
            "cpu_cores": cpu_cores,
            "wire_schema": wire.WIRE_SCHEMA,
            "single_process": {
                "seconds": single_seconds,
                "samples": total_samples,
                "requests": num_requests,
                "clients": clients,
                "samples_per_sec": single_rate,
                "wrong_answers": single_wrong,
            },
            "cluster": {
                "workers": workers,
                "seconds": cluster_seconds,
                "samples": total_samples,
                "requests": num_requests,
                "clients": clients,
                "samples_per_sec": cluster_rate,
                "speedup_vs_single_process": speedup,
                "per_worker_samples": per_worker,
                "wrong_answers": cluster_wrong,
            },
            "overload": {
                "admission_bound_samples": BATCH_K,
                "requests_sent": 40,
                "requests_shed": shed,
                "requests_served": served,
                "wrong_answers": overload_wrong,
            },
        },
    )
    print(
        f"cluster saturation: {workers} workers, {clients} clients, "
        f"{total_samples} samples — single {single_rate:,.0f}/s, "
        f"cluster {cluster_rate:,.0f}/s ({speedup:.2f}x), "
        f"overload shed {shed}/40"
    )
    assert record["schema"] == "repro.bench-serve/v1"

    # The acceptance gate: on a real multi-core runner the shared-nothing
    # fleet must deliver >= 3x aggregate throughput.  A 1-core container
    # has no parallelism to win; the recorded JSON still shows both sides.
    if cpu_cores >= 4:
        assert speedup >= 3.0, (
            f"cluster delivered only {speedup:.2f}x on {cpu_cores} cores"
        )
