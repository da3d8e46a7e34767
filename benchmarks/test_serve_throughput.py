"""Serving-engine throughput: vectorized batch datapath vs per-sample loop.

Informational benchmark (not gated): classifies 10k ECG beats through

- the per-sample RTL simulator path (``predict_bitexact`` routes every
  sample through Python-int arithmetic),
- the :class:`~repro.serve.BatchInferenceEngine` object fallback, and
- the :class:`~repro.serve.BatchInferenceEngine` int64 fast path,

asserting bit-identical labels throughout, and records samples/sec and the
speedup in ``results/serve_throughput.txt``.  The same numbers also land
machine-readably as the ``engine_baseline`` section of
``results/BENCH_serve.json`` (schema ``repro.bench-serve/v1``), which the
cluster saturation benchmark extends and CI archives.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.classifier import FixedPointLinearClassifier
from repro.data import make_ecg_dataset
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import quantize
from repro.serve import BatchInferenceEngine

NUM_SAMPLES = 10_000


def _trained_like_classifier(num_features: int) -> FixedPointLinearClassifier:
    """A deterministic grid-exact classifier standing in for a trained one.

    The benchmark measures datapath arithmetic, not training; fixed weights
    keep the run fast and the timing comparison stable.
    """
    fmt = QFormat(3, 5)
    rng = np.random.default_rng(42)
    weights = np.asarray(quantize(rng.uniform(-2, 2, size=num_features), fmt))
    return FixedPointLinearClassifier(weights=weights, threshold=0.25, fmt=fmt)


def test_serve_engine_throughput(save_result, paper_budget, merge_bench):
    num_samples = NUM_SAMPLES if paper_budget else 2_000
    half = max(num_samples // 2, 2)
    dataset = make_ecg_dataset(half, seed=0)
    features = dataset.features[:num_samples]
    classifier = _trained_like_classifier(dataset.num_features)

    timings = {}

    # The genuinely per-sample reference: one traced Python-int datapath
    # evaluation per beat, exactly what a naive serving loop would run.
    datapath = classifier.datapath()
    started = time.perf_counter()
    traced_labels = np.array(
        [
            1 if classifier.polarity * datapath.project_traced(row).result_raw >= 0
            else 0
            for row in features
        ],
        dtype=np.int64,
    )
    timings["per-sample project_traced loop"] = time.perf_counter() - started

    started = time.perf_counter()
    per_sample_labels = classifier.predict_bitexact(features)
    timings["predict_bitexact (np.vectorize)"] = time.perf_counter() - started

    engine_obj = BatchInferenceEngine(classifier, backend="object")
    started = time.perf_counter()
    object_labels = engine_obj.predict(features)
    timings["engine (object fallback)"] = time.perf_counter() - started

    engine_fast = BatchInferenceEngine(classifier)
    assert engine_fast.fast_path
    started = time.perf_counter()
    fast_labels = engine_fast.predict(features)
    timings["engine (int64 fast path)"] = time.perf_counter() - started

    assert np.array_equal(traced_labels, per_sample_labels)
    assert np.array_equal(per_sample_labels, object_labels)
    assert np.array_equal(per_sample_labels, fast_labels)

    n = features.shape[0]
    baseline = timings["per-sample project_traced loop"]
    lines = [
        "serve engine throughput "
        f"({n} ECG beats x {dataset.num_features} features, Q3.5)",
        "",
        f"{'path':32s} {'seconds':>9s} {'samples/sec':>12s} {'speedup':>8s}",
    ]
    for name, seconds in timings.items():
        lines.append(
            f"{name:32s} {seconds:9.4f} {n / seconds:12.0f} "
            f"{baseline / seconds:7.1f}x"
        )
    lines.append("")
    lines.append("labels bit-identical across all four paths: True")
    text = "\n".join(lines) + "\n"
    print(text)
    save_result("serve_throughput", text)
    merge_bench(
        "BENCH_serve.json",
        {
            "schema": "repro.bench-serve/v1",
            "engine_baseline": {
                "samples": int(n),
                "features": int(dataset.num_features),
                "format": "Q3.5",
                "paths": {
                    name: {
                        "seconds": seconds,
                        "samples_per_sec": n / seconds,
                        "speedup_vs_per_sample": baseline / seconds,
                    }
                    for name, seconds in timings.items()
                },
                "labels_bit_identical": True,
            },
        },
    )

    # Informational, but the vectorized fast path should never lose to the
    # per-sample Python loop.
    assert timings["engine (int64 fast path)"] < baseline
