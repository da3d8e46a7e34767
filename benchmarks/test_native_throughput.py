"""Native-backend throughput: compiled C kernel vs the numpy int64 fast path.

Times both engine backends on the same pre-quantized raw batch (datapath
arithmetic only — quantization is outside the loop), asserts all four
output arrays bit-identical first, and records the comparison twice:

- ``results/native_throughput.txt`` — the human-readable table, in the
  style of ``test_serve_throughput.py``;
- ``results/BENCH_native.json`` — a machine-readable
  ``repro.bench-native/v1`` record the CI ``native-smoke`` job archives.

On hosts without a C compiler the benchmark does not fail: it records
``"native_available": false`` plus the engine's fallback reason, so the
JSON always states what was actually measured (see
docs/native_backend.md, "Benchmark methodology").
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.classifier import FixedPointLinearClassifier
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import quantize
from repro.serve import BatchInferenceEngine

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"

BENCH_SCHEMA = "repro.bench-native/v1"
NUM_FEATURES = 8
REPEATS = 5


def _classifier() -> FixedPointLinearClassifier:
    fmt = QFormat(3, 5)
    rng = np.random.default_rng(42)
    weights = np.asarray(quantize(rng.uniform(-2, 2, size=NUM_FEATURES), fmt))
    return FixedPointLinearClassifier(weights=weights, threshold=0.25, fmt=fmt)


def _raw_batch(classifier: FixedPointLinearClassifier, n: int) -> np.ndarray:
    fmt = classifier.fmt
    rng = np.random.default_rng(7)
    return rng.integers(
        fmt.min_raw, fmt.max_raw + 1, size=(n, NUM_FEATURES), dtype=np.int64
    )


def _best_of(run, repeats: int = REPEATS) -> float:
    """Minimum wall time over ``repeats`` runs — the least-noise estimator."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best


def test_native_vs_fast_throughput(save_result, paper_budget):
    num_samples = 200_000 if paper_budget else 50_000
    classifier = _classifier()
    raws = _raw_batch(classifier, num_samples)

    fast = BatchInferenceEngine(classifier)
    assert fast.backend == "fast"
    native = BatchInferenceEngine(classifier, backend="native")

    record = {
        "schema": BENCH_SCHEMA,
        "samples": num_samples,
        "features": NUM_FEATURES,
        "format": "Q3.5",
        "repeats": REPEATS,
        "native_available": native.backend == "native",
    }

    fast_seconds = _best_of(lambda: fast.run_raw(raws))
    record["fast_seconds"] = fast_seconds
    record["fast_samples_per_sec"] = num_samples / fast_seconds

    lines = [
        f"native backend throughput ({num_samples} samples x "
        f"{NUM_FEATURES} features, Q3.5, best of {REPEATS})",
        "",
        f"{'path':28s} {'seconds':>9s} {'samples/sec':>13s} {'speedup':>8s}",
        f"{'engine (int64 fast path)':28s} {fast_seconds:9.4f} "
        f"{num_samples / fast_seconds:13.0f} {1.0:7.1f}x",
    ]

    if native.backend == "native":
        # Bit-exactness before any timing is reported.
        fast_result = fast.run_raw(raws)
        native_result = native.run_raw(raws)
        assert np.array_equal(fast_result.projection_raws, native_result.projection_raws)
        assert np.array_equal(fast_result.labels, native_result.labels)
        assert np.array_equal(
            fast_result.product_overflowed, native_result.product_overflowed
        )
        assert np.array_equal(
            fast_result.accumulator_overflowed, native_result.accumulator_overflowed
        )
        record["bit_identical"] = True

        native_seconds = _best_of(lambda: native.run_raw(raws))
        record["native_seconds"] = native_seconds
        record["native_samples_per_sec"] = num_samples / native_seconds
        speedup = fast_seconds / native_seconds
        record["speedup_native_vs_fast"] = speedup
        lines.append(
            f"{'engine (native C kernel)':28s} {native_seconds:9.4f} "
            f"{num_samples / native_seconds:13.0f} {speedup:7.1f}x"
        )
        lines.append("")
        lines.append("outputs bit-identical across both backends: True")
    else:
        record["native_fallback_reason"] = native.native_fallback_reason
        lines.append("")
        lines.append(
            f"native backend unavailable: {native.native_fallback_reason}"
        )

    text = "\n".join(lines) + "\n"
    print(text)
    save_result("native_throughput", text)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_native.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n"
    )

    # The compiled kernel exists to be faster than numpy; when it runs at
    # all it must beat the fast path clearly (CI native-smoke gates 5x on a
    # dedicated runner; locally keep a margin for noisy machines).
    if native.backend == "native":
        assert record["speedup_native_vs_fast"] > 1.0
