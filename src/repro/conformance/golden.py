"""Versioned golden vectors (``repro.golden/v1``) behind ``repro golden``.

Property tests and differential oracles catch implementations that
disagree *with each other*; golden vectors catch the remaining failure
mode — all implementations drifting *together* (a rounding-rule tweak, a
renumbered enum, a "harmless" refactor that changes every raw word the
same way).  Each recorder below computes a pinned-seed, bit-exact payload
for one subsystem; ``repro golden record`` writes them under
``tests/golden/`` and ``repro golden verify`` recomputes and compares.

Determinism contract: every recorder is a pure function of pinned seeds
and the code under test — no wall-clock, no machine identity, no dict
ordering (files are dumped with ``sort_keys``).  Solver-dependent
recorders pin ``time_limit=None`` so the node schedule is reproducible.
Floats survive a JSON round-trip exactly (finite doubles are preserved
verbatim), so verification can compare parsed trees with ``==``.

To intentionally change pinned behaviour: re-run ``repro golden record``,
inspect the diff, and commit the new vectors with the code change that
caused them — the diff *is* the review surface.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from ..errors import InputValidationError

__all__ = [
    "GOLDEN_SCHEMA",
    "RECORDERS",
    "golden_path",
    "record_goldens",
    "verify_goldens",
]

GOLDEN_SCHEMA = "repro.golden/v1"

# Seed namespace for every recorder below; bump only with a schema bump.
_SEED = 20140601  # DAC 2014 — the paper venue


# --------------------------------------------------------------------- #
# Recorders
# --------------------------------------------------------------------- #
def _record_quantize() -> dict:
    """Raw words for a fixed value set across formats x roundings x overflow."""
    from ..fixedpoint import OverflowMode, QFormat, quantize_raw
    from .strategies import DETERMINISTIC_ROUNDING_MODES

    rng = np.random.default_rng(_SEED)
    base = rng.uniform(-6.0, 6.0, size=17)
    cases = {}
    for k, f in ((1, 7), (2, 2), (2, 4), (3, 0), (4, 4)):
        fmt = QFormat(k, f)
        values = np.concatenate(
            [
                base,
                [
                    fmt.min_value,
                    fmt.max_value,
                    fmt.min_value - 1.0,
                    fmt.max_value + 1.0,
                    0.0,
                    fmt.resolution / 2.0,
                    -fmt.resolution / 2.0,
                    1.5 * fmt.resolution,
                ],
            ]
        )
        per_mode = {}
        for mode in DETERMINISTIC_ROUNDING_MODES:
            per_mode[mode.value] = {
                overflow.value: [
                    int(r)
                    for r in quantize_raw(
                        values, fmt, rounding=mode, overflow=overflow
                    )
                ]
                for overflow in (OverflowMode.SATURATE, OverflowMode.WRAP)
            }
        cases[f"Q{k}.{f}"] = {
            "values": [float(v) for v in values],
            "rounding": per_mode,
        }
    return cases


def _trace_cases() -> List[dict]:
    """Pinned classifier cases shared by the datapath and serve recorders."""
    from ..fixedpoint import QFormat

    rng = np.random.default_rng(_SEED + 1)
    cases = []
    for k, f, m, n, rounding, polarity in (
        (3, 0, 3, 6, "nearest-away", 1),  # the paper's Q3.0 3-feature shape
        (2, 4, 4, 5, "floor", -1),
        (1, 5, 2, 5, "nearest-even", 1),
        (4, 4, 5, 4, "toward-zero", -1),
    ):
        fmt = QFormat(k, f)
        span = fmt.max_raw - fmt.min_raw + 1
        cases.append(
            {
                "integer_bits": k,
                "fraction_bits": f,
                "rounding": rounding,
                "polarity": polarity,
                "weight_raws": [
                    int(v)
                    for v in rng.integers(fmt.min_raw, fmt.max_raw + 1, size=m)
                ],
                "threshold_raw": int(
                    rng.integers(fmt.min_raw, fmt.max_raw + 1)
                ),
                # one extra range-width each side: wrap/saturate paths pinned
                "feature_raws": [
                    [
                        int(v)
                        for v in rng.integers(
                            fmt.min_raw - span, fmt.max_raw + span + 1, size=m
                        )
                    ]
                    for _ in range(n)
                ],
            }
        )
    return cases


def _record_datapath() -> dict:
    """Per-sample reference-datapath traces for the pinned cases."""
    from .strategies import case_classifier, case_features

    out = []
    for case in _trace_cases():
        datapath = case_classifier(case).datapath()
        traces = []
        for row in case_features(case):
            trace = datapath.project_traced(row)
            traces.append(
                {
                    "result_raw": int(trace.result_raw),
                    "product_raws": [int(r) for r in trace.product_raws],
                    "accumulator_raws": [int(r) for r in trace.accumulator_raws],
                    "product_overflowed": list(trace.product_overflowed),
                    "accumulator_overflowed": list(trace.accumulator_overflowed),
                }
            )
        out.append({"case": case, "traces": traces})
    return {"cases": out}


def _record_serve_engine() -> dict:
    """Vectorized engine outputs (fast path + object fallback) per case."""
    from ..serve.engine import BatchInferenceEngine
    from .strategies import case_classifier, case_features

    out = []
    for case in _trace_cases():
        classifier = case_classifier(case)
        features = case_features(case)
        paths = {}
        for label, backend in (("fast", "auto"), ("object", "object")):
            engine = BatchInferenceEngine(classifier, backend=backend)
            result = engine.run(features)
            paths[label] = {
                "fast_path": bool(engine.fast_path),
                "projection_raws": [int(r) for r in result.projection_raws],
                "labels": [int(b) for b in result.labels],
                "product_overflow_events": int(result.product_overflow_events),
                "accumulator_overflow_events": int(
                    result.accumulator_overflow_events
                ),
            }
        raw_result = BatchInferenceEngine(classifier).run_raw(
            np.asarray(case["feature_raws"], dtype=object)
        )
        paths["run_raw"] = {
            "projection_raws": [int(r) for r in raw_result.projection_raws],
            "labels": [int(b) for b in raw_result.labels],
        }
        out.append({"case": case, "paths": paths})
    return {"cases": out}


def _record_certifier() -> dict:
    """Full check certificates for pinned classifiers and bounds."""
    from ..check.certifier import FeatureBounds, certify_classifier
    from ..fixedpoint.rounding import RoundingMode
    from .strategies import random_classifier

    out = []
    for k, f, m, bounded in ((3, 0, 3, False), (2, 3, 2, True), (2, 4, 4, False)):
        rng = np.random.default_rng(_SEED + 10 * k + f)
        classifier = random_classifier(
            rng, k, f, m, rounding=RoundingMode.NEAREST_AWAY, polarity=1
        )
        bounds: Optional[FeatureBounds] = None
        if bounded:
            half = classifier.fmt.max_value / 2.0
            bounds = FeatureBounds(
                lo=np.full(m, -half), hi=np.full(m, half), source="explicit"
            )
        report = certify_classifier(classifier, feature_bounds=bounds)
        out.append(
            {
                "format": f"Q{k}.{f}",
                "num_features": m,
                "bounded": bounded,
                "report": report.to_dict(),
            }
        )
    return {"certificates": out}


def _record_pareto() -> dict:
    """Pin pareto_front's tie dedup and (power, word_length) sort order."""
    from ..wordlength import SweepPoint, minimum_wordlength, pareto_front

    points = [
        SweepPoint(8, 0.10, 64.0, 0.5, True, "gap-closed"),
        SweepPoint(6, 0.10, 36.0, 0.4, True, "gap-closed"),  # same err, less power
        SweepPoint(7, 0.10, 49.0, 0.3, True, "gap-closed"),  # dominated
        SweepPoint(5, 0.18, 25.0, 0.2, True, "gap-closed"),
        SweepPoint(4, 0.18, 25.0, 0.1, False, "node-budget"),  # exact tie -> dedup
        SweepPoint(3, 0.35, 9.0, 0.1, False, "node-budget"),
        SweepPoint(9, 0.09, 81.0, 0.6, True, "gap-closed"),
    ]
    front = pareto_front(points)
    floor = minimum_wordlength(points, target_error=0.2)
    return {
        "input": [p.canonical() for p in points],
        "front": [p.canonical() for p in front],
        "minimum_wordlength_at_0.2": None if floor is None else floor.canonical(),
    }


def _record_serve_metrics() -> dict:
    """Pin the /metrics JSON schema with a deterministic observation stream."""
    from ..serve.engine import BatchInferenceEngine
    from ..serve.metrics import ServeMetrics
    from .strategies import case_classifier, case_features

    case = _trace_cases()[0]
    engine = BatchInferenceEngine(case_classifier(case))
    result = engine.run(case_features(case))
    metrics = ServeMetrics()
    metrics.observe_request("ecg", result.num_samples, 0.004, content_hash="abc123")
    metrics.observe_request("ecg", 2, 0.002, content_hash="abc123")
    metrics.observe_batch(
        "ecg", result, 0.003, content_hash="abc123", backend=engine.backend
    )
    metrics.observe_error()
    metrics.observe_shed("overloaded")
    metrics.observe_shed("overloaded")
    metrics.observe_shed("deadline")
    # v3: streaming-session counters (opened/closed/evicted + chunk flow).
    metrics.observe_session_opened()
    metrics.observe_session_opened()
    metrics.observe_session_closed()
    metrics.observe_session_evicted()
    metrics.observe_stream_chunk(200, 1)
    metrics.observe_stream_chunk(50, 0)
    metrics.observe_shed("sessions")
    return metrics.to_dict()


def _record_serve_wire() -> dict:
    """Pin ``repro.serve-wire/v1`` frame bytes for the shared trace cases.

    Both lanes are pinned: even-indexed cases travel as float64 reals
    (served via ``run``), odd ones as int64 raw words (``run_raw``).  The
    request and response frames are recorded as hex alongside the decoded
    engine outputs, so any byte-level codec drift — header layout, payload
    endianness, trailer order — fails verification even if encode/decode
    still round-trip each other.
    """
    from ..serve import wire
    from ..serve.engine import BatchInferenceEngine
    from .strategies import case_classifier, case_features

    frames = []
    for i, case in enumerate(_trace_cases()):
        classifier = case_classifier(case)
        engine = BatchInferenceEngine(classifier)
        raw = i % 2 == 1
        if raw:
            features = np.asarray(case["feature_raws"], dtype=np.int64)
            result = engine.run_raw(features)
        else:
            features = case_features(case)
            result = engine.run(features)
        request = wire.encode_request(
            features, raw=raw, model=f"m{i}", deadline_ms=25 * i
        )
        decoded, consumed = wire.decode_frame(request)
        assert consumed == len(request) and isinstance(decoded, wire.WireRequest)
        response = wire.encode_response(
            "deadbeef" * 8,
            result.projection_raws,
            result.labels,
            result.product_overflow_events,
            result.accumulator_overflow_events,
        )
        frames.append(
            {
                "case": case,
                "raw": raw,
                "request_hex": request.hex(),
                "response_hex": response.hex(),
                "projection_raws": [int(r) for r in result.projection_raws],
                "labels": [int(b) for b in result.labels],
                "product_overflow_events": int(result.product_overflow_events),
                "accumulator_overflow_events": int(
                    result.accumulator_overflow_events
                ),
            }
        )
    shed = wire.encode_error(503, "admission control: queue full", shed=True)
    return {
        "wire_schema": wire.WIRE_SCHEMA,
        "frames": frames,
        "shed_error_hex": shed.hex(),
    }


@lru_cache(maxsize=1)
def _ecg_wl8_pipeline():
    """Train the pinned ECG word-length-8 model once per process.

    Shared by the ``ecg_wl8`` and ``native_engine`` recorders — training is
    by far the most expensive step of a golden run, and both vectors must
    describe the *same* bits, so caching is correctness-neutral (the
    pipeline is a pure function of the pinned seeds).
    """
    from ..core.ldafp import LdaFpConfig
    from ..core.pipeline import PipelineConfig, TrainingPipeline
    from ..data.ecg import make_ecg_dataset

    train = make_ecg_dataset(120, seed=_SEED)
    test = make_ecg_dataset(120, seed=_SEED + 1)
    pipeline = TrainingPipeline(
        PipelineConfig(
            method="lda-fp", ldafp=LdaFpConfig(max_nodes=60, time_limit=None)
        )
    )
    result = pipeline.run(train, test, word_length=8, bitexact_eval=True)
    return pipeline, result, train, test


def _record_ecg_wl8() -> dict:
    """End-to-end pin: the ECG pipeline at word length 8, bit for bit."""
    from ..core.serialize import classifier_to_dict

    pipeline, result, train, test = _ecg_wl8_pipeline()
    scaler = pipeline.scaler_for(8)
    scaler.fit(train.features)
    head = test.features[:40]
    labels = result.classifier.predict_bitexact(scaler.transform(head))
    return {
        "artifact": classifier_to_dict(result.classifier),
        "test_error": float(result.test_error),
        "proven_optimal": (
            None
            if result.ldafp_report is None
            else bool(result.ldafp_report.proven_optimal)
        ),
        "stop_reason": (
            None if result.ldafp_report is None else result.ldafp_report.stop_reason
        ),
        "labels_head": [int(v) for v in labels],
    }


def _record_native_engine() -> dict:
    """Backend-agreement pin for the deployed ECG wl=8 artifact.

    Records the *fast-path* outputs on a pinned raw-word batch, plus
    agreement booleans for the object fallback and the compiled native
    backend.  ``native_agrees`` is true when the native kernel matched bit
    for bit *or* when no C compiler exists on this host (the backend
    cannot be built there, and the fallback path is the fast path already
    pinned here) — so record and verify produce identical payloads on any
    machine, while a reachable native divergence still fails verification.
    """
    from ..serve.engine import BatchInferenceEngine
    from ..serve.registry import content_hash

    _pipeline, result, _train, _test = _ecg_wl8_pipeline()
    classifier = result.classifier
    fmt = classifier.fmt
    rng = np.random.default_rng(_SEED + 2)
    span = fmt.max_raw - fmt.min_raw + 1
    # One extra range-width each side pins the input-saturation and the
    # product/accumulator wrap paths, not just in-range behaviour.
    raws = rng.integers(
        fmt.min_raw - span,
        fmt.max_raw + span + 1,
        size=(32, classifier.num_features),
    )
    raw_batch = np.asarray([[int(v) for v in row] for row in raws], dtype=object)

    fast = BatchInferenceEngine(classifier).run_raw(raw_batch)

    def _agrees(engine: "BatchInferenceEngine") -> bool:
        got = engine.run_raw(raw_batch)
        return all(
            np.array_equal(
                np.asarray(getattr(got, field)), np.asarray(getattr(fast, field))
            )
            for field in (
                "projection_raws",
                "labels",
                "product_overflowed",
                "accumulator_overflowed",
            )
        )

    object_agrees = _agrees(BatchInferenceEngine(classifier, backend="object"))
    native = BatchInferenceEngine(classifier, backend="native")
    native_agrees = native.backend != "native" or _agrees(native)
    return {
        "artifact_hash": content_hash(classifier),
        "feature_raws": [[int(v) for v in row] for row in raws],
        "fast": {
            "projection_raws": [int(r) for r in fast.projection_raws],
            "labels": [int(b) for b in fast.labels],
            "product_overflow_events": int(fast.product_overflow_events),
            "accumulator_overflow_events": int(fast.accumulator_overflow_events),
        },
        "object_agrees": bool(object_agrees),
        "native_agrees": bool(native_agrees),
    }


def _stream_session_fixture():
    """The pinned ECG streaming session shared by both stream recorders.

    A seeded 8-feature classifier, the default front-end config, a
    6-beat synthesized ECG recording, and a pinned pseudo-random chunk
    partition — everything downstream of these is exact integer
    arithmetic, so the recorded bits are machine-independent.
    """
    from ..data.ecg import EcgBeatConfig, synthesize_beat
    from ..serve.registry import ModelRegistry
    from ..serve.stream import FrontEndConfig
    from .strategies import random_classifier

    rng = np.random.default_rng(_SEED + 3)
    registry = ModelRegistry()
    registry.register("ecg", random_classifier(rng, 3, 5, 8))
    model = registry.get("ecg")
    config = FrontEndConfig()
    beat_config = EcgBeatConfig(sample_rate=config.sample_rate)
    samples = np.concatenate(
        [
            synthesize_beat(beat_config, rng, abnormal=i % 2 == 1)
            for i in range(6)
        ]
    )
    chunk_sizes = []
    remaining = samples.size
    while remaining > 0:
        size = min(int(rng.integers(1, 97)), remaining)
        chunk_sizes.append(size)
        remaining -= size
    return model, config, samples, chunk_sizes


def _record_stream_session() -> dict:
    """End-to-end streaming pin: chunked ECG in, windows/labels out.

    Replays the pinned session through :class:`~repro.serve.stream
    .StreamSession` + the engine — exactly what the serving plane does per
    chunk — and records every per-window feature vector, projection raw,
    label, and the overflow totals.  Any drift in the fixed-point FIR, the
    windower, feature extraction, or the classifier datapath moves these
    bits.
    """
    from ..serve.stream import run_offline

    model, config, samples, chunk_sizes = _stream_session_fixture()
    offline = run_offline(model, config, samples)

    from ..serve.stream import StreamSession

    session = StreamSession("golden", model, config)
    windows = []
    product_events = accumulator_events = 0
    start = 0
    for seq, size in enumerate(chunk_sizes):
        features, indices = session.process_chunk(
            seq, samples[start : start + size]
        )
        start += size
        if len(indices):
            result = model.engine.run(features)
            product_events += int(result.product_overflow_events)
            accumulator_events += int(result.accumulator_overflow_events)
            for row, index in enumerate(indices):
                windows.append(
                    {
                        "index": int(index),
                        "features": [float(v) for v in features[row]],
                        "projection_raw": int(result.projection_raws[row]),
                        "label": int(result.labels[row]),
                    }
                )
    # The recorded session must match the offline pipeline bit for bit —
    # recording a diverged payload would pin a bug as truth.
    assert len(windows) == offline["num_windows"]
    assert [w["label"] for w in windows] == [int(v) for v in offline["labels"]]
    assert [w["projection_raw"] for w in windows] == [
        int(r) for r in offline["projection_raws"]
    ]
    return {
        "model_hash": model.content_hash,
        "front_end": config.to_dict(),
        "num_samples": int(samples.size),
        "chunk_sizes": [int(s) for s in chunk_sizes],
        "samples_head": [float(v) for v in samples[:16]],
        "windows": windows,
        "product_overflow_events": product_events,
        "accumulator_overflow_events": accumulator_events,
        "summary": session.summary(),
    }


def _record_stream_wire() -> dict:
    """Byte-level pin of every ``repro.serve-wire/v2`` stream frame kind.

    Encodes one frame of each streaming kind (open/opened/chunk/result/
    close/closed) with pinned contents derived from the golden session,
    round-trips each through the decoder, and records the hex — header
    layout, payload endianness, and trailer order are all frozen.
    """
    from ..serve import wire

    model, config, samples, chunk_sizes = _stream_session_fixture()
    chunk = samples[: chunk_sizes[0]]
    frames = {
        "open": wire.encode_stream_open("golden", config.to_dict()),
        "opened": wire.encode_stream_opened("golden", model.content_hash),
        "chunk": wire.encode_stream_chunk("golden", 0, chunk),
        "result": wire.encode_stream_result(
            0, [0, 1], [-37, 41], [0, 1], 2, 1
        ),
        "close": wire.encode_stream_close("golden"),
        "closed": wire.encode_stream_closed(
            "golden", len(chunk_sizes), int(samples.size), 6
        ),
    }
    for name, frame in frames.items():
        decoded, consumed = wire.decode_frame(frame)
        assert consumed == len(frame), f"{name}: partial decode"
    return {
        "wire_schema": wire.WIRE_SCHEMA,
        "session_key": "golden",
        "model_hash": model.content_hash,
        "frames_hex": {name: frame.hex() for name, frame in frames.items()},
    }


RECORDERS: Dict[str, Callable[[], dict]] = {
    "quantize": _record_quantize,
    "datapath": _record_datapath,
    "serve_engine": _record_serve_engine,
    "certifier": _record_certifier,
    "pareto": _record_pareto,
    "serve_metrics": _record_serve_metrics,
    "serve_wire": _record_serve_wire,
    "stream_session": _record_stream_session,
    "stream_wire": _record_stream_wire,
    "ecg_wl8": _record_ecg_wl8,
    "native_engine": _record_native_engine,
}


# --------------------------------------------------------------------- #
# Record / verify
# --------------------------------------------------------------------- #
def golden_path(directory: str, name: str) -> str:
    """The on-disk path of one golden vector file."""
    return os.path.join(directory, f"{name}.json")


def _payload(name: str) -> dict:
    data = RECORDERS[name]()
    # JSON round-trip before comparing/writing: tuples become lists, ints
    # stay ints, finite floats are exact — so recorded and recomputed trees
    # compare with plain ==.
    return json.loads(
        json.dumps({"schema": GOLDEN_SCHEMA, "name": name, "data": data})
    )


def _select(only: Optional[Sequence[str]]) -> List[str]:
    if not only:
        return list(RECORDERS)
    unknown = [name for name in only if name not in RECORDERS]
    if unknown:
        raise InputValidationError(
            f"unknown golden vector(s) {unknown}; "
            f"available: {', '.join(sorted(RECORDERS))}"
        )
    return list(only)


def record_goldens(
    directory: str, only: Optional[Sequence[str]] = None
) -> List[str]:
    """(Re)compute and write the selected golden vectors; returns the names."""
    os.makedirs(directory, exist_ok=True)
    names = _select(only)
    for name in names:
        with open(golden_path(directory, name), "w", encoding="utf-8") as handle:
            json.dump(_payload(name), handle, indent=2, sort_keys=True)
            handle.write("\n")
    return names


def _first_difference(recorded, computed, path: str = "$") -> str:
    """A human-useful pointer at the first structural divergence."""
    if type(recorded) is not type(computed):
        return (
            f"{path}: type {type(computed).__name__} != recorded "
            f"{type(recorded).__name__}"
        )
    if isinstance(recorded, dict):
        for key in sorted(set(recorded) | set(computed)):
            if key not in recorded:
                return f"{path}.{key}: not in recorded vector"
            if key not in computed:
                return f"{path}.{key}: missing from recomputed output"
            if recorded[key] != computed[key]:
                return _first_difference(recorded[key], computed[key], f"{path}.{key}")
    if isinstance(recorded, list):
        if len(recorded) != len(computed):
            return f"{path}: length {len(computed)} != recorded {len(recorded)}"
        for i, (r, c) in enumerate(zip(recorded, computed)):
            if r != c:
                return _first_difference(r, c, f"{path}[{i}]")
    return f"{path}: {computed!r} != recorded {recorded!r}"


def verify_goldens(
    directory: str, only: Optional[Sequence[str]] = None
) -> List[str]:
    """Recompute the selected vectors and diff against the recorded files.

    Returns one message per mismatch (empty list = everything pinned).
    """
    problems: List[str] = []
    for name in _select(only):
        path = golden_path(directory, name)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                recorded = json.load(handle)
        except FileNotFoundError:
            problems.append(
                f"{name}: missing golden file {path} (run `repro golden record`)"
            )
            continue
        except json.JSONDecodeError as exc:
            problems.append(f"{name}: unparseable golden file {path}: {exc}")
            continue
        if recorded.get("schema") != GOLDEN_SCHEMA:
            problems.append(
                f"{name}: {path} has schema {recorded.get('schema')!r}, "
                f"expected {GOLDEN_SCHEMA!r}"
            )
            continue
        computed = _payload(name)
        if computed != recorded:
            problems.append(
                f"{name}: drift at {_first_difference(recorded, computed)}"
            )
    return problems
