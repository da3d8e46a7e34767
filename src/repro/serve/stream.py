"""Sessionful streaming inference: the signal chain fused into serving.

Batch ``/predict`` serves pre-extracted feature vectors; a deployed
monitor does not have those — it has a raw waveform arriving a few
samples at a time.  This module closes that gap: a client opens a keyed
**streaming session**, the server instantiates the model's fixed-point
signal front end (the same band-pass :class:`~repro.signal.fxfir.FixedPointFir`
that ``repro check --all`` certifies) as a stateful stepper
(:mod:`repro.signal.stream`), and every pushed chunk advances the filter
state and a windowing buffer.  Each completed window is feature-extracted
(:func:`~repro.data.ecg.extract_beat_features`) and classified through the
ordinary micro-batcher, so streaming traffic co-batches with batch traffic
and shares every serving guarantee (admission control, bit-exact engines,
metrics).

Bit-exactness is the design invariant, not an aspiration: the steppers are
bit-identical with the one-shot calls (see :mod:`repro.signal.stream`),
windowing reproduces :func:`~repro.signal.stream.slice_windows`, and the
engine is stateless per sample — so a session fed any chunking of a
waveform produces byte-identical labels and projection words to
:func:`run_offline` on the whole recording.  The ``stream_vs_batch``
conformance oracle (``repro fuzz``) holds this equality under randomized
chunk partitions.

Sessions are **pinned**: the :class:`~repro.serve.registry.RegisteredModel`
is captured at open, so a hot reload mid-session can never change the bits
of a stream in flight.  The :class:`StreamManager` bounds the open-session
count (excess opens shed with :class:`~repro.errors.OverloadedError`,
feeding the serving plane's structured-503 path) and evicts idle sessions.
A model whose ``repro.check-report/v2`` certificate does not carry a
``signal-frontend`` stage is refused a session — serving an uncertified
front end chunk-by-chunk is exactly the deployment the certifier exists to
prevent.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from threading import Lock
from typing import Dict, List, Tuple

import numpy as np

from ..data.ecg import EcgBeatConfig, extract_beat_features
from ..errors import (
    CertificationError,
    InputValidationError,
    OverloadedError,
    ServeError,
    StreamSessionError,
)
from ..signal.filters import design_fir
from ..signal.fxfir import FixedPointFir
from ..signal.stream import WindowStream, slice_windows
from .registry import RegisteredModel
from .wire import MAX_SAMPLES_PER_FRAME

__all__ = [
    "STREAM_NUM_FEATURES",
    "MAX_NUM_TAPS",
    "MAX_WINDOW_SIZE",
    "FrontEndConfig",
    "StreamSession",
    "StreamManager",
    "build_frontend",
    "require_frontend_certified",
    "run_offline",
]

#: Width of the per-window feature vector
#: (:func:`~repro.data.ecg.extract_beat_features`).
STREAM_NUM_FEATURES = 8

#: Stream-open bounds.  Each chunk runs the session's FIR on the shared
#: event loop, and the session buffers up to a window of samples.
MAX_NUM_TAPS = 255
MAX_WINDOW_SIZE = MAX_SAMPLES_PER_FRAME


@dataclass(frozen=True)
class FrontEndConfig:
    """The signal front end one streaming session runs.

    Defaults describe the ECG demo deployment: a 31-tap band-pass FIR at
    250 Hz feeding non-overlapping one-beat (200-sample) windows.  The
    config is JSON-portable (:meth:`to_dict` / :meth:`from_dict`) — it is
    what a stream-open frame carries on the wire.
    """

    sample_rate: float = 250.0
    num_taps: int = 31
    band: Tuple[float, float] = (1.0, 40.0)
    guard_bits: int = 8
    window_size: int = 200
    hop: int = 200

    def __post_init__(self) -> None:
        if self.sample_rate <= 0:
            raise InputValidationError(
                f"sample_rate must be > 0, got {self.sample_rate}"
            )
        if not 3 <= self.num_taps <= MAX_NUM_TAPS or self.num_taps % 2 == 0:
            raise InputValidationError(
                f"num_taps must be odd and in [3, {MAX_NUM_TAPS}], got {self.num_taps}"
            )
        if len(self.band) != 2 or not 0 < self.band[0] < self.band[1]:
            raise InputValidationError(
                f"band must be (low, high) with 0 < low < high, got {self.band}"
            )
        if self.band[1] >= self.sample_rate / 2:
            raise InputValidationError(
                f"band edge {self.band[1]} at or above Nyquist "
                f"({self.sample_rate / 2})"
            )
        if self.guard_bits < 0:
            raise InputValidationError(
                f"guard_bits must be >= 0, got {self.guard_bits}"
            )
        # extract_beat_features needs >= 40 samples per window.
        if not 40 <= self.window_size <= MAX_WINDOW_SIZE:
            raise InputValidationError(
                f"window_size must be in [40, {MAX_WINDOW_SIZE}], got {self.window_size}"
            )
        if self.hop < 1:
            raise InputValidationError(f"hop must be >= 1, got {self.hop}")

    def to_dict(self) -> dict:
        """JSON-ready config (the stream-open wire payload)."""
        return {
            "sample_rate": self.sample_rate,
            "num_taps": self.num_taps,
            "band": [self.band[0], self.band[1]],
            "guard_bits": self.guard_bits,
            "window_size": self.window_size,
            "hop": self.hop,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "FrontEndConfig":
        """Build from a JSON object; unknown keys are rejected loudly.

        Values are taken as sent, never coerced: ``num_taps``,
        ``guard_bits``, ``window_size`` and ``hop`` must be JSON integers,
        ``sample_rate`` and the ``band`` edges finite JSON numbers (``bool``
        is neither).  Truncating ``7.99`` guard bits to 7 would run a
        narrower accumulator than the client asked for.
        """
        if not isinstance(payload, dict):
            raise InputValidationError(
                f"front-end config must be a JSON object, got "
                f"{type(payload).__name__}"
            )
        unknown = sorted(set(payload) - {"sample_rate", "band", *_INT_KEYS})
        if unknown:
            raise InputValidationError(
                f"unknown front-end config keys: {', '.join(unknown)}"
            )
        kwargs: dict = {
            key: _json_int(key, payload[key]) for key in _INT_KEYS if key in payload
        }
        if "sample_rate" in payload:
            kwargs["sample_rate"] = _json_number("sample_rate", payload["sample_rate"])
        if "band" in payload:
            band = payload["band"]
            if not isinstance(band, (list, tuple)) or len(band) != 2:
                raise InputValidationError(
                    f"band must be a [low, high] pair, got {band!r}"
                )
            kwargs["band"] = (
                _json_number("band", band[0]), _json_number("band", band[1])
            )
        return cls(**kwargs)


_INT_KEYS = ("num_taps", "guard_bits", "window_size", "hop")


def _json_int(key: str, value: object) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputValidationError(
            f"front-end config {key!r} must be an integer, got {value!r}"
        )
    return value


def _json_number(key: str, value: object) -> float:
    # The comparison is False for NaN, infinities and ints beyond float range.
    if (
        not isinstance(value, (int, float))
        or isinstance(value, bool)
        or not abs(value) <= sys.float_info.max
    ):
        raise InputValidationError(
            f"front-end config {key!r} must be a finite number, got {value!r}"
        )
    return float(value)


def build_frontend(model: RegisteredModel, config: FrontEndConfig) -> FixedPointFir:
    """The fixed-point FIR a session runs: the model's own format and rounding.

    Mirrors ``repro check --all``'s deployment front end, so the filter a
    session steps is the filter the artifact's ``signal-frontend``
    certificate stage describes.
    """
    taps = design_fir(
        config.num_taps,
        config.band,
        kind="bandpass",
        sample_rate=config.sample_rate,
    )
    return FixedPointFir(
        taps=taps,
        fmt=model.classifier.fmt,
        guard_bits=config.guard_bits,
        rounding=model.classifier.rounding,
    )


def require_frontend_certified(
    model: RegisteredModel, required: bool = False
) -> None:
    """Refuse a session on a model whose front end was never certified.

    A present certificate must be an end-to-end ``repro.check-report/v2``
    carrying a ``signal-frontend`` stage — a classifier-only certificate
    proves nothing about the filter a session is about to run.  With
    ``required=True`` an entirely uncertified model (no certificate at
    all) is refused too.
    """
    certificate = model.certificate
    if certificate is None:
        if required:
            raise CertificationError(
                f"model {model.name!r} refused a streaming session: no "
                "certificate (the server requires a certified signal "
                "front end)"
            )
        return
    has_stage = getattr(certificate, "has_stage", None)
    if has_stage is None or not has_stage("signal-frontend"):
        raise CertificationError(
            f"model {model.name!r} refused a streaming session: its "
            "certificate has no 'signal-frontend' stage (need an "
            "end-to-end repro.check-report/v2 covering the front end)"
        )


class StreamSession:
    """One open session: a pinned model plus stateful signal-chain state.

    Not thread-safe on its own — the server advances each session from one
    event loop; the :class:`StreamManager` lock covers the registry, not
    per-session state.
    """

    def __init__(
        self,
        key: str,
        model: RegisteredModel,
        config: FrontEndConfig,
        clock=time.monotonic,
    ) -> None:
        if model.engine.num_features != STREAM_NUM_FEATURES:
            raise ServeError(
                f"model {model.name!r} expects {model.engine.num_features} "
                f"features; streaming sessions extract "
                f"{STREAM_NUM_FEATURES} per window"
            )
        self.key = key
        self.model = model  # pinned: hot reloads never touch an open session
        self.config = config
        self._fir = build_frontend(model, config).stream()
        self._windows = WindowStream(config.window_size, config.hop)
        self._beat_config = EcgBeatConfig(sample_rate=config.sample_rate)
        self._clock = clock
        self.created_at = clock()
        self.last_active = self.created_at
        self.next_seq = 0
        self.chunks = 0
        self.samples = 0
        self.windows = 0
        self.closed = False

    def process_chunk(
        self, seq: int, samples: np.ndarray
    ) -> "Tuple[np.ndarray, List[int]]":
        """Advance the signal chain by one chunk.

        Returns ``(features, window_indices)``: a ``(k, 8)`` feature array
        for the ``k`` windows this chunk completed (``k`` may be 0) and
        their session-global window indices.  Chunks must arrive strictly
        in sequence — a gap or reordering raises
        :class:`~repro.errors.StreamSessionError` and leaves the session
        state untouched, because filter state advanced by out-of-order
        samples could never be repaired.
        """
        if self.closed:
            raise StreamSessionError(f"session {self.key!r} is closed")
        if seq != self.next_seq:
            raise StreamSessionError(
                f"session {self.key!r} expected chunk seq {self.next_seq}, "
                f"got {seq}; chunks must arrive in order without gaps"
            )
        x = np.asarray(samples, dtype=np.float64)
        if x.ndim != 1 or x.size == 0:
            raise InputValidationError(
                f"chunk must be a non-empty 1-D sample vector, got shape "
                f"{x.shape}"
            )
        filtered = self._fir.process(x)
        completed = self._windows.process(filtered)
        self.next_seq += 1
        self.chunks += 1
        self.samples += x.size
        self.last_active = self._clock()
        indices = list(range(self.windows, self.windows + len(completed)))
        self.windows += len(completed)
        if not completed:
            return np.empty((0, STREAM_NUM_FEATURES)), indices
        features = np.stack(
            [extract_beat_features(w, self._beat_config) for w in completed]
        )
        return features, indices

    def summary(self) -> dict:
        """Lifetime totals (the stream-closed payload)."""
        return {
            "session": self.key,
            "model": self.model.name,
            "content_hash": self.model.content_hash,
            "chunks": self.chunks,
            "samples": self.samples,
            "windows": self.windows,
        }


class StreamManager:
    """The server's session registry: bounded, idle-evicting, thread-safe.

    ``max_sessions`` bounds concurrently open sessions; an open beyond the
    bound sheds with :class:`~repro.errors.OverloadedError` (reason
    ``"sessions"`` on the metrics), never by silently dropping an existing
    session.  ``idle_timeout`` seconds without a chunk evicts a session
    lazily — eviction runs on every open/lookup, so an abandoned session
    costs nothing until the next operation observes it.
    ``require_certified=True`` additionally refuses sessions on models with
    no certificate at all (see :func:`require_frontend_certified`).
    """

    def __init__(
        self,
        max_sessions: int = 64,
        idle_timeout: float = 60.0,
        require_certified: bool = False,
        metrics=None,
        clock=time.monotonic,
    ) -> None:
        if max_sessions < 1:
            raise ServeError(f"max_sessions must be >= 1, got {max_sessions}")
        if idle_timeout < 0:
            raise ServeError(f"idle_timeout must be >= 0, got {idle_timeout}")
        self.max_sessions = max_sessions
        self.idle_timeout = idle_timeout
        self.require_certified = require_certified
        self.metrics = metrics
        self._clock = clock
        self._sessions: "Dict[str, StreamSession]" = {}
        self._lock = Lock()

    @property
    def active(self) -> int:
        """Open sessions right now."""
        with self._lock:
            return len(self._sessions)

    def _evict_idle_locked(self) -> None:
        if not self.idle_timeout:
            return
        now = self._clock()
        for key in [
            k for k, s in self._sessions.items()
            if now - s.last_active > self.idle_timeout
        ]:
            session = self._sessions.pop(key)
            session.closed = True
            if self.metrics is not None:
                self.metrics.observe_session_evicted()

    def open(
        self,
        key: str,
        model: RegisteredModel,
        config: "FrontEndConfig | None" = None,
    ) -> StreamSession:
        """Open a session pinned to ``model``; returns it.

        Raises :class:`~repro.errors.StreamSessionError` on a duplicate
        key, :class:`~repro.errors.OverloadedError` at the session bound,
        and :class:`~repro.errors.CertificationError` when the model's
        certificate does not cover the signal front end.
        """
        config = config or FrontEndConfig()
        require_frontend_certified(model, required=self.require_certified)
        with self._lock:
            self._evict_idle_locked()
            if key in self._sessions:
                raise StreamSessionError(f"session {key!r} is already open")
            if len(self._sessions) >= self.max_sessions:
                raise OverloadedError(
                    f"session admission control: {len(self._sessions)} "
                    f"sessions open, max_sessions={self.max_sessions}"
                )
            session = StreamSession(key, model, config, clock=self._clock)
            self._sessions[key] = session
        if self.metrics is not None:
            self.metrics.observe_session_opened()
        return session

    def get(self, key: str) -> StreamSession:
        """Look up an open session; unknown/evicted keys raise."""
        with self._lock:
            self._evict_idle_locked()
            session = self._sessions.get(key)
        if session is None:
            raise StreamSessionError(
                f"no open session {key!r} (never opened, closed, or "
                "evicted after idling)"
            )
        return session

    def close(self, key: str) -> StreamSession:
        """Close and remove a session; returns it for its final summary."""
        with self._lock:
            session = self._sessions.pop(key, None)
        if session is None:
            raise StreamSessionError(f"no open session {key!r} to close")
        session.closed = True
        if self.metrics is not None:
            self.metrics.observe_session_closed()
        return session

    def close_all(self) -> int:
        """Drop every session (server shutdown); returns how many."""
        with self._lock:
            sessions = list(self._sessions.values())
            self._sessions.clear()
        for session in sessions:
            session.closed = True
            if self.metrics is not None:
                self.metrics.observe_session_closed()
        return len(sessions)


def run_offline(
    model: RegisteredModel,
    config: FrontEndConfig,
    samples: np.ndarray,
) -> dict:
    """The one-shot reference pipeline a streamed session must reproduce.

    Filters the whole recording with the one-shot fixed-point FIR, windows
    it with :func:`~repro.signal.stream.slice_windows`, extracts features,
    and classifies everything in one engine batch.  The ``stream_vs_batch``
    oracle and the CI smoke hold any chunked session to byte-identity with
    this function's ``labels`` and ``projection_raws``.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise InputValidationError(
            f"samples must be a 1-D waveform, got shape {x.shape}"
        )
    fir = build_frontend(model, config)
    filtered = fir.apply(x)
    windows = slice_windows(filtered, config.window_size, config.hop)
    beat_config = EcgBeatConfig(sample_rate=config.sample_rate)
    if not windows:
        return {
            "num_windows": 0,
            "labels": np.empty(0, dtype=np.int64),
            "projection_raws": np.empty(0, dtype=np.int64),
            "features": np.empty((0, STREAM_NUM_FEATURES)),
            "product_overflow_events": 0,
            "accumulator_overflow_events": 0,
        }
    features = np.stack(
        [extract_beat_features(w, beat_config) for w in windows]
    )
    result = model.engine.run(features)
    return {
        "num_windows": len(windows),
        "labels": np.asarray(result.labels),
        "projection_raws": np.asarray(result.projection_raws),
        "features": features,
        "product_overflow_events": result.product_overflow_events,
        "accumulator_overflow_events": result.accumulator_overflow_events,
    }
