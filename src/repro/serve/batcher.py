"""Asyncio micro-batching: coalesce requests into engine-sized batches.

The vectorized engine amortizes quantization and accumulation over a whole
batch, so throughput under concurrent load comes from *not* running one
engine call per request.  :class:`MicroBatcher` queues incoming feature
arrays per model and flushes a combined batch when either

- the pending sample count reaches ``max_batch_size``, or
- the event loop takes its next turn (``loop.call_soon``): requests
  submitted in the same turn co-batch, and a lone request never sleeps.

Each awaiting caller receives exactly its slice of the combined
:class:`~repro.serve.engine.BatchResult`; because the engine is bit-exact
and stateless per sample, batching is invisible in the results — only in
the latency/throughput profile and the batch-size metrics.

A batch of at most ``max_batch_size`` samples runs the engine inline on the
loop, which costs less than a thread hop.  Only a request that overshoots
the flush size (say one 65,536-row frame) sends its batch to the default
executor, so it cannot stall the other connections.

Three serving-plane concerns live here as well:

- **Admission control** — ``max_pending_samples`` bounds the queued plus
  in-flight sample count; a submit that would exceed it raises
  :class:`~repro.errors.OverloadedError` *before* enqueueing, so overload
  sheds cleanly (structured 503) instead of growing an unbounded queue
  until latency collapses.  Shedding happens at the door: it can never
  change the bits of any request that is accepted.
- **Deadlines** — a request may carry ``deadline_ms``; if it is still
  queued when its deadline passes, the flush drops it with
  :class:`~repro.errors.DeadlineExceededError` rather than spending engine
  time on an answer the client has abandoned.  Expiry is checked at flush
  time only — an accepted-and-run request always returns real results.
- **The raw lane** — wire requests carrying already-quantized int64 words
  batch separately from real-valued float requests (the pending queue key
  includes the lane) and execute through ``engine.run_raw``; mixing lanes
  would force a float round-trip and break bit-exactness for wide formats.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import DeadlineExceededError, OverloadedError, ServeError
from .engine import BatchResult
from .metrics import ServeMetrics
from .registry import ModelRegistry, RegisteredModel

__all__ = ["BatcherConfig", "MicroBatcher"]


@dataclass(frozen=True)
class BatcherConfig:
    """Flush policy of the micro-batching queue.

    Parameters
    ----------
    max_batch_size:
        Flush as soon as this many samples are pending for one model; a
        larger batch runs in the default executor, not on the event loop.
    max_pending_samples:
        Admission-control bound: total samples queued or in flight across
        all models before new submissions are shed with
        :class:`~repro.errors.OverloadedError`.  ``0`` disables the bound
        (the single-process default; cluster workers set it).
    """

    max_batch_size: int = 64
    max_pending_samples: int = 0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ServeError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_pending_samples < 0:
            raise ServeError(
                f"max_pending_samples must be >= 0, got {self.max_pending_samples}"
            )


class _Item:
    """One queued request: its features, future, and optional deadline."""

    __slots__ = ("features", "future", "deadline_at")

    def __init__(
        self,
        features: np.ndarray,
        future: "asyncio.Future",
        deadline_at: "float | None",
    ) -> None:
        self.features = features
        self.future = future
        self.deadline_at = deadline_at


class _Pending:
    """Per-(model, lane) accumulation state between flushes.

    Holds the :class:`RegisteredModel` captured at submit time, so the flush
    runs on exactly the bits each caller resolved — a concurrent hot reload
    or unregister cannot swap the engine under a queued request.
    """

    def __init__(self, model: RegisteredModel, raw: bool) -> None:
        self.model = model
        self.raw = raw
        self.items: "List[_Item]" = []
        self.samples = 0
        self.handle: "Optional[asyncio.Handle]" = None


class MicroBatcher:
    """Coalesces concurrent predict calls into vectorized engine batches.

    Parameters
    ----------
    registry:
        Model registry; requests are grouped by resolved model name.
    config:
        Flush policy (including the admission-control bound).
    metrics:
        Optional :class:`~repro.serve.metrics.ServeMetrics` receiving one
        ``observe_batch`` per flush.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        config: "BatcherConfig | None" = None,
        metrics: "ServeMetrics | None" = None,
    ) -> None:
        self.registry = registry
        self.config = config or BatcherConfig()
        self.metrics = metrics
        self._pending: "dict[Tuple[str, str, bool], _Pending]" = {}
        self._inflight: "set[asyncio.Task]" = set()
        self._load = 0  # samples queued or in flight (admission accounting)

    @property
    def load(self) -> int:
        """Samples currently queued or in flight (what admission checks)."""
        return self._load

    # ------------------------------------------------------------------ #
    async def submit(
        self,
        model_key: "str | None",
        features: np.ndarray,
        raw: bool = False,
        deadline_ms: int = 0,
    ) -> "Tuple[BatchResult, RegisteredModel]":
        """Enqueue one request; resolves to (its result slice, serving model).

        ``features`` is a ``(k, M)`` array (``k >= 1`` samples from one
        request) — float64 real values by default, int64 raw words when
        ``raw`` is True (the binary wire path; served via ``run_raw``, raw
        and real requests never share a batch).  Shape and feature-width
        mismatches are rejected here, before queueing, so a malformed
        request errors alone instead of poisoning its batch-mates.  The
        model is resolved and captured at submit time: the flush runs on
        exactly these bits even if the registry entry is hot-reloaded or
        unregistered first, and requests queued across a reload land in
        separate batches (the pending queue is keyed by name *and* content
        hash).  A flush that still fails (e.g. an overflow-policy error)
        rejects every member of that batch — the standard micro-batching
        trade-off.

        Raises :class:`~repro.errors.OverloadedError` without enqueueing
        when accepting this request would push the queued + in-flight
        sample count over ``max_pending_samples``; a queued request whose
        ``deadline_ms`` passes before its batch flushes resolves to
        :class:`~repro.errors.DeadlineExceededError` instead of a result.
        """
        model = self.registry.get(model_key)
        result = await self.submit_model(
            model, features, raw=raw, deadline_ms=deadline_ms
        )
        return result, model

    async def submit_model(
        self,
        model: RegisteredModel,
        features: np.ndarray,
        raw: bool = False,
        deadline_ms: int = 0,
    ) -> BatchResult:
        """Enqueue one request against an already-resolved model.

        The pinned-model entry point: streaming sessions capture their
        :class:`RegisteredModel` at open time and submit every window batch
        through here, so a hot reload mid-session can never swap the
        engine under an open stream.  Same admission control, deadlines,
        and co-batching as :meth:`submit` — a pinned submit batches
        together with by-key submits that resolved to the same bits.
        """
        features = np.asarray(features, dtype=np.int64 if raw else np.float64)
        if features.ndim != 2:
            raise ServeError(
                f"batcher expects (k, M) feature arrays, got shape {features.shape}"
            )
        if features.shape[1] != model.engine.num_features:
            raise ServeError(
                f"model {model.name!r} expects {model.engine.num_features} "
                f"features per sample, got {features.shape[1]}"
            )
        k = features.shape[0]
        bound = self.config.max_pending_samples
        if bound and self._load + k > bound:
            raise OverloadedError(
                f"admission control: {self._load} samples queued or in flight, "
                f"accepting {k} more would exceed max_pending_samples={bound}"
            )
        loop = asyncio.get_running_loop()
        future: "asyncio.Future" = loop.create_future()
        deadline_at = (
            time.monotonic() + deadline_ms / 1000.0 if deadline_ms > 0 else None
        )
        key = (model.name, model.content_hash, raw)
        pending = self._pending.setdefault(key, _Pending(model, raw))
        pending.items.append(_Item(features, future, deadline_at))
        pending.samples += k
        self._load += k
        if pending.samples >= self.config.max_batch_size:
            self._flush(key)
        elif pending.handle is None:
            pending.handle = loop.call_soon(self._flush, key)
        return await future

    def _flush(self, key: "Tuple[str, str, bool]") -> None:
        pending = self._pending.pop(key, None)
        if pending is None or not pending.items:
            return
        if pending.handle is not None:
            pending.handle.cancel()
        loop = asyncio.get_running_loop()
        task = loop.create_task(
            self._run_batch(pending.model, pending.items, pending.raw)
        )
        # Keep a strong reference until completion (asyncio only holds weak ones).
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)

    async def _run_batch(
        self,
        model: RegisteredModel,
        items: "List[_Item]",
        raw: bool,
    ) -> None:
        loop = asyncio.get_running_loop()
        started = time.perf_counter()
        # Deadline check happens once, here: an item that expired while
        # queued is dropped before the engine runs; everything that does
        # run returns real, bit-exact results.
        now = time.monotonic()
        live: "List[_Item]" = []
        for item in items:
            if item.deadline_at is not None and now > item.deadline_at:
                self._load -= item.features.shape[0]
                if not item.future.done():
                    item.future.set_exception(
                        DeadlineExceededError(
                            "request deadline expired while queued for batching"
                        )
                    )
            else:
                live.append(item)
        if not live:
            return
        try:
            stacked = np.concatenate([item.features for item in live], axis=0)
            run = model.engine.run_raw if raw else model.engine.run
            if len(stacked) <= self.config.max_batch_size:
                result = run(stacked)
            else:
                result = await loop.run_in_executor(None, run, stacked)
        except Exception as exc:  # reject every co-batched caller
            for item in live:
                self._load -= item.features.shape[0]
                if not item.future.done():
                    item.future.set_exception(exc)
            return
        elapsed = time.perf_counter() - started
        if self.metrics is not None:
            self.metrics.observe_batch(
                model.name,
                result,
                elapsed,
                content_hash=model.content_hash,
                backend=model.engine.backend,
            )
        offset = 0
        for item in live:
            k = item.features.shape[0]
            self._load -= k
            if not item.future.done():
                item.future.set_result(result.slice(offset, offset + k))
            offset += k

    # ------------------------------------------------------------------ #
    async def drain(self) -> None:
        """Flush everything pending and wait for in-flight batches.

        Used by server shutdown and tests; new submissions during a drain
        are not waited for.
        """
        for model_name in list(self._pending):
            self._flush(model_name)
        while self._inflight:
            await asyncio.gather(*list(self._inflight), return_exceptions=True)
