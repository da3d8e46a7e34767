"""Structured solver telemetry: typed events, progress callbacks, JSON export.

A :class:`SolverTrace` is handed to
:meth:`~repro.optim.bnb.BranchAndBoundSolver.solve` and records one
:class:`TraceEvent` per driver decision:

======================  ======================================================
kind                    meaning
======================  ======================================================
``start``               search begins (``incumbent`` = warm-start cost, if any)
``expand``              a popped node is processed; ``detail`` is ``terminal``
                        or ``branch:<n_children>``
``prune``               a popped node lost to the incumbent (pruned after pop)
``child_pruned``        a freshly relaxed child lost to the incumbent
``infeasible``          a relaxation (root or child) was infeasible
``incumbent``           the incumbent improved (``incumbent`` = new cost)
``gap``                 global lower-bound progress (best-first only); the
                        final one carries ``detail="closed"``
``stop``                search ended; ``detail`` is the stop reason
                        (``nodes`` / ``time`` / ``gap`` / ``exhausted``)
======================  ======================================================

Counters derived from the event stream (:meth:`SolverTrace.counters`) match
the driver's :class:`~repro.optim.bnb.BranchAndBoundStats` field for field —
:meth:`SolverTrace.verify_counters` checks this, and the JSON export
(:meth:`to_json` / :meth:`from_json`) round-trips both events and final
stats so a trace written by the CLI can be audited offline.  Loading
validates every event: an unknown or missing key, or an unknown event kind,
raises :class:`~repro.errors.InputValidationError` naming it.

The module deliberately does not import :mod:`repro.optim.bnb` (the driver
imports the trace, not vice versa); ``finalize`` accepts any dataclass.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass
from typing import Callable, List, Optional
from ..errors import InputValidationError

__all__ = ["EVENT_KINDS", "TraceEvent", "TraceProgress", "SolverTrace"]

EVENT_KINDS = (
    "start",
    "expand",
    "prune",
    "child_pruned",
    "infeasible",
    "incumbent",
    "gap",
    "stop",
)

# Stats fields that can be re-derived from the event stream (plus
# ``stop_reason``, which is carried by the final ``stop`` event).
_COUNTER_FIELDS = (
    "nodes_expanded",
    "nodes_pruned",
    "nodes_pruned_after_pop",
    "nodes_branched",
    "children_pruned",
    "nodes_infeasible",
    "terminal_nodes",
    "incumbent_updates",
)


def record_from_json(cls, entry, where: str):
    """Build the dataclass ``cls`` from one JSON object of a trace file.

    Raises :class:`InputValidationError` naming the first unknown or
    missing key instead of letting the constructor raise a bare
    ``TypeError``.
    """
    if not isinstance(entry, dict):
        raise InputValidationError(
            f"{where}: expected a JSON object, got {type(entry).__name__}"
        )
    fields = dataclasses.fields(cls)
    unknown = sorted(set(entry) - {f.name for f in fields})
    if unknown:
        raise InputValidationError(f"{where}: unknown key {unknown[0]!r}")
    for f in fields:
        required = (
            f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        )
        if required and f.name not in entry:
            raise InputValidationError(f"{where}: missing key {f.name!r}")
    return cls(**entry)


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped solver decision.

    ``t`` is seconds since the search began; ``bound`` and ``incumbent``
    are the node bound / incumbent cost relevant to the event (``None``
    when not applicable).
    """

    kind: str
    seq: int
    t: float
    bound: Optional[float] = None
    incumbent: Optional[float] = None
    detail: str = ""


@dataclass(frozen=True)
class TraceProgress:
    """Periodic snapshot passed to the progress callback."""

    nodes_expanded: int
    frontier: int
    incumbent: Optional[float]
    lower_bound: Optional[float]
    elapsed: float


class SolverTrace:
    """Event recorder for one branch-and-bound solve.

    Parameters
    ----------
    progress:
        Optional callback receiving a :class:`TraceProgress` at most once
        per ``progress_interval`` seconds of solver wall time.
    progress_interval:
        Minimum seconds between progress callbacks.
    """

    SCHEMA = "repro.solver-trace/v1"

    def __init__(
        self,
        progress: "Callable[[TraceProgress], None] | None" = None,
        progress_interval: float = 1.0,
    ) -> None:
        self.progress = progress
        self.progress_interval = float(progress_interval)
        self.events: "List[TraceEvent]" = []
        self.stats: "dict | None" = None
        self._t0: "float | None" = None
        self._seq = 0
        self._last_progress = -float("inf")

    # ------------------------------------------------------------------ #
    def begin(self, t0: "float | None" = None) -> None:
        """Reset the trace and anchor event timestamps at ``t0``."""
        self.events = []
        self.stats = None
        self._seq = 0
        self._last_progress = -float("inf")
        self._t0 = time.perf_counter() if t0 is None else float(t0)

    def record(
        self,
        kind: str,
        bound: "float | None" = None,
        incumbent: "float | None" = None,
        detail: str = "",
    ) -> None:
        if kind not in EVENT_KINDS:
            raise InputValidationError(f"unknown trace event kind {kind!r}")
        if self._t0 is None:
            self.begin()
        self.events.append(
            TraceEvent(
                kind=kind,
                seq=self._seq,
                t=time.perf_counter() - self._t0,
                bound=None if bound is None else float(bound),
                incumbent=None if incumbent is None else float(incumbent),
                detail=detail,
            )
        )
        self._seq += 1

    def maybe_progress(
        self,
        nodes_expanded: int,
        frontier: int,
        incumbent: "float | None",
        lower_bound: "float | None",
        elapsed: float,
    ) -> None:
        """Invoke the progress callback if the interval has elapsed."""
        if self.progress is None:
            return
        if elapsed - self._last_progress < self.progress_interval:
            return
        self._last_progress = elapsed
        self.progress(
            TraceProgress(
                nodes_expanded=nodes_expanded,
                frontier=frontier,
                incumbent=incumbent,
                lower_bound=lower_bound,
                elapsed=elapsed,
            )
        )

    def finalize(self, stats) -> None:
        """Attach the final solver stats (any dataclass) to the trace."""
        self.stats = dataclasses.asdict(stats)

    # ------------------------------------------------------------------ #
    def counters(self) -> dict:
        """Recompute the :class:`BranchAndBoundStats` counters from events."""
        c = {name: 0 for name in _COUNTER_FIELDS}
        for event in self.events:
            if event.kind == "prune":
                c["nodes_expanded"] += 1
                c["nodes_pruned_after_pop"] += 1
                c["nodes_pruned"] += 1
            elif event.kind == "expand":
                c["nodes_expanded"] += 1
                if event.detail == "terminal":
                    c["terminal_nodes"] += 1
                else:
                    c["nodes_branched"] += 1
            elif event.kind == "child_pruned":
                c["children_pruned"] += 1
                c["nodes_pruned"] += 1
            elif event.kind == "infeasible":
                c["nodes_infeasible"] += 1
            elif event.kind == "incumbent":
                c["incumbent_updates"] += 1
        return c

    def stop_reason(self) -> "str | None":
        """The detail of the last ``stop`` event, if any."""
        for event in reversed(self.events):
            if event.kind == "stop":
                return event.detail
        return None

    def verify_counters(self) -> bool:
        """True when the event-derived counters match the finalized stats."""
        if self.stats is None:
            return False
        derived = self.counters()
        for name in _COUNTER_FIELDS:
            if name in self.stats and self.stats[name] != derived[name]:
                return False
        reason = self.stop_reason()
        if reason is not None and "stop_reason" in self.stats:
            if self.stats["stop_reason"] != reason:
                return False
        return True

    # ------------------------------------------------------------------ #
    def to_json(self, indent: "int | None" = None) -> str:
        payload = {
            "schema": self.SCHEMA,
            "stats": self.stats,
            "events": [dataclasses.asdict(e) for e in self.events],
        }
        return json.dumps(payload, indent=indent)

    def save(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json(indent=2))

    @classmethod
    def from_json(cls, text: str) -> "SolverTrace":
        payload = json.loads(text)
        schema = payload.get("schema")
        if schema != cls.SCHEMA:
            raise InputValidationError(f"unsupported trace schema {schema!r}")
        trace = cls()
        trace._t0 = 0.0
        trace.stats = payload.get("stats")
        for index, entry in enumerate(payload.get("events", [])):
            event = record_from_json(TraceEvent, entry, f"trace event {index}")
            if event.kind not in EVENT_KINDS:
                raise InputValidationError(
                    f"trace event {index}: unknown kind {event.kind!r}"
                )
            trace.events.append(event)
        trace._seq = len(trace.events)
        return trace

    @classmethod
    def load(cls, path) -> "SolverTrace":
        with open(path) as handle:
            return cls.from_json(handle.read())
