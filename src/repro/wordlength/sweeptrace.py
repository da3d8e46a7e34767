"""Sweep-level telemetry: ``repro.sweep-trace/v1``.

A :class:`SweepTrace` records one :class:`SweepPointRecord` per evaluated
word length — whether it received a cross-word-length incumbent seed, how
many seeds survived validation, and how that point's search stopped.  It
layers on the existing per-solve telemetry: each point may embed a full
:class:`~repro.optim.trace.SolverTrace` payload (``repro.solver-trace/v1``)
under its ``solver`` key, so one JSON file carries both the sweep-level
schedule and every node-level event stream.

Schema (``repro.sweep-trace/v1``)::

    {
      "schema": "repro.sweep-trace/v1",
      "meta":   {engine configuration: seed_incumbents, ...},
      "points": [
        {
          "word_length": 6, "seeded": true, "seeds_injected": 1,
          "seeds_rejected": 0, "seeds_adopted": 1, "cost": 0.123,
          "test_error": 0.04, "train_seconds": 0.8,
          "proven_optimal": true, "stop_reason": "gap",
          "solver": {repro.solver-trace/v1 payload or null}
        }, ...
      ]
    }

Like :mod:`repro.optim.trace`, this module does not import the engine (the
engine imports the trace), and the export round-trips through
:meth:`SweepTrace.from_json` so a trace written by ``repro sweep
--sweep-trace`` can be audited offline.  Loading validates every point: an
unknown or missing key raises :class:`~repro.errors.InputValidationError`
naming it.  Files written by older versions carry retired per-point keys
(the frontier executor, and the parallel chunk a point was solved in);
exactly those are dropped on read (:data:`_RETIRED_POINT_KEYS`) so old
traces still load.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..errors import InputValidationError
from ..optim.trace import SolverTrace, record_from_json

__all__ = ["SweepPointRecord", "SweepTrace"]


@dataclass(frozen=True)
class SweepPointRecord:
    """What the sweep engine did for one word length.

    ``seeded`` says whether any requantized seed was *offered* to the
    point; ``seeds_injected`` / ``seeds_rejected`` count how many survived
    / failed the overflow-constraint validation, and ``seeds_adopted`` how
    many actually replaced the warm-start incumbent (strict improvement
    only).  All three are 0 for conventional-LDA points, which have no
    solver.
    """

    word_length: int
    seeded: bool
    seeds_injected: int
    seeds_rejected: int
    seeds_adopted: int
    cost: Optional[float]
    test_error: float
    train_seconds: float
    proven_optimal: Optional[bool]
    stop_reason: Optional[str]


#: point keys written by older versions that carry no information any more
_RETIRED_POINT_KEYS = (
    "solver_executor",
    "solver_executor_fallback",
    "chunk",
    "index_in_chunk",
)


class SweepTrace:
    """Recorder for one word-length sweep (see module docstring)."""

    SCHEMA = "repro.sweep-trace/v1"

    def __init__(self) -> None:
        self.meta: "Dict[str, object]" = {}
        self.records: "List[SweepPointRecord]" = []
        self.solver_traces: "Dict[int, SolverTrace]" = {}

    # ------------------------------------------------------------------ #
    def add_point(
        self, record: SweepPointRecord, solver_trace: "SolverTrace | None" = None
    ) -> None:
        self.records.append(record)
        if solver_trace is not None:
            self.solver_traces[record.word_length] = solver_trace

    def record_for(self, word_length: int) -> "SweepPointRecord | None":
        for record in self.records:
            if record.word_length == word_length:
                return record
        return None

    # ------------------------------------------------------------------ #
    def to_json(self, indent: "int | None" = None) -> str:
        points = []
        for record in self.records:
            entry = dataclasses.asdict(record)
            solver = self.solver_traces.get(record.word_length)
            entry["solver"] = (
                None if solver is None else json.loads(solver.to_json())
            )
            points.append(entry)
        payload = {"schema": self.SCHEMA, "meta": self.meta, "points": points}
        return json.dumps(payload, indent=indent)

    def save(self, path) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json(indent=2))

    @classmethod
    def from_json(cls, text: str) -> "SweepTrace":
        payload = json.loads(text)
        schema = payload.get("schema")
        if schema != cls.SCHEMA:
            raise InputValidationError(f"unsupported sweep-trace schema {schema!r}")
        trace = cls()
        trace.meta = dict(payload.get("meta", {}))
        for index, entry in enumerate(payload.get("points", [])):
            where = f"sweep-trace point {index}"
            if not isinstance(entry, dict):
                raise InputValidationError(f"{where}: expected a JSON object")
            solver_payload = entry.pop("solver", None)
            for key in _RETIRED_POINT_KEYS:
                entry.pop(key, None)
            record = record_from_json(SweepPointRecord, entry, where)
            solver = (
                None
                if solver_payload is None
                else SolverTrace.from_json(json.dumps(solver_payload))
            )
            trace.add_point(record, solver)
        return trace

    @classmethod
    def load(cls, path) -> "SweepTrace":
        with open(path) as handle:
            return cls.from_json(handle.read())
