"""Hypothesis property tests for the solver telemetry invariants.

Invariants checked on randomized toy instances:

- the counters derived from the event stream equal the driver's
  :class:`BranchAndBoundStats` (``SolverTrace.verify_counters``),
- ``expanded == pruned_after_pop + branched + terminal``,
- the incumbent cost is non-increasing across the event stream,
- every reported lower bound is ≤ the final cost (+ the absolute gap and
  a float slack),
- the JSON export round-trips events, stats, and the stop reason,
  and loading rejects malformed events with a named key or kind.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import InputValidationError
from repro.optim.bnb import BranchAndBoundConfig, BranchAndBoundSolver
from repro.optim.trace import SolverTrace, TraceProgress

from tests.test_bnb import QuadraticGridProblem

_SLACK = 1e-9

instances = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10**6),
        "ndim": st.integers(min_value=1, max_value=3),
        "max_nodes": st.sampled_from([5, 50, 10**6]),
    }
)


def _solve(params) -> "tuple[SolverTrace, object]":
    rng = np.random.default_rng(params["seed"])
    target = rng.uniform(-0.9, 0.9, size=params["ndim"])
    step = float(rng.choice([0.25, 0.125]))
    problem = QuadraticGridProblem(target, -1.0, 1.0, step)
    config = BranchAndBoundConfig(max_nodes=params["max_nodes"])
    trace = SolverTrace()
    result = BranchAndBoundSolver(config).solve(problem, trace=trace)
    return trace, result


class TestTelemetryInvariants:
    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_counters_match_stats(self, params):
        trace, result = _solve(params)
        assert trace.verify_counters()
        stats = result.stats
        assert stats.nodes_expanded == (
            stats.nodes_pruned_after_pop
            + stats.nodes_branched
            + stats.terminal_nodes
        )
        assert stats.nodes_pruned == (
            stats.nodes_pruned_after_pop + stats.children_pruned
        )
        assert trace.stop_reason() == stats.stop_reason

    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_incumbent_non_increasing(self, params):
        trace, _ = _solve(params)
        last = np.inf
        for event in trace.events:
            if event.kind == "incumbent":
                assert event.incumbent <= last + _SLACK
                last = event.incumbent

    @given(instances)
    @settings(max_examples=30, deadline=None)
    def test_reported_bounds_below_final_cost(self, params):
        trace, result = _solve(params)
        limit = result.cost + BranchAndBoundConfig().absolute_gap + _SLACK
        for event in trace.events:
            if event.kind == "gap":
                assert event.bound <= limit
        # The final stop event's bound is the returned lower bound.
        stop = trace.events[-1]
        assert stop.kind == "stop"
        assert stop.bound <= limit

    @given(instances)
    @settings(max_examples=15, deadline=None)
    def test_json_round_trip(self, params):
        trace, result = _solve(params)
        clone = SolverTrace.from_json(trace.to_json())
        assert clone.verify_counters()
        assert clone.counters() == trace.counters()
        assert clone.stop_reason() == result.stats.stop_reason
        assert [e.kind for e in clone.events] == [e.kind for e in trace.events]

    def test_events_sequenced_and_timestamped(self):
        trace, _ = _solve(
            {"seed": 0, "ndim": 2, "max_nodes": 10**6}
        )
        seqs = [e.seq for e in trace.events]
        assert seqs == list(range(len(trace.events)))
        times = [e.t for e in trace.events]
        assert all(b >= a for a, b in zip(times, times[1:]))
        assert trace.events[0].kind == "start"

    def test_progress_callback_fires(self):
        snapshots: "list[TraceProgress]" = []
        trace = SolverTrace(progress=snapshots.append, progress_interval=0.0)
        problem = QuadraticGridProblem(np.array([0.3, -0.6]), -1.0, 1.0, 0.125)
        result = BranchAndBoundSolver().solve(problem, trace=trace)
        assert snapshots
        for snap in snapshots:
            assert snap.nodes_expanded <= result.stats.nodes_expanded
            if snap.lower_bound is not None:
                assert snap.lower_bound <= result.cost + _SLACK


def _trace_json(*events) -> str:
    return json.dumps(
        {"schema": SolverTrace.SCHEMA, "stats": None, "events": list(events)}
    )


class TestTraceFileValidation:
    def test_unknown_key_named(self):
        event = {"kind": "start", "seq": 0, "t": 0.0, "colour": "red"}
        with pytest.raises(InputValidationError, match="unknown key 'colour'"):
            SolverTrace.from_json(_trace_json(event))

    def test_missing_key_named(self):
        with pytest.raises(InputValidationError, match="missing key 't'"):
            SolverTrace.from_json(_trace_json({"kind": "start", "seq": 0}))

    def test_unknown_kind_named(self):
        # ``record()`` rejects this kind, so loading must too.
        event = {"kind": "executor", "seq": 0, "t": 0.0, "detail": "thread"}
        with pytest.raises(InputValidationError, match="unknown kind 'executor'"):
            SolverTrace.from_json(_trace_json(event))

    def test_non_object_event_rejected(self):
        with pytest.raises(InputValidationError, match="trace event 0"):
            SolverTrace.from_json(_trace_json(["start", 0, 0.0]))
