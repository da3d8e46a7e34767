"""Unit tests of the benchmark's own helpers: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import copy
import json

import pytest

import common
from common import BenchError, FailLedger, Tracer


@pytest.fixture(scope="module")
def spec():
    return common.load_spec()


def test_highest_supported_percentile():
    assert common.highest_supported_percentile(1000) == pytest.approx(99.0)
    assert common.highest_supported_percentile(2000) == pytest.approx(99.5)
    assert common.highest_supported_percentile(20) == pytest.approx(50.0)
    assert common.highest_supported_percentile(11) == pytest.approx(100 / 11)
    assert common.highest_supported_percentile(10) is None
    assert common.highest_supported_percentile(0) is None


def test_percentile_matches_linear_interpolation():
    values = [4.0, 1.0, 3.0, 2.0]
    assert common.percentile(values, 0) == 1.0
    assert common.percentile(values, 50) == 2.5
    assert common.percentile(values, 100) == 4.0
    assert common.percentile(list(range(101)), 99) == pytest.approx(99.0)
    with pytest.raises(BenchError):
        common.percentile([], 50)


def test_op_summary_takes_the_median_over_blocks():
    # Three blocks of 1000 ops; one block is ten times slower.
    ops, t = [], 0.0
    for latency in (0.001, 0.010, 0.001):
        for _ in range(1000):
            ops.append((t, t + latency, 2))
            t += latency
    summary = common.op_summary(ops)
    assert summary["blocks"] == 3
    assert summary["ops"] == 3000
    assert summary["mean_ms"] == pytest.approx(4.0)
    assert summary["p50_ms"] == pytest.approx(1.0)
    assert summary["p99_ms"] == pytest.approx(1.0)
    assert summary["samples_per_s"] == pytest.approx(2000.0)
    assert summary["highest_supported_pct"] == pytest.approx(99.0)


def test_op_summary_small_runs_are_one_block():
    summary = common.op_summary([(0.0, 1.0, 10), (1.0, 3.0, 10)])
    assert summary["blocks"] == 1
    assert summary["samples_per_s"] == pytest.approx(20 / 3.0)
    assert summary["highest_supported_pct"] is None


def test_fail_ledger_counts_every_miss():
    ledger = FailLedger()
    assert ledger.fail_frac == 1.0  # nothing attempted is not a pass
    for ok in (True, True, False, True):
        ledger.record(ok, "wrong bits")
    assert (ledger.attempted, ledger.failed) == (4, 1)
    assert ledger.fail_frac == 0.25
    other = FailLedger()
    other.record(False, "shed")
    ledger.merge(other)
    assert (ledger.attempted, ledger.failed) == (5, 2)
    assert ledger.reasons == {"wrong bits": 1, "shed": 1}


def test_residual_is_round_trip_minus_layers():
    assert common.residual_us(100.0, {"a": 30.0, "b": 20.0}) == 50.0
    assert common.residual_us(10.0, {"a": 30.0}) == -20.0
    assert common.residual_us(10.0, {}) == 10.0


def test_self_time_subtracts_children_by_parent_id():
    tracer = Tracer()
    root = tracer.add("serve.server", 0.0, 10.0, op=0)
    # Replayed children run after the op: parenthood is by id, not interval.
    tracer.add("signal.fxfir", 20.0, 26.0, parent=root, op=0)
    child = tracer.add("serve.engine", 30.0, 31.0, parent=root, op=0)
    tracer.add("native", 30.0, 30.5, parent=child, op=0)
    selfs = tracer.self_times()
    assert selfs[root] == pytest.approx(3.0)
    assert selfs[child] == pytest.approx(0.5)
    modules = tracer.module_self_times()
    assert modules == pytest.approx({"serve.server": 3.0, "signal.fxfir": 6.0,
                                     "serve.engine": 0.5, "native": 0.5})
    table = common.self_time_table(modules, ops=1)
    assert table.splitlines()[1].startswith("signal.fxfir")


def test_spec_names_and_units(spec):
    common.check_spec(spec)
    assert common.workload_names(spec) == ["stream_ecg", "predict_wire", "train_sweep"]
    names = [m["name"] for m in spec["end_to_end"]]
    assert "setup_s" in names
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s")


@pytest.mark.parametrize("mutate", [
    lambda s: s["workloads"].append({"name": "stream_ecg", "why": "twice"}),
    lambda s: s["end_to_end"][0].update(name="bad name"),
    lambda s: s["end_to_end"][1].update(bound=0.5),
    lambda s: s["per_layer"][0].update(unit="micro seconds"),
    lambda s: s["end_to_end"].pop(0),
    lambda s: s.update(extra=1),
])
def test_spec_validation_rejects(spec, mutate):
    bad = copy.deepcopy(spec)
    mutate(bad)
    with pytest.raises(BenchError):
        common.check_spec(bad)


def test_metric_names_must_match_the_declared_group(spec):
    values = {m["name"]: 1.0 for m in spec["end_to_end"]}
    common.check_metrics(spec, False, common.metric_block(spec, False, values))
    with pytest.raises(BenchError, match="missing"):
        common.check_metrics(spec, False, common.metric_block(spec, False, {"setup_s": 1.0}))
    undeclared = common.metric_block(spec, False, values)
    undeclared["wall_s"] = {"value": 1.0, "unit": "s"}
    with pytest.raises(BenchError, match="undeclared"):
        common.check_metrics(spec, False, undeclared)
    with pytest.raises(BenchError, match="measured 0"):
        common.check_metrics(spec, False, common.metric_block(spec, False, {**values, "mean_ms": 0}))
    layers = {m["name"]: 0.0 for m in spec["per_layer"]}
    common.check_metrics(spec, True, common.metric_block(spec, True, layers))


def test_spread_matches_the_acceptance_rule():
    values = [float(v) for v in range(1, 11)]
    out = common.spread(values)
    q1, _, q3 = __import__("statistics").quantiles(values, n=4)
    assert out["median"] == 5.5
    assert out["iqr_share"] == pytest.approx((q3 - q1) / 5.5)
    assert json.dumps(out)
