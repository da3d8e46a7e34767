"""The benchmark command: one workload, one seed, one result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload stream_ecg --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --steadiness 10 --workload train_sweep

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` runs the workload untraced, then again with spans, prints a
per-module self-time table and the tracing overhead, writes the spans
under ``.perfbench/`` and reports the per-layer metrics.  The last line of
standard output is always the JSON result; it is printed only when the
run completed.  ``--steadiness N`` runs the command N times with seeds
1..N and prints, per metric, the median, the quartiles and the spread
next to that metric's bound in ``BENCHMARK.json``; it saves the values
under ``.perfbench/steadiness/``.  ``--compare PARENT.json CHANGE.json``
reads two such files and flags every metric whose median got worse by
more than its bound.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import common
from common import BenchError, ROOT, SRC, WORK, log

SERVING = ("stream_ecg", "predict_wire")


def _require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def run_workload(spec: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    _require_source()
    WORK.mkdir(parents=True, exist_ok=True)
    if name in SERVING:
        import serving

        workload = serving.ServingWorkload(name, seed)
        try:
            workload.start()
            host = common.fingerprint(engine_backend=workload.backend)
            loop = workload.run_loop(seconds)
            values = workload.end_to_end(loop)
            ledger = loop["ledger"]
            summary = loop["summary"]
            extra = {"ops": summary["ops"], "fail_frac": ledger.fail_frac,
                     "blocks": summary["blocks"], "p50_ms": summary["p50_ms"]}
            if trace:
                traced = workload.run_loop(seconds)
                ledger.merge(traced["ledger"])
                tracer = common.Tracer()
                layers, errors = workload.replay(traced, tracer)
                overhead = traced["summary"]["mean_ms"] - values["mean_ms"]
                _report_trace(name, seed, tracer, len(traced["ops"]), overhead, errors)
                for error in errors:
                    ledger.record(False, f"traffic: {error}")
                values = {**_zero_layers(spec), **layers}
        finally:
            workload.stop()
    elif name == "train_sweep":
        import training

        result = training.run(seed, seconds, trace)
        host = common.fingerprint(engine_backend=None)
        ledger = result["ledger"]
        values = result["end_to_end"]
        extra = {"ops": result["ops"], "fail_frac": ledger.fail_frac, **result["extra"]}
        if trace:
            tracer = common.Tracer()
            tracer.spans = result["spans"]
            errors = result["traffic_errors"]
            overhead = result["trace_overhead_ms"]
            _report_trace(name, seed, tracer, result["traced_ops"], overhead, errors)
            for error in errors:
                ledger.record(False, f"traffic: {error}")
            values = {**_zero_layers(spec), **result["per_layer"]}
    else:
        raise BenchError(f"unknown workload {name!r}")

    log(f"host: {json.dumps(host, sort_keys=True)}")
    log(f"workload {name} seed {seed}: ops {extra['ops']}, "
        f"fail_frac {extra['fail_frac']:.6f} ({ledger.failed}/{ledger.attempted})")
    for key, value in extra.items():
        if key not in ("ops", "fail_frac"):
            log(f"  {key} = {value}")
    for reason, count in ledger.reasons.most_common(5):
        log(f"  failure x{count}: {reason}")
    metrics = common.metric_block(spec, trace, values)
    common.check_metrics(spec, trace, metrics)
    for metric, entry in metrics.items():
        log(f"  {metric:<36} {entry['value']:>16.6f} {entry['unit']}")
    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "results" / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "host": host, "extra": extra, "metrics": metrics,
         "attempted": ledger.attempted, "failed": ledger.failed}, indent=2))
    return {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }


def _zero_layers(spec: dict) -> dict:
    """Layers a workload does not exercise do no work: report them as 0."""
    return {m["name"]: 0.0 for m in spec["per_layer"]}


def _report_trace(name, seed, tracer, ops, overhead_ms, errors) -> None:
    path = WORK / "spans" / f"{name}-seed{seed}.json"
    tracer.write(path)
    log(f"self time per module, {name} ({ops} ops; spans in {path.relative_to(ROOT)}):")
    log(common.self_time_table(tracer.module_self_times(), ops))
    log(f"tracing overhead: {overhead_ms:+.4f} ms mean op time (traced minus untraced)")
    log("traffic check: " + ("ok" if not errors else "FAILED: " + "; ".join(errors)))


def steadiness(spec: dict, runs: int, workloads, seconds: int, trace: bool) -> int:
    """Run each workload ``runs`` times (seeds 1..runs) and print the spreads."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for name in workloads:
        values: dict = {}
        for seed in range(1, runs + 1):
            cmd = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(int(trace))]
            started = time.perf_counter()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                log(f"{name} seed {seed}: exit {out.returncode}\n{out.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            log(f"{name} seed {seed}: {time.perf_counter() - started:.1f} s, correct "
                f"{result['correct']}, failed {result['failed']}/{result['attempted']}")
            status |= 0 if result["correct"] else 1
            for metric, entry in result["metrics"].items():
                values.setdefault(metric, []).append(entry["value"])
        log(f"{name}: {runs} runs")
        log(f"  {'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'iqr/med':>8} {'range/med':>9} {'bound':>6}")
        for metric, series in values.items():
            s = common.spread(series)
            bound = bounds.get(metric)
            flag = "" if bound is None or metric == "setup_s" or s["iqr_share"] < bound / 3 else "  > bound/3"
            log(f"  {metric:<36} {s['median']:>14.6f} {s['q1']:>14.6f} {s['q3']:>14.6f} "
                f"{s['iqr_share']:>8.4f} {s['range_share']:>9.4f} "
                f"{'' if bound is None else bound:>6}{flag}")
        (WORK / "steadiness").mkdir(parents=True, exist_ok=True)
        (WORK / "steadiness" / f"{name}-trace{int(trace)}.json").write_text(json.dumps(values, indent=2))
    return status


def compare(spec: dict, base_path: str, change_path: str) -> int:
    """Compare two ``--steadiness`` value files (parent, then change) metric by metric."""
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    base = json.loads(Path(base_path).read_text())
    change = json.loads(Path(change_path).read_text())
    status = 0
    log(f"  {'metric':<20} {'parent':>14} {'change':>14} {'worse by':>9} {'bound':>6}")
    for name in base:
        if name not in metrics or name not in change:
            continue
        a, b = common.spread(base[name])["median"], common.spread(change[name])["median"]
        worse = (b - a) / a if metrics[name]["better"] == "lower" else (a - b) / a
        bad = worse > metrics[name]["bound"]
        status |= int(bad)
        log(f"  {name:<20} {a:>14.6f} {b:>14.6f} {worse:>+9.3f} {metrics[name]['bound']:>6}"
            + ("  REGRESSION" if bad else ""))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="N", default=0)
    parser.add_argument("--compare", nargs=2, metavar=("PARENT.json", "CHANGE.json"))
    args = parser.parse_args(argv)
    # A terminated run still stops the server it started (``finally`` blocks).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        spec = common.load_spec()
        if args.compare:
            return compare(spec, *args.compare)
        known = common.workload_names(spec)
        if not args.workload:
            raise BenchError("--workload is required")
        for name in args.workload:
            if name not in known:
                raise BenchError(f"unknown workload {name!r}; BENCHMARK.json declares {known}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        if seconds < 1:
            raise BenchError("--seconds must be >= 1")
        if args.steadiness:
            return steadiness(spec, args.steadiness, args.workload, seconds, bool(args.trace))
        if len(args.workload) != 1:
            raise BenchError("one --workload per run")
        result = run_workload(spec, args.workload[0], args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
