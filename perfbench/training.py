"""The ``train_sweep`` workload: ``run_sweep`` in a fresh child process.

The parent times set-up (fresh interpreters importing the solver entry
points), then runs this file as a child, which sweeps in whole passes
over the dataset pool until ``--seconds`` have passed and prints one JSON
line: the call times, the correctness checks, its own peak RSS and, when
traced, the spans and per-layer values.

Training work depends strongly on the dataset draw: across 40 draws of
the synthetic set one word-length sweep took 0.1 s to 2.9 s.  A dataset
drawn from the seed would make a run measure the draw, not the code, so
the datasets are pinned (the paper's tables use fixed seeds too) and the
seed shuffles their row order and draws the sweep's test sets.  Pinned
data is also what lets every point be checked against a recorded optimum
(``reference.json``).

Run ``python3 perfbench/training.py --record-reference`` to re-record the
optima after a deliberate change to the pinned pool.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import (  # noqa: E402
    ROOT,
    SRC,
    BenchError,
    FailLedger,
    Tracer,
    child_env,
    op_summary,
)

REFERENCE = HERE / "reference.json"
SETUP_SPAWNS = 5
SWEEP_POOL = (0, 1, 2, 3, 4, 5)  # synthetic dataset seeds, 1000 trials per class
WORD_LENGTHS = (4, 5, 6, 7, 8)
ENTRY_IMPORT = "from repro.core.ldafp import train_lda_fp; from repro.wordlength.engine import run_sweep"


# --------------------------------------------------------------------- #
# Parent side
# --------------------------------------------------------------------- #
def run(seed: int, seconds: float, trace: bool) -> dict:
    setup = []
    for _ in range(SETUP_SPAWNS):
        started = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", ENTRY_IMPORT], cwd=ROOT, env=child_env(),
                              capture_output=True, timeout=120)
        setup.append(time.perf_counter() - started)
        if done.returncode != 0:
            raise BenchError(f"importing the solver failed: {done.stderr.decode()[-500:]}")
    plain = _child(seed, seconds, trace=False)
    ledger = _ledger(plain)
    summary = op_summary(plain["calls"])
    out = {
        "ledger": ledger,
        "ops": summary["ops"],
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "samples_per_s": summary["samples_per_s"],
            "mean_ms": summary["mean_ms"],
            "p99_ms": summary["p99_ms"],
            "peak_rss_mb": plain["peak_rss_mb"],
        },
        "extra": {
            "p50_ms": summary["p50_ms"],
            "wall_s": sum(end - start for start, end, _ in plain["calls"]),
            "cost": plain["cost"],
        },
    }
    if trace:
        traced = _child(seed, seconds, trace=True)
        ledger.merge(_ledger(traced))
        out.update(
            spans=traced["spans"],
            per_layer=traced["per_layer"],
            traffic_errors=traced["traffic_errors"],
            traced_ops=len(traced["calls"]),
            trace_overhead_ms=op_summary(traced["calls"])["mean_ms"] - summary["mean_ms"],
        )
    return out


def _child(seed: int, seconds: float, trace: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__)), "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=170)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"training child failed ({done.returncode}): {done.stderr[-1500:]}")
    return json.loads(lines[-1])


def _ledger(result: dict) -> FailLedger:
    ledger = FailLedger()
    for ok, reason in result["checks"]:
        ledger.record(ok, reason)
    return ledger


# --------------------------------------------------------------------- #
# Child side (imports the program)
# --------------------------------------------------------------------- #
def _sweep_inputs(seed: int):
    import numpy as np

    from repro.data.dataset import Dataset
    from repro.data.synthetic import make_synthetic_dataset

    inputs = []
    for pool_seed in SWEEP_POOL:
        rng = np.random.default_rng([seed, pool_seed])
        a, b = make_synthetic_dataset(1000, seed=pool_seed).class_arrays()
        train = Dataset.from_class_arrays(a[rng.permutation(len(a))], b[rng.permutation(len(b))])
        test = make_synthetic_dataset(1000, seed=int(rng.integers(2**31)))
        inputs.append((pool_seed, train, test))
    return inputs


def _sweep_config():
    from repro.core.ldafp import LdaFpConfig
    from repro.core.pipeline import PipelineConfig

    return PipelineConfig(method="lda-fp", integer_bits=2, scale_margin=0.45,
                          ldafp=LdaFpConfig(time_limit=None))


def _timed_trace_class():
    from repro.optim.trace import SolverTrace

    class TimedTrace(SolverTrace):
        """A solver trace that also keeps absolute clock anchors."""

        def __init__(self) -> None:
            super().__init__()
            self.created = time.perf_counter()
            self.t0_abs = None

        def begin(self, t0=None) -> None:
            super().begin(t0)
            self.t0_abs = self._t0

    return TimedTrace


def _solver_stats(trace) -> dict:
    """Counts from one point's solver trace (events and finalized stats)."""
    children = sum(int(e.detail.split(":")[1]) for e in trace.events
                   if e.kind == "expand" and e.detail.startswith("branch:"))
    start = next(e.t for e in trace.events if e.kind == "start")
    stop = next(e.t for e in reversed(trace.events) if e.kind == "stop")
    # The warm-start early exit records a bare start/stop pair and no search.
    early_exit = all(e.kind in ("start", "stop") for e in trace.events)
    return {
        "nodes": int(trace.stats.get("nodes_expanded", 0)) if trace.stats else 0,
        "attempted_relaxations": 0 if early_exit else 1 + children,
        "infeasible": sum(1 for e in trace.events if e.kind == "infeasible"),
        "early_exit": early_exit,
        "solver_start": trace.t0_abs + start,
        "solver_stop": trace.t0_abs + stop,
        "verified": trace.verify_counters(),
    }


def child_sweep(seed: int, seconds: float, trace: bool) -> dict:
    from repro.wordlength.engine import run_sweep

    reference = json.loads(REFERENCE.read_text())
    rel_gap, abs_gap = reference["relative_gap"], reference["absolute_gap"]
    inputs = _sweep_inputs(seed)
    config = _sweep_config()
    TimedTrace = _timed_trace_class()
    checks, calls, costs = [], [], 0.0
    tracer = Tracer() if trace else None
    point_traces = []
    started = time.perf_counter()
    while True:
        for pool_seed, train, test in inputs:
            traces = {}

            def factory(wl, traces=traces):
                traces[wl] = TimedTrace()
                return traces[wl]

            t0 = time.perf_counter()
            points = run_sweep(train, test, WORD_LENGTHS, config,
                               trace_factory=factory if trace else None)
            t1 = time.perf_counter()
            calls.append((t0, t1, train.num_samples * len(points)))
            for point in points:
                # The recorded optimum is exact; a solve may stop within the gap above it.
                want = reference["cost"][str(pool_seed)][str(point.word_length)]
                ok = (point.proven_optimal is True and point.cost is not None
                      and want * (1 - 1e-9) - 1e-12 <= point.cost <= want * (1 + rel_gap) + abs_gap)
                checks.append((ok, f"sweep {pool_seed}/wl{point.word_length}: cost "
                                   f"{point.cost} proven {point.proven_optimal}, optimum {want}"))
                costs += point.cost or 0.0
            if trace:
                op = len(calls) - 1
                root = tracer.add("wordlength.engine", t0, t1, op=op)
                for point in points:
                    tr = traces[point.word_length]
                    stats = _solver_stats(tr)
                    checks.append((stats["verified"], f"trace counters {pool_seed}/wl{point.word_length}"))
                    span = tracer.add("core.ldafp", tr.created, tr.created + point.train_seconds,
                                      parent=root, op=op)
                    tracer.add("optim.bnb", stats["solver_start"], stats["solver_stop"],
                               parent=span, op=op)
                    point_traces.append((stats, tr.created))
        if time.perf_counter() - started >= seconds:
            break
    out = {"calls": calls, "checks": checks, "cost": costs}
    if trace:
        out.update(_sweep_layers(inputs, config, tracer, point_traces, len(calls)))
    return out


def _sweep_layers(inputs, config, tracer, point_traces, calls: int) -> dict:
    """Per-layer values of the traced sweep, plus a replay of one pool pass."""
    from repro.core.ldafp import train_lda_fp
    from repro.core.pipeline import TrainingPipeline
    from repro.wordlength.engine import float_warm_direction

    passes = calls // len(inputs)
    selfs = tracer.module_self_times()
    nodes = sum(s["nodes"] for s, _ in point_traces)
    attempted = sum(s["attempted_relaxations"] for s, _ in point_traces)
    infeasible = sum(s["infeasible"] for s, _ in point_traces)
    prep = sum(s["solver_start"] - entered for s, entered in point_traces)
    # Replay one pass point by point through train_lda_fp with the inputs
    # run_sweep hands it, for the counters run_sweep does not return.
    pipeline = TrainingPipeline(config)
    replayed = dict(nodes=0, relaxations=0, symmetry_pruned=0)
    micro = dict(scale_sweep=[], checks=[], check_calls=0, quantize=[], root=[])
    for _, train, _ in inputs:
        scaler = pipeline.scaler_for(max(WORD_LENGTHS))
        scaler.fit(train.features)
        train_scaled = train.map_features(scaler.transform)
        direction = float_warm_direction(train_scaled)
        previous = None
        for wl in WORD_LENGTHS:
            fmt = pipeline.format_for(wl)
            classifier, report = train_lda_fp(
                train_scaled, fmt, config.ldafp, warm_start_direction=direction,
                incumbent_seeds=[previous] if previous is not None else None)
            previous = classifier.weights
            replayed["nodes"] += report.nodes_expanded
            replayed["relaxations"] += report.relaxations_solved
            replayed["symmetry_pruned"] += report.symmetry_pruned
            _micro_layers(train_scaled, fmt, config.ldafp, direction, micro)
    errors = []
    if replayed["nodes"] * passes != nodes:
        errors.append(f"replayed nodes {replayed['nodes']} x {passes} passes != traced {nodes}")
    first_pass = point_traces[: len(inputs) * len(WORD_LENGTHS)]
    return {
        "spans": tracer.spans,
        "traffic_errors": errors,
        "per_layer": {
            "wordlength.engine.overhead_s": selfs.get("wordlength.engine", 0.0) / calls,
            "core.ldafp.prep_s": prep / calls,
            "core.localsearch.ms_per_scale_sweep": statistics.fmean(micro["scale_sweep"]) * 1e3,
            "core.problem.us_per_check": sum(micro["checks"]) * 1e6 / max(micro["check_calls"], 1),
            "fixedpoint.quantize.ms_per_call": statistics.fmean(micro["quantize"]) * 1e3,
            "optim.bnb.nodes": nodes / passes,
            "optim.bnb.relaxations": float(replayed["relaxations"]),
            "optim.bnb.early_exits": float(sum(s["early_exit"] for s, _ in first_pass)),
            "optim.bnb.infeasible_frac": infeasible / attempted if attempted else 0.0,
            "optim.cuts.symmetry_pruned": float(replayed["symmetry_pruned"]),
            "optim.bnb.ms_per_node": selfs.get("optim.bnb", 0.0) * 1e3 / nodes if nodes else 0.0,
            "optim.relax.root_ms": statistics.fmean(micro["root"]) * 1e3,
        },
    }


def _micro_layers(train_scaled, fmt, ldafp_config, direction, micro) -> None:
    """Time the layers the solver leans on, on this point's own inputs."""
    import numpy as np

    from repro.core.ldafp import _adjust_stats  # the trainer's own statistics step
    from repro.core.localsearch import scale_sweep_candidates
    from repro.core.problem import LdaFpProblem, eta_sup
    from repro.fixedpoint.quantize import quantize
    from repro.optim.slsqp_backend import solve_with_slsqp
    from repro.stats.scatter import estimate_two_class_stats

    t0 = time.perf_counter()
    data = train_scaled.map_features(lambda x: np.asarray(quantize(x, fmt, rounding=ldafp_config.rounding)))
    micro["quantize"].append(time.perf_counter() - t0)
    stats = _adjust_stats(estimate_two_class_stats(*data.class_arrays()), fmt, ldafp_config)
    problem = LdaFpProblem(stats=stats, fmt=fmt, rho=ldafp_config.rho, beta=ldafp_config.beta)
    t0 = time.perf_counter()
    candidates = scale_sweep_candidates(problem, np.asarray(direction) / np.linalg.norm(direction))
    micro["scale_sweep"].append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    for candidate in candidates:
        problem.constraint_violation(candidate)
    micro["checks"].append(time.perf_counter() - t0)
    micro["check_calls"] += len(candidates)
    box = problem.root_box()
    m = problem.num_features
    program = problem.node_program(box, eta_sup(float(box.lo[m]), float(box.hi[m])))
    t0 = time.perf_counter()
    solve_with_slsqp(program)  # the primary backend of train_lda_fp's "auto"
    micro["root"].append(time.perf_counter() - t0)


def record_reference() -> None:
    """Solve the pinned pool to exact optimality and record every optimum.

    The workload's own solves stop within the solver gap, so a recorded
    gap-optimal cost could be beaten by a later, equally valid solve; the
    reference closes the gap completely instead.
    """
    from dataclasses import replace

    from repro.wordlength.engine import run_sweep

    config = _sweep_config()
    exact = replace(config, ldafp=replace(config.ldafp, relative_gap=0.0, absolute_gap=1e-12))
    costs = {}
    for pool_seed, train, test in _sweep_inputs(0):
        points = run_sweep(train, test, WORD_LENGTHS, exact)
        if not all(p.proven_optimal for p in points):
            raise BenchError(f"pool dataset {pool_seed} has an unproven point")
        costs[str(pool_seed)] = {str(p.word_length): p.cost for p in points}
    REFERENCE.write_text(json.dumps({
        "pool": list(SWEEP_POOL), "word_lengths": list(WORD_LENGTHS),
        "relative_gap": config.ldafp.relative_gap, "absolute_gap": config.ldafp.absolute_gap,
        "cost": costs,
    }, indent=2) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    if args.record_reference:
        record_reference()
        return 0
    result = child_sweep(args.seed, args.seconds, bool(args.trace))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
