"""Micro-benchmarks of the substrates (pytest-benchmark timings).

Not tied to a paper table; these track the performance of the pieces the
experiments lean on so regressions surface: quantization throughput, the
bit-exact datapath, one cone-program node solve (both backends), and a full
small branch-and-bound run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.ldafp import LdaFpConfig, train_lda_fp
from repro.core.problem import LdaFpProblem, eta_sup
from repro.data.synthetic import make_synthetic_dataset
from repro.data.scaling import FeatureScaler
from repro.fixedpoint.datapath import DatapathConfig, FixedPointDatapath
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import quantize
from repro.optim.barrier import BarrierSolver
from repro.optim.slsqp_backend import solve_with_slsqp
from repro.stats.scatter import estimate_two_class_stats


@pytest.fixture(scope="module")
def scaled_synthetic():
    fmt = QFormat(2, 4)
    ds = make_synthetic_dataset(1000, seed=0)
    scaler = FeatureScaler(limit=0.9)
    ds = ds.map_features(scaler.fit(ds.features).transform)
    return ds, fmt


@pytest.fixture(scope="module")
def node_program(scaled_synthetic):
    ds, fmt = scaled_synthetic
    quantized = ds.map_features(lambda x: np.asarray(quantize(x, fmt)))
    stats = estimate_two_class_stats(quantized.class_a, quantized.class_b)
    problem = LdaFpProblem(stats=stats, fmt=fmt)
    box = problem.root_box()
    eta = eta_sup(float(box.lo[3]), float(box.hi[3]))
    return problem.node_program(box, eta)


def test_bench_quantize_1m_values(benchmark):
    fmt = QFormat(2, 6)
    values = np.random.default_rng(0).uniform(-3, 3, size=1_000_000)
    out = benchmark(lambda: quantize(values, fmt))
    assert np.asarray(out).shape == values.shape


def test_bench_datapath_batch(benchmark, scaled_synthetic):
    ds, fmt = scaled_synthetic
    dp = FixedPointDatapath(
        [0.5, -0.25, 0.75], 0.125, DatapathConfig(fmt=fmt)
    )
    result = benchmark(lambda: dp.classify_batch(ds.features[:500]))
    assert result.shape == (500,)


def test_bench_node_solve_slsqp(benchmark, node_program):
    result = benchmark(lambda: solve_with_slsqp(node_program))
    assert result.max_violation <= 1e-6


def test_bench_node_solve_barrier(benchmark, node_program):
    solver = BarrierSolver()
    result = benchmark.pedantic(
        lambda: solver.solve(node_program), iterations=1, rounds=3
    )
    assert result.objective >= -1e-9


def test_bench_full_train_4bit(benchmark, scaled_synthetic):
    ds, _ = scaled_synthetic
    fmt = QFormat(2, 2)

    def train():
        return train_lda_fp(
            ds, fmt, LdaFpConfig(max_nodes=100, time_limit=20, relative_gap=1e-6)
        )

    classifier, report = benchmark.pedantic(train, iterations=1, rounds=3)
    assert np.isfinite(report.cost)


BENCH_SOLVER_SCHEMA = "repro.bench-solver/v1"

# The pinned Q2.3 solver benchmark instance: the paper's synthetic dataset
# (1000 trials/class, seed 0) scaled to 90% of the format range, solved to
# proven optimality with no time budget.  The solver benchmark below and
# the CI solver-smoke assertions reference exactly this case.
PINNED_Q23 = dict(
    samples_per_class=1000, seed=0, scaler_limit=0.9, int_bits=2, frac_bits=3
)
PINNED_Q23_CONFIG = dict(
    max_nodes=20_000, time_limit=None, relative_gap=1e-6, warm_start=True
)


@pytest.fixture(scope="module")
def pinned_q23():
    fmt = QFormat(PINNED_Q23["int_bits"], PINNED_Q23["frac_bits"])
    ds = make_synthetic_dataset(
        PINNED_Q23["samples_per_class"], seed=PINNED_Q23["seed"]
    )
    scaler = FeatureScaler(limit=PINNED_Q23["scaler_limit"])
    return ds.map_features(scaler.fit(ds.features).transform), fmt


def test_bench_presolve_node_reduction(pinned_q23, merge_bench):
    """Node-count reduction from the acceleration layer on the pinned case.

    Plain (no presolve, no symmetry cuts) vs accelerated branch-and-bound,
    both serial and both run to proven optimality, must return the
    identical ``(cost, lower_bound, proven_optimal)`` triple; the
    accelerated run must expand at most half the nodes (the spectral cone
    reduction alone collapses the improving set to a tube around the
    Fisher ray).  CI re-asserts the emitted ratio.
    """
    import time

    ds, fmt = pinned_q23
    runs = {}
    for label, kw in (
        ("plain", dict(presolve=False, symmetry_cuts=False)),
        ("accelerated", dict(presolve=True, symmetry_cuts=True)),
    ):
        start = time.perf_counter()
        _, report = train_lda_fp(ds, fmt, LdaFpConfig(**PINNED_Q23_CONFIG, **kw))
        runs[label] = (report, time.perf_counter() - start)

    plain, accelerated = runs["plain"][0], runs["accelerated"][0]
    assert plain.proven_optimal and accelerated.proven_optimal
    assert plain.cost == accelerated.cost
    assert plain.lower_bound == accelerated.lower_bound

    reduction = plain.nodes_expanded / max(accelerated.nodes_expanded, 1)
    print(
        f"pinned Q2.3: plain {plain.nodes_expanded} nodes "
        f"({runs['plain'][1]:.2f} s) vs accelerated "
        f"{accelerated.nodes_expanded} nodes ({runs['accelerated'][1]:.2f} s) "
        f"-> {reduction:.2f}x node reduction, "
        f"{accelerated.symmetry_pruned} symmetry prunes"
    )
    assert reduction >= 2.0

    merge_bench(
        "BENCH_solver.json",
        {
            "schema": BENCH_SOLVER_SCHEMA,
            "presolve_node_reduction": {
                "case": PINNED_Q23,
                "plain_nodes": plain.nodes_expanded,
                "accelerated_nodes": accelerated.nodes_expanded,
                "node_reduction": reduction,
                "plain_seconds": runs["plain"][1],
                "accelerated_seconds": runs["accelerated"][1],
                "symmetry_pruned": accelerated.symmetry_pruned,
                "cost": plain.cost,
                "lower_bound": plain.lower_bound,
                "proven_optimal": plain.proven_optimal,
            },
        },
    )
