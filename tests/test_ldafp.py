"""Tests for repro.core.ldafp — including exactness vs brute force.

The headline soundness test: on small instances the branch-and-bound solver
must return exactly the brute-force global optimum of the Eq. 21 program.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.conformance.oracles import constraint_violation_reference
from repro.core.classifier import FixedPointLinearClassifier
from repro.core.ldafp import LdaFpConfig, LdaFpNodeProblem, _adjust_stats, train_lda_fp
from repro.core.problem import LdaFpProblem
from repro.data.gaussian import GaussianClassModel, TwoClassGaussianModel
from repro.data.synthetic import make_synthetic_dataset
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import quantize
from repro.optim.boxes import Box
from repro.optim.bruteforce import brute_force_minimize
from repro.stats.scatter import ClassStats, TwoClassStats, estimate_two_class_stats


def tight_config(**kwargs) -> LdaFpConfig:
    # PQN off so the reference LdaFpProblem (built from raw quantized
    # stats) defines the same objective the trainer optimizes.
    defaults = dict(
        max_nodes=50_000,
        time_limit=120.0,
        absolute_gap=1e-12,
        relative_gap=1e-9,
        quantization_noise_floor=False,
    )
    defaults.update(kwargs)
    return LdaFpConfig(**defaults)


def brute_force_optimum(problem: LdaFpProblem) -> float:
    grid = problem.fmt.grid()
    result = brute_force_minimize(
        [grid] * problem.num_features,
        cost=problem.cost,
        feasible=lambda w: problem.constraint_violation(w) <= 1e-9,
    )
    return result.cost


class TestMatchesBruteForce:
    """B&B must reproduce the exhaustive-search optimum exactly."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("word_length", [4, 5])
    def test_2d_gaussian_instances(self, seed, word_length):
        rng = np.random.default_rng(seed)
        mean = rng.uniform(0.2, 0.6, size=2)
        a_raw = rng.standard_normal((300, 2)) * 0.4 + mean
        b_raw = rng.standard_normal((300, 2)) * 0.4 - mean
        from repro.data.dataset import Dataset

        ds = Dataset.from_class_arrays(a_raw, b_raw)
        fmt = QFormat(2, word_length - 2)
        quantized = ds.map_features(lambda x: np.asarray(quantize(x, fmt)))
        stats = estimate_two_class_stats(quantized.class_a, quantized.class_b)
        problem = LdaFpProblem(stats=stats, fmt=fmt, rho=0.99)

        classifier, report = train_lda_fp(ds, fmt, tight_config())
        expected = brute_force_optimum(problem)
        assert report.cost == pytest.approx(expected, rel=1e-9)

    def test_synthetic_3d_at_4_bits(self):
        ds = make_synthetic_dataset(400, seed=0)
        # scale features to the format range as the pipeline would
        from repro.data.scaling import FeatureScaler

        fmt = QFormat(2, 2)
        scaler = FeatureScaler(limit=0.9)
        ds = ds.map_features(scaler.fit(ds.features).transform)
        classifier, report = train_lda_fp(ds, fmt, tight_config())

        quantized = ds.map_features(lambda x: np.asarray(quantize(x, fmt)))
        stats = estimate_two_class_stats(quantized.class_a, quantized.class_b)
        problem = LdaFpProblem(stats=stats, fmt=fmt, rho=0.99)
        expected = brute_force_optimum(problem)
        assert report.cost == pytest.approx(expected, rel=1e-9)
        assert report.proven_optimal


class TestQuantizationNoiseFloor:
    """Regression: near-duplicate features quantize identically, creating a
    spurious zero-variance direction with training cost ~0 that classifies
    at chance on deployment.  The PQN floor must reject it."""

    def test_seed10_synthetic_4bit_not_degenerate(self):
        train = make_synthetic_dataset(1500, seed=10)
        test = make_synthetic_dataset(3000, seed=11)
        from repro.data.scaling import FeatureScaler

        fmt = QFormat(2, 2)
        scaler = FeatureScaler(limit=0.9)
        scaler.fit(train.features)
        train_s = train.map_features(scaler.transform)
        test_s = test.map_features(scaler.transform)
        classifier, report = train_lda_fp(
            train_s, fmt, LdaFpConfig(max_nodes=200, time_limit=20)
        )
        assert report.cost > 0.01  # not the degenerate 0-cost artifact
        assert classifier.error_on(test_s) < 0.40

    def test_pqn_off_reproduces_degeneracy(self):
        train = make_synthetic_dataset(1500, seed=10)
        from repro.data.scaling import FeatureScaler

        fmt = QFormat(2, 2)
        scaler = FeatureScaler(limit=0.9)
        scaler.fit(train.features)
        train_s = train.map_features(scaler.transform)
        _, report = train_lda_fp(
            train_s,
            fmt,
            LdaFpConfig(
                max_nodes=50, time_limit=10, quantization_noise_floor=False
            ),
        )
        assert report.cost < 0.01  # the artifact the floor exists to kill


class TestScaleMaximization:
    def test_doubling_preserves_cost_exactly(self, synthetic_train):
        from repro.core.ldafp import _adjust_stats, _maximize_scale
        from repro.fixedpoint.quantize import quantize as q

        fmt = QFormat(2, 4)
        quantized = synthetic_train.map_features(lambda x: np.asarray(q(x, fmt)))
        stats = _adjust_stats(
            estimate_two_class_stats(quantized.class_a, quantized.class_b),
            fmt,
            LdaFpConfig(),
        )
        problem = LdaFpProblem(stats=stats, fmt=fmt)
        w = np.array([0.0625, -0.125, 0.125])
        scaled = _maximize_scale(problem, w)
        assert problem.cost(scaled) == pytest.approx(problem.cost(w), rel=1e-12)
        assert np.max(np.abs(scaled)) >= np.max(np.abs(w))
        assert problem.on_grid(scaled)
        assert problem.constraint_violation(scaled) <= 1e-9

    def test_trained_weights_use_dynamic_range(self, synthetic_train):
        """After the scale pass, the largest weight should sit in the top
        half of the representable range (unless overflow constraints bind
        first)."""
        fmt = QFormat(2, 3)
        classifier, _ = train_lda_fp(
            synthetic_train, fmt, LdaFpConfig(max_nodes=60, time_limit=10)
        )
        peak = float(np.max(np.abs(classifier.weights)))
        assert peak >= 0.25 * fmt.max_value


class TestTrainerBehaviour:
    def test_returns_feasible_grid_classifier(self, synthetic_train):
        fmt = QFormat(2, 3)
        classifier, report = train_lda_fp(
            synthetic_train, fmt, LdaFpConfig(max_nodes=100, time_limit=10)
        )
        assert isinstance(classifier, FixedPointLinearClassifier)
        for w in classifier.weights:
            assert fmt.contains(float(w))
        assert np.isfinite(report.cost)
        assert report.lower_bound <= report.cost + 1e-9

    def test_polarity_orients_class_a_positive(self, synthetic_train, synthetic_test):
        fmt = QFormat(2, 3)
        classifier, _ = train_lda_fp(
            synthetic_train, fmt, LdaFpConfig(max_nodes=100, time_limit=10)
        )
        error = classifier.error_on(synthetic_test)
        assert error < 0.5

    def test_report_counters_consistent(self, synthetic_train):
        fmt = QFormat(2, 2)
        _, report = train_lda_fp(
            synthetic_train, fmt, LdaFpConfig(max_nodes=200, time_limit=20)
        )
        assert report.nodes_expanded >= 0
        assert report.train_seconds > 0
        assert report.relaxations_solved >= 0

    def test_warm_start_off_still_works(self, synthetic_train):
        fmt = QFormat(2, 2)
        classifier, report = train_lda_fp(
            synthetic_train,
            fmt,
            LdaFpConfig(max_nodes=300, time_limit=30, warm_start=False),
        )
        assert np.isfinite(report.cost)

    def test_budget_limited_run_flags_not_proven(self, synthetic_train):
        fmt = QFormat(2, 6)
        _, report = train_lda_fp(
            synthetic_train,
            fmt,
            LdaFpConfig(
                max_nodes=3,
                time_limit=5,
                relative_gap=1e-12,
                absolute_gap=1e-15,
                local_search=False,
                scale_sweep=True,
            ),
        )
        # With essentially no search budget and an impossible gap target the
        # run cannot prove optimality (the warm start would have to hit the
        # continuous optimum to 1e-12).
        assert not report.proven_optimal

    def test_beta_override(self, synthetic_train):
        fmt = QFormat(2, 2)
        _, report_tight = train_lda_fp(
            synthetic_train, fmt, LdaFpConfig(beta=6.0, max_nodes=100, time_limit=10)
        )
        _, report_loose = train_lda_fp(
            synthetic_train, fmt, LdaFpConfig(beta=0.5, max_nodes=100, time_limit=10)
        )
        # Looser overflow constraints can only improve (or tie) the cost.
        assert report_loose.cost <= report_tight.cost + 1e-9

    def test_backend_slsqp_and_auto_agree(self, synthetic_train):
        fmt = QFormat(2, 2)
        _, r_auto = train_lda_fp(synthetic_train, fmt, tight_config(backend="auto"))
        _, r_slsqp = train_lda_fp(synthetic_train, fmt, tight_config(backend="slsqp"))
        assert r_auto.cost == pytest.approx(r_slsqp.cost, rel=1e-6)

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            LdaFpConfig(backend="magic")


class TestNodeProblem:
    def test_infeasible_t_interval_pruned(self, synthetic_train):
        from repro.fixedpoint.quantize import quantize as q
        from repro.optim.boxes import Box

        fmt = QFormat(2, 2)
        quantized = synthetic_train.map_features(lambda x: np.asarray(q(x, fmt)))
        stats = estimate_two_class_stats(quantized.class_a, quantized.class_b)
        problem = LdaFpProblem(stats=stats, fmt=fmt)
        node_problem = LdaFpNodeProblem(problem, LdaFpConfig())
        root = problem.root_box()
        # t interval far outside the image of the w box
        bad = Box(
            lo=np.concatenate([root.lo[:3], [root.hi[3] + 10.0]]),
            hi=np.concatenate([root.hi[:3], [root.hi[3] + 20.0]]),
            steps=root.steps,
        )
        relaxation = node_problem.relax(bad)
        assert relaxation.lower_bound == np.inf

    def test_degenerate_t_zero_pruned(self, synthetic_train):
        from repro.fixedpoint.quantize import quantize as q
        from repro.optim.boxes import Box

        fmt = QFormat(2, 2)
        quantized = synthetic_train.map_features(lambda x: np.asarray(q(x, fmt)))
        stats = estimate_two_class_stats(quantized.class_a, quantized.class_b)
        problem = LdaFpProblem(stats=stats, fmt=fmt)
        node_problem = LdaFpNodeProblem(problem, LdaFpConfig())
        root = problem.root_box()
        pinned = Box(
            lo=np.concatenate([root.lo[:3], [0.0]]),
            hi=np.concatenate([root.hi[:3], [0.0]]),
            steps=root.steps,
        )
        assert node_problem.relax(pinned).lower_bound == np.inf

    def test_candidates_are_feasible(self, synthetic_train):
        from repro.fixedpoint.quantize import quantize as q

        fmt = QFormat(2, 2)
        quantized = synthetic_train.map_features(lambda x: np.asarray(q(x, fmt)))
        stats = estimate_two_class_stats(quantized.class_a, quantized.class_b)
        problem = LdaFpProblem(stats=stats, fmt=fmt)
        node_problem = LdaFpNodeProblem(problem, LdaFpConfig())
        root = problem.root_box()
        relaxation = node_problem.relax(root)
        for candidate in node_problem.candidates(root, relaxation):
            assert problem.is_feasible(candidate.x)
            assert np.isfinite(candidate.cost)


def reference_resolve_terminal(problem: LdaFpProblem, box: Box) -> list:
    """The terminal grid one point at a time, checked by the scalar reference."""
    grids = [box.grid_values(dim) for dim in range(problem.num_features)]
    out = []
    for combo in itertools.product(*grids):
        w = np.array(combo)
        if not np.any(w):
            continue
        if constraint_violation_reference(problem, w) > 1e-9:
            continue
        cost = problem.cost(w)
        if np.isfinite(cost):
            out.append((w, cost))
    return out


def weight_box(problem: LdaFpProblem, lo, hi) -> Box:
    """A node box over ``(w, t)`` with the given ``w`` bounds."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    t_lo, t_hi = problem.linear_image(lo, hi)
    m = problem.num_features
    return Box(
        lo=np.concatenate([lo, [t_lo]]),
        hi=np.concatenate([hi, [t_hi]]),
        steps=np.concatenate([np.full(m, problem.fmt.resolution), [0.0]]),
    )


def toy_terminal_case():
    mean_a = np.array([0.4, 0.0])
    cov = np.eye(2) * 0.09
    stats = TwoClassStats(
        class_a=ClassStats(mean_a, cov, 100),
        class_b=ClassStats(-mean_a, cov, 100),
        within_scatter=cov,
        mean_difference=2 * mean_a,
    )
    problem = LdaFpProblem(stats=stats, fmt=QFormat(2, 3), rho=0.99)
    # Holds the zero row and rows past the Eq. 18 limit |w_0| <= 1.6.
    return problem, weight_box(problem, [-0.5, -0.25], [1.875, 0.25])


def q23_terminal_case():
    """The pinned Q2.3 case, on a corner box where the projection rows bind."""
    from repro.data.scaling import FeatureScaler

    fmt = QFormat(2, 3)
    ds = make_synthetic_dataset(1000, seed=0)
    ds = ds.map_features(FeatureScaler(limit=0.9).fit(ds.features).transform)
    ds = ds.map_features(lambda x: np.asarray(quantize(x, fmt)))
    stats = _adjust_stats(estimate_two_class_stats(*ds.class_arrays()), fmt, LdaFpConfig())
    problem = LdaFpProblem(stats=stats, fmt=fmt, rho=0.99)
    return problem, weight_box(problem, [-2.0, -2.0, 1.375], [-1.5, -1.5, 1.875])


class TestResolveTerminal:
    @pytest.mark.parametrize("case", [toy_terminal_case, q23_terminal_case])
    def test_matches_per_candidate_reference(self, case):
        problem, box = case()
        node_problem = LdaFpNodeProblem(problem, LdaFpConfig())
        assert node_problem.is_terminal(box)
        got = list(node_problem.resolve_terminal(box))
        want = reference_resolve_terminal(problem, box)
        grid_size = int(np.prod([box.grid_count(d) for d in range(problem.num_features)]))
        # The box holds both feasible and infeasible points.
        assert 0 < len(want) < grid_size
        assert len(got) == len(want)
        for candidate, (w, cost) in zip(got, want):
            assert np.array_equal(candidate.x, w)
            assert candidate.cost == cost

    def test_empty_grid_dimension_yields_nothing(self):
        problem, _ = toy_terminal_case()
        box = weight_box(problem, [0.26, 0.0], [0.27, 0.25])  # no grid point in w_0
        node_problem = LdaFpNodeProblem(problem, LdaFpConfig())
        assert list(node_problem.resolve_terminal(box)) == []
