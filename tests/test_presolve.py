"""Tests for the solver acceleration layer: presolve and reflection cuts.

The load-bearing property: presolve (FBBT + grid snapping + incumbent
ellipsoid + spectral cone) may only remove points that are infeasible or
*strictly* worse than the incumbent — so with the incumbent set to the
brute-force optimal cost, the optimal vertex must survive every
tightening.  The reflection cut must only prune boxes whose feasible
points all have feasible, equal-cost mirrors, and the cut-guided split
must produce a child the cut then prunes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.problem import LdaFpProblem
from repro.data.dataset import Dataset
from repro.errors import InputValidationError
from repro.fixedpoint.qformat import QFormat
from repro.fixedpoint.quantize import quantize
from repro.optim.boxes import Box
from repro.optim.bruteforce import brute_force_minimize
from repro.optim.presolve import Presolver
from repro.stats.scatter import estimate_two_class_stats


def make_problem(seed: int) -> LdaFpProblem:
    """Small deterministic LDA-FP instance (same family as the
    conformance oracles' ``_solver_instance``)."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    mean = rng.uniform(-0.6, 0.6, size=m)
    scale = rng.uniform(0.2, 0.5)
    a = rng.standard_normal((60, m)) * scale + mean
    b = rng.standard_normal((60, m)) * scale - mean
    ds = Dataset.from_class_arrays(a, b)
    fmt = QFormat(2, int(rng.integers(1, 4)))
    quantized = ds.map_features(lambda x: np.asarray(quantize(x, fmt)))
    stats = estimate_two_class_stats(quantized.class_a, quantized.class_b)
    return LdaFpProblem(stats=stats, fmt=fmt, rho=0.99)


def brute_force(problem: LdaFpProblem):
    grid = problem.fmt.grid()
    return brute_force_minimize(
        [grid] * problem.num_features,
        cost=problem.cost,
        feasible=lambda w: problem.constraint_violation(w) <= 1e-9,
    )


def sub_box(problem: LdaFpProblem, data) -> Box:
    """A random grid-aligned ``(w, t)`` sub-box of the root box, with the
    ``t`` interval set to the exact linear image of the ``w`` part."""
    root = problem.root_box()
    m = problem.num_features
    lo = root.lo.copy()
    hi = root.hi.copy()
    for dim in range(m):
        values = root.grid_values(dim)
        i = data.draw(
            st.integers(0, values.size - 1), label=f"lo_index[{dim}]"
        )
        j = data.draw(st.integers(i, values.size - 1), label=f"hi_index[{dim}]")
        lo[dim], hi[dim] = float(values[i]), float(values[j])
    lo[m], hi[m] = problem.linear_image(lo[:m], hi[:m])
    return Box(lo=lo, hi=hi, steps=root.steps)


# --------------------------------------------------------------------- #
# Presolve soundness: the brute-force optimum survives every reduction.
# --------------------------------------------------------------------- #
class TestPresolveKeepsOptimum:
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 10**6),
        incumbent_kind=st.sampled_from(["none", "optimal", "loose"]),
    )
    def test_root_box_keeps_bruteforce_optimum(self, seed, incumbent_kind):
        problem = make_problem(seed)
        best = brute_force(problem)
        assume(best.feasible_count > 0)
        incumbent = {
            "none": np.inf,
            "optimal": best.cost,  # the adversarial case: zero slack
            "loose": best.cost * 1.5 + 0.1,
        }[incumbent_kind]

        box = problem.root_box()
        m = problem.num_features
        result = problem.presolver().presolve(
            box.lo[:m], box.hi[:m], box.lo[m], box.hi[m], incumbent=incumbent
        )

        assert result.feasible
        assert np.all(result.w_lo <= best.x + 1e-9)
        assert np.all(result.w_hi >= best.x - 1e-9)
        t_star = float(problem.stats.mean_difference @ best.x)
        assert result.t_lo - 1e-9 <= t_star <= result.t_hi + 1e-9
        # The mirror is equally optimal and must survive too (the spectral
        # cone is two-sided; symmetry pruning is the cut's job, not
        # presolve's).
        assert np.all(result.w_lo <= -best.x + 1e-9) or not problem.is_feasible(
            -best.x
        )

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_node_boxes_never_lose_contained_optimum(self, seed, data):
        """On random sub-boxes containing the optimum, presolve may
        shrink — but the optimum stays inside."""
        problem = make_problem(seed)
        best = brute_force(problem)
        assume(best.feasible_count > 0)
        root = problem.root_box()
        m = problem.num_features
        lo = root.lo.copy()
        hi = root.hi.copy()
        for dim in range(m):
            values = root.grid_values(dim)
            at = int(np.argmin(np.abs(values - best.x[dim])))
            i = data.draw(st.integers(0, at), label=f"lo_index[{dim}]")
            j = data.draw(
                st.integers(at, values.size - 1), label=f"hi_index[{dim}]"
            )
            lo[dim], hi[dim] = float(values[i]), float(values[j])
        lo[m], hi[m] = problem.linear_image(lo[:m], hi[:m])
        t_star = float(problem.stats.mean_difference @ best.x)
        result = problem.presolver().presolve(
            lo[:m], hi[:m], lo[m], hi[m], incumbent=best.cost
        )
        assert result.feasible
        assert np.all(result.w_lo <= best.x + 1e-9)
        assert np.all(result.w_hi >= best.x - 1e-9)
        assert result.t_lo - 1e-9 <= t_star <= result.t_hi + 1e-9


# --------------------------------------------------------------------- #
# The spectral cone math, independent of any LDA instance.
# --------------------------------------------------------------------- #
class TestSpectralCone:
    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_transverse_bound_holds_for_improving_points(self, seed):
        """Any ``w`` with ``cost(w) <= c`` satisfies the per-direction
        amplitude bound the presolver turns into FBBT rows."""
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 5))
        a = rng.standard_normal((m, m))
        s_mat = a.T @ a + 1e-6 * np.eye(m)
        d = rng.standard_normal(m)
        w = rng.standard_normal(m)
        t = float(d @ w)
        assume(abs(t) > 1e-6)
        cost = float(w @ s_mat @ w) / t**2
        c = cost * (1.0 + float(rng.uniform(0.0, 1.0)))

        presolver = Presolver(
            rows_a=np.zeros((0, m)),
            rows_b=np.zeros(0),
            d=d,
            steps=np.full(m, 0.25),
            obj_matrix=s_mat,
        )
        spectral = presolver._spectral_cone(c)
        assume(spectral is not None)
        axis, dirs, ratios = spectral
        axis_amp = abs(float(axis @ w))
        for direction, ratio in zip(dirs, ratios):
            assert abs(float(direction @ w)) <= ratio * axis_amp * (1 + 1e-6) + 1e-6

    def test_disabled_without_matrix_or_incumbent(self):
        presolver = Presolver(
            rows_a=np.zeros((0, 2)),
            rows_b=np.zeros(0),
            d=np.array([1.0, -1.0]),
            steps=np.array([0.25, 0.25]),
        )
        assert presolver._spectral_cone(1.0) is None
        with_matrix = Presolver(
            rows_a=np.zeros((0, 2)),
            rows_b=np.zeros(0),
            d=np.array([1.0, -1.0]),
            steps=np.array([0.25, 0.25]),
            obj_matrix=np.eye(2),
        )
        assert with_matrix._spectral_cone(np.inf) is None
        assert with_matrix._spectral_cone(-1.0) is None

    def test_rejects_malformed_matrix(self):
        with pytest.raises(InputValidationError):
            Presolver(
                rows_a=np.zeros((0, 2)),
                rows_b=np.zeros(0),
                d=np.array([1.0, -1.0]),
                steps=np.array([0.25, 0.25]),
                obj_matrix=np.full((2, 2), np.nan),
            )
        with pytest.raises(InputValidationError):
            Presolver(
                rows_a=np.zeros((0, 2)),
                rows_b=np.zeros(0),
                d=np.array([1.0, -1.0]),
                steps=np.array([0.25, 0.25]),
                obj_matrix=np.eye(3),
            )


# --------------------------------------------------------------------- #
# FBBT / snapping / infeasibility units on hand-built rows.
# --------------------------------------------------------------------- #
class TestFbbtUnits:
    def _presolver(self, rows_a, rows_b, d=(1.0, 1.0), step=0.25):
        return Presolver(
            rows_a=np.asarray(rows_a, dtype=float),
            rows_b=np.asarray(rows_b, dtype=float),
            d=np.asarray(d, dtype=float),
            steps=np.full(2, step),
        )

    def test_row_tightens_upper_bound(self):
        # w0 + w1 <= 0.5 over [0,1]^2 caps both variables at 0.5.
        p = self._presolver([[1.0, 1.0]], [0.5])
        res = p.presolve(np.zeros(2), np.ones(2), -10.0, 10.0)
        assert res.feasible
        assert res.w_hi == pytest.approx([0.5, 0.5], abs=1e-9)
        assert res.stats.tightenings > 0

    def test_infeasible_row_detected(self):
        # -w0 <= -2  (w0 >= 2) is impossible in [0, 1].
        p = self._presolver([[-1.0, 0.0]], [-2.0])
        res = p.presolve(np.zeros(2), np.ones(2), -10.0, 10.0)
        assert not res.feasible
        assert res.stats.infeasible

    def test_grid_snapping_moves_inward(self):
        p = self._presolver(np.zeros((0, 2)), [])
        res = p.presolve(
            np.array([0.1, -0.9]), np.array([0.9, -0.1]), -10.0, 10.0
        )
        assert res.w_lo == pytest.approx([0.25, -0.75], abs=1e-12)
        assert res.w_hi == pytest.approx([0.75, -0.25], abs=1e-12)

    def test_sign_fix_counted(self):
        # -w0 <= -0.25 forces w0 >= 0.25: the straddling interval loses
        # its sign ambiguity.
        p = self._presolver([[-1.0, 0.0]], [-0.25])
        res = p.presolve(np.array([-1.0, -1.0]), np.ones(2), -10.0, 10.0)
        assert res.feasible
        assert res.w_lo[0] == pytest.approx(0.25, abs=1e-9)
        assert res.stats.signs_fixed == 1

    def test_t_link_intersection(self):
        # d = (1, 1), box [0, 1]^2: the image of d'w is [0, 2]; a stated
        # t interval of [-5, 0.5] must intersect down, and FBBT through
        # the link caps each w_i at 0.5.
        p = self._presolver(np.zeros((0, 2)), [])
        res = p.presolve(np.zeros(2), np.ones(2), -5.0, 0.5)
        assert res.feasible
        assert res.t_lo >= -1e-12
        assert res.t_hi == pytest.approx(0.5, abs=1e-9)
        assert np.all(res.w_hi <= 0.5 + 1e-9)


# --------------------------------------------------------------------- #
# Reflection cut: pruned boxes really are mirror-covered.
# --------------------------------------------------------------------- #
class TestReflectionCut:
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much],
    )
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_covered_box_mirrors_are_feasible_and_equal_cost(self, seed, data):
        problem = make_problem(seed)
        cut = problem.reflection_cut()
        box = sub_box(problem, data)
        m = problem.num_features
        assume(box.hi[m] <= 0.0 and box.lo[m] < 0.0)
        assume(cut.covered(box))
        grids = [box.grid_values(dim) for dim in range(m)]
        mesh = np.meshgrid(*grids, indexing="ij")
        points = np.stack([g.ravel() for g in mesh], axis=1)
        checked = 0
        for w in points:
            t = float(problem.stats.mean_difference @ w)
            if not (box.lo[m] - 1e-12 <= t <= box.hi[m] + 1e-12):
                continue
            if problem.constraint_violation(w) > 1e-9:
                continue
            checked += 1
            assert problem.constraint_violation(-w) <= 1e-9
            assert problem.cost(-w) == problem.cost(w)
        # Vacuously-true runs are fine (interval proofs only fire on
        # non-empty boxes often enough); hypothesis explores plenty of
        # populated ones across seeds.
        assert checked >= 0

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10**6), data=st.data())
    def test_guided_split_produces_a_covered_child(self, seed, data):
        problem = make_problem(seed)
        cut = problem.reflection_cut()
        box = sub_box(problem, data)
        m = problem.num_features
        guided = cut.guided_split(box)
        if box.hi[m] > 0.0 or box.lo[m] >= 0.0 or cut.covered(box):
            assert guided is None
            return
        if guided is None:
            return
        dim, value = guided
        assert 0 <= dim < m
        assert box.lo[dim] < value < box.hi[dim]
        left, right = box.split_at(dim, value)
        assert cut.covered(left) or cut.covered(right)
        # Pure function of the box: asking again gives the same split.
        assert cut.guided_split(box) == guided

    def test_pinned_instance_actually_covers_something(self):
        """Guard against the property above passing vacuously: on at
        least one pinned instance a negative-t sub-box is covered."""
        found = False
        for seed in range(20):
            problem = make_problem(seed)
            cut = problem.reflection_cut()
            root = problem.root_box()
            m = problem.num_features
            lo = root.lo.copy()
            hi = root.hi.copy()
            # A thin all-negative slab well clear of the one-LSB strip.
            for dim in range(m):
                values = root.grid_values(dim)
                neg = values[(values < 0) & (values >= -problem.value_hi)]
                if neg.size == 0:
                    break
                lo[dim] = hi[dim] = float(neg[-1])
            else:
                lo[m], hi[m] = problem.linear_image(lo[:m], hi[:m])
                if hi[m] <= 0.0 and lo[m] < 0.0:
                    box = Box(lo=lo, hi=hi, steps=root.steps)
                    if cut.covered(box):
                        found = True
                        break
        assert found


# --------------------------------------------------------------------- #
# End to end: the accelerated arm returns the plain tree's result.
# --------------------------------------------------------------------- #
class TestAcceleratedVsPlain:
    @pytest.mark.parametrize("seed", range(4))
    def test_accelerated_arm_matches_plain(self, seed):
        """Presolve + symmetry cuts must return the identical result
        triple as the plain tree — the reductions only remove points that
        are infeasible, dominated, or mirrored, never the optimum."""
        from repro.core.ldafp import LdaFpConfig, train_lda_fp
        from tests.test_properties import random_instance

        dataset, fmt = random_instance(seed)
        arms = {}
        for label, kw in (
            ("plain", dict(presolve=False, symmetry_cuts=False)),
            ("accelerated", dict(presolve=True, symmetry_cuts=True)),
        ):
            config = LdaFpConfig(
                max_nodes=200_000,
                time_limit=None,
                absolute_gap=0.0,
                relative_gap=0.0,
                **kw,
            )
            _, report = train_lda_fp(dataset, fmt, config)
            arms[label] = report
        plain = arms["plain"]
        assert plain.proven_optimal
        for label, report in arms.items():
            assert report.proven_optimal, label
            assert report.cost == plain.cost, label
            assert report.lower_bound == plain.lower_bound, label


class TestPinnedSearch:
    def test_pinned_q23_default_search(self):
        """The default search on the pinned Q2.3 solver case (the one
        ``benchmarks/test_solver_microbench.py`` times): 1000 synthetic
        trials per class, seed 0, scaled to 90% of the range, solved to
        proven optimality.  Its node count is part of the search's
        definition, so any change to the node sequence shows here."""
        from repro.core.ldafp import LdaFpConfig, train_lda_fp
        from repro.data.scaling import FeatureScaler
        from repro.data.synthetic import make_synthetic_dataset

        ds = make_synthetic_dataset(1000, seed=0)
        ds = ds.map_features(FeatureScaler(limit=0.9).fit(ds.features).transform)
        config = LdaFpConfig(max_nodes=20_000, time_limit=None, relative_gap=1e-6)
        _, report = train_lda_fp(ds, QFormat(2, 3), config)
        assert report.nodes_expanded == 33
        assert report.symmetry_pruned == 2
        assert report.proven_optimal
        assert report.cost == report.lower_bound == 0.6003187630006743

    def test_pinned_q23_plain_search(self):
        """The same case without presolve or symmetry cuts (the plain arm
        of the legacy node-reduction benchmark): 377 nodes to the same
        proven optimum."""
        from repro.core.ldafp import LdaFpConfig, train_lda_fp
        from repro.data.scaling import FeatureScaler
        from repro.data.synthetic import make_synthetic_dataset

        ds = make_synthetic_dataset(1000, seed=0)
        ds = ds.map_features(FeatureScaler(limit=0.9).fit(ds.features).transform)
        config = LdaFpConfig(
            max_nodes=20_000, time_limit=None, relative_gap=1e-6,
            presolve=False, symmetry_cuts=False,
        )
        _, report = train_lda_fp(ds, QFormat(2, 3), config)
        assert report.nodes_expanded == 377
        assert report.symmetry_pruned == 0
        assert report.proven_optimal
        assert report.cost == report.lower_bound == 0.6003187630006743
