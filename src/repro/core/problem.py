"""The LDA-FP mixed-integer program (paper Eq. 21) and its node relaxation (Eq. 25).

:class:`LdaFpProblem` owns everything static about one training instance:
the two-class statistics (computed from *quantized* training data, per
Algorithm 1 step 1), the format ``QK.F``, and the confidence parameter
``beta`` (Eq. 16).  From these it can

- check **exact discrete feasibility** of a grid weight vector against the
  per-feature (Eq. 18) and projection (Eq. 20) overflow constraints,
- evaluate the **exact cost** (Eq. 10/21, with ``inf`` on a vanishing
  denominator),
- build the **root box** over ``(w, t)`` (Eq. 28-29), and
- build the **convex cone-program relaxation** of any node box (Eq. 25),
  with ``eta`` chosen by the supremum rule (Eq. 26, lower bounds) or the
  infimum rule (Eq. 27, upper-bound heuristic).

Convexification detail: each Eq. 18 row contains ``|w_m|`` and expands into
two linear rows (``w mu + beta |w| sigma`` is the max of two lines in
``w_m``; ``w mu - beta |w| sigma`` the min) — see DESIGN.md Section 5.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import InputValidationError, OptimizationError
from ..fixedpoint.qformat import QFormat
from ..fixedpoint.quantize import quantize
from ..linalg.cholesky import cholesky
from ..linalg.psd import nearest_psd
from ..optim.boxes import Box
from ..optim.cone import ConeProgram, LinearInequality, SocConstraint
from ..optim.cuts import ReflectionCut
from ..optim.presolve import Presolver
from ..stats.normal import confidence_beta
from ..stats.scatter import TwoClassStats

__all__ = ["LdaFpProblem", "eta_sup", "eta_inf"]


def eta_sup(t_lo: float, t_hi: float) -> float:
    """Paper Eq. 26: ``sup t^2`` over ``[t_lo, t_hi]``."""
    if t_hi < t_lo:
        raise OptimizationError(f"empty t interval [{t_lo}, {t_hi}]")
    return max(t_lo * t_lo, t_hi * t_hi)


def eta_inf(t_lo: float, t_hi: float) -> float:
    """Paper Eq. 27: ``inf t^2`` over ``[t_lo, t_hi]`` (0 when it straddles 0)."""
    if t_hi < t_lo:
        raise OptimizationError(f"empty t interval [{t_lo}, {t_hi}]")
    if t_lo <= 0.0 <= t_hi:
        return 0.0
    return min(t_lo * t_lo, t_hi * t_hi)


@dataclass
class LdaFpProblem:
    """One LDA-FP training instance (Eq. 21).

    Parameters
    ----------
    stats:
        Two-class statistics estimated from the fixed-point-rounded
        training data (Algorithm 1 step 1-2).
    fmt:
        The ``QK.F`` format of weights, features, products, and sums.
    rho:
        Confidence level of the overflow intervals (Eq. 16); ``beta`` is
        derived as ``Phi^-1(0.5 + 0.5 rho)``.  Mutually exclusive with an
        explicit ``beta``.
    beta:
        Explicit ``beta`` overriding ``rho`` when given.
    psd_floor:
        Eigenvalue floor applied to class covariances before Cholesky so the
        SOC constraints are well-defined for rank-deficient sample
        covariances (BCI regime).
    """

    stats: TwoClassStats
    fmt: QFormat
    rho: float = 0.99
    beta: Optional[float] = None
    psd_floor: float = 1e-9

    def __post_init__(self) -> None:
        if self.beta is None:
            self.beta = confidence_beta(self.rho)
        self.beta = float(self.beta)
        if self.beta < 0:
            raise OptimizationError(f"beta must be >= 0, got {self.beta}")
        self._chol_a = cholesky(
            nearest_psd(self.stats.class_a.covariance, floor=self.psd_floor)
        )
        self._chol_b = cholesky(
            nearest_psd(self.stats.class_b.covariance, floor=self.psd_floor)
        )
        # (mean, std, Cholesky factor) per class, for the exact checks.
        self._class_terms = tuple(
            (cls.mean, cls.std, chol)
            for cls, chol in (
                (self.stats.class_a, self._chol_a),
                (self.stats.class_b, self._chol_b),
            )
        )

    # ------------------------------------------------------------------ #
    @property
    def num_features(self) -> int:
        return self.stats.num_features

    @property
    def value_lo(self) -> float:
        """``-2^(K-1)`` — the format's most negative value."""
        return self.fmt.min_value

    @property
    def value_hi(self) -> float:
        """``2^(K-1) - 2^-F`` — the format's most positive value."""
        return self.fmt.max_value

    # ------------------------------------------------------------------ #
    # Exact discrete-space evaluation
    # ------------------------------------------------------------------ #
    def cost(self, weights: np.ndarray) -> float:
        """Eq. 21 objective: ``w' S_W w / ((mu_A - mu_B)' w)^2``."""
        return self.stats.fisher_cost(weights)

    def on_grid(self, weights: np.ndarray, tol: float = 1e-12) -> bool:
        """Eq. 13: every element representable in ``QK.F``."""
        w = np.asarray(weights, dtype=np.float64)
        snapped = np.asarray(quantize(w, self.fmt))
        return bool(np.max(np.abs(snapped - w)) <= tol)

    def constraint_violation(self, weights: np.ndarray) -> float:
        """Largest violation of the Eq. 18 + Eq. 20 constraints (<= 0 feasible).

        The one-row call of :meth:`constraint_violations`; ``weights`` must
        have shape ``(M,)``.
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.num_features,):
            raise InputValidationError(
                f"weights have shape {w.shape}, expected ({self.num_features},)"
            )
        return float(self.constraint_violations(w[None, :])[0])

    def constraint_violations(self, weights: np.ndarray) -> np.ndarray:
        """Largest Eq. 18 + Eq. 20 + Eq. 28 violation of every row (<= 0 feasible).

        ``weights`` is an ``(n, M)`` matrix of candidates; the result has
        shape ``(n,)``.  Evaluated exactly (with ``|w|`` and the square
        root), not through the linearized relaxation rows: the Eq. 18
        product intervals elementwise, and the Eq. 20 spread as the row
        norms of one product with each class's Cholesky factor.
        """
        W = np.asarray(weights, dtype=np.float64)
        m = self.num_features
        if W.ndim != 2 or W.shape[1] != m:
            raise InputValidationError(
                f"candidate matrix has shape {W.shape}, expected (n, {m})"
            )
        beta = self.beta
        lo, hi = self.value_lo, self.value_hi
        scaled_abs = beta * np.abs(W)

        # Box membership of the weights themselves (Eq. 28), then the
        # per-feature product intervals (Eq. 18).
        worst = np.maximum(W - hi, lo - W)
        for mu, sigma, _ in self._class_terms:
            center = W * mu
            half = scaled_abs * sigma
            np.maximum(worst, (center + half) - hi, out=worst)
            np.maximum(worst, lo - (center - half), out=worst)
        worst = worst.max(axis=1)

        # Projection intervals (Eq. 20): row i of W @ chol is chol' w_i.
        for mu, _, chol in self._class_terms:
            center = W @ mu
            spread = beta * np.linalg.norm(W @ chol, axis=1)
            np.maximum(worst, (center + spread) - hi, out=worst)
            np.maximum(worst, lo - (center - spread), out=worst)
        return worst

    def is_feasible(self, weights: np.ndarray, tol: float = 1e-9) -> bool:
        """Exact feasibility of a candidate: grid membership + constraints."""
        return self.on_grid(weights) and self.constraint_violation(weights) <= tol

    def continuous_optimum(self) -> float:
        """Global lower bound: the unconstrained continuous Fisher optimum.

        ``min_w w' S_W w / (d'w)^2 = 1 / (d' S_W^-1 d)`` (the Eq. 11
        solution).  It lower-bounds the discrete Eq. 21 optimum because
        (a) dropping the grid constraint only enlarges the feasible set and
        (b) the overflow constraints never bind from below — any continuous
        ``w`` can be scaled down without changing the cost until every
        constraint is slack.  Returns 0.0 when ``S_W`` is singular (infinite
        separation is possible in the continuous limit).
        """
        from ..linalg.cholesky import solve_spd

        d = self.stats.mean_difference
        try:
            inv_d = solve_spd(self.stats.within_scatter, d, jitter=0.0)
        except Exception:
            return 0.0
        denom = float(d @ inv_d)
        if denom <= 0.0 or not np.isfinite(denom):
            return 0.0
        return 1.0 / denom

    # ------------------------------------------------------------------ #
    # Bound tightening (domain propagation)
    # ------------------------------------------------------------------ #
    def static_weight_bounds(self) -> "tuple[np.ndarray, np.ndarray]":
        """Per-dimension bounds implied by the single-variable Eq. 18 rows.

        Every per-feature overflow constraint involves exactly one ``w_m``,
        so each linearized row ``c * w_m <= hi`` / ``>= lo`` clips that
        dimension's interval directly.  The result (intersected with the
        Eq. 28 range) is computed once and reused by the root box and by
        node-level propagation — a free, exact domain reduction.
        """
        m = self.num_features
        lo = np.full(m, self.value_lo)
        hi = np.full(m, self.value_hi)
        beta = self.beta
        for cls in (self.stats.class_a, self.stats.class_b):
            for i in range(m):
                for coeff in (
                    cls.mean[i] + beta * cls.std[i],
                    cls.mean[i] - beta * cls.std[i],
                ):
                    if coeff > 1e-300:
                        hi[i] = min(hi[i], self.value_hi / coeff)
                        lo[i] = max(lo[i], self.value_lo / coeff)
                    elif coeff < -1e-300:
                        hi[i] = min(hi[i], self.value_lo / coeff)
                        lo[i] = max(lo[i], self.value_hi / coeff)
                    # coeff == 0: the row is vacuous (0 <= hi always holds)
        return lo, hi

    def propagate_t_interval(
        self,
        w_lo: np.ndarray,
        w_hi: np.ndarray,
        t_lo: float,
        t_hi: float,
    ) -> "tuple[np.ndarray, np.ndarray] | None":
        """Tighten per-dimension ``w`` bounds using ``t = d'w in [t_lo, t_hi]``.

        One pass of interval (feasibility-based) propagation: for each
        dimension, the other dimensions' extreme contributions bound what
        ``d_i w_i`` must supply.  Returns ``None`` when the tightened box is
        empty (the node is infeasible).
        """
        d = self.stats.mean_difference
        lo = w_lo.copy()
        hi = w_hi.copy()
        contrib_lo = np.minimum(d * lo, d * hi)
        contrib_hi = np.maximum(d * lo, d * hi)
        total_lo = float(np.sum(contrib_lo))
        total_hi = float(np.sum(contrib_hi))
        for i in range(d.size):
            di = d[i]
            if di == 0.0:
                continue
            other_lo = total_lo - contrib_lo[i]
            other_hi = total_hi - contrib_hi[i]
            needed_lo = t_lo - other_hi  # least d_i w_i can be
            needed_hi = t_hi - other_lo  # most d_i w_i can be
            if di > 0:
                new_lo, new_hi = needed_lo / di, needed_hi / di
            else:
                new_lo, new_hi = needed_hi / di, needed_lo / di
            lo[i] = max(lo[i], new_lo)
            hi[i] = min(hi[i], new_hi)
            if lo[i] > hi[i] + 1e-15:
                return None
        return lo, hi

    # ------------------------------------------------------------------ #
    # Presolve and symmetry-cut factories
    # ------------------------------------------------------------------ #
    def presolver(self, max_rounds: int = 3) -> Presolver:
        """Build the node presolver from the static constraint structure.

        The linear rows are the single-variable Eq. 18 expansions (the same
        rows :meth:`overflow_rows` emits) plus axis outer-approximations of
        the Eq. 20 cones: ``c'w + beta ||L'w|| <= b`` implies
        ``(c ± beta L[:, k])' w <= b`` for every column ``k`` (project the
        norm onto ``±e_k``).  Those couple the features, which is what lets
        FBBT tighten one weight from the others' intervals.  The incumbent
        ellipsoid pass gets ``diag(S_W^-1)`` when the scatter is invertible.
        """
        m = self.num_features
        beta = self.beta
        rows_a: List[np.ndarray] = []
        rows_b: List[float] = []
        hi, lo = self.value_hi, self.value_lo
        for cls in (self.stats.class_a, self.stats.class_b):
            for coeffs in (cls.mean + beta * cls.std, cls.mean - beta * cls.std):
                for i in range(m):
                    unit = np.zeros(m)
                    unit[i] = coeffs[i]
                    rows_a.append(unit)
                    rows_b.append(hi)
                    rows_a.append(-unit)
                    rows_b.append(-lo)
        for cls, chol in (
            (self.stats.class_a, self._chol_a),
            (self.stats.class_b, self._chol_b),
        ):
            for k in range(m):
                col = beta * chol[:, k]
                for sign in (1.0, -1.0):
                    rows_a.append(cls.mean + sign * col)
                    rows_b.append(hi)
                    rows_a.append(-cls.mean + sign * col)
                    rows_b.append(-lo)
        obj_inv_diag: "np.ndarray | None" = None
        try:
            inverse = np.linalg.inv(self.stats.within_scatter)
            diag = np.diag(inverse).copy()
            if np.all(np.isfinite(diag)) and np.all(diag > 0):
                obj_inv_diag = diag
        except np.linalg.LinAlgError:
            obj_inv_diag = None
        scatter = self.stats.within_scatter
        obj_matrix = scatter.copy() if np.all(np.isfinite(scatter)) else None
        return Presolver(
            rows_a=np.asarray(rows_a, dtype=np.float64),
            rows_b=np.asarray(rows_b, dtype=np.float64),
            d=self.stats.mean_difference.copy(),
            steps=np.full(m, self.fmt.resolution),
            obj_inv_diag=obj_inv_diag,
            obj_matrix=obj_matrix,
            max_rounds=max_rounds,
        )

    def obbt_weight_bounds(
        self, w_lo: np.ndarray, w_hi: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Optimization-based bound tightening of the weight box.

        Minimizes and maximizes each ``w_i`` over the *exact* Eq. 18 +
        Eq. 20 relaxation (all constraints jointly, no grid, no objective)
        — strictly stronger than row-at-a-time FBBT, which only sees the
        axis outer-approximations of the cones.  SLSQP returns a
        feasible-point value rather than a dual certificate, so each bound
        is relaxed by the same conservative slack the node bounds use
        before being applied; a failed solve leaves that bound untouched.
        Intended to run once at the root (2m cone solves).
        """
        from ..optim.slsqp_backend import solve_with_slsqp

        m = self.num_features
        rows = self.overflow_rows()
        socs = self.projection_socs()
        lo = np.asarray(w_lo, dtype=np.float64).copy()
        hi = np.asarray(w_hi, dtype=np.float64).copy()
        for dim in range(m):
            for sign in (1.0, -1.0):
                q = np.zeros(m)
                q[dim] = sign
                program = ConeProgram(
                    P=np.zeros((m, m)),
                    q=q,
                    r=0.0,
                    linear=rows,
                    socs=socs,
                    lower=lo.copy(),
                    upper=hi.copy(),
                )
                result = solve_with_slsqp(program)
                if not (result.success and result.max_violation <= 1e-7):
                    continue
                slack = 1e-9 + 1e-6 * abs(result.objective)
                if sign > 0:
                    lo[dim] = max(lo[dim], result.objective - slack)
                else:
                    hi[dim] = min(hi[dim], -result.objective + slack)
        return lo, hi

    def reflection_cut(self) -> ReflectionCut:
        """Build the ``w -> -w`` symmetry cut for this instance.

        ``single_coeffs`` are the four Eq. 18 lower-expression slopes per
        feature (two classes x two absolute-value branches); the SOC data
        is one ``(mean, Cholesky)`` pair per class.  See
        :mod:`repro.optim.cuts` for the soundness conditions.
        """
        beta = self.beta
        coeff_rows = []
        for cls in (self.stats.class_a, self.stats.class_b):
            coeff_rows.append(cls.mean + beta * cls.std)
            coeff_rows.append(cls.mean - beta * cls.std)
        return ReflectionCut(
            single_coeffs=np.vstack(coeff_rows),
            soc_centers=np.vstack(
                [self.stats.class_a.mean, self.stats.class_b.mean]
            ),
            soc_chols=np.stack([self._chol_a, self._chol_b]),
            beta=beta,
            value_hi=self.value_hi,
        )

    # ------------------------------------------------------------------ #
    # Root box (Eq. 28-29)
    # ------------------------------------------------------------------ #
    def root_box(self) -> Box:
        """Initial ``(w, t)`` box.

        The ``w`` range is Eq. 28.  For ``t`` we use the *exact* image of
        the ``w`` box under ``t = (mu_A - mu_B)' w`` (interval arithmetic)
        rather than the paper's Eq. 29, whose upper limit
        ``(2^(K-1) - 2^-F) ||mu_A - mu_B||_1`` is loose by one LSB per
        negative-coefficient feature and — more importantly — whose lower
        limit can be slack; the exact image is both correct and tighter.
        """
        w_lo, w_hi = self.static_weight_bounds()
        t_lo, t_hi = self.linear_image(w_lo, w_hi)
        m = self.num_features
        lo = np.concatenate([w_lo, [t_lo]])
        hi = np.concatenate([w_hi, [t_hi]])
        steps = np.concatenate([np.full(m, self.fmt.resolution), [0.0]])
        return Box(lo=lo, hi=hi, steps=steps)

    def linear_image(self, w_lo: np.ndarray, w_hi: np.ndarray) -> "tuple[float, float]":
        """Exact interval image of ``(mu_A - mu_B)' w`` over a ``w`` box."""
        d = self.stats.mean_difference
        low = float(np.sum(np.minimum(d * w_lo, d * w_hi)))
        high = float(np.sum(np.maximum(d * w_lo, d * w_hi)))
        return low, high

    # ------------------------------------------------------------------ #
    # Relaxation (Eq. 25)
    # ------------------------------------------------------------------ #
    def overflow_rows(self) -> List[LinearInequality]:
        """Eq. 18 expanded into linear rows (8 per feature; see module docs)."""
        rows: List[LinearInequality] = []
        m = self.num_features
        beta = self.beta
        lo, hi = self.value_lo, self.value_hi
        for cls_name, cls in (("A", self.stats.class_a), ("B", self.stats.class_b)):
            mu, sigma = cls.mean, cls.std
            for i in range(m):
                plus = mu[i] + beta * sigma[i]
                minus = mu[i] - beta * sigma[i]
                for coeff, tag in ((plus, "+"), (minus, "-")):
                    unit = np.zeros(m)
                    unit[i] = coeff
                    rows.append(
                        LinearInequality(unit.copy(), hi, f"prod{cls_name}{tag}_hi[{i}]")
                    )
                    rows.append(
                        LinearInequality(-unit, -lo, f"prod{cls_name}{tag}_lo[{i}]")
                    )
        return rows

    def projection_socs(self) -> List[SocConstraint]:
        """Eq. 20 as four second-order cone constraints."""
        socs: List[SocConstraint] = []
        m = self.num_features
        beta = self.beta
        lo, hi = self.value_lo, self.value_hi
        for name, cls, chol in (
            ("A", self.stats.class_a, self._chol_a),
            ("B", self.stats.class_b, self._chol_b),
        ):
            G = beta * chol.T
            h = np.zeros(m)
            socs.append(SocConstraint(G, h, -cls.mean, hi, f"proj{name}_hi"))
            socs.append(SocConstraint(G, h, cls.mean.copy(), -lo, f"proj{name}_lo"))
        return socs

    def node_program(self, box: Box, eta: float) -> ConeProgram:
        """The Eq. 25 cone program for a node box with a fixed ``eta``.

        The auxiliary ``t`` is eliminated: its defining equation
        ``t = (mu_A - mu_B)' w`` turns the node's ``t`` interval into two
        linear rows on ``w``, and ``eta`` (already computed from that
        interval by the caller) scales the objective.
        """
        if eta <= 0.0:
            raise OptimizationError(f"eta must be > 0, got {eta}")
        m = self.num_features
        if box.ndim != m + 1:
            raise OptimizationError(
                f"box has {box.ndim} dims, expected {m + 1} (w plus t)"
            )
        rows = self.overflow_rows()
        d = self.stats.mean_difference
        t_lo, t_hi = float(box.lo[m]), float(box.hi[m])
        rows.append(LinearInequality(d.copy(), t_hi, "t_hi"))
        rows.append(LinearInequality(-d, -t_lo, "t_lo"))
        return ConeProgram(
            P=(2.0 / eta) * self.stats.within_scatter,
            q=np.zeros(m),
            r=0.0,
            linear=rows,
            socs=self.projection_socs(),
            lower=box.lo[:m].copy(),
            upper=box.hi[:m].copy(),
        )
