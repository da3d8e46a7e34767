"""Presolve for box-constrained branch-and-bound nodes (MIP-style reductions).

A :class:`Presolver` holds the *static* structure of one problem instance —
linear rows ``a'w <= b`` (the single-variable Eq. 18 overflow rows and the
axis outer-approximations of the Eq. 20 cones), the linear link ``t = d'w``,
the grid steps, and optionally the diagonal of the inverse objective matrix
— and tightens a node's ``(w, t)`` intervals with three classic reductions
and one specific to the Fisher cost:

1. **Feasibility-based bound tightening (FBBT)** over every linear row and
   the ``t``-link, iterated to a (capped) fixpoint.  Removes only points
   that violate a constraint or cannot realize any ``t`` in the node's
   interval, so it is exact: no feasible point of the node is lost.
2. **Grid snapping**: discrete bounds move inward to the outermost grid
   point, turning "no representable value in this sliver" into either a
   tighter box or an infeasibility verdict.
3. **Incumbent ellipsoid reduction** ("dual fixing by objective"): for any
   ``w`` in the node, ``cost(w) >= w_i^2 / (eta * (S^-1)_ii)`` where
   ``eta = sup t^2`` over the node's ``t`` interval, because
   ``min { w'S w : w_i = v } = v^2 / (S^-1)_ii``.  Any ``w_i`` beyond
   ``sqrt(c_inc * eta * (S^-1)_ii)`` therefore costs *strictly* more than
   the incumbent ``c_inc`` and can be cut; equal-cost points are kept, so
   the search still returns the exact optimal cost.  When the reduction
   pins an interval's sign (or a single grid point), that is the classic
   dual sign-fix, and :class:`PresolveStats` counts it.
4. **Spectral cone reduction** (needs the full objective matrix ``S`` and
   a finite incumbent): every improving point satisfies
   ``cost(w) = w'Sw / (d'w)^2 <= c``, i.e. ``w'(S - c dd')w <= 0``.
   ``S`` is PSD and ``c dd'`` rank one, so by eigenvalue interlacing
   ``M = S - c dd'`` has at most one negative eigenvalue ``lambda_0``
   (eigenvector ``u_0`` — the cone axis, essentially the continuous
   Fisher direction).  In the eigenbasis the constraint reads
   ``sum_i lambda_i y_i^2 <= 0`` with ``y = U'w``, hence for every
   transverse direction ``|u_i'w| <= sqrt(|lambda_0| / lambda_i) *
   max_box |u_0'w|``.  Each round contributes these as two linear FBBT
   rows per transverse direction, recomputed as the box shrinks.  With a
   near-optimal incumbent the improving set is a thin tube around the
   Fisher ray, so whole boxes off the ray become infeasible without a
   single cone solve — on *both* sides of ``t = 0``.

The presolver is pure (no references back to the problem object) and built
from plain arrays: its result depends only on the box and the incumbent it
is given.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputValidationError

__all__ = ["Presolver", "PresolveResult", "PresolveStats"]

# Tolerance discipline: every tightening keeps a hair of slack so points
# exactly on a boundary are never cut by floating-point rounding.
_EDGE_TOL = 1e-12
_GRID_TOL = 1e-9  # matches Box.grid_values


@dataclass(frozen=True)
class PresolveStats:
    """What one presolve call did to the node."""

    rounds: int = 0
    tightenings: int = 0
    signs_fixed: int = 0
    dual_fixed: int = 0
    infeasible: bool = False


@dataclass(frozen=True)
class PresolveResult:
    """Tightened intervals (or an infeasibility verdict) for one node."""

    w_lo: np.ndarray
    w_hi: np.ndarray
    t_lo: float
    t_hi: float
    stats: PresolveStats

    @property
    def feasible(self) -> bool:
        return not self.stats.infeasible


def _snap_interval(lo: float, hi: float, step: float) -> "tuple[float, float]":
    """Move ``[lo, hi]`` inward to the outermost grid multiples of ``step``."""
    snapped_lo = np.ceil(lo / step - _GRID_TOL) * step
    snapped_hi = np.floor(hi / step + _GRID_TOL) * step
    return float(snapped_lo), float(snapped_hi)


class Presolver:
    """Node-interval tightening from the static constraint structure.

    Parameters
    ----------
    rows_a, rows_b:
        Linear rows ``rows_a @ w <= rows_b`` valid for every feasible point
        (Eq. 18 expansions plus SOC axis outer-approximations).  May be
        empty (``shape (0, m)``).
    d:
        The linear link coefficients: ``t = d'w``.
    steps:
        Grid step per ``w`` dimension (``> 0``; the LDA-FP weights are all
        discrete).
    obj_inv_diag:
        ``diag(S^-1)`` of the quadratic objective numerator, enabling the
        incumbent ellipsoid reduction; ``None`` disables that pass (e.g.
        singular ``S``).
    obj_matrix:
        The full objective numerator matrix ``S`` (``cost = w'Sw /
        (d'w)^2``), enabling the spectral cone reduction; ``None``
        disables it.
    max_rounds:
        Fixpoint iteration cap per call.
    """

    def __init__(
        self,
        rows_a: np.ndarray,
        rows_b: np.ndarray,
        d: np.ndarray,
        steps: np.ndarray,
        obj_inv_diag: "np.ndarray | None" = None,
        obj_matrix: "np.ndarray | None" = None,
        max_rounds: int = 3,
    ) -> None:
        self.rows_b = np.asarray(rows_b, dtype=np.float64).reshape(-1)
        self.d = np.asarray(d, dtype=np.float64)
        rows = np.asarray(rows_a, dtype=np.float64)
        self.rows_a = (
            rows.reshape(len(self.rows_b), -1)
            if self.rows_b.size
            else rows.reshape(0, self.d.size)
        )
        self.steps = np.asarray(steps, dtype=np.float64)
        self.obj_inv_diag = (
            None if obj_inv_diag is None else np.asarray(obj_inv_diag, dtype=np.float64)
        )
        self.obj_matrix = (
            None if obj_matrix is None else np.asarray(obj_matrix, dtype=np.float64)
        )
        self.max_rounds = int(max_rounds)
        m = self.d.size
        if self.rows_a.size and self.rows_a.shape[1] != m:
            raise InputValidationError(
                f"rows have {self.rows_a.shape[1]} columns, expected {m}"
            )
        if np.any(self.steps <= 0):
            raise InputValidationError("presolver requires positive grid steps")
        if self.obj_inv_diag is not None and np.any(self.obj_inv_diag <= 0):
            # A non-positive inverse diagonal means the ellipsoid bound is
            # vacuous for that dimension; disable the pass outright.
            self.obj_inv_diag = None
        if self.obj_matrix is not None and (
            self.obj_matrix.shape != (m, m) or not np.all(np.isfinite(self.obj_matrix))
        ):
            raise InputValidationError(f"obj_matrix must be finite with shape ({m}, {m})")

    # ------------------------------------------------------------------ #
    def _spectral_cone(
        self, incumbent: float
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | None":
        """Cone axis, transverse directions, and amplitude ratios of the
        improving set ``{w : w'(S - c dd')w <= 0}``.

        Returns ``(axis, dirs, ratios)`` with ``|dirs[k]'w| <= ratios[k] *
        max_box |axis'w|`` for every improving ``w``, or ``None`` when the
        reduction does not apply.  The incumbent gets the same equal-cost
        slack as the ellipsoid pass, so ties survive.  Stateless.
        """
        if self.obj_matrix is None or not np.isfinite(incumbent) or incumbent < 0:
            return None
        c_eff = incumbent * (1.0 + 1e-9) + _EDGE_TOL
        m_mat = self.obj_matrix - c_eff * np.outer(self.d, self.d)
        try:
            eigvals, eigvecs = np.linalg.eigh(m_mat)
        except np.linalg.LinAlgError:
            return None
        lam0 = max(-float(eigvals[0]), 0.0)
        keep = eigvals > max(1e-12, 1e-12 * float(np.abs(eigvals).max()))
        if not np.any(keep):
            return None
        dirs = eigvecs[:, keep].T
        ratios = np.sqrt(lam0 / eigvals[keep])
        return eigvecs[:, 0], dirs, ratios

    # ------------------------------------------------------------------ #
    def presolve(
        self,
        w_lo: np.ndarray,
        w_hi: np.ndarray,
        t_lo: float,
        t_hi: float,
        incumbent: float = np.inf,
        max_rounds: "int | None" = None,
    ) -> PresolveResult:
        """Tighten one node's intervals; never excludes a feasible point
        whose cost is <= ``incumbent``."""
        round_cap = self.max_rounds if max_rounds is None else int(max_rounds)
        lo = np.asarray(w_lo, dtype=np.float64).copy()
        hi = np.asarray(w_hi, dtype=np.float64).copy()
        t_lo, t_hi = float(t_lo), float(t_hi)
        entry_straddle = (lo < -_EDGE_TOL) & (hi > _EDGE_TOL)
        tightenings = 0
        rounds = 0
        spectral = self._spectral_cone(incumbent)

        def fail(rounds: int) -> PresolveResult:
            stats = PresolveStats(
                rounds=rounds, tightenings=tightenings, infeasible=True
            )
            return PresolveResult(lo, hi, t_lo, t_hi, stats)

        for rounds in range(1, round_cap + 1):
            changed = False

            # --- t-link: intersect t with the interval image of d'w ----- #
            contrib_lo = np.minimum(self.d * lo, self.d * hi)
            contrib_hi = np.maximum(self.d * lo, self.d * hi)
            image_lo = float(np.sum(contrib_lo))
            image_hi = float(np.sum(contrib_hi))
            new_t_lo = max(t_lo, image_lo)
            new_t_hi = min(t_hi, image_hi)
            if new_t_hi < new_t_lo - _EDGE_TOL:
                return fail(rounds)
            if new_t_lo > t_lo + _EDGE_TOL or new_t_hi < t_hi - _EDGE_TOL:
                changed = True
                tightenings += 1
            t_lo, t_hi = min(new_t_lo, new_t_hi), new_t_hi

            # --- FBBT over the rows plus the two t-link rows ------------ #
            if self.rows_a.size:
                rows_a = np.vstack([self.rows_a, self.d, -self.d])
                rows_b = np.concatenate([self.rows_b, [t_hi, -t_lo]])
            else:
                rows_a = np.vstack([self.d, -self.d])
                rows_b = np.array([t_hi, -t_lo])
            if spectral is not None:
                # Spectral cone rows: the transverse extent of the node is
                # capped by its extent along the cone axis (recomputed each
                # round — the cap shrinks with the box).
                axis, dirs, ratios = spectral
                axis_hi = float(np.sum(np.maximum(axis * lo, axis * hi)))
                axis_lo = float(np.sum(np.minimum(axis * lo, axis * hi)))
                axis_max = max(abs(axis_lo), abs(axis_hi))
                amp = ratios * axis_max * (1.0 + 1e-9) + _EDGE_TOL
                rows_a = np.vstack([rows_a, dirs, -dirs])
                rows_b = np.concatenate([rows_b, amp, amp])
            r_contrib_lo = np.minimum(rows_a * lo, rows_a * hi)
            row_lo = np.sum(r_contrib_lo, axis=1)
            if np.any(row_lo > rows_b + 1e-9):
                return fail(rounds)
            other_lo = row_lo[:, None] - r_contrib_lo
            margin = rows_b[:, None] - other_lo  # a_ri * w_i <= margin_ri
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = margin / rows_a
            pos = rows_a > _EDGE_TOL
            neg = rows_a < -_EDGE_TOL
            cand_hi = np.where(pos, ratio, np.inf).min(axis=0)
            cand_lo = np.where(neg, ratio, -np.inf).max(axis=0)
            new_hi = np.minimum(hi, cand_hi + _EDGE_TOL)
            new_lo = np.maximum(lo, cand_lo - _EDGE_TOL)
            tight = np.count_nonzero(
                (new_hi < hi - _EDGE_TOL) | (new_lo > lo + _EDGE_TOL)
            )
            if tight:
                changed = True
                tightenings += int(tight)
            lo, hi = new_lo, new_hi
            if np.any(lo > hi + _EDGE_TOL):
                return fail(rounds)

            # --- incumbent ellipsoid (objective-based reduction) -------- #
            if self.obj_inv_diag is not None and np.isfinite(incumbent):
                eta = max(t_lo * t_lo, t_hi * t_hi)
                if eta > 0.0:
                    cap = np.sqrt(incumbent * eta * self.obj_inv_diag)
                    cap = cap * (1.0 + 1e-9) + _EDGE_TOL  # keep equal-cost points
                    new_hi = np.minimum(hi, cap)
                    new_lo = np.maximum(lo, -cap)
                    tight = np.count_nonzero(
                        (new_hi < hi - _EDGE_TOL) | (new_lo > lo + _EDGE_TOL)
                    )
                    if tight:
                        changed = True
                        tightenings += int(tight)
                    lo, hi = new_lo, new_hi
                    if np.any(lo > hi + _EDGE_TOL):
                        return fail(rounds)

            # --- grid snapping ------------------------------------------ #
            for i in range(lo.size):
                s_lo, s_hi = _snap_interval(lo[i], hi[i], float(self.steps[i]))
                if s_lo > s_hi:
                    return fail(rounds)
                if s_lo > lo[i] + _EDGE_TOL or s_hi < hi[i] - _EDGE_TOL:
                    changed = True
                lo[i], hi[i] = s_lo, s_hi

            if not changed:
                break

        exit_straddle = (lo < -_EDGE_TOL) & (hi > _EDGE_TOL)
        signs_fixed = int(np.count_nonzero(entry_straddle & ~exit_straddle))
        with np.errstate(invalid="ignore"):
            single = np.floor(hi / self.steps + _GRID_TOL) <= np.ceil(
                lo / self.steps - _GRID_TOL
            )
        stats = PresolveStats(
            rounds=rounds,
            tightenings=tightenings,
            signs_fixed=signs_fixed,
            dual_fixed=int(np.count_nonzero(single)),
            infeasible=False,
        )
        return PresolveResult(lo, hi, t_lo, t_hi, stats)
