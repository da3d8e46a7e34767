"""Symmetry / sign-region cuts for the branch-and-bound search.

The LDA-FP cost (Eq. 21) is exactly invariant under ``w -> -w`` (both the
quadratic numerator and the squared projection flip sign twice, and IEEE
negation is exact), so the search space is *almost* mirror-symmetric around
``t = d'w = 0``.  Almost — because the two's-complement range is asymmetric
(``value_lo = -value_hi - 2^-F``): a feasible ``w`` whose Eq. 18 or Eq. 20
lower expression — or a component of ``w`` itself — lands in the one-LSB
strip ``[value_lo, -value_hi)`` has an *infeasible* mirror.

:class:`ReflectionCut` therefore prunes a box only when it can *prove* that
every feasible point inside has a feasible, equal-cost mirror:

1. the box lies on the strictly negative-``t`` side (``t_hi <= 0``,
   ``t_lo < 0``), so its mirrors land on the kept ``t >= 0`` side, which is
   never itself symmetry-pruned (no mutual annihilation);
2. every component interval clears the strip (``w_lo >= -value_hi``), so
   the mirrored weights are representable: ``-w_i <= value_hi`` follows,
   and ``-w_i >= value_lo`` holds for free since ``w_i <= value_hi``;
3. interval arithmetic certifies that every Eq. 18 lower expression and
   every Eq. 20 lower expression over the box stays ``>= -value_hi``:
   then the mirror's upper expressions (``upper(-w) = -lower(w)``) respect
   ``value_hi``, and its lower expressions respect ``value_lo`` for free.

Together these prove the mirror ``-w`` of every feasible ``w`` in the box
is *exactly feasible* (grid membership is negation-closed in range).  The
mirror is also guaranteed to still be in the searched region: the root box
bounds are implied by the very constraints the mirror satisfies, and the
presolve reductions never remove a feasible point whose cost is within the
incumbent snapshot — which an optimal mirror always is.  Hence the cut may
soundly be checked against presolve-tightened node boxes, where the
interval proofs are far sharper.

Interval bounds are loose on wide boxes, so the cut typically starts firing
a few levels below the root — where the bulk of the tree lives.  It is a
pure function of the box and the static instance data (no incumbent
dependence), so it prunes the same nodes whenever they are expanded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boxes import Box

__all__ = ["ReflectionCut"]

_TOL = 1e-12


@dataclass(frozen=True)
class ReflectionCut:
    """Prove-and-prune of reflected negative-``t`` boxes.

    Parameters
    ----------
    single_coeffs:
        ``(R, m)`` coefficients of the single-variable Eq. 18 rows; the
        lower expression of feature ``i`` is ``min_r c[r, i] * w_i``.
    soc_centers:
        ``(S, m)`` mean vectors of the Eq. 20 cones (one row per class).
    soc_chols:
        ``(S, m, m)`` Cholesky factors ``L`` with spread ``beta * ||L'w||``.
    beta:
        Eq. 16 confidence multiplier.
    value_hi:
        ``2^(K-1) - 2^-F``; the asymmetric strip is everything below
        ``-value_hi``.
    """

    single_coeffs: np.ndarray
    soc_centers: np.ndarray
    soc_chols: np.ndarray
    beta: float
    value_hi: float

    def covered(self, box: Box) -> bool:
        """True when every feasible point of ``box`` has a feasible,
        equal-cost mirror on the kept ``t >= 0`` side."""
        m = box.ndim - 1
        t_lo, t_hi = float(box.lo[m]), float(box.hi[m])
        # 1. Strictly negative t side (mirrors land on the kept side).
        if t_hi > 0.0 or t_lo >= 0.0:
            return False
        return self._mirror_safe(box.lo[:m], box.hi[:m])

    def _mirror_safe(self, w_lo: np.ndarray, w_hi: np.ndarray) -> bool:
        """Conditions 2-3 over a weight sub-box (the ``t``-side condition is
        the caller's): every point's mirror is representable and in-range."""
        m = w_lo.shape[0]
        limit = -self.value_hi
        # 2. Components clear of the one-LSB strip: mirrors representable.
        if np.any(w_lo < limit - _TOL):
            return False
        # 3a. Eq. 18 lower expressions clear of the strip.
        lower = np.minimum(self.single_coeffs * w_lo, self.single_coeffs * w_hi)
        if np.any(lower < limit - _TOL):
            return False
        # 3b. Eq. 20 lower expressions ``w'mu - beta ||L'w||``.  The
        # expression is concave in ``w`` (linear minus a convex norm), so
        # its exact minimum over the box is attained at a vertex — enumerate
        # them for small m (the LDA-FP regime), with the loose decoupled
        # interval bound as the high-dimensional fallback.
        vertices = None
        if m <= 12:
            grids = np.meshgrid(*(np.array([w_lo[i], w_hi[i]]) for i in range(m)))
            vertices = np.stack([g.ravel() for g in grids], axis=1)
        for center, chol in zip(self.soc_centers, self.soc_chols):
            if vertices is not None:
                lower_exact = float(
                    np.min(
                        vertices @ center
                        - self.beta * np.linalg.norm(vertices @ chol, axis=1)
                    )
                )
            else:
                center_lo = float(np.sum(np.minimum(center * w_lo, center * w_hi)))
                proj_lo = np.sum(
                    np.minimum(chol * w_lo[:, None], chol * w_hi[:, None]), axis=0
                )
                proj_hi = np.sum(
                    np.maximum(chol * w_lo[:, None], chol * w_hi[:, None]), axis=0
                )
                amplitude = np.maximum(np.abs(proj_lo), np.abs(proj_hi))
                lower_exact = center_lo - self.beta * float(
                    np.linalg.norm(amplitude)
                )
            if lower_exact < limit - _TOL:
                return False
        return True

    def guided_split(self, box: Box) -> "tuple[int, float] | None":
        """Best grid-aligned split whose outer child is fully mirror-safe.

        For an uncovered negative-``t`` box, mirror-safety is monotone under
        shrinking, so each dimension admits a largest lo-side / hi-side
        slice that :meth:`covered` would prune outright.  Bisecting the grid
        finds it in ``O(log)`` coverage tests; the returned ``(dim, value)``
        is fed to :meth:`Box.split_at`, the covered child dies at relaxation
        time without a cone solve, and the surviving child is at least one
        grid step thinner.  Returns ``None`` when the box is not on the
        negative side, is already covered (prune it instead), or no single
        split yields a covered slice.  Pure function of the box.
        """
        m = box.ndim - 1
        if box.hi[m] > 0.0 or box.lo[m] >= 0.0:
            return None
        w_lo, w_hi = box.lo[:m].copy(), box.hi[:m].copy()
        if self._mirror_safe(w_lo, w_hi):
            return None
        best: "tuple[int, int, float] | None" = None  # (quanta, dim, value)
        for dim in range(m):
            step = float(box.steps[dim])
            if step <= 0:
                continue
            values = box.grid_values(dim)
            if values.size < 2:
                continue

            def hi_side_safe(index: int) -> bool:
                trial = w_lo.copy()
                trial[dim] = values[index]
                return self._mirror_safe(trial, w_hi)

            def lo_side_safe(index: int) -> bool:
                trial = w_hi.copy()
                trial[dim] = values[index]
                return self._mirror_safe(w_lo, trial)

            if hi_side_safe(values.size - 1):
                lo_i, hi_i = 1, values.size - 1
                while lo_i < hi_i:  # minimal index whose hi-slice is safe
                    mid = (lo_i + hi_i) // 2
                    if hi_side_safe(mid):
                        hi_i = mid
                    else:
                        lo_i = mid + 1
                quanta = values.size - lo_i
                if best is None or quanta > best[0]:
                    best = (quanta, dim, float(values[lo_i]) - 0.5 * step)
            if lo_side_safe(0):
                lo_i, hi_i = 0, values.size - 2
                while lo_i < hi_i:  # maximal index whose lo-slice is safe
                    mid = (lo_i + hi_i + 1) // 2
                    if lo_side_safe(mid):
                        lo_i = mid
                    else:
                        hi_i = mid - 1
                quanta = lo_i + 1
                if best is None or quanta > best[0]:
                    best = (quanta, dim, float(values[lo_i]) + 0.5 * step)
        if best is None:
            return None
        return best[1], best[2]
