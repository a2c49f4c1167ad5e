"""Certified interval bounds on compiled-engine centroid outputs.

The batched Mamdani hot path spends nearly all of its time materialising
``(rows, grid)`` aggregated surfaces and integrating them — work whose
*crisp result* is usually needed only coarsely (e.g. "is the defuzzified
score above the admission threshold?").  This module replaces that dense
per-row integration with closed-form sums that bound the exact result from
both sides, so callers can act on every row whose answer the bounds
already decide and fall back to the exact engine for the rest.

The bounds are *certified*: they hold for the bit-exact value the engine's
batch path produces, not merely for the underlying real number.  Three
facts make that possible:

1. **Exact decomposition.**  With the engine's max aggregation and clip
   implication the aggregated surface is ``max_t min(T_t, s_t)`` over the
   distinct consequent terms (``s_t`` = the term's maximal firing strength).  When
   no grid point is covered by three or more term supports — true for
   every standard fuzzy partition, and verified at build time — the
   pointwise identity ``max(f_1, …, f_k) = Σ f_t − Σ min(f_t, f_u)`` over
   support-adjacent pairs ``(t, u)`` holds exactly.  A pair overlap is
   itself a clipped curve: ``min(min(T_t, s_t), min(T_u, s_u)) =
   min(g, m)`` with ``g = min(T_t, T_u)`` and ``m = min(s_t, s_u)``.
2. **Closed form.**  Every area or (sign-split) moment integral of a
   clipped curve is a trapezoid dot product ``Σ_i w_i·min(f_i, s)`` with
   non-negative quadrature weights ``w``.  Sorting the curve's grid values
   ``f`` once, it equals ``prefix(w·f)[k] + s·suffix(w)[k]`` with
   ``k = searchsorted(f_sorted, s)`` — an O(log grid) evaluation at any
   strength, with no ``(rows, grid)`` materialisation.  The real value is
   monotone in ``s``, so evaluating it at strengths (or tabulated knots)
   bracketing ``s_t`` brackets the engine's value; likewise the final
   ``moment / area`` division is monotone in both operands, so evaluating
   it at interval corners brackets the exact quotient.
3. **Generous widening.**  Every evaluated integral and folded sum is
   widened by ``1e-9`` relative + ``1e-12`` absolute.  Both the closed form
   and the engine's pinned trapezoid sums add at most ~500 non-negative
   rounded terms, so each sits within about ``1e-13`` relative of the real
   integral — four orders of magnitude inside the widening.  Differences
   between the two summation orders are swallowed by the interval, never
   hidden by it.

The resulting intervals are loose by construction (knot quantisation plus
the widening), but a caller never has to trust them blindly: rows whose
interval straddles the caller's decision boundary are simply re-evaluated
exactly.
"""

from __future__ import annotations

import numpy as np

from .compiled import CompiledMamdaniEngine

__all__ = ["CentroidBoundTables"]

#: Relative widening applied to every evaluated integral and folded sum.
_REL = 1e-9
#: Absolute widening floor (guards values at or near zero).
_ABS = 1e-12


def _widen_down(sums: np.ndarray) -> np.ndarray:
    return sums * (1.0 - _REL) - _ABS


def _widen_up(sums: np.ndarray) -> np.ndarray:
    return sums * (1.0 + _REL) + _ABS


class CentroidBoundTables:
    """Closed-form bounds on one output variable's centroid, per row.

    Build via :meth:`for_engine`, which returns ``None`` when the engine or
    rule base falls outside the certified regime (non-compiled engine,
    non-centroid defuzzifier, rule weights, or a term geometry with triple
    overlaps).
    """

    def __init__(
        self,
        engine: CompiledMamdaniEngine,
        var_name: str,
        strength_cells: int = 1024,
    ):
        grouped = engine._grouped_consequent_plans[var_name]
        term_surfaces, _term_columns, supports, grid_length = grouped
        grid = engine._consequent_plans[var_name][2].grid
        spacing = np.diff(grid)

        fulls = []
        for segment, (start, stop) in zip(term_surfaces, supports):
            full = np.zeros(grid_length)
            full[start:stop] = segment
            fulls.append(full)

        coverage = (np.stack(fulls) > 0.0).sum(axis=0)
        if coverage.size and int(coverage.max()) > 2:
            raise ValueError("term supports overlap more than pairwise")
        order = sorted(range(len(fulls)), key=lambda t: supports[t][0])
        pairs = []
        for i, t in enumerate(order):
            for u in order[i + 1 :]:
                if np.any((fulls[t] > 0.0) & (fulls[u] > 0.0)):
                    pairs.append((t, u))

        # Trapezoid integration as a dot product: the per-point quadrature
        # weights, and those premultiplied by the sign-split grid for the
        # moment integrals — all non-negative, as the closed form needs.
        quad = np.zeros(grid_length)
        quad[:-1] += spacing / 2.0
        quad[1:] += spacing / 2.0
        weights = np.stack(
            (quad, quad * np.maximum(grid, 0.0), quad * np.maximum(-grid, 0.0)), axis=1
        )

        # One clipped curve per term, then one per adjacent-pair overlap:
        # (sorted values, prefix(w·f), suffix(w)) with a leading/trailing
        # zero row so ``k`` indexes both directly.
        self._n_terms = len(fulls)
        self._pair_t = np.array([t for t, _ in pairs], dtype=np.intp)
        self._pair_u = np.array([u for _, u in pairs], dtype=np.intp)
        curves = fulls + [np.minimum(fulls[t], fulls[u]) for t, u in pairs]
        zero = np.zeros((1, 3))
        self._values, prefixes, suffixes = [], [], []
        for curve in curves:
            rank = np.argsort(curve, kind="stable")
            ranked = weights[rank]
            self._values.append(curve[rank])
            prefixes.append(np.concatenate((zero, np.cumsum(ranked * curve[rank, None], axis=0))))
            suffixes.append(np.concatenate((np.cumsum(ranked[::-1], axis=0)[::-1], zero)))
        # Component-major and flat over curves: one ``take`` per table
        # serves every curve and all three integrals at once.
        self._prefix = np.concatenate(prefixes).T.copy()
        self._suffix = np.concatenate(suffixes).T.copy()
        self._offsets = np.arange(len(curves)) * (grid_length + 1)

        # Knot tables for per-request lookups, laid out like the closed
        # form's tables: (3, knots * n_curves), knot-major.
        self._sigma = np.linspace(0.0, 1.0, strength_cells + 1)
        knots = np.repeat(self._sigma[:, None], len(curves), axis=1)
        integrals = self._integrals(knots).reshape(3, -1)
        self._knot_lo = _widen_down(integrals)
        self._knot_hi = _widen_up(integrals)
        self._curve_cols = np.arange(len(curves))
        # With a power-of-two cell count the knots are i / K, so s * K is
        # computed exactly (scaling by a power of two never rounds) and
        # floor/ceil give the certified bracketing indices with plain
        # arithmetic instead of a binary search.
        self._uniform = (strength_cells & (strength_cells - 1)) == 0
        self._strength_cells = strength_cells

    # ------------------------------------------------------------------
    @classmethod
    def for_engine(
        cls,
        engine: object,
        var_name: str,
        strength_cells: int = 1024,
    ) -> "CentroidBoundTables | None":
        """Build tables for ``engine``'s output ``var_name``, or ``None``.

        ``None`` (rather than an error) keeps callers' fast paths optional:
        anything outside the certified regime simply runs exact.
        """
        if not isinstance(engine, CompiledMamdaniEngine):
            return None
        # ``_fast_centroid`` holds exactly when the defuzzifier is Centroid.
        if not engine._trivial_weights or not engine._fast_centroid:
            return None
        if var_name not in engine._grouped_consequent_plans:
            return None
        try:
            return cls(engine, var_name, strength_cells)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    def _levels(self, strengths: np.ndarray) -> np.ndarray:
        """Clip level of every curve: term strengths, then pair minima."""
        overlaps = np.minimum(strengths[:, self._pair_t], strengths[:, self._pair_u])
        return np.concatenate((strengths, overlaps), axis=1)

    def _integrals(self, levels: np.ndarray) -> np.ndarray:
        """``Σ_i w_i·min(f_i, s)`` per curve column: ``(3, rows, n_curves)``."""
        k = np.empty(levels.shape, dtype=np.intp)
        for j, values in enumerate(self._values):
            k[:, j] = np.searchsorted(values, levels[:, j])
        k += self._offsets
        return self._prefix.take(k, axis=1) + levels * self._suffix.take(k, axis=1)

    def _fold(
        self, at_lo: np.ndarray, at_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bound the centroid from widened integrals at both strength corners.

        Overlap corrections subtract, so the *upper* strength corner
        tightens the lower bound and vice versa.
        """
        n = self._n_terms
        lo = at_lo[..., :n].sum(axis=-1) - at_hi[..., n:].sum(axis=-1)
        hi = at_hi[..., :n].sum(axis=-1) - at_lo[..., n:].sum(axis=-1)
        return self._finish(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])

    def score_interval(
        self, s_lo: np.ndarray, s_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Bound the centroid for rows of term-strength intervals.

        ``s_lo``/``s_hi`` are ``(rows, n_terms)`` arrays with
        ``0 <= s_lo <= s_hi <= 1`` bounding each term's maximal firing
        strength.  Returns ``(lo, hi, valid)``; where ``valid`` is False the
        area's lower bound was not positive and the row must be evaluated
        exactly.
        """
        last = self._sigma.size - 1
        if self._uniform:
            cells = self._strength_cells
            ilo = np.clip(np.floor(s_lo * cells).astype(np.intp), 0, last)
            ihi = np.clip(np.ceil(s_hi * cells).astype(np.intp), 0, last)
        else:
            ilo = np.clip(np.searchsorted(self._sigma, s_lo, side="right") - 1, 0, last)
            ihi = np.clip(np.searchsorted(self._sigma, s_hi, side="left"), 0, last)
        # Knots increase with their index, so a pair's overlap level
        # min(σ_t, σ_u) is the knot at the smaller index.
        width = self._curve_cols.size
        at_lo = self._levels(ilo) * width + self._curve_cols
        at_hi = self._levels(ihi) * width + self._curve_cols
        return self._fold(
            self._knot_lo.take(at_lo, axis=1), self._knot_hi.take(at_hi, axis=1)
        )

    def score_interval_direct(
        self, s_lo: np.ndarray, s_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Like :meth:`score_interval`, but free of knot quantisation.

        Evaluates the closed form at the exact strength endpoints instead of
        bracketing knots, so the interval width is driven by the strength
        interval itself plus the widening — no ``1/strength_cells``
        resolution floor.  Costs one binary search per row and curve.
        """
        return self._fold(
            _widen_down(self._integrals(self._levels(s_lo))),
            _widen_up(self._integrals(self._levels(s_hi))),
        )

    def centroid(self, strengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Closed-form centroid estimate (unwidened) and area, per row.

        A probe, not a bound: it agrees with the engine's centroid to about
        ``1e-13`` relative.  Where the area is not positive (nothing fired)
        the centroid is ``nan``.
        """
        sums = self._integrals(self._levels(strengths))
        n = self._n_terms
        total = sums[..., :n].sum(axis=-1) - sums[..., n:].sum(axis=-1)
        area = total[0]
        positive = area > 0.0
        moment = total[1] - total[2]
        return np.where(positive, moment / np.where(positive, area, 1.0), np.nan), area

    @staticmethod
    def _finish(
        a_lo: np.ndarray,
        a_hi: np.ndarray,
        mp_lo: np.ndarray,
        mp_hi: np.ndarray,
        mn_lo: np.ndarray,
        mn_hi: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m_lo = mp_lo - mn_hi
        m_hi = mp_hi - mn_lo
        slack_m = _REL * (np.abs(mp_hi) + np.abs(mn_hi)) + _ABS
        slack_a = _REL * np.abs(a_hi) + _ABS
        m_lo -= slack_m
        m_hi += slack_m
        a_lo = a_lo - slack_a
        a_hi = a_hi + slack_a

        valid = a_lo > 0.0
        safe_lo = np.where(valid, a_lo, 1.0)
        safe_hi = np.where(valid, a_hi, 1.0)
        lo = np.minimum(m_lo / safe_lo, m_lo / safe_hi)
        hi = np.maximum(m_hi / safe_lo, m_hi / safe_hi)
        return lo, hi, valid
