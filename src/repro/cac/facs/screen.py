"""Certified decision screening for the FACS cascade.

The trace pipeline only needs the *boolean* admission verdict — "is the
defuzzified A/R score above the threshold?" — yet the score path pays for
full dense-grid aggregation and centroid integration in both FLC stages for
every request.  :class:`DecisionScreen` answers the boolean directly for the
overwhelming majority of rows using certified interval bounds
(:class:`repro.fuzzy.bounds.CentroidBoundTables`), and evaluates *exactly*
— through the very same batched engine paths the oracle uses — only the
rows whose bounds straddle the threshold.  Decisions are therefore
byte-identical to ``score_columns(...) > threshold`` by construction, never
by tolerance.

How a batch flows through the screen:

1. **Exact FLC1 front end.**  Fuzzification and rule firing strengths are
   cheap (a few vector ops over ~40 rules); the screen runs them exactly
   and reduces to per-consequent-term strengths — the only quantities the
   aggregation stage depends on.
2. **FLC1 correction interval.**  Bound tables turn the exact term
   strengths into a certified interval for the correction value ``Cv``
   (FLC1's defuzzified, [0, 1]-clipped output).
3. **FLC2 cell lookup.**  FLC2's other two inputs are effectively discrete
   in the trace pipeline (bandwidth ∈ {1, 5, 10} BU, occupancy an integer),
   so for each ``(R, Cs)`` pair the screen lazily builds a one-dimensional
   table over ``Cv`` cells.  The key's fixed R and Cs degrees fold into
   one clip level per (consequent term, Cv term), so a cell's interval
   term strengths are a min/max of its Cv degree intervals against those
   levels (degree endpoints are certified because triangular/trapezoidal
   memberships are quasiconcave — including ``Triangular``'s
   ``np.isclose`` peak band, which gets its own guard cells forced to an
   upper bound of 1).  Certified score bounds then come from the
   closed-form clipped integrals of
   :meth:`CentroidBoundTables.score_interval_direct` (one binary search
   per cell and curve, no dense grid), collapsing to a per-cell verdict:
   accept, reject, or ambiguous.  Ambiguous cells are split into quarters
   and re-bounded only while splitting can pay off.  A score interval
   narrows linearly with its cell, and the closed-form score at the cell's
   edges and midpoint shows how far the score strays from the threshold
   there; a cell is split only if subcells :data:`_RESOLUTION_WIDTH` wide
   would clear that distance.  Transversal crossings, where the score
   moves through the threshold, keep being refined toward that width;
   bands where the score stays pinned within bound resolution of the
   threshold (the exact-zero plateaus of symmetric surfaces, or a score
   within about 1e-6 of it across a whole Cv band) stop at once and leave
   their rows to the exact fallback.  The split rule only steers
   refinement; a verdict always comes from the certified bounds.  Prefix
   sums answer "do all cells of an interval agree?" in O(1).
4. **Exact fallback.**  Rows whose correction interval spans disagreeing
   cells finish FLC1 exactly — reusing the firing strengths from step 1,
   and bit-identical because batched engine rows are independent; rows
   landing in an *ambiguous* cell additionally run exact FLC2.  Rows where
   FLC1's rule base did not fire make the screen defer the whole batch to
   the exact path so the diagnostic error is raised with its canonical
   wording.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from ...fuzzy.bounds import CentroidBoundTables
from ...fuzzy.compiled import CompiledMamdaniEngine
from ...fuzzy.defuzzification import DefuzzificationError
from ...fuzzy.membership import Trapezoidal, Triangular
from .flc1 import FLC1
from .flc2 import FLC2

__all__ = ["DecisionScreen", "TableInfo"]

#: Widening applied to per-cell membership-degree endpoints; generous cover
#: for the one rounding step between a degree and its quasiconcave envelope.
_DEGREE_SLACK = 1e-9
#: ``np.isclose`` defaults — ``Triangular.evaluate`` snaps a *band* of this
#: half-width around its peak to 1.0, so the screen treats the (doubled)
#: band as part of the plateau.
_ISCLOSE_RTOL = 1e-5
_ISCLOSE_ATOL = 1e-8
#: Number of uniform refinement points seeding the ``Cv`` cell edges.
_CV_SEED_CELLS = 257
#: Adaptive refinement of ambiguous cells: each round splits every ambiguous
#: cell worth splitting into four and re-bounds only the new subcells.
_REFINE_ROUNDS = 10
_REFINE_BOUNDS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
_MIN_CELL_WIDTH = 1e-7
#: The narrowest Cv subcell worth building to decide a cell.  A cell whose
#: score stays closer to the threshold than the bounds resolve at this width
#: (half-width = bound slope x width / 2) is left ambiguous: deciding it
#: would take more than ``cell width / _RESOLUTION_WIDTH`` subcells, while
#: its rows cost one exact FLC2 evaluation each.  On the paper's controllers
#: this keeps every table under 3,600 cells and the exact FLC2 share of a
#: 200k-request trace at 4%.
_RESOLUTION_WIDTH = 1e-5
#: Backstop on one table's size; the rule above keeps tables well inside it.
_MAX_TABLE_CELLS = 20_000


def _peak_interval(membership: object) -> tuple[float, float, list[float]]:
    """(plateau lo, plateau hi, extra cell edges) of a supported membership."""
    if type(membership) is Triangular:
        band = 2.0 * (_ISCLOSE_ATOL + _ISCLOSE_RTOL * abs(membership.b))
        lo, hi = membership.b - band, membership.b + band
        return lo, hi, [membership.a, lo, membership.b, hi, membership.c]
    if type(membership) is Trapezoidal:
        return (
            membership.b,
            membership.c,
            [membership.a, membership.b, membership.c, membership.d],
        )
    raise ValueError(f"unsupported membership shape {type(membership).__name__}")


@dataclass(frozen=True)
class TableInfo:
    """Build statistics of a :class:`DecisionScreen`'s tables."""

    tables: int
    cells: int
    ambiguous_cells: int
    #: Bound tables at construction plus every cell table built so far.
    build_seconds: float
    #: Rows decided by :meth:`DecisionScreen.decide` (batches it defers to
    #: the exact path are not counted).
    rows_screened: int
    #: Rows the bounds left undecided (the correction interval spanned
    #: disagreeing cells, or was not certified), so FLC1 ran exactly.
    rows_exact_flc1: int
    #: Of those, rows whose exact correction fell in an ambiguous cell, so
    #: FLC2 ran exactly too.
    rows_exact_flc2: int


class DecisionScreen:
    """Threshold decisions for FACS admission batches, byte-identical and fast.

    Build via :meth:`build`, which returns ``None`` whenever the controller
    pair falls outside the certified regime; callers then simply use the
    exact score path.
    """

    def __init__(self, flc1: FLC1, flc2: FLC2, threshold: float):
        started = time.perf_counter()
        eng1 = flc1.controller.engine
        eng2 = flc2.controller.engine
        # 8192 strength cells keep the per-request correction interval
        # tight (width ~ knot pitch x curve slope), directly shrinking the
        # fraction of rows whose interval spans disagreeing Cv cells.
        tables1 = CentroidBoundTables.for_engine(eng1, "Cv", strength_cells=8192)
        tables2 = CentroidBoundTables.for_engine(eng2, "AR")
        if tables1 is None or tables2 is None:
            raise ValueError("controller pair outside the certified regime")
        assert isinstance(eng1, CompiledMamdaniEngine)
        assert isinstance(eng2, CompiledMamdaniEngine)
        self._eng1 = eng1
        self._eng2 = eng2
        self._tables1 = tables1
        self._tables2 = tables2
        self._threshold = float(threshold)
        self._term_columns1 = eng1._grouped_consequent_plans["Cv"][1]
        self._term_columns2 = eng2._grouped_consequent_plans["AR"][1]

        # FLC2 input layout: locate the Cv / R / Cs slots in the engine's
        # flat degree vector and keep the Cv memberships for cell tables.
        plan_by_name = {entry[0]: entry for entry in eng2._batch_fuzzify_plan}
        if set(plan_by_name) != {"Cv", "R", "Cs"}:
            raise ValueError("FLC2 does not have the Cv/R/Cs input signature")
        _, cv_low, cv_high, cv_offset, cv_memberships = plan_by_name["Cv"]
        self._cv_low = cv_low
        self._cv_high = cv_high
        self._cv_memberships = cv_memberships

        # Seed Cv cell edges: universe ends, every membership breakpoint
        # (and isclose guard band), plus a uniform refinement for tightness.
        edges: list[float] = [cv_low, cv_high]
        self._peaks: list[tuple[float, float]] = []
        for membership in cv_memberships:
            lo, hi, extra = _peak_interval(membership)
            self._peaks.append((lo, hi))
            edges.extend(extra)
        edges.extend(np.linspace(cv_low, cv_high, _CV_SEED_CELLS))
        self._seed_edges = np.unique(
            np.clip(np.asarray(edges, dtype=float), cv_low, cv_high)
        )

        # Which Cv membership each FLC2 rule tests (-1: none), so a cell
        # table can fold the key's fixed R/Cs degrees into per-term levels.
        index = eng2._antecedent_index
        on_cv = (index >= cv_offset) & (index < cv_offset + len(cv_memberships))
        if (on_cv.sum(axis=1) > 1).any():
            raise ValueError("an FLC2 rule tests Cv more than once")
        self._rule_cv = np.full(index.shape[0], -1, dtype=np.intp)
        rules, columns = np.nonzero(on_cv)
        self._rule_cv[rules] = index[rules, columns] - cv_offset

        #: (bandwidth, occupancy) -> (edges, cell decisions, prefix sums).
        self._cells: dict[
            tuple[float, float],
            tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        ] = {}
        self._build_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._build_seconds = time.perf_counter() - started
        self._rows_screened = 0
        self._rows_exact_flc1 = 0
        self._rows_exact_flc2 = 0

    # ------------------------------------------------------------------
    @classmethod
    def build(cls, flc1: FLC1, flc2: FLC2, threshold: float) -> "DecisionScreen | None":
        """A screen for the controller pair, or ``None`` when unsupported."""
        try:
            return cls(flc1, flc2, threshold)
        except (ValueError, KeyError, AttributeError):
            return None

    # ------------------------------------------------------------------
    def _degree_intervals(
        self, cell_lo: np.ndarray, cell_hi: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Certified per-cell degree intervals for every Cv membership.

        The supported shapes are quasiconcave, so cell extrema sit at the
        cell endpoints — except on the peak plateau (incl. the isclose
        band), where the upper bound is forced to the exact plateau value 1.
        """
        at_lo_edge = np.clip(cell_lo, self._cv_low, self._cv_high)
        at_hi_edge = np.clip(cell_hi, self._cv_low, self._cv_high)
        deg_lo = np.empty((len(self._cv_memberships), cell_lo.size))
        deg_hi = np.empty((len(self._cv_memberships), cell_lo.size))
        for j, membership in enumerate(self._cv_memberships):
            left = np.clip(membership.evaluate(at_lo_edge), 0.0, 1.0)
            right = np.clip(membership.evaluate(at_hi_edge), 0.0, 1.0)
            lo = np.minimum(left, right) - _DEGREE_SLACK
            hi = np.maximum(left, right) + _DEGREE_SLACK
            peak_lo, peak_hi = self._peaks[j]
            on_peak = (cell_lo <= peak_hi) & (cell_hi >= peak_lo)
            hi[on_peak] = 1.0
            deg_lo[j] = np.clip(lo, 0.0, 1.0)
            deg_hi[j] = np.clip(hi, 0.0, 1.0)
        return deg_lo, deg_hi

    def _cell_table(
        self, bandwidth: float, occupancy: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        key = (float(bandwidth), float(occupancy))
        cached = self._cells.get(key)
        if cached is None:
            # Checked again under the lock: threads deciding the same key
            # build its table once and share it.
            with self._build_lock:
                cached = self._cells.get(key)
                if cached is None:
                    started = time.perf_counter()
                    cached = self._build_cell_table(*key)
                    with self._stats_lock:
                        self._cells[key] = cached
                        self._build_seconds += time.perf_counter() - started
        return cached

    def table_info(self) -> TableInfo:
        """Cell tables built so far, their cells, build time and row routing."""
        with self._stats_lock:
            decisions = [table[1] for table in self._cells.values()]
            return TableInfo(
                tables=len(decisions),
                cells=sum(d.size for d in decisions),
                ambiguous_cells=sum(int((d == -1).sum()) for d in decisions),
                build_seconds=self._build_seconds,
                rows_screened=self._rows_screened,
                rows_exact_flc1=self._rows_exact_flc1,
                rows_exact_flc2=self._rows_exact_flc2,
            )

    def _key_levels(
        self, bandwidth: float, occupancy: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """FLC2's fixed R/Cs degrees for one key, folded into term levels.

        Returns ``(levels, floor)``: ``levels[t, j]`` is the largest
        ``min(R degree, Cs degree)`` over the rules concluding in term ``t``
        that test Cv membership ``j`` (0 when there is none), and
        ``floor[t]`` the same over ``t``'s rules without a Cv term.  Min and
        max are exact selections, so ``max(floor, max_j min(cv_j,
        levels[:, j]))`` equals the engine's per-term maximum of rule minima
        bit for bit.
        """
        eng = self._eng2
        # Cv slots stay at 1.0, the neutral element of the min fold.
        degrees = np.ones(eng._n_degree_slots)
        scalars = {"R": bandwidth, "Cs": occupancy}
        for name, low, high, offset, memberships in eng._batch_fuzzify_plan:
            if name == "Cv":
                continue
            # Exactly the engine's batched fuzzification of this scalar.
            value = np.clip(np.array([scalars[name]]), low, high)
            for j, membership in enumerate(memberships):
                degrees[offset + j] = np.clip(membership.evaluate(value), 0.0, 1.0)[0]
        constant = degrees[eng._antecedent_index].min(axis=1)
        levels = np.zeros((len(self._term_columns2), len(self._cv_memberships)))
        floor = np.zeros(len(self._term_columns2))
        for t, rules in enumerate(self._term_columns2):
            for rule in rules:
                j = self._rule_cv[rule]
                if j < 0:
                    floor[t] = max(floor[t], constant[rule])
                else:
                    levels[t, j] = max(levels[t, j], constant[rule])
        return levels, floor

    @staticmethod
    def _term_strengths(
        cv_degrees: np.ndarray, levels: np.ndarray, floor: np.ndarray
    ) -> np.ndarray:
        """``(n, terms)`` FLC2 term strengths from ``(cv terms, n)`` degrees."""
        clipped = np.minimum(cv_degrees.T[:, None, :], levels)
        return np.maximum(clipped.max(axis=2), floor)

    def _build_cell_table(
        self, bandwidth: float, occupancy: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Adaptively refined per-``Cv``-cell verdicts for one (R, Cs) pair.

        Returns ``(edges, decision, accept_prefix, reject_prefix)`` where
        decision is ``1`` accept / ``0`` reject / ``-1`` ambiguous per cell
        and the prefix sums count decided cells for O(1) range-agreement
        queries.
        """
        levels, floor = self._key_levels(bandwidth, occupancy)
        cell_lo = self._seed_edges[:-1]
        cell_hi = self._seed_edges[1:]
        decision, split = self._decide_cells(cell_lo, cell_hi, levels, floor)
        for _ in range(_REFINE_ROUNDS):
            chosen = np.flatnonzero(split & (cell_hi - cell_lo > _MIN_CELL_WIDTH))
            if not chosen.size or cell_lo.size + 3 * chosen.size > _MAX_TABLE_CELLS:
                break
            # Split each chosen cell into quarters and bound only the new
            # subcells; all other cells keep their verdicts untouched.
            bounds = (
                cell_lo[chosen, None]
                + (cell_hi - cell_lo)[chosen, None] * _REFINE_BOUNDS
            )
            bounds[:, 0] = cell_lo[chosen]
            bounds[:, -1] = cell_hi[chosen]
            sub_lo = bounds[:, :4].ravel()
            sub_hi = bounds[:, 1:].ravel()
            sub_decision, sub_split = self._decide_cells(sub_lo, sub_hi, levels, floor)

            # Each chosen cell's slot is taken by its four subcells.
            keep = np.ones(cell_lo.size, dtype=bool)
            keep[chosen] = False
            width = np.where(keep, 1, 4)
            slot = np.cumsum(width) - width
            total = cell_lo.size + 3 * chosen.size
            new_lo = np.empty(total)
            new_hi = np.empty(total)
            new_decision = np.empty(total, dtype=np.int8)
            new_split = np.empty(total, dtype=bool)
            kept = slot[keep]
            new_lo[kept] = cell_lo[keep]
            new_hi[kept] = cell_hi[keep]
            new_decision[kept] = decision[keep]
            new_split[kept] = split[keep]
            slots = (slot[chosen][:, None] + np.arange(4)).ravel()
            new_lo[slots] = sub_lo
            new_hi[slots] = sub_hi
            new_decision[slots] = sub_decision
            new_split[slots] = sub_split
            cell_lo, cell_hi = new_lo, new_hi
            decision, split = new_decision, new_split
        edges = np.append(cell_lo, cell_hi[-1])
        accept_prefix = np.concatenate(([0], np.cumsum(decision == 1)))
        reject_prefix = np.concatenate(([0], np.cumsum(decision == 0)))
        return edges, decision, accept_prefix, reject_prefix

    def _decide_cells(
        self,
        cell_lo: np.ndarray,
        cell_hi: np.ndarray,
        levels: np.ndarray,
        floor: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-cell verdicts for ``[cell_lo, cell_hi]`` Cv intervals.

        Returns ``(decision, split)``: ``split`` marks the ambiguous cells
        worth refining (see :meth:`_worth_splitting`).
        """
        # Interval term strengths: the Cv degree intervals through the
        # key's folded min/max (exact selections, so the endpoint folds
        # bound the engine's fold in float).
        cv_lo, cv_hi = self._degree_intervals(cell_lo, cell_hi)
        t_lo = self._term_strengths(cv_lo, levels, floor)
        t_hi = self._term_strengths(cv_hi, levels, floor)

        fired = (t_lo > 0.0).any(axis=1)
        # Direct endpoint evaluation: no knot-quantisation floor, so cells
        # narrow enough that the score bounds clear the threshold *do* get
        # decided — this is what lets adaptive refinement converge on the
        # small-but-nonzero score bands.
        score_lo, score_hi, valid = self._tables2.score_interval_direct(t_lo, t_hi)
        # The oracle clips the defuzzified score into the output range
        # before comparing; clipping is monotone, so the bounds follow.
        score_lo = np.clip(score_lo, -1.0, 1.0)
        score_hi = np.clip(score_hi, -1.0, 1.0)

        decision = np.full(cell_lo.size, -1, dtype=np.int8)
        certain = fired & valid
        decision[certain & (score_lo > self._threshold)] = 1
        decision[certain & (score_hi <= self._threshold)] = 0
        split = decision == -1
        ambiguous = np.flatnonzero(split & certain)
        if ambiguous.size:
            split[ambiguous] = self._worth_splitting(
                cell_lo[ambiguous],
                cell_hi[ambiguous],
                score_hi[ambiguous] - score_lo[ambiguous],
                levels,
                floor,
            )
        return decision, split

    def _worth_splitting(
        self,
        cell_lo: np.ndarray,
        cell_hi: np.ndarray,
        score_width: np.ndarray,
        levels: np.ndarray,
        floor: np.ndarray,
    ) -> np.ndarray:
        """Which ambiguous cells splitting can decide at affordable width.

        The certified score interval narrows linearly with the cell:
        ``score_width / cell width`` is the bound's slope.  The closed-form
        score at the cell's edges and midpoint (a probe, not a bound) shows
        how far the score strays from the threshold inside the cell.  A
        subcell is decided once its half-width falls below that distance,
        so a cell is split only if subcells of :data:`_RESOLUTION_WIDTH`
        would get there.  A transversal crossing passes while its cells are
        wide, because the score moves across them; a band where the score is
        pinned near the threshold fails at once, and its rows take the exact
        fallback instead of a split budget.
        """
        points = np.concatenate((cell_lo, 0.5 * (cell_lo + cell_hi), cell_hi))
        degrees = np.empty((len(self._cv_memberships), points.size))
        for j, membership in enumerate(self._cv_memberships):
            degrees[j] = np.clip(membership.evaluate(points), 0.0, 1.0)
        scores, area = self._tables2.centroid(self._term_strengths(degrees, levels, floor))
        distance = np.where(
            area > 0.0, np.abs(np.clip(scores, -1.0, 1.0) - self._threshold), 0.0
        )
        reach = distance.reshape(3, cell_lo.size).max(axis=0)
        slope = score_width / (cell_hi - cell_lo)
        return 2.0 * reach > slope * _RESOLUTION_WIDTH

    # ------------------------------------------------------------------
    def decide(
        self,
        speeds_kmh: np.ndarray,
        angles_deg: np.ndarray,
        distances_km: np.ndarray,
        request_bus: np.ndarray,
        occupancy_bu: float,
    ) -> np.ndarray:
        """Boolean threshold verdicts, byte-identical to the exact score path.

        Inputs are the already universe-clamped observation columns of
        :meth:`FuzzyAdmissionControlSystem.score_columns`.  Raises
        :class:`DefuzzificationError` when the batch must be deferred to the
        exact path for its canonical no-rule-fired diagnostics.
        """
        eng1 = self._eng1
        matrix = eng1._batch_matrix(
            {"S": speeds_kmh, "A": angles_deg, "D": distances_km}
        )
        degrees = eng1._fill_degrees_batch(matrix)
        strengths = eng1._firing_strengths_batch(degrees)
        term_strengths = eng1._term_strengths_batch(strengths, self._term_columns1)
        if not (term_strengths > 0.0).any(axis=1).all():
            # Let the exact path raise with its canonical row-indexed message.
            raise DefuzzificationError("screen deferral: FLC1 rule base did not fire")

        corr_lo, corr_hi, valid = self._tables1.score_interval(
            term_strengths, term_strengths
        )
        corr_lo = np.clip(corr_lo, 0.0, 1.0)
        corr_hi = np.clip(corr_hi, 0.0, 1.0)

        count = matrix.shape[0]
        occupancy = float(occupancy_bu)
        accepted = np.zeros(count, dtype=bool)
        undecided = ~valid
        for bandwidth in np.unique(request_bus):
            mask = request_bus == bandwidth
            edges, _, accept_prefix, reject_prefix = self._cell_table(
                float(bandwidth), occupancy
            )
            last = edges.size - 2
            first_cell = np.clip(
                np.searchsorted(edges, corr_lo[mask], side="right") - 1, 0, last
            )
            last_cell = np.clip(
                np.searchsorted(edges, corr_hi[mask], side="left") - 1, 0, last
            )
            lo_cell = np.minimum(first_cell, last_cell)
            hi_cell = np.maximum(first_cell, last_cell)
            span = hi_cell - lo_cell + 1
            all_accept = (accept_prefix[hi_cell + 1] - accept_prefix[lo_cell]) == span
            all_reject = (reject_prefix[hi_cell + 1] - reject_prefix[lo_cell]) == span
            accepted[mask] = valid[mask] & all_accept
            undecided[mask] |= ~(all_accept | all_reject)

        fallback = np.flatnonzero(undecided)
        exact_flc2 = 0
        if fallback.size:
            # Exact FLC1 on the undecided subset, completed from the firing
            # strengths already computed above: batched engine rows are
            # mutually independent, so the subset aggregation + centroid is
            # bit-identical to the corresponding rows of a full-batch run
            # (and to ``FLC1.correction_values``, whose [0, 1] clip this
            # replays).
            eng1_grouped = eng1._grouped_consequent_plans["Cv"]
            cv_variable = eng1._consequent_plans["Cv"][2]
            aggregated = eng1._aggregate_output_batch_grouped(
                strengths[fallback], eng1_grouped, "Cv", 0
            )
            corrections = np.clip(
                eng1._defuzzify_fast_batch("Cv", cv_variable, aggregated), 0.0, 1.0
            )
            verdict = np.empty(fallback.size, dtype=np.int8)
            for bandwidth in np.unique(request_bus[fallback]):
                sub = request_bus[fallback] == bandwidth
                edges, decision, _, _ = self._cell_table(float(bandwidth), occupancy)
                cell = np.clip(
                    np.searchsorted(edges, corrections[sub], side="right") - 1,
                    0,
                    edges.size - 2,
                )
                verdict[sub] = decision[cell]
            accepted[fallback] = verdict == 1
            ambiguous = fallback[verdict == -1]
            exact_flc2 = ambiguous.size
            if ambiguous.size:
                scores = self._exact_scores(
                    corrections[verdict == -1],
                    request_bus[ambiguous],
                    np.full(ambiguous.size, occupancy),
                )
                accepted[ambiguous] = scores > self._threshold
        with self._stats_lock:
            self._rows_screened += count
            self._rows_exact_flc1 += fallback.size
            self._rows_exact_flc2 += exact_flc2
        return accepted

    def _exact_scores(
        self, corrections: np.ndarray, request_bus: np.ndarray, counters: np.ndarray
    ) -> np.ndarray:
        """Exact FLC2 scores through the engine's batched hot path.

        The same operation sequence as
        :meth:`FLC2.decision_scores` → ``compute_batch`` → ``infer_batch``
        (including the final [-1, 1] clip), minus the wrapper overhead —
        results are bit-identical because every step is shared.
        """
        eng = self._eng2
        matrix = eng._batch_matrix(
            {"Cv": corrections, "R": request_bus, "Cs": counters}
        )
        strengths = eng._firing_strengths_batch(eng._fill_degrees_batch(matrix))
        grouped = eng._grouped_consequent_plans["AR"]
        variable = eng._consequent_plans["AR"][2]
        aggregated = eng._aggregate_output_batch_grouped(strengths, grouped, "AR", 0)
        scores = eng._defuzzify_fast_batch("AR", variable, aggregated)
        return np.clip(scores, -1.0, 1.0)
