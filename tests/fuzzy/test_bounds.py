"""Certified centroid bounds: closed-form sums against the exact engine.

:class:`CentroidBoundTables` stands in for the compiled engine's dense
aggregate-and-integrate path with closed-form clipped integrals.  These
properties hold it to its contract for both FACS output variables (FLC1's
``Cv`` and FLC2's ``AR``): every interval brackets the engine's bit-exact
centroid, the closed form matches a dense trapezoid reference, and
configurations outside the certified regime get no tables at all.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cac.facs import FLC1, FLC2
from repro.fuzzy.bounds import CentroidBoundTables
from repro.fuzzy.compiled import CompiledMamdaniEngine
from repro.fuzzy.defuzzification import Bisector

COMMON = settings(max_examples=60, deadline=None)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


def _engine(name: str) -> CompiledMamdaniEngine:
    controller = FLC1() if name == "Cv" else FLC2()
    return controller.controller.engine


ENGINES = {name: _engine(name) for name in ("Cv", "AR")}
TABLES = {
    "Cv": CentroidBoundTables.for_engine(ENGINES["Cv"], "Cv", strength_cells=8192),
    "AR": CentroidBoundTables.for_engine(ENGINES["AR"], "AR"),
}
N_TERMS = {name: len(ENGINES[name]._grouped_consequent_plans[name][1]) for name in ENGINES}


def _rule_strengths(engine: CompiledMamdaniEngine, var: str, terms: np.ndarray) -> np.ndarray:
    """Rule strengths whose per-term maxima are exactly ``terms``."""
    term_columns = engine._grouped_consequent_plans[var][1]
    strengths = np.zeros((terms.shape[0], engine._antecedent_index.shape[0]))
    for t, columns in enumerate(term_columns):
        strengths[:, columns] = terms[:, t, None]
    return strengths


def _exact_centroids(var: str, terms: np.ndarray) -> np.ndarray:
    """The engine's own batched aggregate → centroid, bit for bit."""
    engine = ENGINES[var]
    aggregated = engine._aggregate_output_batch_grouped(
        _rule_strengths(engine, var, terms), engine._grouped_consequent_plans[var], var, 0
    )
    return engine._defuzzify_fast_batch(var, engine._consequent_plans[var][2], aggregated)


def _dense_area_moment(var: str, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference integrals: materialise ``max_t min(T_t, s_t)`` on the grid."""
    engine = ENGINES[var]
    surfaces, _, supports, length = engine._grouped_consequent_plans[var]
    grid = engine._consequent_plans[var][2].grid
    aggregated = np.zeros((terms.shape[0], length))
    for t, (start, stop) in enumerate(supports):
        clipped = np.minimum(surfaces[t], terms[:, t, None])
        aggregated[:, start:stop] = np.maximum(aggregated[:, start:stop], clipped)
    return np.trapezoid(aggregated, grid, axis=1), np.trapezoid(aggregated * grid, grid, axis=1)


@st.composite
def strength_rows(draw, var: str):
    """Term-strength rows with at least one term fired, plus an enclosing interval."""
    n = N_TERMS[var]
    rows = draw(st.integers(min_value=1, max_value=8))
    point = np.array(draw(st.lists(unit, min_size=n * rows, max_size=n * rows))).reshape(rows, n)
    fired = draw(st.lists(st.integers(0, n - 1), min_size=rows, max_size=rows))
    point[np.arange(rows), fired] = np.maximum(point[np.arange(rows), fired], 0.05)
    # Interval widths from wide to degenerate: narrow ones expose loose
    # corners that a wide interval would hide.
    width = draw(st.sampled_from([1.0, 1e-2, 1e-4, 1e-7, 0.0]))
    below = width * np.array(draw(st.lists(unit, min_size=n * rows, max_size=n * rows)))
    above = width * np.array(draw(st.lists(unit, min_size=n * rows, max_size=n * rows)))
    return (
        point,
        point * (1.0 - below.reshape(rows, n)),
        point + (1.0 - point) * above.reshape(rows, n),
    )


@pytest.mark.parametrize("var", ["Cv", "AR"])
class TestCentroidBounds:
    @COMMON
    @given(data=st.data())
    def test_intervals_bracket_exact_centroid(self, var, data):
        point, s_lo, s_hi = data.draw(strength_rows(var))
        exact = _exact_centroids(var, point)
        tables = TABLES[var]
        for lo, hi, valid in (
            tables.score_interval(s_lo, s_hi),
            tables.score_interval_direct(s_lo, s_hi),
            tables.score_interval(point, point),
            tables.score_interval_direct(point, point),
        ):
            assert np.all(lo[valid] <= exact[valid])
            assert np.all(exact[valid] <= hi[valid])

    @COMMON
    @given(data=st.data())
    def test_degenerate_direct_interval_is_tight(self, var, data):
        point, _, _ = data.draw(strength_rows(var))
        lo, hi, valid = TABLES[var].score_interval_direct(point, point)
        assert valid.all()
        assert np.all(hi - lo <= 1e-6)

    @COMMON
    @given(data=st.data())
    def test_knot_tables_equal_direct_evaluation_on_knots(self, var, data):
        point, _, _ = data.draw(strength_rows(var))
        cells = TABLES[var]._strength_cells
        on_knots = np.round(point * cells) / cells
        table = TABLES[var].score_interval(on_knots, on_knots)
        direct = TABLES[var].score_interval_direct(on_knots, on_knots)
        for from_table, from_direct in zip(table, direct):
            np.testing.assert_array_equal(from_table, from_direct)

    @COMMON
    @given(data=st.data())
    def test_closed_form_matches_dense_reference(self, var, data):
        point, _, _ = data.draw(strength_rows(var))
        centroid, area = TABLES[var].centroid(point)
        dense_area, dense_moment = _dense_area_moment(var, point)
        assert np.allclose(area, dense_area, rtol=0.0, atol=1e-12)
        assert np.allclose(centroid * area, dense_moment, rtol=0.0, atol=1e-12)
        assert np.allclose(centroid, _exact_centroids(var, point), rtol=0.0, atol=1e-12)

    def test_unfired_rows_have_no_area(self, var):
        centroid, area = TABLES[var].centroid(np.zeros((2, N_TERMS[var])))
        assert np.all(area == 0.0)
        assert np.isnan(centroid).all()
        _, _, valid = TABLES[var].score_interval_direct(
            np.zeros((1, N_TERMS[var])), np.zeros((1, N_TERMS[var]))
        )
        assert not valid.any()

    def test_non_centroid_defuzzifier_is_unsupported(self, var):
        engine = ENGINES[var]
        bisector = CompiledMamdaniEngine(engine._rule_base, defuzzifier=Bisector())
        assert CentroidBoundTables.for_engine(bisector, var) is None
        assert TABLES[var] is not None
