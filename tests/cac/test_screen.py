"""The certified decision screen: byte-identical verdicts, every cell key.

:meth:`FuzzyAdmissionControlSystem.decide_columns` routes trace batches
through :class:`~repro.cac.facs.screen.DecisionScreen`, whose verdicts must
equal ``score_columns(...) > threshold`` element for element — on random
observations and on the edges where interval bounds are tightest (universe
ends, membership breakpoints and peaks), at every occupancy the trace can
visit and every request bandwidth.  The streamed trace built on it must
equal the per-``Call`` object oracle.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cac.facs import FuzzyAdmissionControlSystem
from repro.cac.facs.screen import DecisionScreen
from repro.cac.facs.system import FACSConfig
from repro.cellular.mobility import (
    PAPER_ANGLE_RANGE_DEG,
    PAPER_DISTANCE_RANGE_KM,
    PAPER_SPEED_RANGE_KMH,
)
from repro.simulation.config import BatchExperimentConfig
from repro.simulation.trace import run_trace_arrivals

BANDWIDTHS = (1.0, 5.0, 10.0)
OCCUPANCIES = range(41)


def _breakpoints(memberships) -> list[float]:
    points: list[float] = []
    for membership in memberships:
        points.extend(
            getattr(membership, name) for name in "abcd" if hasattr(membership, name)
        )
    return points


def _edge_values(points: list[float], low: float, high: float) -> np.ndarray:
    """Breakpoints, universe ends and their one-ulp neighbours, in range."""
    values = np.asarray([low, high, *points], dtype=float)
    values = np.concatenate(
        (values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf))
    )
    return np.unique(np.clip(values, low, high))


@pytest.fixture(scope="module")
def system() -> FuzzyAdmissionControlSystem:
    return FuzzyAdmissionControlSystem()


@pytest.fixture(scope="module")
def columns(system) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random observations plus a grid over every FLC1 input's edges."""
    plan = {entry[0]: entry for entry in system.flc1.controller.engine._batch_fuzzify_plan}
    edges = [
        _edge_values(_breakpoints(plan[name][4]), *limits)
        for name, limits in (
            ("S", PAPER_SPEED_RANGE_KMH),
            ("A", PAPER_ANGLE_RANGE_DEG),
            ("D", PAPER_DISTANCE_RANGE_KM),
        )
    ]
    grid = np.meshgrid(*edges, indexing="ij")
    rng = np.random.default_rng(20070625)
    count = 3000
    speeds = np.concatenate((grid[0].ravel(), rng.uniform(-10.0, 130.0, count)))
    angles = np.concatenate((grid[1].ravel(), rng.uniform(-180.0, 180.0, count)))
    distances = np.concatenate((grid[2].ravel(), rng.uniform(-1.0, 11.0, count)))
    bus = np.asarray(BANDWIDTHS)[np.arange(speeds.size) % len(BANDWIDTHS)]
    return speeds, angles, distances, bus


@pytest.mark.parametrize("occupancy", OCCUPANCIES)
def test_decide_columns_equals_scores_over_threshold(system, columns, occupancy):
    speeds, angles, distances, bus = columns
    assert system.decision_screen is not None
    verdicts = system.decide_columns(speeds, angles, distances, bus, occupancy)
    scores = system.score_columns(speeds, angles, distances, bus, occupancy)
    np.testing.assert_array_equal(
        verdicts, scores > system.config.acceptance_threshold
    )


def test_cell_verdicts_match_exact_scores_at_cv_edges(system):
    """Every decided cell agrees with exact FLC2 at Cv's hardest points."""
    screen = system.decision_screen
    plan = {entry[0]: entry for entry in system.flc2.controller.engine._batch_fuzzify_plan}
    _, low, high, _, memberships = plan["Cv"]
    rng = np.random.default_rng(11)
    cv = np.concatenate(
        (_edge_values(_breakpoints(memberships), low, high), rng.uniform(low, high, 500))
    )
    threshold = system.config.acceptance_threshold
    for bandwidth in BANDWIDTHS:
        for occupancy in OCCUPANCIES:
            edges, decision, _, _ = screen._cell_table(bandwidth, float(occupancy))
            cell = np.clip(np.searchsorted(edges, cv, side="right") - 1, 0, edges.size - 2)
            verdict = decision[cell]
            exact = system.flc2.decision_scores(
                cv, np.full(cv.size, bandwidth), np.full(cv.size, float(occupancy))
            )
            decided = verdict != -1
            np.testing.assert_array_equal(verdict[decided] == 1, exact[decided] > threshold)


def test_table_info_counts_built_tables(system, columns):
    screen = DecisionScreen.build(system.flc1, system.flc2, system.config.acceptance_threshold)
    assert screen is not None
    info = screen.table_info()
    assert (info.tables, info.cells, info.ambiguous_cells) == (0, 0, 0)
    assert info.build_seconds >= 0.0

    speeds, angles, distances, bus = columns
    screen.decide(
        np.clip(speeds, *PAPER_SPEED_RANGE_KMH),
        angles,
        np.clip(distances, *PAPER_DISTANCE_RANGE_KM),
        np.where(bus == 10.0, 5.0, bus),
        7.0,
    )
    info = screen.table_info()
    assert info.tables == 2
    assert info.cells > 2 * 256
    assert 0 <= info.ambiguous_cells < info.cells
    assert info.build_seconds > 0.0
    # Deciding again reuses the tables.
    screen.decide(np.array([30.0]), np.array([0.0]), np.array([2.0]), np.array([1.0]), 7.0)
    assert screen.table_info() == info


def test_reference_engine_has_no_screen(columns):
    system = FuzzyAdmissionControlSystem(FACSConfig(engine="reference"))
    assert system.decision_screen is None
    speeds, angles, distances, bus = (column[:200] for column in columns)
    np.testing.assert_array_equal(
        system.decide_columns(speeds, angles, distances, bus, 12),
        system.score_columns(speeds, angles, distances, bus, 12)
        > system.config.acceptance_threshold,
    )


@pytest.mark.parametrize("batch_size", [1, 16, 1024])
def test_stream_trace_equals_object_oracle(batch_size):
    config = BatchExperimentConfig(request_count=5_000, seed=11)
    oracle = run_trace_arrivals(config, batch_size=batch_size)
    stream = run_trace_arrivals(config, batch_size=batch_size, stream=True)
    assert stream == oracle
    assert stream.metrics == oracle.metrics
