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

import dataclasses
import sys
import threading
import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

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
    assert (info.rows_screened, info.rows_exact_flc1, info.rows_exact_flc2) == (0, 0, 0)
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
    assert info.rows_screened == speeds.size
    assert 0 <= info.rows_exact_flc2 <= info.rows_exact_flc1 < info.rows_screened
    # Deciding again reuses the tables; only the row counter moves.
    screen.decide(np.array([30.0]), np.array([0.0]), np.array([2.0]), np.array([1.0]), 7.0)
    assert screen.table_info() == dataclasses.replace(
        info, rows_screened=info.rows_screened + 1
    )


#: Keys whose score sits within a few 1e-6 of the threshold over a whole
#: Cv band near 0.5: the tables that used to exhaust the split budget.
HARD_KEYS = [(1.0, 21.0), (5.0, 21.0), (1.0, 39.0), (5.0, 30.0), (10.0, 35.0)]


@pytest.mark.parametrize("key", HARD_KEYS)
def test_hard_key_cells_agree_with_exact_scores(system, key):
    """Decided cells hold densely: the pinned band and every cell edge ±1 ulp."""
    edges, decision, _, _ = system.decision_screen._cell_table(*key)

    def verdicts(cv):
        cell = np.clip(np.searchsorted(edges, cv, side="right") - 1, 0, edges.size - 2)
        return decision[cell]

    uniform = np.random.default_rng(15).uniform(0.0, 1.0, 20_000)
    # Not vacuous: the ambiguous bands are a small part of the Cv range.
    assert (verdicts(uniform) != -1).mean() > 0.8
    cv = np.concatenate(
        (
            edges,
            np.nextafter(edges, -np.inf),
            np.nextafter(edges, np.inf),
            np.linspace(0.5, 0.52, 20_001),
            uniform,
        )
    )
    cv = np.unique(np.clip(cv, 0.0, 1.0))
    verdict = verdicts(cv)
    bandwidth, occupancy = key
    exact = system.flc2.decision_scores(
        cv, np.full(cv.size, bandwidth), np.full(cv.size, occupancy)
    )
    decided = verdict != -1
    np.testing.assert_array_equal(
        verdict[decided] == 1, exact[decided] > system.config.acceptance_threshold
    )


def test_cell_tables_stay_compact(system):
    """Refinement stops at bands the bounds cannot resolve at affordable width."""
    screen = system.decision_screen
    cells = sum(
        screen._cell_table(bandwidth, float(occupancy))[1].size
        for bandwidth in BANDWIDTHS
        for occupancy in OCCUPANCIES
    )
    assert cells < 200_000


def test_row_counters_match_exact_fallbacks(system, columns, monkeypatch):
    screen = DecisionScreen.build(system.flc1, system.flc2, system.config.acceptance_threshold)
    exact_rows = []
    exact_scores = screen._exact_scores

    def counting_exact_scores(corrections, request_bus, counters):
        exact_rows.append(corrections.size)
        return exact_scores(corrections, request_bus, counters)

    monkeypatch.setattr(screen, "_exact_scores", counting_exact_scores)
    speeds, angles, distances, bus = columns
    speeds = np.clip(speeds, *PAPER_SPEED_RANGE_KMH)
    distances = np.clip(distances, *PAPER_DISTANCE_RANGE_KM)
    for occupancy in (7.0, 21.0, 35.0):
        screen.decide(speeds, angles, distances, bus, occupancy)
    info = screen.table_info()
    assert info.rows_screened == 3 * speeds.size
    assert info.rows_exact_flc2 == sum(exact_rows) > 0
    assert info.rows_exact_flc2 <= info.rows_exact_flc1 < info.rows_screened


def test_concurrent_decides_build_each_table_once(system, columns):
    """Threads racing on the same (R, Cs) keys share one build per key."""
    screen = DecisionScreen.build(system.flc1, system.flc2, system.config.acceptance_threshold)
    builds: Counter = Counter()
    build = screen._build_cell_table

    def slow_build(bandwidth, occupancy):
        builds[bandwidth, occupancy] += 1
        # Hold the build open so the other threads reach the cache check.
        time.sleep(0.05)
        return build(bandwidth, occupancy)

    screen._build_cell_table = slow_build
    speeds, angles, distances, bus = (column[:500] for column in columns)
    speeds = np.clip(speeds, *PAPER_SPEED_RANGE_KMH)
    distances = np.clip(distances, *PAPER_DISTANCE_RANGE_KM)
    bus = np.where(bus == 10.0, 5.0, bus)
    threads = 4
    repeats = 100
    barrier = threading.Barrier(threads, timeout=30)

    def decide(_):
        barrier.wait()
        verdict = screen.decide(speeds, angles, distances, bus, 21.0)
        # Many small decides: a lost counter update would show in the total.
        for i in range(repeats):
            row = slice(i, i + 1)
            screen.decide(speeds[row], angles[row], distances[row], bus[row], 21.0)
        return verdict

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            verdicts = list(pool.map(decide, range(threads), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert builds == {(1.0, 21.0): 1, (5.0, 21.0): 1}
    for verdict in verdicts[1:]:
        np.testing.assert_array_equal(verdict, verdicts[0])
    info = screen.table_info()
    assert info.tables == 2
    assert info.rows_screened == threads * (speeds.size + repeats)


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
