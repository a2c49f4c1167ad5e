"""Self-tests of the benchmark's own logic (no workload is run).

    python -m pytest perfbench -q
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from types import SimpleNamespace

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import openloop  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# ----------------------------------------------------------------------
# Span self-time arithmetic
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > child [1, 4] > grandchild [2, 3]; root > child [5, 9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    own = tracing.self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0  # self times tile the root span exactly


def test_recorded_spans_nest_and_shares_stay_within_wall():
    tracer = tracing.Tracer()

    def leaf(n):
        return sum(range(n))

    timed_leaf = tracing._timed(tracer, "fuzzy.infer_crisp", leaf, None, False)

    def outer():
        return timed_leaf(1000) + timed_leaf(2000)

    timed_outer = tracing._timed(tracer, "cac.facs.decide", outer, None, False)
    timed_outer()
    arrays = tracer.arrays()
    assert arrays["parent"].tolist() == [-1, 0, 0]
    wall = float(arrays["end"].max() - arrays["start"].min()) * 1.5
    out = tracing.summarize(arrays, tracer.labels, wall)
    assert out["fuzzy.infer_crisp.calls"] == 2
    assert out["cac.facs.decide.calls"] == 1
    assert out["cac.facs.decide.busy_s"] >= 0.0
    shares = sum(out[f"{layer}.share"] for layer in tracing.LAYERS)
    assert shares <= 1.0
    assert out["trace.untraced_share"] == pytest.approx(1.0 - shares)


def test_coroutine_is_timed_per_resumption_and_counted_once():
    tracer = tracing.Tracer()

    async def submit(x):
        await asyncio.sleep(0)
        await asyncio.sleep(0)
        return x * 2

    timed = tracing._timed(tracer, "service.submit", submit, None, True)

    async def caller():
        return await timed(21)

    assert asyncio.run(caller()) == 42
    arrays = tracer.arrays()
    assert len(arrays["code"]) == 3  # three steps between two suspensions
    assert arrays["first"].tolist() == [1, 0, 0]
    assert tracing.summarize(arrays, tracer.labels, 1.0)["service.submit.calls"] == 1


def test_benchmark_json_declares_exactly_the_reported_layer_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        declared = [m["name"] for m in json.load(handle)["per_layer"]]
    assert declared == tracing.metric_names()
    assert len(declared) <= 128


# ----------------------------------------------------------------------
# Host-speed scaling
# ----------------------------------------------------------------------
def test_scale_by_host_speed_scales_every_interval():
    result = {
        "setup_s": 1.0, "cold_s": 3.0, "speed_after": 3.0,
        "warm_wall_s": [1.0], "warm_speed": [0.5], "saturated": [(2.0, 1000, 0.5)],
    }
    run.scale_by_host_speed(result, 1.0)
    assert result["speed"] == 2.0  # mean of the speeds before the spawn and after cold
    assert result["setup_scaled_s"] == 2.0
    assert result["cold_scaled_s"] == 6.0
    assert result["warm_scaled_s"] == [0.5]
    assert result["saturated_dps"] == [1000.0]  # 1000 decisions in 2 s at half speed


# ----------------------------------------------------------------------
# Percentile / sample-count rule
# ----------------------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = list(range(1, 1001))  # 1000 samples
    summary = stats.median_and_tail(values)
    assert summary["tail_q"] == 0.99
    assert summary["tail"] == 990
    assert stats.samples_beyond(1000, 0.99) == 10
    assert stats.samples_beyond(1000, 0.999) == 1
    assert summary["count"] == 1000


def test_tail_falls_back_to_lower_percentiles_then_the_median():
    assert stats.median_and_tail(list(range(100)))["tail_q"] == 0.9
    assert stats.median_and_tail(list(range(40)))["tail_q"] == 0.75
    few = stats.median_and_tail([3.0, 1.0, 2.0])
    assert few == {"p50": 2.0, "tail": 2.0, "tail_q": 0.5, "count": 3}


# ----------------------------------------------------------------------
# Digest and invariant checks
# ----------------------------------------------------------------------
def test_perturbed_payload_fails_the_digest_check():
    payload = json.dumps({"requested": 10, "accepted": 8})
    good = workloads.RunOutput(payload, decisions=10, sim_cell_s=1.0)
    reference = {"trace-saturated": {"seed": 7, "digest": good.digest}}
    assert workloads.digest_failures("trace-saturated", 7, good.digest, reference) == []
    bad = workloads.RunOutput(payload.replace("8", "9"), decisions=10, sim_cell_s=1.0)
    failures = workloads.digest_failures("trace-saturated", 7, bad.digest, reference)
    assert failures and "reference" in failures[0]


def test_digest_is_only_checked_at_the_reference_seed():
    reference = {"trace-saturated": {"seed": 7, "digest": "0" * 64}}
    assert workloads.digest_failures("trace-saturated", 8, "1" * 64, reference) is None


def _frame(requested, accepted, blocked, classes=None):
    columns = {"requested": requested, "accepted": accepted, "blocked": blocked}
    frame = {"rows": len(requested), "columns": columns}
    if classes:
        frame["class_names"] = list(classes)
        for name, per_class in classes.items():
            for counter, values in per_class.items():
                columns[f"class.{name}.{counter}"] = values
    return frame


def test_frame_invariants():
    assert workloads.frame_failures(_frame([10], [7], [3]), "ok") == []
    broken = workloads.frame_failures(_frame([10], [7], [2]), "lost")
    assert broken and "requested 10 != accepted 7 + blocked 2" in broken[0]
    classes = {
        "voice": {"requested": [6], "accepted": [4], "blocked": [2]},
        "data": {"requested": [4], "accepted": [2], "blocked": [1]},
    }
    per_class = workloads.frame_failures(_frame([10], [7], [3], classes), "classes")
    assert len(per_class) == 1 and "per-class accepted sum 6 != total 7" in per_class[0]


def test_service_invariants():
    report = SimpleNamespace(
        submitted=5, admitted=3, rejected=1, shed=1, peak_occupancy_bu=40, capacity_bu=40,
        metrics=SimpleNamespace(requested=5, accepted=3, blocked=2),
    )
    step = SimpleNamespace(report=report, sent=5, outcomes={i: "x" for i in range(5)})
    assert workloads.service_failures(step, "s") == []
    step.outcomes = {i: "x" for i in range(4)}
    assert workloads.service_failures(step, "s")


# ----------------------------------------------------------------------
# failed_ratio counting
# ----------------------------------------------------------------------
def test_failed_run_counts_all_its_operations():
    runs = [
        stats.run_counts(100, []),
        stats.run_counts(100, ["digest mismatch"]),
        stats.run_counts(50, [], shed=5),
    ]
    assert runs == [(100, 0), (100, 100), (50, 5)]
    attempted, failed = stats.count_failures(runs)
    assert (attempted, failed) == (250, 105)
    assert stats.ok_ratio(attempted, failed) == pytest.approx(145 / 250)


def test_ok_ratio_rejects_impossible_counts():
    with pytest.raises(ValueError):
        stats.ok_ratio(0, 0)
    with pytest.raises(ValueError):
        stats.ok_ratio(10, 11)


# ----------------------------------------------------------------------
# Open-loop ladder bookkeeping and import-time parsing
# ----------------------------------------------------------------------
def _step(tail_ms, tripped=False, rate=1000.0):
    return openloop.SessionResult(
        rate=rate, due=1000, sent=1000 if not tripped else 400,
        latencies_ms=[1.0] * 989 + [tail_ms] * 11, lateness_ms=[0.0] * 1000,
        backlog_growth=0.0, tripped=tripped, report=None,
        outcomes={i: "admitted" for i in range(1000)}, span_s=1.0,
    )


def test_max_rate_stops_at_the_first_failing_rate():
    ok, slow = _step(5.0), _step(openloop.LATENCY_LIMIT_MS + 1)
    tripped = _step(5.0, tripped=True)
    ladder = {1000: [ok, ok, ok], 2000: [slow, tripped, ok], 4000: [slow, tripped, slow],
              8000: [ok, ok, ok]}
    assert openloop.max_rate(ladder) == 2000
    assert openloop.max_throughput(ladder) == pytest.approx(1000.0)
    assert not openloop.rate_passes([tripped] * 3)


def test_saturation_session_answers_every_request_without_shedding():
    step = openloop.run_saturated(openloop.build_trace(300, 5))
    assert step.sent == len(step.outcomes) == 300
    assert step.shed == 0 and step.span_s > 0.0
    assert workloads.service_failures(step, "saturation") == []


def test_parse_import_times_sums_self_time_per_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       200 |        300 | numpy",
        "import time:      1000 |       1000 |     scipy.stats",
        "import time:        50 |         50 | repro.cli",
    ])
    times = run.parse_import_times(text)
    assert times == pytest.approx(
        {"repro": 50e-6, "scipy": 1000e-6, "networkx": 0.0, "numpy": 300e-6}
    )
