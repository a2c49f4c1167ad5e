"""Scale gate: the frame-native trace pipeline at one million requests.

The trace fast path (``run_trace_arrivals(..., stream=True)``) exists for
exactly one reason: offline million-request traces should take seconds,
not minutes, without giving up a single bit of fidelity.  This bench holds
it to that contract end to end:

* **Byte-identity first.**  The object path (per-``Call`` decide_batch
  loop) is the oracle.  The stream path must reproduce its full
  :class:`~repro.simulation.trace.TraceRunResult` — counters, per-batch
  records, peak occupancy — at several batch sizes, and again at the full
  million-request scale.  Only then is anything timed.
* **Wall clock.**  Warm (decision-screen tables built), the stream path
  must beat the object path by >= 5x on the same million-request trace.
  Cold — each path once in a fresh subprocess, imports and screen table
  construction included — the stream path must still beat the object
  path (it once lost to it by ~2x while its tables were built from dense
  grid sums), both at the bench's size and at 20k requests.  The cold
  ratio is recorded but not gated at 5x: at 200k requests on a shared
  2-core host it measured 4.6-5.9x, too close to hold as a gate.
* **Constant parent memory.**  The streaming-fold reduce
  (:class:`~repro.analysis.frame.StreamingFrameReducer` with a spill
  directory) must keep the parent's peak RSS flat as the replication
  count grows: each chunk frame streams to the on-disk memmap format
  instead of accumulating in memory.  Measured in fresh subprocesses via
  ``VmHWM`` from ``/proc/self/status`` — no third-party profiler needed.

Writes ``results/BENCH_trace.json`` (committed, and uploaded as a CI
artifact), including the cold run's screen ``table_info()``: tables,
cells, build seconds and how many rows took each exact fallback.
``REPRO_TRACE_SCALE_REQUESTS`` scales the trace down for CI smoke runs;
the speedup, cold, break-even and RSS gates stay the same.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

from repro.simulation.config import BatchExperimentConfig
from repro.simulation.trace import run_trace_arrivals

REQUESTS = int(os.environ.get("REPRO_TRACE_SCALE_REQUESTS", "1000000"))
SEED = 7
BATCH_SIZE = 1024
STREAM_ROUNDS = 2  # min-of-rounds; the object reference runs once (it is slow)
MIN_SPEEDUP = 5.0
#: Trace size at which a cold stream run must still beat a cold object run.
BREAK_EVEN_REQUESTS = 20_000

#: RSS gate: replications in the small/large streaming-fold subprocesses
#: (8x more rows) and the maximum tolerated peak-RSS growth between them.
RSS_ROWS_SMALL = 50_000
RSS_ROWS_LARGE = 400_000
RSS_CHUNK_ROWS = 10_000
MAX_RSS_GROWTH = 1.35

RESULTS_PATH = Path(__file__).resolve().parent.parent / "results" / "BENCH_trace.json"

_RSS_CHILD = """
import sys, tempfile
from repro.analysis.frame import BATCH_KIND, StreamingFrameReducer, run_result_row
from repro.cellular.metrics import CallMetrics
from repro.simulation.executor import ThreadPoolSweepExecutor
from repro.simulation.results import RunResult

rows, chunk_rows, spill = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "spill"

def make_row(i):
    requested = 400 + (i * 7919) % 500
    accepted = requested - (i * 104729) % (requested // 2)
    metrics = CallMetrics(
        requested=requested, accepted=accepted, blocked=requested - accepted,
        completed=accepted, dropped=0, handoff_requests=0, handoff_accepted=0,
        accepted_bu=accepted * 2, requested_bu=requested * 2,
    )
    result = RunResult(
        controller="FACS", metrics=metrics,
        parameters={"request_count": float(requested)}, seed=i,
    )
    return run_result_row(result, label=f"rep{i % 5}", replication=i)

executor = ThreadPoolSweepExecutor(max_workers=2, chunksize=chunk_rows)
with tempfile.TemporaryDirectory() as tmp:
    reducer = StreamingFrameReducer(BATCH_KIND, spill_dir=tmp if spill else None)
    frame = executor.map_reduce(make_row, range(rows), reducer)
    assert len(frame) == rows

# Peak RSS of *this* address space.  Not getrusage's ru_maxrss: that
# counter survives exec, so a subprocess spawned via vfork/posix_spawn
# would report the parent's peak, not its own.  VmHWM is per-mm and
# resets on exec.
with open("/proc/self/status") as status:
    for line in status:
        if line.startswith("VmHWM:"):
            print(line.split()[1])
            break
"""


_COLD_CHILD = """
import dataclasses, json, sys, time
start = time.perf_counter()
from repro.cac.facs.system import FuzzyAdmissionControlSystem
from repro.simulation.config import BatchExperimentConfig
from repro.simulation.trace import run_trace_arrivals

requests, seed, batch_size = (int(arg) for arg in sys.argv[1:4])
stream = sys.argv[4] == "stream"
config = BatchExperimentConfig(request_count=requests, seed=seed)
run_trace_arrivals(config, batch_size=batch_size, stream=stream)
seconds = time.perf_counter() - start
# The trace's controller shares its screen (and the tables it built) with
# every default-configured FACS system in the process.
screen = FuzzyAdmissionControlSystem().decision_screen if stream else None
info = dataclasses.asdict(screen.table_info()) if screen is not None else None
print(json.dumps({"seconds": seconds, "table_info": info}))
"""


def _child(script: str, *args: object) -> str:
    """Last stdout line of a fresh Python subprocess running ``script``."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    out = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env,
        check=True,
        capture_output=True,
        text=True,
    )
    return out.stdout.strip().splitlines()[-1]


def _peak_rss_kb(rows: int, spill: bool) -> int:
    """Peak RSS (KiB on Linux) of a fresh streaming-fold subprocess."""
    return int(
        _child(_RSS_CHILD, rows, RSS_CHUNK_ROWS, "spill" if spill else "memory")
    )


def _cold_run(stream: bool, requests: int = REQUESTS) -> dict:
    """Wall clock (imports included) of one trace run in a fresh subprocess."""
    path = "stream" if stream else "object"
    return json.loads(_child(_COLD_CHILD, requests, SEED, BATCH_SIZE, path))


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_trace_scale_gate(benchmark):
    # ------------------------------------------------------------------
    # Byte-identity at several admission granularities (small trace),
    # including per-batch records and peak occupancy, not just totals.
    small = BatchExperimentConfig(request_count=5_000, seed=11)
    for batch_size in (1, 16, 1024):
        oracle = run_trace_arrivals(small, batch_size=batch_size)
        stream = run_trace_arrivals(small, batch_size=batch_size, stream=True)
        assert stream == oracle, f"stream diverged at batch_size={batch_size}"

    # ------------------------------------------------------------------
    # The full-scale trace: equivalence at scale, then warm timings.
    config = BatchExperimentConfig(request_count=REQUESTS, seed=SEED)
    stream_result = run_trace_arrivals(config, batch_size=BATCH_SIZE, stream=True)

    object_seconds = None
    oracle_result = None

    def run_object_reference():
        nonlocal object_seconds, oracle_result
        start = time.perf_counter()
        oracle_result = run_trace_arrivals(config, batch_size=BATCH_SIZE)
        object_seconds = time.perf_counter() - start

    run_object_reference()
    assert stream_result == oracle_result, "stream diverged from oracle at scale"
    assert stream_result.metrics == oracle_result.metrics

    timing: dict[str, float] = {}

    def run_stream_path():
        timing["seconds"] = min(
            _timed(
                lambda: run_trace_arrivals(config, batch_size=BATCH_SIZE, stream=True)
            )
            for _ in range(STREAM_ROUNDS)
        )

    benchmark.pedantic(run_stream_path, rounds=1, iterations=1)
    stream_seconds = timing["seconds"]
    speedup = object_seconds / stream_seconds

    # ------------------------------------------------------------------
    # Cold: each path once in a fresh process, screen tables included.
    cold_stream = _cold_run(stream=True)
    cold_object = _cold_run(stream=False)
    cold_stream_seconds = cold_stream["seconds"]
    cold_object_seconds = cold_object["seconds"]
    cold_speedup = cold_object_seconds / cold_stream_seconds
    small_stream_seconds = _cold_run(True, BREAK_EVEN_REQUESTS)["seconds"]
    small_object_seconds = _cold_run(False, BREAK_EVEN_REQUESTS)["seconds"]

    # ------------------------------------------------------------------
    # Constant parent memory in streaming-fold mode: 8x the replications
    # must not grow peak RSS past the tolerance (spill keeps the parent
    # holding one chunk at a time).
    rss_small_kb = _peak_rss_kb(RSS_ROWS_SMALL, spill=True)
    rss_large_kb = _peak_rss_kb(RSS_ROWS_LARGE, spill=True)
    rss_growth = rss_large_kb / rss_small_kb
    # In-memory contrast (not gated): the buffered fold's RSS grows with
    # the row count, which is exactly what spill mode removes.
    rss_inmem_large_kb = _peak_rss_kb(RSS_ROWS_LARGE, spill=False)

    payload = {
        "benchmark": "bench_trace_scale",
        "config": {
            "request_count": REQUESTS,
            "seed": SEED,
            "batch_size": BATCH_SIZE,
            "stream_rounds": STREAM_ROUNDS,
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
        },
        "timings": {
            "object_path_seconds": round(object_seconds, 4),
            "stream_path_seconds": round(stream_seconds, 4),
            "speedup": round(speedup, 2),
            "cold_object_path_seconds": round(cold_object_seconds, 4),
            "cold_stream_path_seconds": round(cold_stream_seconds, 4),
            "cold_speedup": round(cold_speedup, 2),
        },
        "cold_break_even": {
            "request_count": BREAK_EVEN_REQUESTS,
            "object_path_seconds": round(small_object_seconds, 4),
            "stream_path_seconds": round(small_stream_seconds, 4),
            "speedup": round(small_object_seconds / small_stream_seconds, 2),
        },
        "screen_tables": cold_stream["table_info"],
        "equivalence": {
            "batch_sizes_checked": [1, 16, 1024],
            "full_scale_byte_identical": True,
            "accepted": stream_result.accepted,
            "completed": stream_result.metrics.completed,
            "acceptance_percentage": round(stream_result.acceptance_percentage, 6),
        },
        "streaming_fold_rss": {
            "rows_small": RSS_ROWS_SMALL,
            "rows_large": RSS_ROWS_LARGE,
            "peak_rss_small_kb": rss_small_kb,
            "peak_rss_large_kb": rss_large_kb,
            "growth_ratio": round(rss_growth, 3),
            "in_memory_large_kb": rss_inmem_large_kb,
        },
    }
    RESULTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")

    benchmark.extra_info.update(payload["timings"])
    benchmark.extra_info["rss_growth_ratio"] = payload["streaming_fold_rss"][
        "growth_ratio"
    ]
    benchmark.extra_info["results_file"] = str(RESULTS_PATH)
    print(
        f"\ntrace scale ({REQUESTS} requests): object {object_seconds:.2f}s, "
        f"stream {stream_seconds:.2f}s, speedup {speedup:.2f}x; cold object "
        f"{cold_object_seconds:.2f}s, cold stream {cold_stream_seconds:.2f}s "
        f"({cold_speedup:.2f}x; {BREAK_EVEN_REQUESTS} requests: object "
        f"{small_object_seconds:.2f}s, stream {small_stream_seconds:.2f}s); "
        f"streaming-fold RSS x{rss_growth:.2f} over 8x rows "
        f"-> {RESULTS_PATH.name}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"stream path only {speedup:.2f}x faster than the object oracle "
        f"(gate: {MIN_SPEEDUP}x)"
    )
    assert cold_stream_seconds < cold_object_seconds, (
        f"cold stream path ({cold_stream_seconds:.2f}s) no faster than the cold "
        f"object path ({cold_object_seconds:.2f}s) in a fresh process"
    )
    assert small_stream_seconds < small_object_seconds, (
        f"cold stream path ({small_stream_seconds:.2f}s) no faster than the cold "
        f"object path ({small_object_seconds:.2f}s) at {BREAK_EVEN_REQUESTS} "
        f"requests in a fresh process"
    )
    assert rss_growth <= MAX_RSS_GROWTH, (
        f"streaming-fold peak RSS grew {rss_growth:.2f}x over 8x rows "
        f"(gate: {MAX_RSS_GROWTH}x)"
    )
