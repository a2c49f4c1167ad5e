"""Span recording around the program's public functions, from the outside.

``install`` wraps each function of :data:`TARGETS` in the running process
with a recorder; the program's own sources are untouched.  A span holds a
name, start, end and the index of the span that was open when it began
(its parent).  Spans stay in memory, in flat arrays, until the run ends.
A layer's self time is the time its spans cover minus the time covered
by their children.

Coroutine functions (``AdmissionServer.submit``) are timed per resumption:
each step from one suspension to the next is a span, so time spent
waiting on the event loop is not counted as busy time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

#: (metric label, module, attribute path, how rows are counted).
#: Rows: ``None`` counts one per call; an int is the positional argument
#: (after ``self``) whose length is the row count; ``"count"`` reads a
#: ``count`` argument; ``"config"`` reads ``config.request_count``.
TARGETS: tuple[tuple[str, str, str, object], ...] = (
    ("fuzzy.infer_crisp", "repro.fuzzy.compiled", "CompiledMamdaniEngine.infer_crisp", None),
    ("fuzzy.infer_batch", "repro.fuzzy.compiled", "CompiledMamdaniEngine.infer_batch", "batch"),
    ("cac.facs.decide", "repro.cac.facs.system", "FuzzyAdmissionControlSystem.decide", None),
    ("cac.facs.decide_batch", "repro.cac.facs.system",
     "FuzzyAdmissionControlSystem.decide_batch", 0),
    ("cac.facs.decide_columns", "repro.cac.facs.system",
     "FuzzyAdmissionControlSystem.decide_columns", 0),
    ("cac.screen.build", "repro.cac.facs.screen", "DecisionScreen.build", None),
    ("cac.screen.decide", "repro.cac.facs.screen", "DecisionScreen.decide", 0),
    ("cac.rivals.scc_decide", "repro.cac.scc.system", "ShadowClusterController.decide", None),
    ("cac.rivals.adaptive_threshold_decide", "repro.cac.adaptive_threshold",
     "AdaptiveThresholdController.decide", None),
    ("cac.rivals.mpc_lookahead_decide", "repro.cac.mpc_lookahead",
     "MPCLookaheadController.decide", None),
    ("cac.rivals.cs_decide", "repro.cac.complete_sharing",
     "CompleteSharingController.decide", None),
    ("des.run", "repro.des.environment", "Environment.run", None),
    ("cellular.update", "repro.cellular.mobility", "GaussMarkovModel.update", None),
    ("cellular.update", "repro.cellular.mobility", "RandomWaypointModel.update", None),
    ("cellular.update", "repro.cellular.mobility", "ConstantVelocityModel.update", None),
    ("cellular.serving_cell", "repro.cellular.network", "CellularNetwork.serving_cell", None),
    ("cellular.handoff", "repro.cellular.calls", "Call.handoff", None),
    ("simulation.build_trace_arrays", "repro.simulation.batch", "build_trace_arrays", "config"),
    ("simulation.build_requests", "repro.simulation.batch", "build_requests", "config"),
    ("simulation.run_batch_experiment", "repro.simulation.batch", "run_batch_experiment", None),
    ("simulation.map_reduce", "repro.simulation.executor", "SweepExecutor.map_reduce", None),
    ("simulation.run_trace_arrivals", "repro.simulation.trace", "run_trace_arrivals", None),
    ("workloads.next_interarrival", "repro.workloads.arrivals",
     "_MMPPSampler.next_interarrival", None),
    ("workloads.next_interarrival", "repro.workloads.arrivals",
     "_PoissonSampler.next_interarrival", None),
    ("workloads.next_interarrival", "repro.workloads.arrivals",
     "_HeavyTailSampler.next_interarrival", None),
    ("workloads.next_interarrival", "repro.workloads.arrivals",
     "_ThinningSampler.next_interarrival", None),
    ("workloads.batch_arrival_times_array", "repro.workloads.arrivals",
     "ArrivalModel.batch_arrival_times_array", "count"),
    ("analysis.from_run_results", "repro.analysis.frame", "MetricsFrame.from_run_results", None),
    ("analysis.from_network_outputs", "repro.analysis.frame",
     "MetricsFrame.from_network_outputs", None),
    ("analysis.metrics_frame_to_dict", "repro.analysis.io", "metrics_frame_to_dict", None),
    ("analysis.to_json", "repro.api.runner", "RunReport.to_json", None),
    ("service.submit", "repro.service.server", "AdmissionServer.submit", None),
    ("api.run", "repro.api.runner", "Runner.run", None),
)

#: Labels whose ``rows`` are reported (the batch-shaped functions).
ROW_LABELS = tuple(
    dict.fromkeys(label for label, _, _, rows in TARGETS if rows is not None)
)

#: Every distinct label, in table order.
LABELS = tuple(dict.fromkeys(label for label, *_ in TARGETS))

#: Layers, named after the ``src/repro`` modules their functions live in.
LAYERS = tuple(dict.fromkeys(label.rsplit(".", 1)[0] for label in LABELS))


class Tracer:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.labels: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.rows = array("q")
        self.first = array("b")
        self._open: list[int] = []
        self.counters: dict[str, float] = {}
        self.engines: dict[int, object] = {}

    def code_of(self, label: str) -> int:
        if label not in self._codes:
            self._codes[label] = len(self.labels)
            self.labels.append(label)
        return self._codes[label]

    def open(self, code: int, rows: int, first: int) -> int:
        index = len(self.code)
        self.code.append(code)
        self.parent.append(self._open[-1] if self._open else -1)
        self.rows.append(rows)
        self.first.append(first)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "code": np.frombuffer(self.code, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "rows": np.frombuffer(self.rows, dtype=np.int64).copy(),
            "first": np.frombuffer(self.first, dtype=np.int8).copy(),
        }


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest, so a parent's children never overlap and
    their durations sum to the part of the parent they cover.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], duration[has_parent])
    return duration - covered


#: Service counters, read from the latency-rate sessions' public ``report()``
#: and the load generator.
SERVICE_COUNTERS = (
    "batches", "mean_batch_size", "deadline_flush_ratio", "sheds",
    "lateness_p99_ms", "backlog_growth",
)

#: Per-layer metrics besides the per-function ones, added by ``run.py``
#: (import times, tracing overhead) or by :func:`layer_metrics`.
EXTRA_METRICS = (
    "fuzzy.cache_hit_ratio",
    "des.events",
    "des.events_per_s",
    "cac.screen.first_decide_s",
    "analysis.to_json_bytes",
    *(f"service.{key}" for key in SERVICE_COUNTERS),
    "import.repro_s",
    "import.scipy_s",
    "import.networkx_s",
    "import.numpy_s",
    "trace.overhead",
    "trace.wall_s",
)


def metric_names() -> list[str]:
    """Every per-layer metric name a traced run reports, in order."""
    names = []
    for label in LABELS:
        names.append(f"{label}.calls")
        if label in ROW_LABELS:
            names.append(f"{label}.rows")
        names += [f"{label}.busy_s", f"{label}.share"]
    names += [f"{layer}.share" for layer in LAYERS]
    names.append("trace.untraced_share")
    return names + list(EXTRA_METRICS)


def _inclusive_s(arrays: dict[str, np.ndarray], labels: list[str], label: str,
                 upto: int | None = None) -> float:
    """Total span time of ``label`` (children included) over the first ``upto`` spans."""
    if label not in labels:
        return 0.0
    mask = arrays["code"][:upto] == labels.index(label)
    return float((arrays["end"][:upto][mask] - arrays["start"][:upto][mask]).sum())


def layer_metrics(tracer: "Tracer", arrays: dict[str, np.ndarray], wall_s: float,
                  cold_spans: int, service: dict) -> dict[str, float]:
    """Everything a traced child reports, except what ``run.py`` adds.

    ``cold_spans`` is the number of spans the first (cold) run recorded:
    ``cac.screen.first_decide_s`` is the screen's decide time within it,
    where every lazily built cell table is paid for.
    """
    out = summarize(arrays, tracer.labels, wall_s)
    events = tracer.counters.get("des.events", 0.0)
    des_s = _inclusive_s(arrays, tracer.labels, "des.run")
    out["fuzzy.cache_hit_ratio"] = cache_hit_ratio(tracer)
    out["des.events"] = events
    out["des.events_per_s"] = events / des_s if des_s else 0.0
    out["cac.screen.first_decide_s"] = _inclusive_s(
        arrays, tracer.labels, "cac.screen.decide", cold_spans
    )
    out["analysis.to_json_bytes"] = tracer.counters.get("analysis.to_json_bytes", 0.0)
    for key in SERVICE_COUNTERS:
        out[f"service.{key}"] = float(service.get(key, 0.0))
    out["trace.wall_s"] = wall_s
    return out


def write_spans(path: str, labels: list[str], arrays: dict[str, np.ndarray]) -> None:
    """Write the span arrays and their label table as one ``.npz`` file."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    np.savez_compressed(path, labels=np.array(labels), **arrays)


def summarize(arrays: dict[str, np.ndarray], labels: list[str], wall_s: float) -> dict:
    """Per-label calls/rows/busy_s/share and per-layer shares over ``wall_s``."""
    own = self_times(arrays["start"], arrays["end"], arrays["parent"])
    code = arrays["code"]
    out: dict[str, float] = {}
    layer_busy = dict.fromkeys(LAYERS, 0.0)
    for label in LABELS:
        if label in labels:
            mask = code == labels.index(label)
            calls = int(arrays["first"][mask].sum())
            rows = int(arrays["rows"][mask].sum())
            busy = float(own[mask].sum())
        else:
            calls, rows, busy = 0, 0, 0.0
        out[f"{label}.calls"] = calls
        if label in ROW_LABELS:
            out[f"{label}.rows"] = rows
        out[f"{label}.busy_s"] = busy
        out[f"{label}.share"] = busy / wall_s
        layer_busy[label.rsplit(".", 1)[0]] += busy
    for layer, busy in layer_busy.items():
        out[f"{layer}.share"] = busy / wall_s
    out["trace.untraced_share"] = 1.0 - sum(layer_busy.values()) / wall_s
    return out


# ----------------------------------------------------------------------
# Installing the recorders
# ----------------------------------------------------------------------
def _row_counter(rows):
    if rows is None:
        return None
    if rows == "batch":
        def count(args, kwargs):
            inputs = args[0] if args else kwargs["inputs"]
            if isinstance(inputs, dict):
                inputs = next(iter(inputs.values()))
            return len(inputs)
    elif rows == "count":
        def count(args, kwargs):
            return int(args[1] if len(args) > 1 else kwargs["count"])
    elif rows == "config":
        def count(args, kwargs):
            return int((args[0] if args else kwargs["config"]).request_count)
    else:
        def count(args, kwargs):
            return len(args[rows])
    return count


def _timed(tracer: Tracer, label: str, fn, rows, method: bool):
    code = tracer.code_of(label)
    counter = _row_counter(rows)

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        def start_coroutine(*args, **kwargs):
            return _StepTimed(tracer, code, fn(*args, **kwargs))
        return start_coroutine

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is None:
            n = 1
        else:
            n = counter(args[1:] if method else args, kwargs)
        index = tracer.open(code, n, 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        return result

    return wrapper


class _StepTimed:
    """Awaitable that records one span per resumption of a coroutine."""

    def __init__(self, tracer: Tracer, code: int, coroutine) -> None:
        self._tracer = tracer
        self._code = code
        self._coroutine = coroutine

    def __await__(self):
        inner = self._coroutine.__await__()
        tracer, code = self._tracer, self._code
        first, value, error = 1, None, None
        while True:
            index = tracer.open(code, 1, first)
            first = 0
            try:
                if error is None:
                    yielded = inner.send(value)
                else:
                    yielded = inner.throw(error)
            except StopIteration as stop:
                tracer.close(index)
                return stop.value
            except BaseException:
                tracer.close(index)
                raise
            tracer.close(index)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                inner.close()
                raise
            except BaseException as exc:  # delivered into the coroutine next step
                value, error = None, exc


def _environment_run(tracer: Tracer, fn):
    code = tracer.code_of("des.run")

    @functools.wraps(fn)
    def wrapper(env, *args, **kwargs):
        before = env.processed_events
        index = tracer.open(code, 1, 1)
        try:
            return fn(env, *args, **kwargs)
        finally:
            tracer.close(index)
            tracer.count("des.events", env.processed_events - before)

    return wrapper


def _report_to_json(tracer: Tracer, fn):
    inner = _timed(tracer, "analysis.to_json", fn, None, True)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        text = inner(*args, **kwargs)
        tracer.count("analysis.to_json_bytes", len(text))
        return text

    return wrapper


def _engine_seen(tracer: Tracer, label: str, fn, rows):
    inner = _timed(tracer, label, fn, rows, True)

    @functools.wraps(fn)
    def wrapper(engine, *args, **kwargs):
        tracer.engines[id(engine)] = engine
        return inner(engine, *args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns what :func:`uninstall` needs to undo it."""
    undo: list[tuple[object, str, object]] = []
    for label, module_name, path, rows in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            owner_name, attr = path.split(".")
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(_timed(tracer, label, raw.__func__, rows, True))
            elif label == "des.run":
                wrapped = _environment_run(tracer, raw)
            elif label == "analysis.to_json":
                wrapped = _report_to_json(tracer, raw)
            elif label.startswith("fuzzy."):
                wrapped = _engine_seen(tracer, label, raw, rows)
            else:
                wrapped = _timed(tracer, label, raw, rows, True)
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        else:
            original = getattr(module, path)
            wrapped = _timed(tracer, label, original, rows, False)
            # Rebind every module-level alias, so callers that imported the
            # function by name are recorded too.
            for other in list(sys.modules.values()):
                if getattr(other, path, None) is original:
                    undo.append((other, path, original))
                    setattr(other, path, wrapped)
    return undo


def uninstall(undo: list[tuple[object, str, object]]) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def cache_hit_ratio(tracer: Tracer) -> float:
    """Crisp-inference cache hits over lookups, across every engine seen."""
    hits = lookups = 0
    for engine in tracer.engines.values():
        info = engine.cache_info
        hits += info.hits
        lookups += info.hits + info.misses
    return hits / lookups if lookups else 0.0
