"""One fresh benchmark process: set-up, a cold run, then warm runs.

Started by ``run.py`` with the parent's ``time.monotonic()`` reading taken
just before the spawn, so set-up and cold times count from interpreter
start.  The host's speed (see ``calib.py``) is measured right after the
cold run and around each warm run and saturation session, and reported
with them for ``run.py`` to scale by.  Prints one JSON object as its last
line of output.

    python3 perfbench/child.py --workload NAME --seed N|default \\
        --mode cold|full --seconds S --trace 0|1 --spawned T
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from calib import host_speed  # noqa: E402
from stats import median_and_tail, run_counts  # noqa: E402

#: Warm runs a process makes however long each takes (``run.py`` spreads
#: the warm phase over several processes).
MIN_WARM_RUNS = 2

#: Latency-rate sessions per service-live process, after its cold session;
#: a saturation session runs between each two of them.
LATENCY_SESSIONS = 4


def peak_rss_mb() -> float:
    """``VmHWM`` of this process, in MiB."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM not found in /proc/self/status")


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json")) as handle:
        return json.load(handle)


def main(argv: list[str] | None = None) -> dict:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--mode", choices=("cold", "full"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    import repro.cli  # noqa: F401  (the entry point's import cost is set-up)
    import repro

    source = os.path.realpath(os.path.join(ROOT, "src"))
    if not os.path.realpath(repro.__file__).startswith(source + os.sep):
        raise SystemExit(f"repro imported from {repro.__file__}, not from {source}")

    from workloads import WORKLOADS, digest_failures

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed == "default" else int(args.seed)
    state = workload.setup(seed)
    result: dict = {"setup_s": time.monotonic() - args.spawned}

    tracer = undo = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
    traced_from = time.perf_counter()

    cold = workload.run(state)
    result["cold_s"] = time.monotonic() - args.spawned
    result["peak_rss_mb"] = peak_rss_mb()
    result["speed_after"] = host_speed(workload.speed_kernel)
    cold_spans = len(tracer.code) if tracer else 0

    failures = list(cold.failures)
    if args.workload != "service-live":
        digest = cold.digest
    elif args.mode == "full":
        # The live sessions depend on wall-clock timing; the virtual-clock
        # replay is deterministic, so one process computes it.
        digest = workload.replay_digest(seed)
    else:
        digest = None
    mismatch = digest and digest_failures(args.workload, seed, digest, load_reference())
    failures += mismatch or []
    result["digest"] = digest
    result["digest_checked"] = mismatch is not None
    # (operations attempted, operations failed) per run.
    runs = [run_counts(cold.decisions, failures, cold.shed)]

    if args.workload == "service-live":
        ladder = args.mode == "full" and bool(args.trace)
        result.update(live_sessions(workload, state, ladder, runs, failures))
    elif args.mode == "full":
        result.update(warm_batch(workload, state, cold, args.seconds, runs, failures))

    import numpy

    result["runs"] = runs
    result["numpy"] = numpy.__version__
    result["failures"] = failures[:20]
    if tracer is not None:
        uninstall_and_summarize(tracer, undo, traced_from, cold_spans, result, args)
    return result


def warm_batch(workload, state, cold, seconds, runs, failures) -> dict:
    """Repeat the cold run in-process within ``seconds``; each must match it.

    A further run starts only if, taking as long as the last one, it ends
    before the deadline.
    """
    times: list[float] = []
    speeds: list[float] = []
    attempts = 0
    deadline = time.monotonic() + seconds
    speed = host_speed(workload.speed_kernel)
    while attempts < MIN_WARM_RUNS or time.monotonic() + (times or [0.0])[-1] < deadline:
        attempts += 1
        started = time.monotonic()
        try:
            output = workload.run(state)
        except Exception as exc:  # a failed run counts all its work as failed
            failures.append(f"warm run raised {type(exc).__name__}: {exc}")
            runs.append(run_counts(cold.decisions, ["raised"]))
            continue
        times.append(time.monotonic() - started)
        speed_after = host_speed(workload.speed_kernel)
        speeds.append((speed + speed_after) / 2)
        speed = speed_after
        problems = list(output.failures)
        if output.digest != cold.digest:
            problems.append("warm payload differs from the cold run's")
        failures.extend(problems)
        runs.append(run_counts(output.decisions, problems))
    if not times:
        raise RuntimeError("every warm run raised: " + "; ".join(failures[-attempts:]))
    return {
        "warm_wall_s": times,
        "warm_speed": speeds,
        "decisions": cold.decisions,
        "sim_cell_s": cold.sim_cell_s,
    }


def live_sessions(workload, state, ladder: bool, runs, failures) -> dict:
    """Latency-rate and saturation sessions, alternating; the ladder if ``ladder``.

    Both kinds are spread over every process of a run, so that one spell of
    host stalls cannot cover all of them.  Each saturation session is
    reported as ``(seconds, decisions, host speed around it)``.
    """
    import openloop

    steps, saturated = [], []
    for k in range(LATENCY_SESSIONS):
        if k:
            speed = host_speed(workload.speed_kernel)
            step = workload.saturation_session(state)
            speed = (speed + host_speed(workload.speed_kernel)) / 2
            saturated.append((step.span_s, len(step.outcomes), speed))
            check_session(step, f"saturation session {k}", runs, failures)
        steps.append(workload.latency_session(state))
        check_session(steps[-1], f"latency session {k}", runs, failures)
    result = warm_service(state["seed"], runs, failures, steps) if ladder else {}
    sessions = [session_summary(step) for step in steps]
    result["latency_sessions"] = [session["latency"] for session in sessions]
    result["saturated"] = saturated
    result["sim_cell_s_per_decision"] = openloop.SIM_GAP_S
    if ladder:
        result["service"].update(
            lateness_p99_ms=statistics.median(s["lateness_tail_ms"] for s in sessions),
            backlog_growth=statistics.median(s["backlog_growth"] for s in sessions),
        )
    return result


def check_session(step, where: str, runs: list, failures: list) -> None:
    """Check one service session and count its requests."""
    from workloads import service_failures

    problems = service_failures(step, where)
    failures.extend(problems)
    runs.append(run_counts(step.sent, problems, step.shed))


def session_summary(step) -> dict:
    return {
        "latency": step.latency,
        "lateness_tail_ms": median_and_tail(step.lateness_ms)["tail"],
        "backlog_growth": step.backlog_growth,
        "tripped": step.tripped,
        "shed": step.shed,
    }


def warm_service(seed, runs, failures, steps) -> dict:
    """Climb the open-loop ladder; its latency-rate sessions join ``steps``."""
    import openloop

    trace = openloop.build_trace(openloop.ladder_trace_size(), seed)
    ladder = openloop.run_ladder(trace)
    rates = []
    for rate, rate_steps in ladder.items():
        for k, step in enumerate(rate_steps):
            check_session(step, f"{rate:g}/s session {k}", runs, failures)
        if rate == openloop.LATENCY_RATE:
            steps.extend(rate_steps)
        rates.append({"rate": rate, "passed": openloop.rate_passes(rate_steps),
                      "sessions": [session_summary(step) for step in rate_steps]})
    reports = [step.report for step in steps]
    batches = sum(r.batch_count for r in reports)
    return {
        "max_rate": openloop.max_rate(ladder),
        "max_rate_dps": openloop.max_throughput(ladder),
        "ladder": rates,
        "service": {
            "batches": batches,
            "mean_batch_size": sum(r.admitted + r.rejected for r in reports) / batches,
            "deadline_flush_ratio": sum(r.deadline_flushes for r in reports) / batches,
            "sheds": sum(r.shed for r in reports),
        },
    }


def uninstall_and_summarize(tracer, undo, traced_from, cold_spans, result, args) -> None:
    import tracing

    wall = time.perf_counter() - traced_from
    tracing.uninstall(undo)
    arrays = tracer.arrays()
    result["layers"] = tracing.layer_metrics(
        tracer, arrays, wall, cold_spans, result.get("service", {})
    )
    result["spans"] = len(arrays["code"])
    if args.spans_out:
        tracing.write_spans(args.spans_out, tracer.labels, arrays)


if __name__ == "__main__":
    output = main()
    print(json.dumps(output))
