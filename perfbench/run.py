"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all

Run from the repository root.  Every measurement is made in fresh child
processes (``child.py``) that import the program from ``src/``; this
process only starts them, one at a time, and summarises.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones from a
separate traced run.  The last line of output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calib import host_speed  # noqa: E402
from stats import count_failures, median_and_tail, ok_ratio  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOAD_NAMES = ("paper-figures", "network-mmpp", "trace-saturated", "service-live")

#: Fresh processes per run: ``setup_s``, ``cold_s`` and ``peak_rss_mb`` are
#: their medians.  On a shared 2-core host identical work ran up to 1.8x
#: slower from one minute to the next, in spells of 10-20 s, so samples are
#: spread over the whole run: every process of paper-figures, network-mmpp
#: and trace-saturated makes its share of the warm runs (at least two), and
#: every process of service-live its share of the live sessions.  The
#: counts keep a run within about 45 s on a slow spell of a shared 2-core
#: host.
PROCESSES = {
    "paper-figures": 3,
    "network-mmpp": 3,
    "trace-saturated": 2,
    "service-live": 3,
}

#: Workloads whose cold run (~12-15 s) is long and depends on the input: it
#: builds one screen cell table per (bandwidth, occupancy) pair the trace
#: visits, 39-57 of them across seeds.  Each of their fresh processes runs
#: the workload at its own seed derived from the run's (:func:`sub_seed`),
#: and ``cold_s`` is the mean over those processes.
LONG_COLD = ("trace-saturated",)

#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150

#: Where spans and full results are written, inside the checkout.
OUTPUT_DIR = os.path.join(ROOT, ".perfbench")

#: Top-level packages whose import time the ``import`` layer reports.
IMPORT_PACKAGES = ("repro", "scipy", "networkx", "numpy")


def declared_metrics(kind: str) -> list[tuple[str, str]]:
    """``(name, unit)`` of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return [(m["name"], m["unit"]) for m in json.load(handle)[kind]]


class ChildFailed(RuntimeError):
    """A child process exited with an error or timed out."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: str, mode: str, seconds: float, trace: int,
          spans_out: str | None = None) -> dict:
    """Run ``child.py`` in a fresh interpreter and return its JSON result."""
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", seed, "--mode", mode,
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    if spans_out:
        command += ["--spans-out", spans_out]
    speed = host_speed(WORKLOADS[workload].speed_kernel)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--spawned", repr(spawned)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{workload} {mode} child timed out after {exc.timeout}s") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-5:]
        raise ChildFailed(f"{workload} {mode} child exited {proc.returncode}: " + " | ".join(tail))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    scale_by_host_speed(result, speed)
    return result


def scale_by_host_speed(result: dict, speed_before: float) -> None:
    """Add the host-scaled forms of the child's timed intervals to ``result``.

    Set-up and cold times are scaled by the mean host speed before the
    spawn and right after the cold run; warm runs and saturation sessions
    by the speed the child measured around each (see ``calib.py``).  The
    wall times stay in ``result`` as they were.
    """
    result["speed"] = (speed_before + result["speed_after"]) / 2
    result["setup_scaled_s"] = result["setup_s"] * result["speed"]
    result["cold_scaled_s"] = result["cold_s"] * result["speed"]
    result["warm_scaled_s"] = [
        wall * speed
        for wall, speed in zip(result.get("warm_wall_s", []), result.get("warm_speed", []))
    ]
    result["saturated_dps"] = [
        decisions / (wall * speed) for wall, decisions, speed in result.get("saturated", [])
    ]


def import_times() -> dict[str, float]:
    """Self import seconds per top-level package, from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
        cwd=ROOT, env=dict(child_env(), PYTHONPATH=os.path.join(ROOT, "src")),
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise ChildFailed("import repro.cli failed: " + proc.stderr.strip()[-300:])
    return parse_import_times(proc.stderr)


def parse_import_times(text: str) -> dict[str, float]:
    totals = dict.fromkeys(IMPORT_PACKAGES, 0.0)
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        package = name.strip().split(".")[0]
        if package in totals and own.strip().isdigit():
            totals[package] += int(own) / 1e6
    return totals


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def envelope(workload: str, seed: str, numpy_version: str) -> dict:
    return {
        "git_sha": git_sha(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workload": workload,
        "seed": seed,
    }


def sub_seed(workload: str, seed: str, k: int) -> str:
    """Seed of a run's ``k``-th fresh process on a ``LONG_COLD`` workload.

    The first process keeps the run's seed (so the default seed's digest is
    still checked); the others get ``10 * seed + k``.
    """
    if k == 0:
        return seed
    base = WORKLOADS[workload].default_seed if seed == "default" else int(seed)
    return str(10 * base + k)


def end_to_end(workload: str, seed: str, seconds: float) -> tuple[dict, dict]:
    count = PROCESSES[workload]
    if workload == "service-live":
        modes, warm_seconds = ["full"] + ["cold"] * (count - 1), seconds
    else:
        modes, warm_seconds = ["full"] * count, seconds / count
    if workload in LONG_COLD:
        seeds = [sub_seed(workload, seed, k) for k in range(count)]
    else:
        seeds = [seed] * count
    children = [
        spawn(workload, child_seed, mode, warm_seconds, 0)
        for child_seed, mode in zip(seeds, modes)
    ]
    full = children[0]
    if workload == "service-live":
        # The cold session is paced by the wall clock at the latency rate:
        # only the set-up before it is host-scaled.
        colds = [c["setup_scaled_s"] + c["cold_s"] - c["setup_s"] for c in children]
    else:
        colds = [child["cold_scaled_s"] for child in children]
    cold_s = statistics.fmean(colds) if workload in LONG_COLD else statistics.median(colds)
    attempted, failed = count_failures(
        [run for child in children for run in child.get("runs", [])]
    )
    if workload == "service-live":
        decisions_per_s = statistics.median(
            dps for child in children for dps in child["saturated_dps"]
        )
        sim_cell_s_per_s = decisions_per_s * full["sim_cell_s_per_decision"]
        sessions = [s for child in children for s in child["latency_sessions"]]
        p50 = statistics.median(s["p50"] for s in sessions)
        tail = statistics.median(s["tail"] for s in sessions)
        tail_q = min(s["tail_q"] for s in sessions)
        samples = sum(s["count"] for s in sessions)
    else:
        warm = [t for child in children for t in child.get("warm_scaled_s", [])]
        latency = median_and_tail([1000.0 * t for t in warm])
        p50, tail, tail_q, samples = (
            latency["p50"], latency["tail"], latency["tail_q"], latency["count"]
        )
        decisions_per_s = 1000.0 * full["decisions"] / p50
        sim_cell_s_per_s = 1000.0 * full["sim_cell_s"] / p50
    failures = [f for child in children for f in child.get("failures", [])]
    for child_seed in set(seeds):
        digests = {c["digest"] for c, s in zip(children, seeds) if s == child_seed} - {None}
        if len(digests) > 1:
            failures.append(
                f"seed {child_seed}: payload digests differ across fresh processes: "
                f"{sorted(digests)}"
            )
    values = {
        "setup_s": statistics.median(child["setup_scaled_s"] for child in children),
        "cold_s": cold_s,
        "peak_rss_mb": statistics.median(
            child["peak_rss_mb"] for child in children if "peak_rss_mb" in child
        ),
        "ok_ratio": ok_ratio(attempted, failed),
        "decisions_per_s": decisions_per_s,
        "sim_cell_s_per_s": sim_cell_s_per_s,
        "latency_p50_ms": p50,
        "latency_tail_ms": tail,
    }
    detail = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "digest": full["digest"],
        "digest_checked": full["digest_checked"],
        "setup_wall_s": [child["setup_s"] for child in children],
        "cold_wall_s": [child["cold_s"] for child in children if "cold_s" in child],
        "host_speed": [child["speed"] for child in children],
        "latency_tail_q": tail_q,
        "latency_samples": samples,
        "numpy": full["numpy"],
        "process_seeds": seeds,
        "saturated_dps": [d for child in children for d in child.get("saturated_dps", [])],
        "warm_wall_s": [t for child in children for t in child.get("warm_wall_s", [])],
    }
    metrics = {name: (values[name], unit) for name, unit in declared_metrics("end_to_end")}
    return metrics, detail


def per_layer(workload: str, seed: str, seconds: float) -> tuple[dict, dict]:
    plain = spawn(workload, seed, "cold", seconds, 0)
    spans_out = os.path.join(OUTPUT_DIR, "spans", f"{workload}-seed{seed}.npz")
    traced = spawn(workload, seed, "full", seconds, 1, spans_out)
    values = dict(traced["layers"])
    for package, spent in import_times().items():
        values[f"import.{package}_s"] = spent
    values["trace.overhead"] = traced["cold_scaled_s"] / plain["cold_scaled_s"]
    attempted, failed = count_failures(plain["runs"] + traced["runs"])
    metrics = {name: (values[name], unit) for name, unit in declared_metrics("per_layer")}
    detail = {
        "attempted": attempted,
        "failed": failed,
        "failures": plain["failures"] + traced["failures"],
        "digest": traced["digest"],
        "digest_checked": traced["digest_checked"],
        "numpy": traced["numpy"],
        "spans": traced["spans"],
        "spans_file": os.path.relpath(spans_out, ROOT),
        "cold_s": plain["cold_s"],
        "traced_cold_s": traced["cold_s"],
        "max_rate": traced.get("max_rate"),
        "max_rate_dps": traced.get("max_rate_dps"),
        "ladder": traced.get("ladder"),
    }
    return metrics, detail


def compile_sources() -> None:
    """Byte-compile ``src`` once, so no measured run pays for compilation."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", os.path.join(ROOT, "src"), HERE],
        cwd=ROOT, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S,
        check=True,
    )


def run_one(workload: str, seed: str, seconds: float, trace: int) -> dict:
    measure = per_layer if trace else end_to_end
    metrics, detail = measure(workload, seed, seconds)
    correct = detail["failed"] == 0 and not detail["failures"]
    result = {
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    info = envelope(workload, seed, detail["numpy"])
    if "process_seeds" in detail:
        info["process_seeds"] = detail["process_seeds"]
    print(f"== {workload} (seed {seed}, trace {trace})")
    print("envelope: " + json.dumps(info))
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")
    if detail.get("max_rate") is not None:
        print(f"  service_max_dps: highest passing ladder rate {detail['max_rate']:g}/s, "
              f"{detail['max_rate_dps']:.6g} decisions/s achieved there")
    print(f"  failed_ratio {detail['failed'] / detail['attempted']:.6g} "
          f"({detail['failed']} of {detail['attempted']} operations)")
    if not detail["digest_checked"]:
        status = "no reference for this seed"
    elif any("payload digest" in failure for failure in detail["failures"]):
        status = "MISMATCH"
    else:
        status = "matches reference.json"
    print(f"  digest {detail['digest'][:16]} ({status})")
    for failure in detail["failures"]:
        print(f"  FAILED CHECK: {failure}")
    os.makedirs(os.path.join(OUTPUT_DIR, "results"), exist_ok=True)
    path = os.path.join(OUTPUT_DIR, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, "w") as out:
        json.dump({"envelope": info, "result": result, "detail": detail}, out, indent=1)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", default="default",
                        help="workload seed (default: the shipped scenario seeds)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed != "default":
        args.seed = str(int(args.seed))
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2

    try:
        compile_sources()
        names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
        results = [run_one(name, args.seed, args.seconds, args.trace) for name in names]
    except (ChildFailed, subprocess.CalledProcessError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({name: r for name, r in zip(names, results)}))
    else:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
