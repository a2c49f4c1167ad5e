"""Command-line interface for the reproduction — a thin shell over ``repro.api``.

``python -m repro list`` shows every registered paper artifact
(``--format json`` dumps every registry machine-readably);
``python -m repro run <experiment-id>`` regenerates one of them and prints
the same tables/plots the benchmarks produce.  The figure experiments accept
``--replications`` and ``--requests`` so quick looks and full-fidelity runs
use the same entry point.  ``python -m repro network-sweep`` drives the
multi-cell QoS sweep with full control over load points, topology and the
executor/engine fast paths.  ``python -m repro campaign`` runs a whole
multi-scenario study from one campaign JSON (or a directory of scenario
JSONs) and renders the cross-scenario comparison.

Every command builds a declarative :class:`repro.api.Scenario` (or
:class:`repro.api.Campaign`) and hands it to the facade; ``--config`` runs
straight from JSON, ``--format json`` emits the machine-readable report,
and ``--save`` persists it.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .analysis.io import SCHEMA_VERSION
from .analysis.tables import format_table
from .api import (
    BENCH_ONLY_EXPERIMENTS,
    COMPARISON_METRICS,
    CONTROLLERS,
    DEFAULT_NETWORK_CONTROLLERS,
    DEFAULT_SERVICE_CLASSES,
    ENGINES,
    EXECUTORS,
    SCENARIO_KINDS,
    WORKLOADS,
    Campaign,
    CampaignReport,
    CampaignRunner,
    Runner,
    RunReport,
    Scenario,
    ScenarioError,
    scenario_for,
    scenario_ids,
)
from .api.registry import DEFINITION_CONTROLLER_SUFFIX
from .api.scenario import (
    ArtifactScenario,
    CoupledShardedNetworkSweepScenario,
    FigureSweepScenario,
    NetworkSweepScenario,
    ServiceReplayScenario,
    SurfaceScenario,
    TraceArrivalsScenario,
    TuningScenario,
)
from .tuning import STRATEGIES, TuningError
from .experiments import EXPERIMENTS
from .simulation.sweep import PAPER_NETWORK_ARRIVAL_RATES

__all__ = ["main", "build_parser", "NETWORK_CONTROLLER_CHOICES"]

#: Deprecated alias of :data:`repro.api.DEFAULT_NETWORK_CONTROLLERS`; the
#: full selectable set now lives in the ``repro.api.CONTROLLERS`` registry.
NETWORK_CONTROLLER_CHOICES = DEFAULT_NETWORK_CONTROLLERS

#: Scenario-shaping flags (argparse dest → default) of each command.  The
#: single source for both the argparse defaults and the ``--config``
#: conflict check: ``--config`` *replaces* these flags, so combining it
#: with a non-default value is rejected rather than silently ignored.
_SHARED_SHAPING_DEFAULTS: dict[str, object] = {
    "executor": "serial",
    "workers": None,
    "engine": "compiled",
}
_RUN_SHAPING_DEFAULTS: dict[str, object] = {
    "replications": 5,
    "requests": [10, 30, 50, 70, 100],
    "stream": False,
    **_SHARED_SHAPING_DEFAULTS,
}
_NETWORK_SHAPING_DEFAULTS: dict[str, object] = {
    "rates": list(PAPER_NETWORK_ARRIVAL_RATES),
    "replications": 3,
    "duration": 600.0,
    "rings": 1,
    "controllers": list(DEFAULT_NETWORK_CONTROLLERS),
    "seed": 20070627,
    "mode": "coupled",
    "window": None,
    "workload": None,
    **_SHARED_SHAPING_DEFAULTS,
}
_SERVICE_REPLAY_SHAPING_DEFAULTS: dict[str, object] = {
    "requests": 400,
    "window": 120.0,
    "max_batch": 8,
    "max_wait_ms": 2000.0,
    "queue_capacity": 64,
    "seed": 20070628,
    "engine": "compiled",
}
_TUNE_SHAPING_DEFAULTS: dict[str, object] = {
    "controller": "FLC1",
    "parameter": None,
    "strategy": "grid",
    "objective": "mean_acceptance",
    "direction": "maximize",
    "requests": [10, 30],
    "replications": 2,
    "population": 8,
    "generations": 6,
    "max_trials": None,
    "seed": 20070801,
    **_SHARED_SHAPING_DEFAULTS,
}


def _add_performance_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared --executor/--workers/--engine flag group."""
    parser.add_argument(
        "--executor",
        choices=list(EXECUTORS.names()),
        default=_SHARED_SHAPING_DEFAULTS["executor"],
        help="sweep backend: run replications in-process (serial) or fan them "
        "out over a worker pool (process/thread); results are identical "
        "for every backend and worker count",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=_SHARED_SHAPING_DEFAULTS["workers"],
        help="pool size for --executor process/thread (default: all cores)",
    )
    parser.add_argument(
        "--engine",
        choices=list(ENGINES.names()),
        default=_SHARED_SHAPING_DEFAULTS["engine"],
        help="fuzzy inference engine for the FACS controllers: the vectorized "
        "compiled fast path (default) or the interpreted reference engine",
    )


def _add_report_flags(parser: argparse.ArgumentParser) -> None:
    """Attach the shared --config/--format/--save flag group."""
    parser.add_argument(
        "--config",
        metavar="SCENARIO_JSON",
        default=None,
        help="run a declarative scenario from a JSON file instead of flags "
        "(see repro.api.Scenario)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="print the rendered artifact (text, default) or the full "
        "machine-readable RunReport (json)",
    )
    parser.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="persist the RunReport as <DIR>/<scenario>.json",
    )


def _parse_parameter_spec(text: str) -> dict[str, object]:
    """Parse a ``--parameter`` value into a ParameterSpec payload.

    ``TARGET=LOW:HIGH[:STEPS]`` declares a bounded parameter,
    ``TARGET=V1,V2,...`` a discrete choice list — e.g. ``mf.S.M.1=20:40:5``
    or ``weight.12=0.5,1.0``.
    """
    target, sep, rest = text.partition("=")
    if not sep or not target or not rest:
        raise argparse.ArgumentTypeError(
            f"expected TARGET=LOW:HIGH[:STEPS] or TARGET=V1,V2,..., got {text!r}"
        )
    try:
        if ":" in rest:
            pieces = rest.split(":")
            if len(pieces) not in (2, 3):
                raise ValueError(f"expected LOW:HIGH or LOW:HIGH:STEPS, got {rest!r}")
            spec: dict[str, object] = {
                "target": target,
                "low": float(pieces[0]),
                "high": float(pieces[1]),
            }
            if len(pieces) == 3:
                spec["steps"] = int(pieces[2])
            return spec
        return {"target": target, "choices": [float(v) for v in rest.split(",")]}
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid parameter {text!r}: {exc}")


def _add_service_batching_flags(
    parser: argparse.ArgumentParser, defaults: dict[str, object]
) -> None:
    """Attach the request-count + micro-batching flag group of the service."""
    parser.add_argument(
        "--requests",
        type=int,
        default=defaults["requests"],
        help="number of admission requests to drive through the service",
    )
    parser.add_argument(
        "--max-batch",
        type=int,
        default=defaults["max_batch"],
        help="flush a micro-batch as soon as this many requests are pending",
    )
    parser.add_argument(
        "--max-wait-ms",
        type=float,
        default=defaults["max_wait_ms"],
        help="flush a micro-batch once its oldest request has waited this long",
    )
    parser.add_argument(
        "--queue-capacity",
        type=int,
        default=defaults["queue_capacity"],
        help="bounded-queue backpressure limit: submissions beyond this many "
        "pending requests are shed immediately",
    )


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduce the tables and figures of the FACS paper "
            "(Barolli et al., ICDCSW 2007)."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    lister = subparsers.add_parser(
        "list", help="list every registered paper artifact"
    )
    lister.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="the experiment table (text, default) or every registry — "
        "experiments, scenario kinds, controllers, engines, executors, "
        "comparison metrics — as machine-readable JSON",
    )

    run = subparsers.add_parser("run", help="regenerate one paper artifact")
    run.add_argument(
        "experiment",
        nargs="?",
        choices=list(scenario_ids()),
        help="experiment identifier (omit when using --config)",
    )
    run.add_argument(
        "--replications",
        type=int,
        default=_RUN_SHAPING_DEFAULTS["replications"],
        help="independent replications per sweep point (sweep experiments only)",
    )
    run.add_argument(
        "--requests",
        type=int,
        nargs="+",
        default=list(_RUN_SHAPING_DEFAULTS["requests"]),
        help="numbers of requesting connections to sweep (figure experiments only)",
    )
    run.add_argument(
        "--stream",
        action="store_true",
        help="trace-arrivals only: run the frame-native columnar fast path "
        "(byte-identical results, million-request wall clock)",
    )
    _add_performance_flags(run)
    _add_report_flags(run)

    network = subparsers.add_parser(
        "network-sweep",
        help="run the multi-cell QoS sweep (blocking/dropping/handoff failure "
        "vs offered load)",
    )
    network.add_argument(
        "--rates",
        type=float,
        nargs="+",
        default=list(_NETWORK_SHAPING_DEFAULTS["rates"]),
        help="per-cell arrival rates (calls/s) to sweep",
    )
    network.add_argument(
        "--replications",
        type=int,
        default=_NETWORK_SHAPING_DEFAULTS["replications"],
        help="independent replications per (controller, rate) point",
    )
    network.add_argument(
        "--duration",
        type=float,
        default=_NETWORK_SHAPING_DEFAULTS["duration"],
        help="simulated seconds of Poisson arrivals per replication",
    )
    network.add_argument(
        "--rings",
        type=int,
        default=_NETWORK_SHAPING_DEFAULTS["rings"],
        help="hexagonal rings around the centre cell (1 ring = 7 cells)",
    )
    network.add_argument(
        "--controllers",
        nargs="+",
        choices=list(CONTROLLERS.names()),
        default=list(_NETWORK_SHAPING_DEFAULTS["controllers"]),
        help="admission controllers to compare",
    )
    network.add_argument(
        "--seed",
        type=int,
        default=_NETWORK_SHAPING_DEFAULTS["seed"],
        help="master seed; replications derive independent streams from it",
    )
    network.add_argument(
        "--mode",
        choices=["coupled", "coupled-sharded"],
        default=_NETWORK_SHAPING_DEFAULTS["mode"],
        help="topology execution: one coupled simulation per replication "
        "(default), or per-cell shard workers exchanging handoff messages "
        "(coupled-sharded; --executor/--workers then place the shards)",
    )
    network.add_argument(
        "--window",
        type=float,
        default=_NETWORK_SHAPING_DEFAULTS["window"],
        help="barrier interval in simulated seconds of the coupled-sharded "
        "mode (default: the mobility update interval)",
    )
    network.add_argument(
        "--workload",
        default=_NETWORK_SHAPING_DEFAULTS["workload"],
        metavar="NAME_OR_JSON",
        help="arrival-process workload: a registered name (mmpp, heavy-tail, "
        "diurnal, flash-crowd; see `repro list --format json`) or a "
        "workload-definition JSON path; default: the paper's Poisson "
        "arrivals",
    )
    _add_performance_flags(network)
    _add_report_flags(network)

    service_replay = subparsers.add_parser(
        "service-replay",
        help="replay a seeded arrival trace through the asyncio micro-batching "
        "admission service on a virtual clock (deterministic)",
    )
    _add_service_batching_flags(service_replay, _SERVICE_REPLAY_SHAPING_DEFAULTS)
    service_replay.add_argument(
        "--window",
        type=float,
        default=_SERVICE_REPLAY_SHAPING_DEFAULTS["window"],
        help="arrival window in virtual seconds over which requests arrive",
    )
    service_replay.add_argument(
        "--seed",
        type=int,
        default=_SERVICE_REPLAY_SHAPING_DEFAULTS["seed"],
        help="master seed of the arrival trace",
    )
    service_replay.add_argument(
        "--engine",
        choices=list(ENGINES.names()),
        default=_SERVICE_REPLAY_SHAPING_DEFAULTS["engine"],
        help="fuzzy inference engine for the FACS controller",
    )
    _add_report_flags(service_replay)

    tune = subparsers.add_parser(
        "tune",
        help="search membership break points / rule weights of a controller "
        "definition for the best QoS objective (seeded, deterministic)",
    )
    tune.add_argument(
        "--controller",
        default=_TUNE_SHAPING_DEFAULTS["controller"],
        help="base definition to tune: FLC1, FLC2 or a path to an "
        "FLC-definition JSON file (see examples/controllers/)",
    )
    tune.add_argument(
        "--parameter",
        type=_parse_parameter_spec,
        action="append",
        default=_TUNE_SHAPING_DEFAULTS["parameter"],
        metavar="TARGET=LOW:HIGH[:STEPS]|TARGET=V1,V2,...",
        help="tunable scalar (repeatable): a membership break point "
        "(mf.<variable>.<term>.<index>) or rule weight (weight.<label>) "
        "with bounds or a choice list; default: a tiny 2-point demo space",
    )
    tune.add_argument(
        "--strategy",
        choices=list(STRATEGIES.names()),
        default=_TUNE_SHAPING_DEFAULTS["strategy"],
        help="candidate generator: exhaustive grid or seeded evolutionary",
    )
    tune.add_argument(
        "--objective",
        choices=list(COMPARISON_METRICS.names()),
        default=_TUNE_SHAPING_DEFAULTS["objective"],
        help="registered comparison metric scored per trial",
    )
    tune.add_argument(
        "--direction",
        choices=["maximize", "minimize"],
        default=_TUNE_SHAPING_DEFAULTS["direction"],
        help="whether a better trial has a higher or lower objective",
    )
    tune.add_argument(
        "--requests",
        type=int,
        nargs="+",
        default=list(_TUNE_SHAPING_DEFAULTS["requests"]),
        help="request counts of the per-trial acceptance sweep",
    )
    tune.add_argument(
        "--replications",
        type=int,
        default=_TUNE_SHAPING_DEFAULTS["replications"],
        help="seeded replications per sweep point in every trial",
    )
    tune.add_argument(
        "--population",
        type=int,
        default=_TUNE_SHAPING_DEFAULTS["population"],
        help="candidates per generation (evolutionary strategy)",
    )
    tune.add_argument(
        "--generations",
        type=int,
        default=_TUNE_SHAPING_DEFAULTS["generations"],
        help="generations to run (evolutionary strategy)",
    )
    tune.add_argument(
        "--max-trials",
        type=int,
        default=_TUNE_SHAPING_DEFAULTS["max_trials"],
        help="hard cap on evaluated trials (default: strategy decides)",
    )
    tune.add_argument(
        "--seed",
        type=int,
        default=_TUNE_SHAPING_DEFAULTS["seed"],
        help="master seed of the search and of every trial workload",
    )
    _add_performance_flags(tune)
    _add_report_flags(tune)

    serve = subparsers.add_parser(
        "serve",
        help="run a live (wall-clock) admission-service load session: a "
        "closed-loop client pool drives the micro-batching server and the "
        "latency/throughput report is printed",
    )
    _add_service_batching_flags(
        serve,
        {"requests": 20_000, "max_batch": 64, "max_wait_ms": 5.0, "queue_capacity": 256},
    )
    serve.add_argument(
        "--clients",
        type=int,
        default=64,
        help="concurrent closed-loop clients (each submits back-to-back)",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=20070628,
        help="master seed of the request stream",
    )
    serve.add_argument(
        "--holding-scale",
        type=float,
        default=1e-3,
        help="factor compressing call holding times so departures churn "
        "within a seconds-long session",
    )
    serve.add_argument(
        "--engine",
        choices=list(ENGINES.names()),
        default="compiled",
        help="fuzzy inference engine for the FACS controller",
    )
    serve.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="print the rendered session report (text, default) or the "
        "machine-readable service report (json)",
    )

    campaign = subparsers.add_parser(
        "campaign",
        help="run a multi-scenario campaign and compare results across "
        "scenarios",
    )
    campaign.add_argument(
        "--config",
        metavar="CAMPAIGN_JSON_OR_DIR",
        required=True,
        help="a campaign JSON file (see repro.api.Campaign), or a directory "
        "of scenario JSONs to run as one ad-hoc campaign",
    )
    campaign.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="print every member artifact plus the comparison table (text, "
        "default) or the full machine-readable CampaignReport (json)",
    )
    campaign.add_argument(
        "--save",
        metavar="DIR",
        default=None,
        help="persist the CampaignReport as <DIR>/<campaign name>.json",
    )
    campaign.add_argument(
        "--executor",
        choices=list(EXECUTORS.names()),
        default=None,
        help="override the campaign's scenario fan-out backend",
    )
    campaign.add_argument(
        "--workers",
        type=int,
        default=None,
        help="override the campaign's pool size (requires a pool executor)",
    )
    campaign.add_argument(
        "--reuse-saved",
        metavar="DIR",
        default=None,
        help="skip members whose saved RunReport in DIR already matches the "
        "resolved scenario (reports written by `run --save` or a previous "
        "campaign); only cache misses are re-run",
    )
    return parser


def _scenario_from_run_flags(
    args: argparse.Namespace,
) -> Scenario:
    """Build the scenario for ``run <experiment>`` from the CLI flags.

    Starts from the experiment's registered default scenario and overlays
    the flags each scenario kind understands — artifacts take none, the
    surfaces take the engine, the sweeps take the full performance group.
    """
    if args.experiment in BENCH_ONLY_EXPERIMENTS:
        raise SystemExit(
            f"experiment {args.experiment!r} is benchmark-only; run its bench "
            f"target instead (see `python -m repro list`)"
        )
    scenario = scenario_for(args.experiment)
    if args.stream and not isinstance(scenario, TraceArrivalsScenario):
        raise SystemExit(
            f"--stream applies only to the trace-arrivals experiment; "
            f"experiment {args.experiment!r} has no columnar fast path"
        )
    if isinstance(scenario, FigureSweepScenario):
        return replace(
            scenario,
            request_counts=tuple(args.requests),
            replications=args.replications,
            engine=args.engine,
            executor=args.executor,
            workers=args.workers,
        )
    if isinstance(scenario, NetworkSweepScenario):
        return replace(
            scenario,
            replications=args.replications,
            engine=args.engine,
            executor=args.executor,
            workers=args.workers,
        )
    if isinstance(scenario, SurfaceScenario):
        return replace(scenario, engine=args.engine)
    if isinstance(scenario, (TraceArrivalsScenario, ServiceReplayScenario)):
        # The trace/service kinds have no replication/request-list/executor
        # shape; reject those flags rather than silently running defaults.
        ignored = [
            f"--{name}"
            for name in ("replications", "requests", "executor", "workers")
            if getattr(args, name) != _RUN_SHAPING_DEFAULTS[name]
        ]
        if ignored:
            raise SystemExit(
                f"experiment {args.experiment!r} accepts only --engine of the "
                f"run flags (trace-arrivals also takes --stream); drop "
                f"{', '.join(ignored)} or shape the scenario via --config "
                f"(or its dedicated subcommand)"
            )
        if isinstance(scenario, TraceArrivalsScenario):
            return replace(scenario, engine=args.engine, stream=args.stream)
        return replace(scenario, engine=args.engine)
    if isinstance(scenario, ArtifactScenario):
        return scenario
    raise SystemExit(  # pragma: no cover - requires a foreign scenario kind
        f"experiment {args.experiment!r} maps to scenario kind "
        f"{scenario.kind!r}, which `run` has no flag mapping for; run it "
        f"via --config or repro.api.Runner"
    )


def _scenario_from_network_flags(args: argparse.Namespace) -> NetworkSweepScenario:
    """Build the multi-cell sweep scenario from the ``network-sweep`` flags."""
    shape: dict[str, object] = {
        "controllers": tuple(args.controllers),
        "arrival_rates": tuple(args.rates),
        "replications": args.replications,
        "duration_s": args.duration,
        "rings": args.rings,
        "seed": args.seed,
        "engine": args.engine,
        "executor": args.executor,
        "workers": args.workers,
        "workload": args.workload,
    }
    if args.mode == "coupled-sharded":
        return CoupledShardedNetworkSweepScenario(window_s=args.window, **shape)
    if args.window is not None:
        raise SystemExit("--window only applies to --mode coupled-sharded")
    return NetworkSweepScenario(**shape)


def _reject_shaping_flags_with_config(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    defaults: dict[str, object],
) -> None:
    """Refuse scenario-shaping flags alongside ``--config``.

    The config file fully describes the scenario; silently ignoring flags
    like ``--replications`` next to it would let a user believe they ran
    something they did not.
    """
    overridden = [
        f"--{name.replace('_', '-')}"
        for name, default in defaults.items()
        if getattr(args, name) != default
    ]
    if overridden:
        parser.error(
            f"--config fully describes the scenario; drop "
            f"{', '.join(overridden)} or put those values in the scenario "
            f"JSON instead"
        )


def _emit_report(report: RunReport | CampaignReport, args: argparse.Namespace) -> int:
    """Print the report in the requested format and optionally persist it.

    Returns the process exit code: save refusals (a target file holding a
    different scenario/campaign) surface as a clean error, not a traceback.
    """
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.text)
    if args.save is not None:
        try:
            saved = report.save(args.save)
        except ScenarioError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print(f"saved: {saved}", file=sys.stderr)
    return 0


def _registries_payload() -> dict[str, object]:
    """Machine-readable dump of every registry (``list --format json``)."""
    bench_by_id = {spec.experiment_id: spec for spec in EXPERIMENTS}
    experiments = []
    for experiment_id in scenario_ids():
        spec = bench_by_id.get(experiment_id)
        experiments.append(
            {
                "id": experiment_id,
                "kind": scenario_for(experiment_id).kind,
                "paper_artifact": spec.paper_artifact if spec else None,
                "benchmark": spec.bench_target if spec else None,
                "bench_only": experiment_id in BENCH_ONLY_EXPERIMENTS,
            }
        )
    return {
        "schema_version": SCHEMA_VERSION,
        "experiments": experiments,
        "scenario_kinds": list(SCENARIO_KINDS.names()),
        "controllers": list(CONTROLLERS.names()),
        # Every engine is selectable on the CLI; "cli" keeps the payload shape.
        "engines": [{"name": name, "cli": True} for name in ENGINES.names()],
        "executors": list(EXECUTORS.names()),
        "comparison_metrics": list(COMPARISON_METRICS.names()),
        "tuning_strategies": list(STRATEGIES.names()),
        "workloads": [
            {
                "name": name,
                "arrival": type(WORKLOADS.get(name).arrival).kind,
                "service_classes": list(WORKLOADS.get(name).class_names()) or None,
            }
            for name in WORKLOADS.names()
        ],
        "service_classes": [
            {
                "service": definition.service,
                "bandwidth_units": definition.bandwidth_units,
                "mean_holding_time_s": definition.mean_holding_time_s,
                "share": definition.share,
                "priority_weight": definition.priority_weight,
            }
            for definition in DEFAULT_SERVICE_CLASSES
        ],
        "controller_definitions": {
            "suffix": DEFINITION_CONTROLLER_SUFFIX,
            "builtin_exports": [
                "examples/controllers/flc1.json",
                "examples/controllers/flc2.json",
            ],
        },
    }


def _load_campaign(args: argparse.Namespace) -> Campaign:
    """Build the campaign from ``--config`` (file or directory) + overrides."""
    path = Path(args.config)
    if path.is_dir():
        campaign = Campaign.from_scenario_dir(path)
    else:
        campaign = Campaign.from_file(path)
    overrides: dict[str, object] = {}
    if args.executor is not None:
        overrides["executor"] = args.executor
    if args.workers is not None:
        overrides["workers"] = args.workers
        if args.executor is None and campaign.executor == "serial":
            # A bare --workers means "give me a pool"; threads avoid the
            # process-pool start-up cost for scenario-sized tasks.
            overrides["executor"] = "thread"
    if overrides:
        campaign = replace(campaign, **overrides)
    return campaign


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        if args.format == "json":
            print(json.dumps(_registries_payload(), indent=2))
            return 0
        rows = [
            [spec.experiment_id, spec.paper_artifact, spec.bench_target]
            for spec in EXPERIMENTS
        ]
        print(format_table(["Experiment", "Paper artifact", "Benchmark"], rows))
        return 0

    if args.command == "campaign":
        try:
            campaign = _load_campaign(args)
        except OSError as exc:
            parser.error(f"cannot read campaign config: {exc}")
        except ScenarioError as exc:
            parser.error(str(exc))
        return _emit_report(
            CampaignRunner(reuse_saved=args.reuse_saved).run(campaign), args
        )

    if args.command in ("run", "network-sweep", "tune"):
        if args.workers is not None and args.executor == "serial":
            parser.error("--workers requires --executor process or thread")

    if args.command == "run":
        if args.config is not None and args.experiment is not None:
            parser.error("pass either an experiment id or --config, not both")
        if args.config is None and args.experiment is None:
            parser.error("an experiment id (or --config) is required")
        try:
            if args.config is not None:
                _reject_shaping_flags_with_config(parser, args, _RUN_SHAPING_DEFAULTS)
                scenario = Scenario.from_file(args.config)
            else:
                scenario = _scenario_from_run_flags(args)
        except OSError as exc:
            parser.error(f"cannot read scenario config: {exc}")
        except ScenarioError as exc:
            parser.error(str(exc))
        return _emit_report(Runner().run(scenario), args)

    if args.command == "service-replay":
        try:
            if args.config is not None:
                _reject_shaping_flags_with_config(
                    parser, args, _SERVICE_REPLAY_SHAPING_DEFAULTS
                )
                scenario = Scenario.from_file(args.config)
                if not isinstance(scenario, ServiceReplayScenario):
                    parser.error(
                        f"service-replay --config requires a 'service-replay' "
                        f"scenario, got kind {scenario.kind!r}"
                    )
            else:
                scenario = ServiceReplayScenario(
                    request_count=args.requests,
                    arrival_window_s=args.window,
                    max_batch=args.max_batch,
                    max_wait_ms=args.max_wait_ms,
                    queue_capacity=args.queue_capacity,
                    seed=args.seed,
                    engine=args.engine,
                )
        except OSError as exc:
            parser.error(f"cannot read scenario config: {exc}")
        except ScenarioError as exc:
            parser.error(str(exc))
        return _emit_report(Runner().run(scenario), args)

    if args.command == "tune":
        try:
            if args.config is not None:
                _reject_shaping_flags_with_config(parser, args, _TUNE_SHAPING_DEFAULTS)
                scenario = Scenario.from_file(args.config)
                if not isinstance(scenario, TuningScenario):
                    parser.error(
                        f"tune --config requires a 'tuning' scenario, got "
                        f"kind {scenario.kind!r}"
                    )
            else:
                kwargs: dict[str, object] = {
                    "controller": args.controller,
                    "strategy": args.strategy,
                    "objective": args.objective,
                    "direction": args.direction,
                    "request_counts": tuple(args.requests),
                    "replications": args.replications,
                    "population": args.population,
                    "generations": args.generations,
                    "max_trials": args.max_trials,
                    "seed": args.seed,
                    "engine": args.engine,
                    "executor": args.executor,
                    "workers": args.workers,
                }
                if args.parameter:
                    kwargs["parameters"] = tuple(args.parameter)
                scenario = TuningScenario(**kwargs)
        except OSError as exc:
            parser.error(f"cannot read scenario config: {exc}")
        except ScenarioError as exc:
            parser.error(str(exc))
        try:
            return _emit_report(Runner().run(scenario), args)
        except TuningError as exc:
            parser.error(str(exc))

    if args.command == "serve":
        from .cac.facs.system import FACSConfig
        from .service import ServiceConfig, render_service_report, run_load_session

        try:
            service = ServiceConfig(
                max_batch=args.max_batch,
                max_wait_ms=args.max_wait_ms,
                queue_capacity=args.queue_capacity,
            )
            report = run_load_session(
                request_count=args.requests,
                clients=args.clients,
                service=service,
                facs_config=FACSConfig(engine=args.engine),
                seed=args.seed,
                holding_scale=args.holding_scale,
            )
        except ValueError as exc:
            parser.error(str(exc))
        if args.format == "json":
            print(json.dumps(report.to_dict(), indent=2))
        else:
            print(render_service_report(report))
        return 0

    if args.command == "network-sweep":
        try:
            if args.config is not None:
                _reject_shaping_flags_with_config(
                    parser, args, _NETWORK_SHAPING_DEFAULTS
                )
                scenario = Scenario.from_file(args.config)
                if not isinstance(scenario, NetworkSweepScenario):
                    parser.error(
                        f"network-sweep --config requires a 'network-sweep' "
                        f"scenario, got kind {scenario.kind!r}"
                    )
            else:
                scenario = _scenario_from_network_flags(args)
        except OSError as exc:
            parser.error(f"cannot read scenario config: {exc}")
        except ScenarioError as exc:
            parser.error(str(exc))
        return _emit_report(Runner().run(scenario), args)

    parser.error(f"unknown command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
