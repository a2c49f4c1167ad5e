"""The benchmark's four workloads: inputs, one run, and correctness checks.

Every workload is a seeded set of inputs handed to the program through its
public API.  ``setup`` decodes the scenario and builds the controllers
(what a user pays before the first admission decision); ``run`` performs
one whole run, report serialisation included, and returns a
:class:`RunOutput` carrying the invariants the output broke, for any seed
(``frame_failures``, ``service_failures``).  The digest of the output's payload is compared with
``reference.json`` when the workload runs at its default seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

#: Figure-sweep scenarios of the paper's own artefact (Figs. 7-10).
PAPER_FIGURES = ("fig7-speed", "fig8-angle", "fig9-distance", "fig10-facs-vs-scc")

#: Controllers of the bursty network workload: FACS and every rival.
NETWORK_CONTROLLERS = ("FACS", "SCC", "AdaptiveThreshold", "MPCLookahead", "CS")

#: Cell capacity of every scenario here (the paper's 40 BU).
CAPACITY_BU = 40

#: Requests of the service workload's cold session (at the latency rate).
SERVICE_COLD_REQUESTS = 2000

#: Requests of the virtual-clock replay whose digest pins the service logic.
SERVICE_REPLAY_REQUESTS = 1000


@dataclass
class RunOutput:
    """What one run produced, reduced to what the benchmark measures."""

    payload: str
    decisions: int
    sim_cell_s: float
    failures: list[str] = field(default_factory=list)
    shed: int = 0

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# Invariants
# ----------------------------------------------------------------------
def frame_failures(frame: dict, where: str) -> list[str]:
    """Counter invariants of a serialised ``MetricsFrame`` payload, per row."""
    failures: list[str] = []
    columns = frame["columns"]
    requested = columns["requested"]
    accepted = columns["accepted"]
    blocked = columns["blocked"]
    capacity = columns.get("param.capacity_bu")
    cells = columns.get("param.cells")
    occupancy = columns.get("time_average_occupancy_bu")
    classes = frame.get("class_names", [])
    for row in range(frame["rows"]):
        tag = f"{where} row {row}"
        if requested[row] != accepted[row] + blocked[row]:
            failures.append(
                f"{tag}: requested {requested[row]} != accepted {accepted[row]}"
                f" + blocked {blocked[row]}"
            )
        if accepted[row] > requested[row]:
            failures.append(f"{tag}: accepted {accepted[row]} > requested {requested[row]}")
        if occupancy is not None and cells is not None:
            if occupancy[row] > cells[row] * CAPACITY_BU:
                failures.append(
                    f"{tag}: mean occupancy {occupancy[row]} BU exceeds "
                    f"{cells[row]:g} cells x {CAPACITY_BU} BU"
                )
        if capacity is not None and capacity[row] != CAPACITY_BU:
            failures.append(f"{tag}: capacity {capacity[row]} != {CAPACITY_BU}")
        for counter in ("requested", "accepted", "blocked"):
            if not classes:
                break
            total = sum(columns[f"class.{name}.{counter}"][row] for name in classes)
            if total != columns[counter][row]:
                failures.append(
                    f"{tag}: per-class {counter} sum {total} != total {columns[counter][row]}"
                )
    return failures


def service_failures(step, where: str) -> list[str]:
    """Invariants of one live service session (an ``openloop.SessionResult``)."""
    report = step.report
    failures: list[str] = []
    if report.submitted != report.admitted + report.rejected + report.shed:
        failures.append(
            f"{where}: submitted {report.submitted} != admitted {report.admitted}"
            f" + rejected {report.rejected} + shed {report.shed}"
        )
    if report.submitted != step.sent or len(step.outcomes) != step.sent:
        failures.append(
            f"{where}: {step.sent} sent, {report.submitted} submitted, "
            f"{len(step.outcomes)} answered (want one decision per request)"
        )
    metrics = report.metrics
    if metrics.requested != metrics.accepted + metrics.blocked:
        failures.append(f"{where}: requested != accepted + blocked")
    if metrics.accepted > metrics.requested:
        failures.append(f"{where}: accepted > requested")
    if report.peak_occupancy_bu > report.capacity_bu:
        failures.append(
            f"{where}: peak occupancy {report.peak_occupancy_bu} > capacity "
            f"{report.capacity_bu}"
        )
    return failures


def digest_failures(name: str, seed: int | None, digest: str, reference: dict) -> list[str] | None:
    """Compare ``digest`` with the reference; ``None`` when there is none for ``seed``."""
    entry = reference[name]
    if entry["seed"] != seed or entry["digest"] is None:
        return None
    if digest != entry["digest"]:
        return [f"payload digest {digest[:16]} != reference {entry['digest'][:16]}"]
    return []


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """Base of the batch workloads: one or more scenarios through ``Runner``."""

    name: str = ""
    default_seed: int | None = None
    #: The ``calib`` kernel whose slowdown is most like this workload's.
    speed_kernel: str = "python"

    def scenario_payloads(self, seed: int | None) -> list[dict]:
        raise NotImplementedError

    def controller_names(self) -> tuple[str, ...]:
        raise NotImplementedError

    def setup(self, seed: int | None) -> dict:
        """Decode the scenarios and build the controllers (timed as set-up).

        ``Runner`` builds its own controllers, as a user's run would; the
        ones built here only put that cost into set-up.
        """
        from repro.api import Runner, Scenario
        from repro.api.registry import controller_factory

        scenarios = [Scenario.from_dict(p) for p in self.scenario_payloads(seed)]
        controllers = [controller_factory(name)() for name in self.controller_names()]
        return {"runner": Runner(), "scenarios": scenarios, "controllers": controllers}

    def run(self, state: dict) -> RunOutput:
        texts, decisions, sim_cell_s, failures = [], 0, 0.0, []
        for scenario in state["scenarios"]:
            report = state["runner"].run(scenario)
            texts.append(report.to_json())
            frame = report.metrics["frame"]
            decisions += sum(frame["columns"]["requested"])
            sim_cell_s += self.sim_cell_s(frame, scenario)
            failures += frame_failures(frame, scenario.slug)
            failures += self.report_failures(report)
        return RunOutput("\n".join(texts), decisions, sim_cell_s, failures)

    def sim_cell_s(self, frame: dict, scenario) -> float:
        """Simulated cell-seconds of one frame: one cell per batch run."""
        return float(sum(frame["columns"]["param.arrival_window_s"]))

    def report_failures(self, report) -> list[str]:
        return []


class PaperFigures(Workload):
    """The four figure sweeps, one replication each, serial and compiled."""

    name = "paper-figures"

    def scenario_payloads(self, seed):
        return [
            {
                "schema_version": 6,
                "kind": "figure-sweep",
                "figure": figure,
                "replications": 1,
                "seed": seed,
                "engine": "compiled",
                "executor": "serial",
            }
            for figure in PAPER_FIGURES
        ]

    def controller_names(self):
        return ("FACS", "SCC")


class NetworkMMPP(Workload):
    """One coupled 19-cell sweep under bursty MMPP arrivals."""

    name = "network-mmpp"
    default_seed = 20070627

    def scenario_payloads(self, seed):
        return [
            {
                "schema_version": 6,
                "kind": "network-sweep",
                "controllers": list(NETWORK_CONTROLLERS),
                "arrival_rates": [0.03, 0.06],
                "replications": 1,
                "duration_s": 600.0,
                "rings": 2,
                "seed": self.default_seed if seed is None else seed,
                "engine": "compiled",
                "executor": "serial",
                "workload": "mmpp",
            }
        ]

    def controller_names(self):
        return NETWORK_CONTROLLERS

    def sim_cell_s(self, frame, scenario):
        columns = frame["columns"]
        return float(
            sum(c * d for c, d in zip(columns["param.cells"], columns["param.duration_s"]))
        )


class TraceSaturated(Workload):
    """The streamed 200k-request trace through the certified screen."""

    name = "trace-saturated"
    default_seed = 20070625
    speed_kernel = "numpy"

    def scenario_payloads(self, seed):
        return [
            {
                "schema_version": 6,
                "kind": "trace-arrivals",
                "request_count": 200_000,
                "batch_size": 1024,
                "arrival_window_s": 2000.0,
                "seed": self.default_seed if seed is None else seed,
                "engine": "compiled",
                "stream": True,
            }
        ]

    def controller_names(self):
        return ("FACS",)

    def sim_cell_s(self, frame, scenario):
        return scenario.arrival_window_s

    def report_failures(self, report):
        peak = report.metrics["peak_occupancy_bu"]
        if peak > CAPACITY_BU:
            return [f"trace: peak occupancy {peak} > capacity {CAPACITY_BU}"]
        return []


class ServiceLive(Workload):
    """Open-loop wall-clock sessions against ``AdmissionServer``.

    The cold run is one fixed session at the latency rate; every process
    then alternates warm sessions at that rate with saturation sessions,
    and one process climbs the rate ladder (see :mod:`openloop`).
    """

    name = "service-live"
    default_seed = 20070628

    def setup(self, seed):
        """Build a server, the set-up cost; every session starts its own."""
        import openloop
        from repro.service.server import AdmissionServer

        server = AdmissionServer(openloop.SERVE_CONFIG, collect_batches=False)
        return {"seed": self.default_seed if seed is None else seed, "server": server}

    def run(self, state):
        import openloop

        trace = openloop.build_trace(SERVICE_COLD_REQUESTS, state["seed"])
        step = openloop.run_session(trace, openloop.LATENCY_RATE, len(trace))
        payload = step.report.to_json()
        return self.session_output(step, payload, "cold session")

    def latency_session(self, state):
        """One warm session at the latency rate, on the trace after the cold one's."""
        import openloop

        count = openloop.session_requests(openloop.LATENCY_RATE)
        trace = openloop.build_trace(SERVICE_COLD_REQUESTS + count, state["seed"])
        return openloop.run_session(
            trace[SERVICE_COLD_REQUESTS:], openloop.LATENCY_RATE, count
        )

    def saturation_session(self, state):
        """One saturation session, on the trace after the cold session's."""
        import openloop

        count = openloop.SATURATION_REQUESTS
        trace = openloop.build_trace(SERVICE_COLD_REQUESTS + count, state["seed"])
        return openloop.run_saturated(trace[SERVICE_COLD_REQUESTS:])

    def session_output(self, step, payload: str, where: str) -> RunOutput:
        import openloop

        failures = service_failures(step, where)
        return RunOutput(
            payload=payload,
            decisions=step.sent,
            sim_cell_s=step.sent * openloop.SIM_GAP_S,
            failures=failures,
            shed=step.shed,
        )

    def replay_digest(self, seed: int) -> str:
        """Digest of a virtual-clock replay: the deterministic service result."""
        import openloop
        from repro.service import run_service_replay
        from repro.simulation.config import BatchExperimentConfig

        config = BatchExperimentConfig(
            request_count=SERVICE_REPLAY_REQUESTS,
            arrival_window_s=SERVICE_REPLAY_REQUESTS * openloop.SIM_GAP_S,
            seed=seed,
        )
        report = run_service_replay(config, openloop.SERVE_CONFIG)
        return hashlib.sha256(report.to_json().encode()).hexdigest()


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (PaperFigures(), NetworkMMPP(), TraceSaturated(), ServiceLive())
}
