"""Multi-cell network simulation with mobility and handoffs.

This is the integration experiment supporting the paper's QoS claim: calls
arrive per cell as Poisson processes, mobile terminals move with a
Gauss–Markov model, and active calls hand off between cells.  Each cell runs
its own instance of the configured admission controller (as a real deployment
would), and the run reports blocking, dropping and handoff statistics per
controller.

The per-cell body — arrivals, admission, the mobility lifecycle of an
admitted call and handoff admission at a target cell — lives in one class,
:class:`CellKernel`.  Both network engines drive it: the coupled
:class:`NetworkSimulation` runs one kernel over every cell of the topology
in a single event loop, and each :class:`~repro.simulation.shard.CellShard`
runs one kernel over its own cell.  They differ only in what happens when a
call crosses a cell boundary (see ``depart``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence

from ..analysis.frame import FrameRow, network_output_row
from ..cac.base import AdmissionController
from ..cellular.calls import Call, CallType
from ..cellular.cell import Cell
from ..cellular.geometry import Point
from ..cellular.metrics import CallMetrics, MetricsCollector
from ..cellular.mobility import GaussMarkovModel, MobileTerminal, UserState
from ..cellular.network import CellularNetwork
from ..des.environment import Environment
from ..des.rng import RandomStream, StreamFactory
from .config import NetworkExperimentConfig
from .results import RunResult

__all__ = [
    "CellKernel",
    "KernelOutcome",
    "NetworkRunOutput",
    "NetworkSimulation",
    "fresh_controller",
    "merge_outcomes",
    "network_for",
    "run_network_experiment",
    "run_network_experiment_row",
]

ControllerFactory = Callable[[], AdmissionController]

#: ``depart(call, terminal, source, target, elapsed_s)``: hands a call that
#: crossed from ``source`` into ``target`` to another kernel; the crossing
#: call's lifecycle ends in this kernel.
DepartHook = Callable[[Call, MobileTerminal, Cell, Cell, float], None]


@dataclass(frozen=True)
class NetworkRunOutput:
    """Outcome of one multi-cell run."""

    result: RunResult
    handoff_attempts: int
    handoff_failures: int
    completed_calls: int
    dropped_calls: int
    time_average_occupancy_bu: float
    #: Per-service-class admission counters, attached only by workload
    #: runs: the class names and the values flattened class-major over
    #: :data:`repro.analysis.frame.CLASS_COUNTER_FIELDS`.
    class_names: tuple[str, ...] = ()
    class_values: tuple[float, ...] = ()

    @property
    def handoff_failure_ratio(self) -> float:
        if self.handoff_attempts == 0:
            return 0.0
        return self.handoff_failures / self.handoff_attempts


@dataclass(frozen=True)
class KernelOutcome:
    """Final statistics of one :class:`CellKernel`, summed by :func:`merge_outcomes`."""

    controller: str
    counters: tuple[int, ...]
    handoff_attempts: int
    handoff_failures: int
    completed_calls: int
    dropped_calls: int
    occupancy_time_integral: float
    last_occupancy_sample: float
    #: Admitted calls still holding bandwidth in the kernel's cells.
    calls_in_service: int = 0
    #: Per-service-class counters (workload runs only), flattened
    #: class-major over :data:`repro.analysis.frame.CLASS_COUNTER_FIELDS`.
    class_values: tuple[float, ...] = ()


def network_for(config: NetworkExperimentConfig) -> CellularNetwork:
    """The hexagonal topology a network config describes."""
    return CellularNetwork(
        rings=config.rings,
        cell_radius_km=config.cell_radius_km,
        capacity_bu=config.capacity_bu,
        cell_capacities=config.cell_capacities,
    )


def fresh_controller(controller_factory: ControllerFactory) -> AdmissionController:
    """A new, reset controller instance for one cell."""
    controller = controller_factory()
    controller.reset()
    return controller


class CellKernel:
    """The call lifecycle of a set of cells sharing one event loop.

    Owns the new-call arrival process of each started cell, admission of
    new calls, the per-step mobility of every admitted call (completion and
    the out-of-coverage drop included) and handoff admission at a target
    cell.  The environment, the named random streams, the metrics
    collector, the call-id source and the per-cell controllers are
    injected, so the same kernel serves a whole topology or one shard.

    ``depart`` decides what a boundary crossing means.  Without it the
    target cell is in this kernel: the handoff is admitted synchronously
    and the call's lifecycle continues in the same process.  With it the
    call is handed to ``depart`` and its lifecycle ends here.
    """

    def __init__(
        self,
        config: NetworkExperimentConfig,
        env: Environment,
        streams: StreamFactory,
        metrics: MetricsCollector,
        call_ids: Iterator[int],
        controllers: Mapping[int, AdmissionController],
        network: CellularNetwork,
        depart: DepartHook | None = None,
    ):
        self._config = config
        self._env = env
        self._streams = streams
        self._metrics = metrics
        self._call_ids = call_ids
        self._controllers = controllers
        self._network = network
        self._depart = depart
        self._cells: Sequence[Cell] = ()
        self._mobility = GaussMarkovModel(
            mean_speed_kmh=config.mean_speed_kmh,
            update_interval_s=config.mobility_update_s,
        )
        self._handoff_attempts = 0
        self._handoff_failures = 0
        self._completed = 0
        self._dropped = 0
        self._occupancy_time_integral = 0.0
        self._last_occupancy_sample = 0.0

    def start(self, cells: Sequence[Cell]) -> None:
        """Start the arrival process of each cell, then the occupancy sampler."""
        self._cells = cells
        for cell in cells:
            self._env.process(self._arrivals(cell), name=f"arrivals-{cell.cell_id}")
        self._env.process(self._occupancy_sampler(cells), name="occupancy-sampler")

    def follow(
        self, call: Call, terminal: MobileTerminal, cell: Cell, elapsed: float = 0.0
    ) -> None:
        """Start the lifecycle of a call admitted in ``cell``."""
        self._env.process(
            self._lifecycle(call, terminal, cell, elapsed), name=f"call-{call.call_id}"
        )

    def release(self, call: Call, cell: Cell) -> None:
        """Free the call's bandwidth in ``cell`` and tell its controller."""
        cell.base_station.release(call)
        self._controllers[cell.cell_id].on_released(call, cell.base_station, self._env.now)

    def admit_handoff(
        self,
        call: Call,
        terminal: MobileTerminal,
        target: Cell,
        source: Cell | None = None,
    ) -> bool:
        """Ask ``target``'s controller to take over an active call.

        ``source`` is the cell still holding the call, released once the
        decision is made; a call already released by its source passes
        ``None``.  A denied call is dropped and counted as finished.
        """
        now = self._env.now
        self._handoff_attempts += 1
        controller = self._controllers[target.cell_id]
        station = target.base_station
        request = Call(
            service=call.service,
            bandwidth_units=call.bandwidth_units,
            call_type=CallType.HANDOFF,
            user_state=self._observe(terminal, target),
            requested_at=now,
            holding_time_s=call.holding_time_s,
            call_id=next(self._call_ids),
        )
        self._metrics.record_request(request)
        decision = controller.decide(request, station, now)
        accepted = decision.accepted and station.can_fit(call.bandwidth_units)
        self._metrics.record_decision(request, accepted)
        if source is not None:
            self.release(call, source)
        if accepted:
            station.allocate(call)
            call.handoff(now, target.cell_id)
            controller.on_admitted(call, station, now)
            return True
        call.drop(now, reason=f"handoff to cell {target.cell_id} denied")
        self._handoff_failures += 1
        self._dropped += 1
        self._metrics.record_completion(call)
        return False

    def outcome(self) -> KernelOutcome:
        """The kernel's statistics so far."""
        workload = self._config.workload
        class_names = () if workload is None else workload.class_names()
        return KernelOutcome(
            controller=next(iter(self._controllers.values())).name,
            counters=self._metrics.snapshot().as_counters(),
            handoff_attempts=self._handoff_attempts,
            handoff_failures=self._handoff_failures,
            completed_calls=self._completed,
            dropped_calls=self._dropped,
            occupancy_time_integral=self._occupancy_time_integral,
            last_occupancy_sample=self._last_occupancy_sample,
            calls_in_service=sum(cell.base_station.ledger.active_calls for cell in self._cells),
            class_values=self._metrics.class_counter_values(class_names),
        )

    # ------------------------------------------------------------------
    def _observe(self, terminal: MobileTerminal, cell: Cell) -> UserState:
        state = terminal.observe(cell.base_station.position)
        # Clamp the distance into the controllers' 0-10 km universe.
        return state.clamped()

    def _spawn_terminal(self, cell: Cell, rng: RandomStream) -> MobileTerminal:
        """Place a new mobile terminal uniformly within a cell."""
        radius = self._config.cell_radius_km * math.sqrt(rng.uniform(0.0, 1.0))
        angle = rng.uniform(-180.0, 180.0)
        offset_x = radius * math.cos(math.radians(angle))
        offset_y = radius * math.sin(math.radians(angle))
        position = Point(cell.center.x + offset_x, cell.center.y + offset_y)
        speed = max(rng.normal(self._config.mean_speed_kmh, self._config.mean_speed_kmh / 3.0), 0.0)
        heading = rng.angle_degrees()
        return MobileTerminal(position=position, speed_kmh=speed, heading_deg=heading)

    # -- processes -------------------------------------------------------
    def _arrivals(self, cell: Cell):
        """New-call arrivals at one cell (Poisson, or the workload's model)."""
        arrival_rng = self._streams.stream(f"arrivals-{cell.cell_id}")
        class_rng = self._streams.stream(f"class-{cell.cell_id}")
        terminal_rng = self._streams.stream(f"terminal-{cell.cell_id}")
        holding_rng = self._streams.stream(f"holding-{cell.cell_id}")
        mix = self._config.effective_traffic_mix()
        workload = self._config.workload
        # workload=None keeps the exact legacy draw sequence; a workload
        # swaps in its interarrival sampler on the same per-cell stream.
        sampler = (
            None
            if workload is None
            else workload.arrival.sampler(
                arrival_rng, self._config.arrival_rate_per_cell_per_s
            )
        )
        controller = self._controllers[cell.cell_id]
        station = cell.base_station
        while True:
            if sampler is None:
                yield self._env.timeout(
                    arrival_rng.exponential(1.0 / self._config.arrival_rate_per_cell_per_s)
                )
            else:
                yield self._env.timeout(sampler.next_interarrival(self._env.now))
            if self._env.now >= self._config.duration_s:
                return
            service = mix.sample_class(class_rng)
            spec = mix.spec(service)
            terminal = self._spawn_terminal(cell, terminal_rng)
            call = Call(
                service=service,
                bandwidth_units=spec.bandwidth_units,
                call_type=CallType.NEW,
                user_state=self._observe(terminal, cell),
                requested_at=self._env.now,
                holding_time_s=holding_rng.exponential(spec.mean_holding_time_s),
                call_id=next(self._call_ids),
            )
            self._metrics.record_request(call)
            decision = controller.decide(call, station, self._env.now)
            accepted = decision.accepted and station.can_fit(call.bandwidth_units)
            self._metrics.record_decision(call, accepted)
            if accepted:
                station.allocate(call)
                call.admit(self._env.now, cell.cell_id)
                controller.on_admitted(call, station, self._env.now)
                self.follow(call, terminal, cell)
            else:
                call.block(self._env.now, cell.cell_id)

    def _lifecycle(self, call: Call, terminal: MobileTerminal, cell: Cell, elapsed: float):
        """One admitted call: mobility, handoffs, completion."""
        mobility_rng = self._streams.stream("mobility")
        while elapsed < call.holding_time_s:
            step = min(self._config.mobility_update_s, call.holding_time_s - elapsed)
            yield self._env.timeout(step)
            elapsed += step
            self._mobility.update(terminal, step, mobility_rng)
            target = self._network.serving_cell(terminal.position)
            if target is cell:
                continue
            if target is None:
                # Out of coverage: treat as a dropped call.
                self.release(call, cell)
                call.drop(self._env.now, reason="left network coverage")
                self._dropped += 1
                self._metrics.record_completion(call)
                return
            if self._depart is not None:
                self._depart(call, terminal, cell, target, elapsed)
                return
            if not self.admit_handoff(call, terminal, target, source=cell):
                return
            cell = target
        # Holding time elapsed: normal completion.
        self.release(call, cell)
        call.complete(self._env.now)
        self._completed += 1
        self._metrics.record_completion(call)

    def _occupancy_sampler(self, cells: Sequence[Cell]):
        """Sample the cells' total occupancy every mobility interval."""
        while self._env.now < self._config.duration_s:
            yield self._env.timeout(self._config.mobility_update_s)
            used = sum(cell.base_station.used_bu for cell in cells)
            self._occupancy_time_integral += used * self._config.mobility_update_s
            self._last_occupancy_sample = self._env.now


def merge_outcomes(
    config: NetworkExperimentConfig, outcomes: Sequence[KernelOutcome], cells: int
) -> NetworkRunOutput:
    """Sum kernel outcomes (in cell order) into one run's output."""
    counters = tuple(
        sum(outcome.counters[index] for outcome in outcomes)
        for index in range(len(CallMetrics.COUNTER_FIELDS))
    )
    last_sample = max(outcome.last_occupancy_sample for outcome in outcomes)
    elapsed = max(last_sample, config.mobility_update_s)
    integral = sum(outcome.occupancy_time_integral for outcome in outcomes)
    result = RunResult(
        controller=outcomes[0].controller,
        metrics=CallMetrics.from_counters(counters),
        parameters={
            "rings": float(config.rings),
            "cells": float(cells),
            "arrival_rate_per_cell_per_s": config.arrival_rate_per_cell_per_s,
            "duration_s": config.duration_s,
        },
        seed=config.seed,
    )
    workload = config.workload
    class_names = () if workload is None else workload.class_names()
    class_values = tuple(
        sum(outcome.class_values[index] for outcome in outcomes)
        for index in range(len(outcomes[0].class_values))
    )
    return NetworkRunOutput(
        result=result,
        handoff_attempts=sum(o.handoff_attempts for o in outcomes),
        handoff_failures=sum(o.handoff_failures for o in outcomes),
        completed_calls=sum(o.completed_calls for o in outcomes),
        dropped_calls=sum(o.dropped_calls for o in outcomes),
        time_average_occupancy_bu=integral / elapsed,
        class_names=class_names,
        class_values=class_values,
    )


class NetworkSimulation:
    """Drives one multi-cell simulation run: one kernel over every cell."""

    def __init__(self, config: NetworkExperimentConfig, controller_factory: ControllerFactory):
        self._config = config
        self._env = Environment()
        self._network = network_for(config)
        self._controllers = {
            cell.cell_id: fresh_controller(controller_factory) for cell in self._network
        }
        self._kernel = CellKernel(
            config,
            self._env,
            StreamFactory(master_seed=config.stream_master_seed),
            MetricsCollector(),
            # Per-run sequential ids (not the process-global counter), so
            # run outputs are a pure function of the config in any process,
            # thread or execution order.
            itertools.count(1),
            self._controllers,
            self._network,
        )
        #: Admitted calls still in service when :meth:`run` returned.
        self.calls_in_service = 0

    @property
    def network(self) -> CellularNetwork:
        return self._network

    @property
    def environment(self) -> Environment:
        return self._env

    def controller_for(self, cell: Cell) -> AdmissionController:
        return self._controllers[cell.cell_id]

    def run(self) -> NetworkRunOutput:
        """Execute the simulation and return aggregated results."""
        self._kernel.start(self._network.cells)
        # Run well past the arrival horizon so in-flight calls finish.
        self._env.run(until=self._config.duration_s * 3.0)
        outcome = self._kernel.outcome()
        self.calls_in_service = outcome.calls_in_service
        return merge_outcomes(self._config, [outcome], self._network.cell_count)


def run_network_experiment(
    config: NetworkExperimentConfig,
    controller_factory: ControllerFactory,
) -> NetworkRunOutput:
    """Convenience wrapper: build and run a :class:`NetworkSimulation`."""
    return NetworkSimulation(config, controller_factory).run()


def run_network_experiment_row(
    config: NetworkExperimentConfig,
    controller_factory: ControllerFactory,
    label: str | None = None,
) -> FrameRow:
    """Run one network experiment and emit its compact counter row.

    The sweep workers' return value: the flat counter/parameter tuple the
    columnar :class:`~repro.analysis.frame.MetricsFrame` is built from,
    replacing the pickled :class:`NetworkRunOutput` trees that used to
    travel from process-pool workers back to the parent.
    """
    output = NetworkSimulation(config, controller_factory).run()
    return network_output_row(output, label=label, replication=config.replication)
