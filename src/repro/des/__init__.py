"""A from-scratch discrete-event simulation kernel (replacement for SimPy).

Provides an environment with a future-event list, generator-based processes,
timeouts, composite events and reproducible named random streams — the
substrate on which the experiment engine (:mod:`repro.simulation`) runs the
cellular network model (:mod:`repro.cellular`).  That model keeps bandwidth
in per-cell ledgers and statistics in plain counters, so the kernel has no
resource or monitor primitives.
"""

from .environment import Environment, SimulationError
from .events import AllOf, AnyOf, Event, EventState, Interruption, StopProcess, Timeout
from .process import Process
from .queue import EmptyQueueError, EventQueue, Priority, ScheduledItem
from .rng import RandomStream, StreamFactory

__all__ = [
    "Environment",
    "SimulationError",
    "Event",
    "EventState",
    "Timeout",
    "AllOf",
    "AnyOf",
    "Interruption",
    "StopProcess",
    "Process",
    "EventQueue",
    "ScheduledItem",
    "EmptyQueueError",
    "Priority",
    "RandomStream",
    "StreamFactory",
]
