"""Wireless cellular network substrate.

Hexagonal cell geometry, base stations with bandwidth-unit ledgers, mobile
terminals and mobility models, the paper's traffic classes, the call
lifecycle and call-level metrics.
"""

from .geometry import (
    HexCoordinate,
    Point,
    Vector,
    heading_between,
    hex_ring,
    hex_spiral,
    normalize_angle,
    relative_angle,
)
from .cell import BandwidthLedger, BaseStation, Cell, InsufficientBandwidthError
from .network import CellularNetwork
from .mobility import (
    ConstantVelocityModel,
    GaussMarkovModel,
    MobileTerminal,
    MobilityModel,
    PAPER_ANGLE_RANGE_DEG,
    PAPER_DISTANCE_RANGE_KM,
    PAPER_SPEED_RANGE_KMH,
    RandomWaypointModel,
    UserPopulation,
    UserProfile,
    UserState,
)
from .traffic import (
    ArrivalProcess,
    HoldingTimeModel,
    PAPER_BANDWIDTH_UNITS,
    PAPER_TRAFFIC_MIX,
    ServiceClass,
    TrafficClassSpec,
    TrafficMix,
)
from .calls import Call, CallEvent, CallState, CallType
from .metrics import CallMetrics, MetricsCollector

__all__ = [
    "Point",
    "Vector",
    "HexCoordinate",
    "hex_ring",
    "hex_spiral",
    "heading_between",
    "normalize_angle",
    "relative_angle",
    "BandwidthLedger",
    "BaseStation",
    "Cell",
    "InsufficientBandwidthError",
    "CellularNetwork",
    "MobileTerminal",
    "MobilityModel",
    "ConstantVelocityModel",
    "RandomWaypointModel",
    "GaussMarkovModel",
    "UserState",
    "UserProfile",
    "UserPopulation",
    "PAPER_SPEED_RANGE_KMH",
    "PAPER_ANGLE_RANGE_DEG",
    "PAPER_DISTANCE_RANGE_KM",
    "ServiceClass",
    "TrafficClassSpec",
    "TrafficMix",
    "PAPER_TRAFFIC_MIX",
    "PAPER_BANDWIDTH_UNITS",
    "ArrivalProcess",
    "HoldingTimeModel",
    "Call",
    "CallEvent",
    "CallState",
    "CallType",
    "CallMetrics",
    "MetricsCollector",
]
