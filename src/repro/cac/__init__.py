"""Call admission control algorithms: FACS, SCC and classic baselines."""

from .base import AdmissionController, AdmissionDecision, DecisionOutcome
from .counters import CounterSnapshot, ServiceCounters
from .complete_sharing import CompleteSharingController
from .guard_channel import GuardChannelConfig, GuardChannelController
from .threshold_policy import ThresholdPolicyConfig, ThresholdPolicyController
from .facs import (
    FACSConfig,
    FLC1,
    FLC2,
    FLC1Config,
    FLC2Config,
    FuzzyAdmissionControlSystem,
)
from .scc import ProjectionConfig, SCCConfig, ShadowClusterController

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "DecisionOutcome",
    "ServiceCounters",
    "CounterSnapshot",
    "CompleteSharingController",
    "GuardChannelController",
    "GuardChannelConfig",
    "ThresholdPolicyController",
    "ThresholdPolicyConfig",
    "FuzzyAdmissionControlSystem",
    "FACSConfig",
    "FLC1",
    "FLC2",
    "FLC1Config",
    "FLC2Config",
    "ShadowClusterController",
    "SCCConfig",
    "ProjectionConfig",
]
