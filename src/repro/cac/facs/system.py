"""FACS — the Fuzzy Admission Control System (the paper's contribution).

The system cascades the two controllers of Fig. 4:

1. **FLC1** turns the GPS observation of the requesting user (speed, angle,
   distance) into a correction value ``Cv``;
2. **FLC2** combines ``Cv`` with the requested bandwidth ``R`` and the
   counter state ``Cs`` (base-station occupancy) into the soft accept/reject
   score ``A/R``;
3. the **Differentiated service** block routes admitted calls into the
   Real-Time / Non-Real-Time counters (RTC / NRTC).

The crisp admission decision accepts a call when the defuzzified A/R score
exceeds ``acceptance_threshold`` *and* the base station physically has the
requested bandwidth available.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from ...cellular.calls import Call
from ...cellular.cell import BaseStation
from ...cellular.mobility import (
    PAPER_DISTANCE_RANGE_KM,
    PAPER_SPEED_RANGE_KMH,
    UserState,
)
from ...fuzzy.controller import ENGINES
from ...fuzzy.defuzzification import DefuzzificationError, Defuzzifier, DEFAULT_DEFUZZIFIER
from ...fuzzy.definition import FLCDefinition
from ..base import AdmissionController, AdmissionDecision
from ..counters import ServiceCounters
from .config import DEFAULT_FLC1_CONFIG, DEFAULT_FLC2_CONFIG, FLC1Config, FLC2Config
from .flc1 import FLC1
from .flc2 import FLC2
from .screen import DecisionScreen

__all__ = ["FACSConfig", "FuzzyAdmissionControlSystem", "BatchAdmissionDecision"]

#: Correction value assumed when a request carries no GPS observation.
_NEUTRAL_CORRECTION = 0.5

#: Sentinel cached when no decision screen can be built for a configuration,
#: so the (failing) build is attempted at most once per controller.
_SCREEN_UNAVAILABLE = object()


@dataclass(frozen=True)
class FACSConfig:
    """Tunable parameters of the FACS controller."""

    flc1: FLC1Config = DEFAULT_FLC1_CONFIG
    flc2: FLC2Config = DEFAULT_FLC2_CONFIG
    #: Minimum defuzzified A/R score for acceptance.  The default 0 accepts
    #: "weak accept" and above, mirroring the paper's soft decision scale.
    acceptance_threshold: float = 0.0
    #: Inference engine for FLC1/FLC2: ``"compiled"`` (vectorized fast path,
    #: the default — bit-identical to the reference) or ``"reference"``
    #: (interpreted per-rule loop).
    engine: str = "compiled"
    #: Declarative overrides for the two pipeline stages.  When set, the
    #: stage is built from the definition (see :mod:`repro.fuzzy.definition`)
    #: instead of the corresponding ``FLC1Config``/``FLC2Config`` builders;
    #: definitions are frozen and hashable, so definition-backed configs
    #: still share memoised controllers and ship to worker processes.
    flc1_definition: FLCDefinition | None = None
    flc2_definition: FLCDefinition | None = None

    def __post_init__(self) -> None:
        if not -1.0 <= self.acceptance_threshold <= 1.0:
            raise ValueError(
                f"acceptance_threshold must lie in [-1, 1], got {self.acceptance_threshold}"
            )
        if self.engine not in ENGINES:
            choices = "', '".join(sorted(ENGINES))
            raise ValueError(f"engine must be '{choices}', got {self.engine!r}")

    @property
    def counter_capacity_bu(self) -> int:
        """Base-station capacity implied by FLC2's counter (``Cs``) universe."""
        if self.flc2_definition is not None:
            return int(self.flc2_definition.variable("Cs").universe[1])
        return int(self.flc2.counter_universe[1])


@lru_cache(maxsize=64)
def _shared_flc1(config: FLC1Config, defuzzifier: Defuzzifier, engine: str) -> FLC1:
    """Build (or reuse) the FLC1 for a configuration.

    Controller construction — rule parsing, membership sampling, rule-base
    compilation — costs a few milliseconds, which dominates short
    replications when every run builds a fresh FACS.  FLC1/FLC2 hold no
    per-call state, so instances are shared across FACS systems with the
    same configuration — including across threads: the compiled engine keeps
    its scratch buffer in thread-local storage, so the thread-pool sweep
    executor can share one memoised controller between workers.
    """
    return FLC1(config, defuzzifier=defuzzifier, engine=engine)


@lru_cache(maxsize=64)
def _shared_flc2(config: FLC2Config, defuzzifier: Defuzzifier, engine: str) -> FLC2:
    """Build (or reuse) the FLC2 for a configuration (see :func:`_shared_flc1`)."""
    return FLC2(config, defuzzifier=defuzzifier, engine=engine)


@lru_cache(maxsize=64)
def _shared_flc1_from_definition(
    definition: FLCDefinition, defuzzifier: Defuzzifier, engine: str
) -> FLC1:
    """Build (or reuse) a definition-backed FLC1 (see :func:`_shared_flc1`)."""
    return FLC1(definition=definition, defuzzifier=defuzzifier, engine=engine)


@lru_cache(maxsize=64)
def _shared_flc2_from_definition(
    definition: FLCDefinition, defuzzifier: Defuzzifier, engine: str
) -> FLC2:
    """Build (or reuse) a definition-backed FLC2 (see :func:`_shared_flc1`)."""
    return FLC2(definition=definition, defuzzifier=defuzzifier, engine=engine)


@lru_cache(maxsize=64)
def _shared_screen(flc1: FLC1, flc2: FLC2, threshold: float) -> DecisionScreen | None:
    """Build (or reuse) the decision screen for a controller pair.

    Screens hold only immutable tables derived from the controller pair and
    the threshold; FLC1/FLC2 instances are themselves memoised, so keying on
    their identity shares one table build across every FACS system — and
    every trace run — with the same configuration.  ``None`` (pair outside
    the certified regime) is cached too, so the failing build runs once.
    """
    return DecisionScreen.build(flc1, flc2, threshold)


@dataclass(frozen=True)
class BatchAdmissionDecision:
    """Vectorized what-if admission outcome for ``N`` candidate requests.

    All candidates are scored against the *same* base-station snapshot —
    nothing is admitted and no state changes — so element ``i`` equals what
    :meth:`FuzzyAdmissionControlSystem.decide` would return for candidate
    ``i`` against that snapshot.
    """

    scores: np.ndarray
    accepted: np.ndarray
    correction_values: np.ndarray
    counter_state_bu: float

    def __len__(self) -> int:
        return int(self.scores.shape[0])


class FuzzyAdmissionControlSystem(AdmissionController):
    """The paper's FACS admission controller."""

    name = "FACS"

    def __init__(
        self,
        config: FACSConfig | None = None,
        defuzzifier: Defuzzifier = DEFAULT_DEFUZZIFIER,
    ):
        self._config = config or FACSConfig()
        cfg = self._config
        try:
            if cfg.flc1_definition is not None:
                self._flc1 = _shared_flc1_from_definition(
                    cfg.flc1_definition, defuzzifier, cfg.engine
                )
            else:
                self._flc1 = _shared_flc1(cfg.flc1, defuzzifier, cfg.engine)
            if cfg.flc2_definition is not None:
                self._flc2 = _shared_flc2_from_definition(
                    cfg.flc2_definition, defuzzifier, cfg.engine
                )
            else:
                self._flc2 = _shared_flc2(cfg.flc2, defuzzifier, cfg.engine)
        except TypeError:
            # Unhashable custom config/defuzzifier: skip the memo and build
            # directly, preserving the pre-memoisation contract.
            self._flc1 = FLC1(
                cfg.flc1,
                defuzzifier=defuzzifier,
                engine=cfg.engine,
                definition=cfg.flc1_definition,
            )
            self._flc2 = FLC2(
                cfg.flc2,
                defuzzifier=defuzzifier,
                engine=cfg.engine,
                definition=cfg.flc2_definition,
            )
        self._counters = ServiceCounters(capacity_bu=cfg.counter_capacity_bu)
        # Built lazily on first decide_columns call (table construction is
        # worth amortising only for column-oriented trace workloads).
        self._screen: DecisionScreen | object | None = None

    # ------------------------------------------------------------------
    @property
    def config(self) -> FACSConfig:
        return self._config

    @property
    def decision_screen(self) -> DecisionScreen | None:
        """The certified screen behind :meth:`decide_columns`, or ``None``.

        Built (or fetched from the shared cache) on first access; ``None``
        when the controller pair falls outside the certified regime.
        """
        screen = self._screen
        if screen is None:
            screen = _shared_screen(
                self._flc1, self._flc2, self._config.acceptance_threshold
            )
            self._screen = screen if screen is not None else _SCREEN_UNAVAILABLE
        return screen if isinstance(screen, DecisionScreen) else None

    @property
    def flc1(self) -> FLC1:
        return self._flc1

    @property
    def flc2(self) -> FLC2:
        return self._flc2

    @property
    def counters(self) -> ServiceCounters:
        """The Ds/RTC/NRTC counters tracking calls admitted by this controller."""
        return self._counters

    # ------------------------------------------------------------------
    def correction_value(self, user: UserState | None) -> float:
        """FLC1 stage: correction value for a user observation.

        Requests with no GPS observation (e.g. fixed terminals) get a neutral
        correction value so FLC2 decides on bandwidth and occupancy alone.
        """
        if user is None:
            return _NEUTRAL_CORRECTION
        return self._flc1.evaluate(user.clamped()).correction_value

    def correction_values(
        self, users: Sequence[UserState | None]
    ) -> np.ndarray:
        """FLC1 stage for a whole vector of observations in one pass.

        Bit-identical to :meth:`correction_value` per element; observations
        of ``None`` get the neutral correction, exactly as in the scalar
        path.
        """
        count = len(users)
        speeds = np.zeros(count)
        angles = np.zeros(count)
        distances = np.zeros(count)
        observed = np.zeros(count, dtype=bool)
        for i, user in enumerate(users):
            if user is None:
                continue
            clamped = user.clamped()
            observed[i] = True
            speeds[i] = clamped.speed_kmh
            angles[i] = clamped.angle_deg
            distances[i] = clamped.distance_km
        values = np.full(count, _NEUTRAL_CORRECTION)
        if observed.all():
            return self._flc1.correction_values(speeds, angles, distances)
        if observed.any():
            values[observed] = self._flc1.correction_values(
                speeds[observed], angles[observed], distances[observed]
            )
        return values

    def score_columns(
        self,
        speeds_kmh: np.ndarray,
        angles_deg: np.ndarray,
        distances_km: np.ndarray,
        request_bus: np.ndarray,
        occupancy_bu: int,
    ) -> np.ndarray:
        """FLC1 → FLC2 scores for pre-drawn observation columns.

        The frame-native twin of :meth:`decide_batch`'s scoring stage:
        candidates arrive as columns (one entry per request, all observed)
        instead of ``Call`` objects, and every candidate sees the same
        ``occupancy_bu`` snapshot.  Speed and distance are clamped into the
        controller universes exactly like :meth:`UserState.clamped`, so the
        scores are bit-identical to :meth:`decide_batch` over the equivalent
        calls.
        """
        speeds = np.clip(speeds_kmh, *PAPER_SPEED_RANGE_KMH)
        distances = np.clip(distances_km, *PAPER_DISTANCE_RANGE_KM)
        corrections = self._flc1.correction_values(speeds, angles_deg, distances)
        return self._flc2.decision_scores(
            corrections,
            request_bus,
            np.full(len(request_bus), float(occupancy_bu)),
        )

    def decide_columns(
        self,
        speeds_kmh: np.ndarray,
        angles_deg: np.ndarray,
        distances_km: np.ndarray,
        request_bus: np.ndarray,
        occupancy_bu: int,
    ) -> np.ndarray:
        """Boolean threshold verdicts for pre-drawn observation columns.

        Byte-identical to ``score_columns(...) > acceptance_threshold``
        element for element, but routed through the certified
        :class:`~repro.cac.facs.screen.DecisionScreen` when the controller
        pair supports it: most rows are decided from interval bounds alone
        and only the undecidable remainder pays for exact dense-grid
        inference.  Configurations outside the certified regime (reference
        engine, non-centroid defuzzifier, rule weights, …) fall back to the
        exact score path wholesale.
        """
        screen = self.decision_screen
        if screen is not None:
            try:
                return screen.decide(
                    np.clip(speeds_kmh, *PAPER_SPEED_RANGE_KMH),
                    angles_deg,
                    np.clip(distances_km, *PAPER_DISTANCE_RANGE_KM),
                    request_bus,
                    float(occupancy_bu),
                )
            except DefuzzificationError:
                # Deferred: re-run exactly so diagnostics (e.g. the
                # no-rule-fired error) carry their canonical batch wording.
                pass
        scores = self.score_columns(
            speeds_kmh, angles_deg, distances_km, request_bus, occupancy_bu
        )
        return scores > self._config.acceptance_threshold

    def decide_batch(
        self, calls: Sequence[Call], station: BaseStation, now: float
    ) -> BatchAdmissionDecision:
        """Score ``N`` candidate requests against one station snapshot.

        The batched admission path: the cascaded FLC1 → FLC2 evaluation runs
        once over the whole candidate vector through the engines'
        tensorized ``infer_batch``.  No candidate is admitted and no counter
        moves, so this answers "which of these would be accepted *right
        now*" — element for element identical to calling :meth:`decide` on
        the unchanged station.
        """
        corrections = self.correction_values([call.user_state for call in calls])
        bandwidths = np.array([float(call.bandwidth_units) for call in calls])
        counter_state = float(station.used_bu)
        scores = self._flc2.decision_scores(
            corrections,
            bandwidths,
            np.full(len(calls), counter_state),
        )
        fits = np.array([station.can_fit(call.bandwidth_units) for call in calls], dtype=bool)
        accepted = (scores > self._config.acceptance_threshold) & fits
        return BatchAdmissionDecision(
            scores=scores,
            accepted=accepted,
            correction_values=corrections,
            counter_state_bu=counter_state,
        )

    def decide(self, call: Call, station: BaseStation, now: float) -> AdmissionDecision:
        """The cascaded FLC1 → FLC2 admission decision."""
        correction = self.correction_value(call.user_state)
        counter_state = float(station.used_bu)
        decision = self._flc2.evaluate(
            correction_value=correction,
            request_bu=float(call.bandwidth_units),
            counter_state_bu=counter_state,
        )
        fits = station.can_fit(call.bandwidth_units)
        accepted = decision.score > self._config.acceptance_threshold and fits
        if not fits:
            reason = (
                f"insufficient bandwidth: need {call.bandwidth_units} BU, "
                f"{station.free_bu} BU free"
            )
        elif accepted:
            reason = (
                f"A/R score {decision.score:+.3f} above threshold "
                f"{self._config.acceptance_threshold:+.3f}"
            )
        else:
            reason = (
                f"A/R score {decision.score:+.3f} at or below threshold "
                f"{self._config.acceptance_threshold:+.3f}"
            )
        return AdmissionDecision(
            accepted=accepted,
            score=decision.score,
            outcome=decision.outcome,
            reason=reason,
            diagnostics={
                "correction_value": correction,
                "counter_state_bu": counter_state,
                "request_bu": float(call.bandwidth_units),
                "free_bu": float(station.free_bu),
            },
        )

    # -- lifecycle -------------------------------------------------------
    def on_admitted(self, call: Call, station: BaseStation, now: float) -> None:
        if not self._counters.is_tracking(call):
            self._counters.admit(call)

    def on_released(self, call: Call, station: BaseStation, now: float) -> None:
        if self._counters.is_tracking(call):
            self._counters.release(call)

    def reset(self) -> None:
        self._counters.reset()
