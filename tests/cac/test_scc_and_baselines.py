"""Tests of the SCC baseline and the classic non-fuzzy admission controllers."""

from __future__ import annotations

import math

import pytest

from repro.cac.complete_sharing import CompleteSharingController
from repro.cac.guard_channel import GuardChannelConfig, GuardChannelController
from repro.cac.scc.demand import DemandEstimator
from repro.cac.scc.projection import ProjectionConfig, expected_exit_time_s, project_residency
from repro.cac.scc.system import SCCConfig, ShadowClusterController
from repro.cac.threshold_policy import ThresholdPolicyConfig, ThresholdPolicyController
from repro.cellular.calls import Call, CallType
from repro.cellular.mobility import UserState
from repro.cellular.traffic import ServiceClass
from tests.conftest import make_call


class TestProjection:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProjectionConfig(horizon_intervals=0)
        with pytest.raises(ValueError):
            ProjectionConfig(interval_s=0.0)
        with pytest.raises(ValueError):
            ProjectionConfig(residual_probability=1.5)

    def test_interval_times(self):
        config = ProjectionConfig(horizon_intervals=3, interval_s=10.0)
        assert config.interval_times() == [10.0, 20.0, 30.0]
        assert config.horizon_s == 30.0

    def test_stationary_user_never_exits(self):
        config = ProjectionConfig()
        user = UserState(0.5, 0.0, 5.0)
        assert math.isinf(expected_exit_time_s(user, config))

    def test_user_moving_away_exits_sooner_than_user_moving_towards(self):
        config = ProjectionConfig()
        towards = expected_exit_time_s(UserState(60.0, 0.0, 5.0), config)
        away = expected_exit_time_s(UserState(60.0, 180.0, 5.0), config)
        assert away < towards

    def test_faster_user_exits_sooner(self):
        config = ProjectionConfig()
        slow = expected_exit_time_s(UserState(10.0, 180.0, 5.0), config)
        fast = expected_exit_time_s(UserState(100.0, 180.0, 5.0), config)
        assert fast < slow

    def test_projection_probabilities_valid_and_decaying(self):
        config = ProjectionConfig()
        projection = project_residency(UserState(30.0, 45.0, 5.0), config)
        assert len(projection.in_cell_active) == config.horizon_intervals
        for p in projection.in_cell_active + projection.departed_active:
            assert 0.0 <= p <= 1.0
        # Activity decays monotonically over the horizon.
        totals = [
            in_cell + departed
            for in_cell, departed in zip(projection.in_cell_active, projection.departed_active)
        ]
        assert all(a >= b for a, b in zip(totals, totals[1:]))

    def test_projection_for_fixed_terminal(self):
        config = ProjectionConfig()
        projection = project_residency(None, config)
        assert all(p == 0.0 for p in projection.departed_active)
        assert math.isinf(projection.expected_exit_s)


class TestDemandEstimator:
    def test_track_and_untrack(self):
        estimator = DemandEstimator(ProjectionConfig())
        call = make_call(ServiceClass.VIDEO)
        estimator.track(call)
        assert estimator.tracked_calls == 1
        assert estimator.peak_projected_demand() > 0.0
        estimator.untrack(call)
        assert estimator.tracked_calls == 0
        assert estimator.peak_projected_demand() == 0.0

    def test_double_track_rejected(self):
        estimator = DemandEstimator(ProjectionConfig())
        call = make_call(ServiceClass.TEXT)
        estimator.track(call)
        with pytest.raises(ValueError):
            estimator.track(call)

    def test_untrack_unknown_is_noop(self):
        estimator = DemandEstimator(ProjectionConfig())
        estimator.untrack(make_call(ServiceClass.TEXT))

    def test_projected_demand_sums_over_calls(self):
        estimator = DemandEstimator(ProjectionConfig())
        estimator.track(make_call(ServiceClass.VOICE, speed=0.0))
        estimator.track(make_call(ServiceClass.VOICE, speed=0.0))
        demand = estimator.projected_in_cell_demand()
        # Two stationary 5 BU calls: demand starts near 10 BU and decays with activity.
        assert demand[0] == pytest.approx(
            10.0 * math.exp(-10.0 / ProjectionConfig().mean_holding_time_s), rel=1e-6
        )

    def test_reset(self):
        estimator = DemandEstimator(ProjectionConfig())
        estimator.track(make_call(ServiceClass.TEXT))
        estimator.reset()
        assert estimator.tracked_calls == 0


class TestSCCController:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            SCCConfig(handoff_reservation_bu=-1.0)
        with pytest.raises(ValueError):
            SCCConfig(admission_threshold=0.0)
        with pytest.raises(ValueError):
            SCCConfig(reservation_failure_probability=1.0)
        with pytest.raises(ValueError):
            SCCConfig(reservations_per_mobile_user=-1)

    def test_accepts_on_empty_station(self, station):
        scc = ShadowClusterController(SCCConfig(reservation_failure_probability=0.0))
        assert scc.decide(make_call(), station, 0.0).accepted

    def test_rejects_when_bandwidth_unavailable(self, station):
        scc = ShadowClusterController(SCCConfig(reservation_failure_probability=0.0))
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=38))
        decision = scc.decide(make_call(ServiceClass.VOICE), station, 0.0)
        assert not decision.accepted
        assert "insufficient bandwidth" in decision.reason

    def test_rejects_when_projected_envelope_exceeded(self, station):
        scc = ShadowClusterController(
            SCCConfig(handoff_reservation_bu=20.0, reservation_failure_probability=0.0)
        )
        # Track enough stationary calls that projected demand + reservation is high.
        for _ in range(3):
            call = make_call(ServiceClass.VOICE, speed=0.0)
            station.allocate(call)
            scc.on_admitted(call, station, 0.0)
        decision = scc.decide(make_call(ServiceClass.VIDEO, speed=0.0), station, 0.0)
        assert not decision.accepted
        assert "exceeds admission capacity" in decision.reason

    def test_tracking_follows_lifecycle(self, station):
        scc = ShadowClusterController(SCCConfig(reservation_failure_probability=0.0))
        call = make_call(ServiceClass.VOICE)
        station.allocate(call)
        scc.on_admitted(call, station, 0.0)
        assert scc.estimator.tracked_calls == 1
        scc.on_released(call, station, 60.0)
        assert scc.estimator.tracked_calls == 0

    def test_reset(self, station):
        scc = ShadowClusterController(SCCConfig(reservation_failure_probability=0.0))
        call = make_call(ServiceClass.VOICE)
        station.allocate(call)
        scc.on_admitted(call, station, 0.0)
        scc.reset()
        assert scc.estimator.tracked_calls == 0

    def test_required_reservations(self):
        scc = ShadowClusterController()
        mobile = make_call(speed=60.0)
        stationary = make_call(speed=0.2)
        no_gps = Call(service=ServiceClass.TEXT, bandwidth_units=1)
        assert scc.required_reservations(mobile) == 2
        assert scc.required_reservations(stationary) == 0
        assert scc.required_reservations(no_gps) == 0

    def test_reservation_failures_reject_some_mobile_calls(self, station):
        scc = ShadowClusterController(SCCConfig(reservation_failure_probability=0.5))
        decisions = [
            scc.decide(make_call(ServiceClass.TEXT, speed=80.0, angle=float(a)), station, 0.0)
            for a in range(-170, 171, 10)
        ]
        rejected = [d for d in decisions if not d.accepted]
        accepted = [d for d in decisions if d.accepted]
        assert rejected, "with 50% failure probability some reservations must fail"
        assert accepted, "not every call should fail its reservations"
        assert any("shadow cluster" in d.reason for d in rejected)

    def test_reservation_outcome_is_deterministic_per_call(self, station):
        scc_a = ShadowClusterController(SCCConfig(reservation_failure_probability=0.3))
        scc_b = ShadowClusterController(SCCConfig(reservation_failure_probability=0.3))
        call = make_call(ServiceClass.TEXT, speed=80.0, angle=42.0)
        assert (
            scc_a.decide(call, station, 0.0).accepted
            == scc_b.decide(call, station, 0.0).accepted
        )

    def test_stationary_calls_never_fail_reservations(self, station):
        scc = ShadowClusterController(SCCConfig(reservation_failure_probability=0.9))
        decision = scc.decide(make_call(ServiceClass.TEXT, speed=0.0), station, 0.0)
        assert decision.accepted

    def test_name_and_diagnostics(self, station):
        scc = ShadowClusterController()
        assert scc.name == "SCC"
        decision = scc.decide(make_call(), station, 0.0)
        assert "projected_peak_bu" in decision.diagnostics
        assert "required_reservations" in decision.diagnostics


class TestCompleteSharing:
    def test_accepts_anything_that_fits(self, station):
        controller = CompleteSharingController()
        assert controller.decide(make_call(ServiceClass.VIDEO), station, 0.0).accepted

    def test_rejects_when_full(self, station):
        controller = CompleteSharingController()
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=35))
        assert not controller.decide(make_call(ServiceClass.VIDEO), station, 0.0).accepted

    def test_score_reflects_remaining_headroom(self, station):
        controller = CompleteSharingController()
        empty_score = controller.decide(make_call(ServiceClass.TEXT), station, 0.0).score
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=30))
        loaded_score = controller.decide(make_call(ServiceClass.TEXT), station, 0.0).score
        assert empty_score > loaded_score


class TestGuardChannel:
    def test_new_calls_blocked_inside_guard_band(self, station):
        controller = GuardChannelController(GuardChannelConfig(guard_bu=10))
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=28))
        new_call = make_call(ServiceClass.VOICE, call_type=CallType.NEW)
        handoff_call = make_call(ServiceClass.VOICE, call_type=CallType.HANDOFF)
        assert not controller.decide(new_call, station, 0.0).accepted
        assert controller.decide(handoff_call, station, 0.0).accepted

    def test_both_accepted_below_threshold(self, station):
        controller = GuardChannelController(GuardChannelConfig(guard_bu=10))
        assert controller.decide(make_call(ServiceClass.VOICE), station, 0.0).accepted

    def test_handoff_rejected_only_when_no_room(self, station):
        controller = GuardChannelController()
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=38))
        handoff_call = make_call(ServiceClass.VOICE, call_type=CallType.HANDOFF)
        assert not controller.decide(handoff_call, station, 0.0).accepted

    def test_negative_guard_rejected(self):
        with pytest.raises(ValueError):
            GuardChannelConfig(guard_bu=-1)


class TestThresholdPolicy:
    def test_wide_calls_cut_off_before_narrow_ones(self, station):
        controller = ThresholdPolicyController()
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=25))
        video = make_call(ServiceClass.VIDEO)
        text = make_call(ServiceClass.TEXT)
        assert not controller.decide(video, station, 0.0).accepted
        assert controller.decide(text, station, 0.0).accepted

    def test_handoffs_exempt_from_class_thresholds(self, station):
        controller = ThresholdPolicyController()
        station.allocate(make_call(ServiceClass.VIDEO, bandwidth=25))
        handoff_video = make_call(ServiceClass.VIDEO, call_type=CallType.HANDOFF)
        assert controller.decide(handoff_video, station, 0.0).accepted

    def test_custom_thresholds(self, station):
        config = ThresholdPolicyConfig({ServiceClass.TEXT: 2})
        controller = ThresholdPolicyController(config)
        station.allocate(make_call(ServiceClass.VOICE))
        assert not controller.decide(make_call(ServiceClass.TEXT), station, 0.0).accepted

    def test_unknown_class_threshold_raises(self, station):
        controller = ThresholdPolicyController(ThresholdPolicyConfig({ServiceClass.TEXT: 10}))
        with pytest.raises(KeyError):
            controller.decide(make_call(ServiceClass.VOICE), station, 0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ThresholdPolicyConfig({})
        with pytest.raises(ValueError):
            ThresholdPolicyConfig({ServiceClass.TEXT: -5})
