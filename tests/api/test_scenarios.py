"""Scenario serialization: lossless JSON round-trips and strict validation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    AblationScenario,
    ArtifactScenario,
    FigureSweepScenario,
    NetworkIntegrationScenario,
    NetworkSweepScenario,
    Scenario,
    ScenarioError,
    SurfaceScenario,
    scenario_for,
    scenario_ids,
)

CONTROLLER_NAMES = ("FACS", "SCC", "CS", "GuardChannel", "Threshold")

finite_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
positive_floats = st.floats(allow_nan=False, allow_infinity=False, min_value=0.001, max_value=1e4)
seeds = st.one_of(st.none(), st.integers(min_value=0, max_value=2**31))
request_count_tuples = st.lists(
    st.integers(min_value=1, max_value=200), min_size=1, max_size=6
).map(tuple)
controller_subsets = st.lists(
    st.sampled_from(CONTROLLER_NAMES), min_size=1, max_size=5, unique=True
).map(tuple)
engines = st.sampled_from(["compiled", "reference"])


@st.composite
def executor_and_workers(draw):
    executor = draw(st.sampled_from(["serial", "process", "thread"]))
    if executor == "serial":
        return executor, None
    return executor, draw(st.one_of(st.none(), st.integers(1, 8)))


@st.composite
def figure_sweep_scenarios(draw) -> FigureSweepScenario:
    figure = draw(
        st.sampled_from(["fig7-speed", "fig8-angle", "fig9-distance", "fig10-facs-vs-scc"])
    )
    curve_values = None
    if figure != "fig10-facs-vs-scc" and draw(st.booleans()):
        curve_values = tuple(draw(st.lists(positive_floats, min_size=1, max_size=4)))
    executor, workers = draw(executor_and_workers())
    return FigureSweepScenario(
        figure=figure,
        request_counts=draw(request_count_tuples),
        replications=draw(st.integers(1, 20)),
        seed=draw(seeds),
        curve_values=curve_values,
        engine=draw(engines),
        executor=executor,
        workers=workers,
    )


@st.composite
def network_sweep_scenarios(draw) -> NetworkSweepScenario:
    executor, workers = draw(executor_and_workers())
    return NetworkSweepScenario(
        controllers=draw(controller_subsets),
        arrival_rates=tuple(draw(st.lists(positive_floats, min_size=1, max_size=4))),
        replications=draw(st.integers(1, 10)),
        duration_s=draw(positive_floats),
        rings=draw(st.integers(0, 3)),
        cell_radius_km=draw(positive_floats),
        mean_speed_kmh=draw(st.floats(min_value=0, max_value=200)),
        seed=draw(st.integers(0, 2**31)),
        engine=draw(engines),
        executor=executor,
        workers=workers,
    )


@st.composite
def surface_scenarios(draw) -> SurfaceScenario:
    return SurfaceScenario(
        surface=draw(st.sampled_from(["flc1", "flc2"])),
        resolution=draw(st.integers(2, 101)),
        fixed_value=draw(st.one_of(st.none(), finite_floats)),
        engine=draw(engines),
    )


@st.composite
def ablation_scenarios(draw) -> AblationScenario:
    return AblationScenario(
        ablation=draw(st.sampled_from(["defuzz", "threshold", "baselines"])),
        request_counts=draw(st.one_of(st.none(), request_count_tuples)),
        replications=draw(st.integers(1, 10)),
        seed=draw(seeds),
    )


@st.composite
def network_integration_scenarios(draw) -> NetworkIntegrationScenario:
    return NetworkIntegrationScenario(
        controllers=draw(controller_subsets),
        arrival_rate_per_cell_per_s=draw(positive_floats),
        duration_s=draw(positive_floats),
        rings=draw(st.integers(0, 3)),
        cell_radius_km=draw(positive_floats),
        mean_speed_kmh=draw(st.floats(min_value=0, max_value=200)),
        seed=draw(st.integers(0, 2**31)),
        engine=draw(engines),
    )


artifact_scenarios = st.sampled_from(
    ["table1-frb1", "table2-frb2", "fig5-flc1-mf", "fig6-flc2-mf"]
).map(lambda artifact: ArtifactScenario(artifact=artifact))

any_scenario = st.one_of(
    artifact_scenarios,
    surface_scenarios(),
    figure_sweep_scenarios(),
    network_sweep_scenarios(),
    ablation_scenarios(),
    network_integration_scenarios(),
)


def roundtrip(scenario: Scenario) -> Scenario:
    """dict -> JSON text -> dict -> Scenario, as a config file would."""
    return Scenario.from_dict(json.loads(json.dumps(scenario.to_dict())))


class TestRoundTrip:
    @settings(max_examples=200)
    @given(any_scenario)
    def test_json_round_trip_is_lossless(self, scenario: Scenario):
        restored = roundtrip(scenario)
        assert restored == scenario
        assert type(restored) is type(scenario)
        assert restored.to_dict() == scenario.to_dict()

    @settings(max_examples=50)
    @given(any_scenario)
    def test_to_json_from_json_round_trip(self, scenario: Scenario):
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_every_registered_default_scenario_round_trips(self):
        for experiment_id in scenario_ids():
            scenario = scenario_for(experiment_id)
            assert roundtrip(scenario) == scenario, experiment_id

    def test_kind_is_serialized(self):
        payload = scenario_for("net-sweep").to_dict()
        assert payload["kind"] == "network-sweep"
        assert isinstance(payload["controllers"], list)

    def test_from_file(self, tmp_path):
        scenario = scenario_for("surface-flc2")
        path = tmp_path / "scenario.json"
        path.write_text(scenario.to_json())
        assert Scenario.from_file(path) == scenario


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario kind 'warp'"):
            Scenario.from_dict({"kind": "warp"})

    def test_missing_kind_rejected(self):
        with pytest.raises(ScenarioError, match="needs a 'kind'"):
            Scenario.from_dict({"figure": "fig7-speed"})

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(ScenarioError, match="must be a mapping"):
            Scenario.from_dict(["kind", "artifact"])  # type: ignore[arg-type]

    def test_unknown_fields_rejected_with_names(self):
        with pytest.raises(ScenarioError, match=r"unknown field\(s\).*typo_field"):
            Scenario.from_dict(
                {"kind": "figure-sweep", "figure": "fig7-speed", "typo_field": 1}
            )

    def test_invalid_json_rejected(self):
        with pytest.raises(ScenarioError, match="does not parse"):
            Scenario.from_json("{not json")

    def test_unknown_artifact_rejected(self):
        with pytest.raises(ScenarioError, match="unknown artifact"):
            ArtifactScenario(artifact="table9")

    def test_unknown_figure_rejected(self):
        with pytest.raises(ScenarioError, match="unknown figure"):
            FigureSweepScenario(figure="fig99")

    def test_fig10_rejects_curve_values(self):
        with pytest.raises(ScenarioError, match="fixed curve set"):
            FigureSweepScenario(figure="fig10-facs-vs-scc", curve_values=(1.0,))

    def test_bad_engine_rejected(self):
        with pytest.raises(ScenarioError, match="unknown engine"):
            FigureSweepScenario(figure="fig7-speed", engine="warp")

    def test_retired_auto_engine_rejected(self):
        payload = {"kind": "figure-sweep", "figure": "fig7-speed", "engine": "auto"}
        with pytest.raises(
            ScenarioError, match=r"unknown engine 'auto'; available: \['compiled', 'reference'\]"
        ):
            Scenario.from_dict(payload)

    def test_bad_executor_rejected(self):
        with pytest.raises(ScenarioError, match="unknown executor"):
            FigureSweepScenario(figure="fig7-speed", executor="gpu")

    def test_workers_require_pool_executor(self):
        with pytest.raises(ScenarioError, match="pool executor"):
            FigureSweepScenario(figure="fig7-speed", workers=4)

    def test_duplicate_controllers_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate controllers: FACS"):
            NetworkSweepScenario(controllers=("FACS", "CS", "FACS"))

    def test_unknown_controller_rejected(self):
        with pytest.raises(ScenarioError, match="unknown controller 'Oracle'"):
            NetworkSweepScenario(controllers=("Oracle",))

    def test_non_positive_rates_rejected(self):
        with pytest.raises(ScenarioError, match="must be positive"):
            NetworkSweepScenario(arrival_rates=(0.02, -0.01))

    def test_non_finite_rates_rejected(self):
        with pytest.raises(ScenarioError, match="finite"):
            NetworkSweepScenario(arrival_rates=(float("inf"),))

    def test_zero_replications_rejected(self):
        with pytest.raises(ScenarioError, match="replications"):
            NetworkSweepScenario(replications=0)

    def test_tiny_resolution_rejected(self):
        with pytest.raises(ScenarioError, match="resolution"):
            SurfaceScenario(surface="flc1", resolution=1)

    def test_unknown_ablation_rejected(self):
        with pytest.raises(ScenarioError, match="unknown ablation"):
            AblationScenario(ablation="quantum")

    def test_wrong_typed_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed must be an integer"):
            Scenario.from_dict({"kind": "network-sweep", "seed": "abc"})
        with pytest.raises(ScenarioError, match="seed must be an integer"):
            FigureSweepScenario(figure="fig7-speed", seed="abc")  # type: ignore[arg-type]

    def test_wrong_typed_replications_rejected(self):
        with pytest.raises(ScenarioError, match="replications must be an integer"):
            FigureSweepScenario(figure="fig7-speed", replications=2.5)  # type: ignore[arg-type]
        with pytest.raises(ScenarioError, match="replications must be an integer"):
            Scenario.from_dict({"kind": "ablation", "ablation": "defuzz", "replications": "3"})

    def test_wrong_typed_workers_rejected(self):
        with pytest.raises(ScenarioError, match="workers must be an integer"):
            FigureSweepScenario(
                figure="fig7-speed", executor="process", workers="4"  # type: ignore[arg-type]
            )

    def test_from_dict_wraps_validation_errors(self):
        with pytest.raises(ScenarioError, match="invalid 'network-sweep' scenario"):
            Scenario.from_dict({"kind": "network-sweep", "replications": 0})

    def test_lists_are_normalized_to_tuples(self):
        scenario = Scenario.from_dict(
            {
                "kind": "network-sweep",
                "controllers": ["FACS", "CS"],
                "arrival_rates": [0.02, 0.04],
            }
        )
        assert scenario.controllers == ("FACS", "CS")
        assert scenario.arrival_rates == (0.02, 0.04)
