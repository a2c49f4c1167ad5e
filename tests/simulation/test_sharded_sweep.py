"""Scenario decoding around the sharded network-sweep kinds."""

from __future__ import annotations

from repro.api import CoupledShardedNetworkSweepScenario, NetworkSweepScenario, Scenario


class TestShardedScenario:
    def test_parent_kind_still_decodes_to_the_coupled_scenario(self):
        scenario = Scenario.from_dict(
            {"kind": "network-sweep", "controllers": ["CS"], "arrival_rates": [0.03]}
        )
        assert type(scenario) is NetworkSweepScenario
        assert scenario.to_dict()["kind"] == "network-sweep"
        assert not isinstance(scenario, CoupledShardedNetworkSweepScenario)
