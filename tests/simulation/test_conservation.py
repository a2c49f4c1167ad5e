"""Call and handoff conservation over both network engines.

Both engines run the same per-cell kernel; these invariants guard it on
the coupled engine and on the message-passing shard coordinator alike.
"""

from __future__ import annotations

import pytest

from repro.cac.complete_sharing import CompleteSharingController
from repro.simulation import (
    CoupledShardedNetworkSimulation,
    NetworkExperimentConfig,
    NetworkSimulation,
)
from repro.simulation.scenario import facs_factory

ENGINES = {
    "coupled": NetworkSimulation,
    "coupled-sharded": CoupledShardedNetworkSimulation,
}
CONTROLLERS = {"CS": CompleteSharingController, "FACS": facs_factory()}


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("controller", sorted(CONTROLLERS))
@pytest.mark.parametrize("rings", [0, 1])
def test_requests_calls_and_handoffs_are_conserved(engine, controller, rings):
    # Small cells and a short horizon: at rings=1 handoffs, denied
    # handoffs, out-of-coverage drops and calls still in service at the
    # end all occur (for CS on the shard engine, one call is in transit
    # between shards when the run ends).
    config = NetworkExperimentConfig(
        rings=rings,
        cell_radius_km=1.0,
        arrival_rate_per_cell_per_s=0.3,
        duration_s=60.0,
        mean_speed_kmh=40.0,
        seed=31337,
    )
    simulation = ENGINES[engine](config, CONTROLLERS[controller])
    output = simulation.run()
    metrics = output.result.metrics

    assert metrics.requested == metrics.accepted + metrics.blocked
    assert output.handoff_attempts == metrics.handoff_requests
    assert output.handoff_failures <= output.handoff_attempts
    admitted_new = metrics.accepted - metrics.handoff_accepted
    assert admitted_new > 0
    assert (
        output.completed_calls + output.dropped_calls + simulation.calls_in_service
        == admitted_new
    )
    if rings:
        assert output.handoff_attempts > 0
        assert simulation.calls_in_service > 0
