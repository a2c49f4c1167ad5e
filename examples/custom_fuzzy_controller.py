#!/usr/bin/env python3
"""Build a custom fuzzy controller and plug it into the scenario API.

Part 1 uses the `repro.fuzzy` toolkit — the same one the paper's FLCs are
built from — to define a small handoff-decision controller (signal strength
+ cell load -> handoff urgency) from scratch.  The toolkit offers exactly
what FLC1 and FLC2 use: triangular and trapezoidal terms, AND-only rules
written in the text DSL (no OR, NOT or hedges), Mamdani inference with
min conjunction, clip implication and max aggregation, and a centroid
defuzzifier.

Part 2 wraps it as an admission policy, registers it in the
``repro.api.CONTROLLERS`` registry, and runs a multi-cell sweep scenario
that references it *by name from plain JSON* — the extension point the
unified Scenario/Runner API exists for.

Run with:  python examples/custom_fuzzy_controller.py
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import format_curve_table
from repro.api import Runner, Scenario, register_controller
from repro.cac import AdmissionController, AdmissionDecision
from repro.cellular import Call
from repro.fuzzy import FuzzyController, LinguisticVariable, Term, Trapezoidal, Triangular

RULES = """
# Strong signal: stay unless the cell is overloaded.
IF signal is strong AND load is light THEN urgency is none
IF signal is strong AND load is moderate THEN urgency is low
IF signal is strong AND load is heavy THEN urgency is medium
# Fading signal: prepare to hand off.
IF signal is fading AND load is light THEN urgency is low
IF signal is fading AND load is moderate THEN urgency is medium
IF signal is fading AND load is heavy THEN urgency is high
# Weak signal: hand off almost regardless of load.
IF signal is weak AND load is light THEN urgency is high
IF signal is weak AND load is moderate THEN urgency is high
IF signal is weak AND load is heavy THEN urgency is critical
"""


def build_controller() -> FuzzyController:
    signal = LinguisticVariable(
        "signal",
        (-110.0, -50.0),  # dBm
        [
            Term("weak", Trapezoidal(-110.0, -110.0, -100.0, -85.0)),
            Term("fading", Triangular(-100.0, -85.0, -70.0)),
            Term("strong", Trapezoidal(-85.0, -70.0, -50.0, -50.0)),
        ],
    )
    load = LinguisticVariable(
        "load",
        (0.0, 1.0),
        [
            Term("light", Triangular(0.0, 0.0, 0.5)),
            Term("moderate", Triangular(0.0, 0.5, 1.0)),
            Term("heavy", Triangular(0.5, 1.0, 1.0)),
        ],
    )
    urgency = LinguisticVariable(
        "urgency",
        (0.0, 1.0),
        [
            Term("none", Triangular(0.0, 0.0, 0.25)),
            Term("low", Triangular(0.0, 0.25, 0.5)),
            Term("medium", Triangular(0.25, 0.5, 0.75)),
            Term("high", Triangular(0.5, 0.75, 1.0)),
            Term("critical", Triangular(0.75, 1.0, 1.0)),
        ],
    )
    return FuzzyController("handoff-urgency", [signal, load], [urgency], RULES)


class UrgencyAdmissionController(AdmissionController):
    """Toy admission policy built on the custom fuzzy controller.

    Approximates the requesting user's signal from their distance to the BS
    (path loss), reads the cell load off the counter state, and rejects new
    calls whose predicted handoff urgency is already high — a crude cousin
    of what FLC1+FLC2 do with trajectory information.
    """

    name = "Urgency"

    def __init__(self, threshold: float = 0.45):
        self._fuzzy = build_controller()
        self._threshold = threshold

    def decide(self, call: Call, station, now: float) -> AdmissionDecision:
        # Toy urban path loss: ~30 dB/km, so users near the cell edge look
        # weak and get held back before they turn into dropped handoffs.
        distance_km = call.user_state.distance_km if call.user_state else 1.0
        signal_dbm = max(-110.0, -50.0 - 30.0 * distance_km)
        urgency = self._fuzzy.compute(signal=signal_dbm, load=station.occupancy)
        fits = station.can_fit(call.bandwidth_units)
        accepted = fits and urgency <= self._threshold
        return AdmissionDecision(
            accepted=accepted,
            score=self._threshold - urgency,
            reason=f"predicted handoff urgency {urgency:.2f}",
            diagnostics={"urgency": urgency, "signal_dbm": signal_dbm},
        )


# A module-level dataclass factory keeps sweep tasks picklable, so the
# custom controller also works on the process-pool executor.
@dataclass(frozen=True)
class UrgencyControllerFactory:
    threshold: float = 0.45

    def __call__(self) -> AdmissionController:
        return UrgencyAdmissionController(self.threshold)


@register_controller("Urgency")
def _urgency_controller(engine: str = "compiled") -> UrgencyControllerFactory:
    return UrgencyControllerFactory()


def main() -> None:
    controller = build_controller()
    print(controller)
    print(
        f"Rule base: {len(controller.rule_base)} rules, "
        f"complete={controller.rule_base.is_complete()}\n"
    )

    signal_levels = [-105.0, -95.0, -85.0, -75.0, -60.0]
    series = {}
    for load in (0.2, 0.5, 0.9):
        series[f"load={load:.1f}"] = [
            controller.compute(signal=signal, load=load) for signal in signal_levels
        ]
    print(
        format_curve_table(
            "Signal (dBm)",
            signal_levels,
            series,
            title="Handoff urgency (0 = stay, 1 = hand off now)",
        )
    )

    result = controller.evaluate(signal=-92.0, load=0.85)
    dominant = result.dominant_rule()
    print(
        f"\nAt -92 dBm and 85% load the urgency is {result['urgency']:.2f}; "
        f"the dominant rule is: {dominant.rule}"
    )

    # Part 2: the registered name is now addressable from scenario JSON —
    # this dict could equally live in a file passed to
    # `python -m repro network-sweep --config <file>`.
    print("\nRunning a small multi-cell sweep with the custom controller...\n")
    scenario = Scenario.from_dict(
        {
            "kind": "network-sweep",
            "controllers": ["CS", "Urgency"],
            "arrival_rates": [0.05],
            "replications": 1,
            "duration_s": 200.0,
            "seed": 20070615,
        }
    )
    report = Runner().run(scenario)
    print(report.text)


if __name__ == "__main__":
    main()
