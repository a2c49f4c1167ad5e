"""Tests for defuzzification strategies and the Mamdani engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fuzzy.controller import FuzzyController
from repro.fuzzy.defuzzification import (
    Bisector,
    Centroid,
    DefuzzificationError,
    MeanOfMaximum,
    defuzzifier_by_name,
)
from repro.fuzzy.inference import MamdaniEngine
from repro.fuzzy.membership import Triangular
from repro.fuzzy.parser import parse_rules
from repro.fuzzy.rules import RuleBase
from repro.fuzzy.variables import LinguisticVariable, Term


def tip_controller() -> FuzzyController:
    """The classic tipping controller used as an end-to-end fixture."""
    service = LinguisticVariable(
        "service",
        (0.0, 10.0),
        [
            Term("poor", Triangular(0.0, 0.0, 5.0)),
            Term("good", Triangular(0.0, 5.0, 10.0)),
            Term("excellent", Triangular(5.0, 10.0, 10.0)),
        ],
    )
    food = LinguisticVariable(
        "food",
        (0.0, 10.0),
        [
            Term("bad", Triangular(0.0, 0.0, 10.0)),
            Term("tasty", Triangular(0.0, 10.0, 10.0)),
        ],
    )
    tip = LinguisticVariable(
        "tip",
        (0.0, 30.0),
        [
            Term("low", Triangular(0.0, 5.0, 10.0)),
            Term("medium", Triangular(10.0, 15.0, 20.0)),
            Term("high", Triangular(20.0, 25.0, 30.0)),
        ],
    )
    # "poor service OR bad food" as two rules: under max aggregation that
    # is exactly the disjunction.
    rules = [
        "IF service is poor THEN tip is low",
        "IF food is bad THEN tip is low",
        "IF service is good THEN tip is medium",
        "IF service is excellent AND food is tasty THEN tip is high",
    ]
    return FuzzyController("tipping", [service, food], [tip], rules)


GRID = np.linspace(0.0, 10.0, 101)


class TestDefuzzifiers:
    def test_centroid_of_symmetric_triangle(self):
        surface = Triangular(2.0, 5.0, 8.0).sample(GRID)
        assert Centroid()(GRID, surface) == pytest.approx(5.0, abs=0.01)

    def test_bisector_of_symmetric_triangle(self):
        surface = Triangular(2.0, 5.0, 8.0).sample(GRID)
        assert Bisector()(GRID, surface) == pytest.approx(5.0, abs=0.05)

    def test_mom_of_plateau(self):
        surface = np.zeros_like(GRID)
        surface[(GRID >= 4.0) & (GRID <= 6.0)] = 1.0
        assert MeanOfMaximum()(GRID, surface) == pytest.approx(5.0, abs=0.01)

    def test_asymmetric_shape_centroid_skews_towards_mass(self):
        surface = Triangular(0.0, 1.0, 10.0).sample(GRID)
        assert Centroid()(GRID, surface) > 1.0

    def test_zero_surface_raises(self):
        with pytest.raises(DefuzzificationError):
            Centroid()(GRID, np.zeros_like(GRID))

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Centroid()(GRID, np.zeros(7))

    def test_invalid_membership_values_raise(self):
        bad = np.zeros_like(GRID)
        bad[0] = 1.5
        with pytest.raises(ValueError):
            Centroid()(GRID, bad)

    def test_registry(self):
        assert isinstance(defuzzifier_by_name("centroid"), Centroid)
        assert isinstance(defuzzifier_by_name("MOM"), MeanOfMaximum)
        with pytest.raises(KeyError):
            defuzzifier_by_name("nonsense")

    @given(peak=st.floats(1.0, 9.0))
    @settings(max_examples=50)
    def test_centroid_within_support(self, peak):
        surface = Triangular(0.0, peak, 10.0).sample(GRID)
        value = Centroid()(GRID, surface)
        assert 0.0 <= value <= 10.0

    @given(peak=st.floats(1.0, 9.0), clip=st.floats(0.1, 1.0))
    @settings(max_examples=50)
    def test_all_defuzzifiers_within_support_for_clipped_surface(self, peak, clip):
        surface = np.minimum(Triangular(0.0, peak, 10.0).sample(GRID), clip)
        for defuzz in (Centroid(), Bisector(), MeanOfMaximum()):
            value = defuzz(GRID, surface)
            assert 0.0 <= value <= 10.0


class TestMamdaniEngine:
    def test_excellent_service_gives_high_tip(self):
        controller = tip_controller()
        assert controller.compute(service=9.5, food=9.0) > 20.0

    def test_poor_service_gives_low_tip(self):
        controller = tip_controller()
        assert controller.compute(service=0.5, food=2.0) < 10.0

    def test_middle_service_gives_medium_tip(self):
        controller = tip_controller()
        assert 10.0 < controller.compute(service=5.0, food=5.0) < 20.0

    def test_output_monotone_in_service_quality(self):
        controller = tip_controller()
        tips = [controller.compute(service=s, food=5.0) for s in (1.0, 3.0, 5.0, 7.0, 9.0)]
        assert tips == sorted(tips)

    def test_missing_input_raises(self):
        controller = tip_controller()
        with pytest.raises(ValueError, match="missing crisp inputs"):
            controller.engine.infer({"service": 5.0})

    def test_inference_result_diagnostics(self):
        controller = tip_controller()
        result = controller.evaluate(service=9.0, food=9.0)
        assert result.dominant_rule().firing_strength > 0.0
        assert len(result.activations) == 4
        assert result.fired_rules()
        assert set(result.fuzzified_inputs) == {"service", "food"}

    def test_no_rule_coverage_raises(self):
        x = LinguisticVariable("x", (0.0, 10.0), [Term("low", Triangular(0.0, 0.0, 2.0))])
        y = LinguisticVariable("y", (0.0, 10.0), [Term("out", Triangular(0.0, 5.0, 10.0))])
        base = RuleBase(parse_rules(["IF x is low THEN y is out"]), [x], [y])
        engine = MamdaniEngine(base)
        with pytest.raises(DefuzzificationError):
            engine.infer({"x": 9.0})

    def test_control_surface_shape_and_bounds(self):
        controller = tip_controller()
        xs, ys, surface = controller.engine.control_surface(
            "service", "food", "tip", resolution=7
        )
        assert surface.shape == (7, 7)
        assert np.all(surface >= 0.0) and np.all(surface <= 30.0)

    def test_control_surface_missing_fixed_input_raises(self):
        controller = tip_controller()
        x = LinguisticVariable("extra", (0, 1), [Term("t", Triangular(0, 0.5, 1))])
        with pytest.raises(KeyError):
            controller.engine.control_surface("nope", "food", "tip")

    def test_output_surface_is_returned(self):
        controller = tip_controller()
        surface = controller.engine.output_surface("tip", {"service": 8.0, "food": 8.0})
        assert surface.max() > 0.0


class TestFuzzyControllerFacade:
    def test_compute_rejects_multi_output(self):
        service = LinguisticVariable(
            "s", (0, 1), [Term("a", Triangular(0, 0, 1)), Term("b", Triangular(0, 1, 1))]
        )
        out1 = LinguisticVariable("o1", (0, 1), [Term("x", Triangular(0, 0.5, 1))])
        out2 = LinguisticVariable("o2", (0, 1), [Term("y", Triangular(0, 0.5, 1))])
        controller = FuzzyController(
            "multi",
            [service],
            [out1, out2],
            ["IF s is a THEN o1 is x AND o2 is y", "IF s is b THEN o1 is x AND o2 is y"],
        )
        with pytest.raises(ValueError):
            controller.compute(s=0.5)
        result = controller.evaluate(s=0.5)
        assert set(result.outputs) == {"o1", "o2"}

    def test_compute_many(self):
        controller = tip_controller()
        values = controller.compute_many(
            [{"service": 1.0, "food": 1.0}, {"service": 9.0, "food": 9.0}]
        )
        assert len(values) == 2 and values[0] < values[1]

    def test_rule_table_rendering(self):
        controller = tip_controller()
        table = controller.rule_table()
        assert len(table) == 4
        assert table[2]["tip"] == "medium"

    def test_membership_table(self):
        controller = tip_controller()
        table = controller.membership_table("tip", points=5)
        assert set(table) == {"low", "medium", "high"}
        assert len(table["low"]) == 5
        with pytest.raises(KeyError):
            controller.membership_table("unknown-variable")

    def test_mixed_rule_types_rejected(self):
        service = LinguisticVariable(
            "s", (0, 1), [Term("a", Triangular(0, 0, 1)), Term("b", Triangular(0, 1, 1))]
        )
        out = LinguisticVariable("o", (0, 1), [Term("x", Triangular(0, 0.5, 1))])
        rules = parse_rules(["IF s is a THEN o is x"])
        with pytest.raises(TypeError):
            FuzzyController("bad", [service], [out], [rules[0], "IF s is b THEN o is x"])
