"""Equivalence regression tests: CompiledMamdaniEngine vs MamdaniEngine.

The compiled engine is the default fast path for FLC1/FLC2, so these tests
lock down the guarantee it is built on: with the fixed min/max/clip
operators it reproduces the reference engine bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cac.facs.config import DEFAULT_FLC1_CONFIG, DEFAULT_FLC2_CONFIG
from repro.cac.facs.frb1 import frb1_rules
from repro.cac.facs.frb2 import frb2_rules
from repro.cac.facs.system import FACSConfig, FuzzyAdmissionControlSystem
from repro.fuzzy.compiled import CompiledMamdaniEngine, CrispInference
from repro.fuzzy.controller import FuzzyController
from repro.fuzzy.defuzzification import (
    Bisector,
    DefuzzificationError,
    MeanOfMaximum,
)
from repro.fuzzy.inference import MamdaniEngine
from repro.fuzzy.membership import Triangular
from repro.fuzzy.parser import RuleSyntaxError
from repro.fuzzy.rules import RuleBase
from repro.fuzzy.variables import LinguisticVariable, Term

# Paper operating points (the curve parameters of Figs. 7-9).
PAPER_SPEEDS = (4.0, 10.0, 30.0, 60.0)
PAPER_ANGLES = (0.0, 30.0, 50.0, 60.0, 90.0)
PAPER_DISTANCES = (1.0, 3.0, 7.0, 10.0)


@pytest.fixture(scope="module")
def rb1() -> RuleBase:
    config = DEFAULT_FLC1_CONFIG
    return RuleBase(
        frb1_rules(),
        [config.speed_variable(), config.angle_variable(), config.distance_variable()],
        [config.correction_variable()],
        name="frb1",
    )


@pytest.fixture(scope="module")
def rb2() -> RuleBase:
    config = DEFAULT_FLC2_CONFIG
    return RuleBase(
        frb2_rules(),
        [
            config.correction_variable(),
            config.request_variable(),
            config.counter_variable(),
        ],
        [config.decision_variable()],
        name="frb2",
    )


@pytest.fixture(scope="module")
def engines1(rb1) -> tuple[MamdaniEngine, CompiledMamdaniEngine]:
    return MamdaniEngine(rb1), CompiledMamdaniEngine(rb1)


@pytest.fixture(scope="module")
def engines2(rb2) -> tuple[MamdaniEngine, CompiledMamdaniEngine]:
    return MamdaniEngine(rb2), CompiledMamdaniEngine(rb2)


class TestDenseSurfaceEquivalence:
    """Dense control-surface grids agree between the two engines."""

    def test_flc1_speed_angle_surface(self, engines1):
        reference, compiled = engines1
        for distance in (1.0, 5.0, 9.0):
            xs_r, ys_r, z_r = reference.control_surface(
                "S", "A", "Cv", fixed={"D": distance}, resolution=13
            )
            xs_c, ys_c, z_c = compiled.control_surface(
                "S", "A", "Cv", fixed={"D": distance}, resolution=13
            )
            np.testing.assert_array_equal(xs_r, xs_c)
            np.testing.assert_array_equal(ys_r, ys_c)
            assert np.max(np.abs(z_r - z_c)) <= 1e-9
            # The paper operators are min/max: the fast path is exact.
            np.testing.assert_array_equal(z_r, z_c)

    def test_flc1_speed_distance_surface(self, engines1):
        reference, compiled = engines1
        _, _, z_r = reference.control_surface(
            "S", "D", "Cv", fixed={"A": 15.0}, resolution=13
        )
        _, _, z_c = compiled.control_surface(
            "S", "D", "Cv", fixed={"A": 15.0}, resolution=13
        )
        np.testing.assert_array_equal(z_r, z_c)

    def test_flc2_correction_counter_surface(self, engines2):
        reference, compiled = engines2
        for request_bu in (1.0, 5.0, 10.0):
            _, _, z_r = reference.control_surface(
                "Cv", "Cs", "AR", fixed={"R": request_bu}, resolution=13
            )
            _, _, z_c = compiled.control_surface(
                "Cv", "Cs", "AR", fixed={"R": request_bu}, resolution=13
            )
            assert np.max(np.abs(z_r - z_c)) <= 1e-9
            np.testing.assert_array_equal(z_r, z_c)


class TestPaperOperatingPoints:
    """Every paper operating point produces identical inferences."""

    def test_flc1_paper_points(self, engines1):
        reference, compiled = engines1
        for speed in PAPER_SPEEDS:
            for angle in PAPER_ANGLES:
                for distance in PAPER_DISTANCES:
                    inputs = {"S": speed, "A": angle, "D": distance}
                    expected = reference.infer(inputs)
                    full = compiled.infer(inputs)
                    crisp = compiled.infer_crisp(inputs)
                    assert full["Cv"] == expected["Cv"]
                    assert crisp["Cv"] == expected["Cv"]

    def test_flc2_paper_points(self, engines2):
        reference, compiled = engines2
        for correction in (0.0, 0.25, 0.5, 0.75, 1.0):
            for request_bu in (1.0, 5.0, 10.0):
                for counter in (0.0, 10.0, 20.0, 30.0, 40.0):
                    inputs = {"Cv": correction, "R": request_bu, "Cs": counter}
                    expected = reference.infer(inputs)["AR"]
                    assert compiled.infer_crisp(inputs)["AR"] == expected

    def test_full_inference_diagnostics_match(self, engines1):
        reference, compiled = engines1
        inputs = {"S": 45.0, "A": -60.0, "D": 3.5}
        expected = reference.infer(inputs)
        actual = compiled.infer(inputs)
        assert actual.outputs == expected.outputs
        assert actual.fuzzified_inputs == expected.fuzzified_inputs
        assert len(actual.activations) == len(expected.activations)
        for got, want in zip(actual.activations, expected.activations):
            assert got.rule is want.rule
            assert got.firing_strength == want.firing_strength
        for name in expected.aggregated:
            np.testing.assert_array_equal(actual.aggregated[name], expected.aggregated[name])
        assert (actual.dominant_rule().rule.label == expected.dominant_rule().rule.label)

    def test_dominant_rule_matches_crisp_path(self, engines1):
        reference, compiled = engines1
        rng = np.random.default_rng(7)
        for _ in range(50):
            inputs = {
                "S": float(rng.uniform(0, 120)),
                "A": float(rng.uniform(-180, 180)),
                "D": float(rng.uniform(0, 10)),
            }
            expected = reference.infer(inputs).dominant_rule().rule.label
            assert compiled.infer_crisp(inputs).dominant_label == expected


class TestOperatorFamilies:
    """Non-centroid defuzzifiers agree exactly between the engines."""

    @pytest.mark.parametrize("defuzzifier", [Bisector(), MeanOfMaximum()])
    def test_alternative_defuzzifiers(self, rb2, defuzzifier):
        reference = MamdaniEngine(rb2, defuzzifier=defuzzifier)
        compiled = CompiledMamdaniEngine(rb2, defuzzifier=defuzzifier)
        for correction in (0.1, 0.5, 0.9):
            inputs = {"Cv": correction, "R": 5.0, "Cs": 20.0}
            assert compiled.infer_crisp(inputs)["AR"] == reference.infer(inputs)["AR"]


class TestErrorParity:
    """Both engines fail identically on bad inputs and uncovered regions."""

    def test_missing_inputs_message(self, engines1):
        reference, compiled = engines1
        with pytest.raises(ValueError, match="missing crisp inputs") as ref_error:
            reference.infer({"S": 10.0})
        with pytest.raises(ValueError, match="missing crisp inputs") as fast_error:
            compiled.infer_crisp({"S": 10.0})
        assert str(ref_error.value) == str(fast_error.value)
        with pytest.raises(ValueError, match="missing crisp inputs"):
            compiled.infer({"S": 10.0})

    def test_uncovered_region_raises_in_both(self):
        # A one-rule base leaving most of the universe uncovered.
        x = LinguisticVariable("x", (0.0, 10.0), [Term("lo", Triangular(0, 0, 2))])
        y = LinguisticVariable("y", (0.0, 1.0), [Term("out", Triangular(0, 0.5, 1))])
        controller_rules = "IF x is lo THEN y is out"
        reference = FuzzyController("t", [x], [y], controller_rules, engine="reference")
        compiled = FuzzyController("t", [x], [y], controller_rules, engine="compiled")
        with pytest.raises(DefuzzificationError):
            reference.compute(x=9.0)
        with pytest.raises(DefuzzificationError):
            compiled.compute(x=9.0)
        assert compiled.compute(x=1.0) == reference.compute(x=1.0)


class TestCompilability:
    def test_or_rules_are_rejected(self):
        x = LinguisticVariable(
            "x",
            (0.0, 1.0),
            [Term("lo", Triangular(0, 0, 1)), Term("hi", Triangular(0, 1, 1))],
        )
        y = LinguisticVariable("y", (0.0, 1.0), [Term("out", Triangular(0, 0.5, 1))])
        rules = "IF x is lo OR x is hi THEN y is out"
        with pytest.raises(RuleSyntaxError, match="'OR' at position 11"):
            FuzzyController("t", [x], [y], rules, engine="compiled")

    def test_hedged_rules_are_rejected(self):
        x = LinguisticVariable("x", (0.0, 1.0), [Term("lo", Triangular(0, 0, 1))])
        y = LinguisticVariable("y", (0.0, 1.0), [Term("out", Triangular(0, 0.5, 1))])
        rules = "IF x is very lo THEN y is out"
        with pytest.raises(RuleSyntaxError, match="found 'lo' at position 13"):
            FuzzyController("t", [x], [y], rules, engine="compiled")

    def test_auto_compiles_conjunctive_rules(self, rb1):
        engine = CompiledMamdaniEngine(rb1)
        assert isinstance(engine, MamdaniEngine)  # drop-in subclass

    def test_unknown_engine_name_rejected(self):
        x = LinguisticVariable("x", (0.0, 1.0), [Term("lo", Triangular(0, 0, 1))])
        y = LinguisticVariable("y", (0.0, 1.0), [Term("out", Triangular(0, 0.5, 1))])
        with pytest.raises(ValueError, match="unknown engine"):
            FuzzyController("t", [x], [y], "IF x is lo THEN y is out", engine="turbo")


class TestCrispCache:
    def test_exact_cache_returns_identical_results(self, rb2):
        plain = CompiledMamdaniEngine(rb2)
        cached = CompiledMamdaniEngine(rb2, cache_size=64)
        inputs = {"Cv": 0.4, "R": 5.0, "Cs": 17.0}
        first = cached.infer_crisp(inputs)
        second = cached.infer_crisp(inputs)
        assert second is first  # memoised object
        assert first.outputs == plain.infer_crisp(inputs).outputs
        info = cached.cache_info
        assert info.hits == 1 and info.misses == 1 and info.size == 1

    def test_lru_eviction_bounds_size(self, rb2):
        cached = CompiledMamdaniEngine(rb2, cache_size=4)
        for counter in range(10):
            cached.infer_crisp({"Cv": 0.5, "R": 5.0, "Cs": float(counter)})
        assert cached.cache_info.size <= 4

    def test_quantized_cache_buckets_nearby_inputs(self, rb2):
        cached = CompiledMamdaniEngine(rb2, cache_size=16, cache_quantization=0.1)
        first = cached.infer_crisp({"Cv": 0.50, "R": 5.0, "Cs": 20.0})
        second = cached.infer_crisp({"Cv": 0.51, "R": 5.02, "Cs": 20.04})
        assert second is first  # same bucket
        assert cached.cache_info.hits == 1

    def test_cache_disabled_by_default(self, rb2):
        engine = CompiledMamdaniEngine(rb2)
        engine.infer_crisp({"Cv": 0.4, "R": 5.0, "Cs": 17.0})
        engine.infer_crisp({"Cv": 0.4, "R": 5.0, "Cs": 17.0})
        info = engine.cache_info
        assert info.hits == 0 and info.misses == 0 and info.max_size == 0

    def test_clear_cache(self, rb2):
        cached = CompiledMamdaniEngine(rb2, cache_size=8)
        cached.infer_crisp({"Cv": 0.4, "R": 5.0, "Cs": 17.0})
        cached.clear_cache()
        info = cached.cache_info
        assert info.size == 0 and info.hits == 0 and info.misses == 0

    def test_invalid_cache_parameters(self, rb2):
        with pytest.raises(ValueError):
            CompiledMamdaniEngine(rb2, cache_size=-1)
        with pytest.raises(ValueError):
            CompiledMamdaniEngine(rb2, cache_size=8, cache_quantization=0.0)


class TestControllerIntegration:
    def test_flc_controllers_default_to_compiled(self):
        facs = FuzzyAdmissionControlSystem()
        assert facs.flc1.controller.engine_kind == "compiled"
        assert facs.flc2.controller.engine_kind == "compiled"

    def test_reference_engine_selectable_through_config(self):
        facs = FuzzyAdmissionControlSystem(FACSConfig(engine="reference"))
        assert facs.flc1.controller.engine_kind == "reference"
        assert facs.flc2.controller.engine_kind == "reference"

    def test_invalid_engine_rejected_by_config(self):
        with pytest.raises(ValueError, match="engine"):
            FACSConfig(engine="warp")

    def test_facs_decisions_identical_across_engines(self, call_factory, station):
        compiled_system = FuzzyAdmissionControlSystem(FACSConfig(engine="compiled"))
        reference_system = FuzzyAdmissionControlSystem(FACSConfig(engine="reference"))
        rng = np.random.default_rng(3)
        for _ in range(25):
            call = call_factory(
                speed=float(rng.uniform(0, 120)),
                angle=float(rng.uniform(-180, 180)),
                distance=float(rng.uniform(0, 10)),
            )
            fast = compiled_system.decide(call, station, now=0.0)
            slow = reference_system.decide(call, station, now=0.0)
            assert fast.accepted == slow.accepted
            assert fast.score == slow.score
            assert fast.outcome == slow.outcome

    def test_unhashable_defuzzifier_still_accepted(self):
        # The construction memo requires hashable arguments; callers with
        # custom unhashable defuzzifiers must still get a working system.
        class ListyCentroid:
            name = "listy"
            __hash__ = None  # explicitly unhashable
            _inner = None

            def __call__(self, grid, surface):
                from repro.fuzzy.defuzzification import Centroid

                return Centroid()(grid, surface)

            def defuzzify(self, grid, surface):
                return self(grid, surface)

        facs = FuzzyAdmissionControlSystem(defuzzifier=ListyCentroid())
        reference = FuzzyAdmissionControlSystem()
        value = facs.flc1.correction_value(30.0, 0.0, 2.0)
        assert value == reference.flc1.correction_value(30.0, 0.0, 2.0)

    def test_crisp_decision_matches_evaluate_on_reference(self):
        facs = FuzzyAdmissionControlSystem(FACSConfig(engine="reference"))
        controller = facs.flc2.controller
        crisp: CrispInference = controller.crisp_decision(Cv=0.6, R=5.0, Cs=12.0)
        full = controller.evaluate(Cv=0.6, R=5.0, Cs=12.0)
        assert crisp["AR"] == full["AR"]
        assert crisp.dominant_label == full.dominant_rule().rule.label
