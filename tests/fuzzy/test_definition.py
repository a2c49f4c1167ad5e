"""Declarative FLC definitions: validation, round-trips and extraction."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.io import (
    SCHEMA_VERSION,
    flc_definition_from_dict,
    flc_definition_to_dict,
    flc_definition_to_json,
    read_flc_definition_json,
    write_flc_definition_json,
)
from repro.cac.facs.definitions import flc1_definition, flc2_definition
from repro.fuzzy.definition import (
    DefinitionError,
    FLCDefinition,
    MembershipDef,
    RuleDef,
    TermDef,
    VariableDef,
    definition_from_controller,
    definition_from_rule_base,
)
from repro.fuzzy.membership import MembershipFunction
from repro.fuzzy.rules import Consequent, FuzzyRule, Proposition, RuleBase
from repro.fuzzy.variables import LinguisticVariable, Term


class _Step(MembershipFunction):
    """A membership shape with no serializable definition."""

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x) >= 0.5).astype(float)

    @property
    def support(self) -> tuple[float, float]:
        return (0.5, 1.0)


def tiny_definition() -> FLCDefinition:
    """A minimal 1-input/1-output definition used across the tests."""
    return FLCDefinition(
        name="tiny",
        inputs=(
            VariableDef(
                name="x",
                universe=(0.0, 10.0),
                terms=(
                    TermDef("lo", MembershipDef("triangular", (0.0, 0.0, 5.0))),
                    TermDef("hi", MembershipDef("triangular", (5.0, 10.0, 10.0))),
                ),
            ),
        ),
        outputs=(
            VariableDef(
                name="y",
                universe=(0.0, 1.0),
                terms=(
                    TermDef("no", MembershipDef("triangular", (0.0, 0.0, 1.0))),
                    TermDef("yes", MembershipDef("triangular", (0.0, 1.0, 1.0))),
                ),
            ),
        ),
        rules=(
            RuleDef(antecedent=(("x", "lo"),), consequents=(("y", "no"),), label="1"),
            RuleDef(antecedent=(("x", "hi"),), consequents=(("y", "yes"),), label="2"),
        ),
    )


class TestMembershipDef:
    def test_rejects_unknown_kind(self):
        with pytest.raises(DefinitionError, match="unknown membership kind"):
            MembershipDef("gaussian", (0.0, 1.0))

    def test_rejects_wrong_parameter_count(self):
        with pytest.raises(DefinitionError, match="triangular"):
            MembershipDef("triangular", (0.0, 1.0))

    def test_rejects_non_numeric_parameters(self):
        with pytest.raises(DefinitionError):
            MembershipDef("triangular", (0.0, "mid", 1.0))

    def test_build_error_names_the_variable_term_and_params(self):
        bad = object.__new__(MembershipDef)
        object.__setattr__(bad, "kind", "triangular")
        object.__setattr__(bad, "params", (5.0, 1.0, 0.0))
        with pytest.raises(DefinitionError) as excinfo:
            bad.build(variable="S", term="M")
        message = str(excinfo.value)
        assert "'S'" in message and "'M'" in message
        assert "[5.0, 1.0, 0.0]" in message


class TestVariableDef:
    def test_rejects_inverted_universe(self):
        with pytest.raises(DefinitionError, match="universe"):
            VariableDef(name="x", universe=(1.0, 0.0), terms=(
                TermDef("t", MembershipDef("triangular", (0.0, 0.5, 1.0))),
            ))

    def test_rejects_duplicate_terms(self):
        term = TermDef("t", MembershipDef("triangular", (0.0, 0.5, 1.0)))
        with pytest.raises(DefinitionError, match="duplicate"):
            VariableDef(name="x", universe=(0.0, 1.0), terms=(term, term))

    def test_invalid_membership_fails_at_definition_time_with_context(self):
        with pytest.raises(DefinitionError) as excinfo:
            VariableDef(
                name="speed",
                universe=(0.0, 1.0),
                terms=(TermDef("fast", MembershipDef("triangular", (1.0, 0.5, 0.0))),),
            )
        assert "'speed'" in str(excinfo.value)
        assert "'fast'" in str(excinfo.value)

    def test_build_produces_a_linguistic_variable(self):
        variable = tiny_definition().inputs[0].build()
        assert isinstance(variable, LinguisticVariable)
        assert variable.universe == (0.0, 10.0)
        assert [term.name for term in variable] == ["lo", "hi"]


class TestRuleDef:
    def test_weight_must_lie_in_unit_interval(self):
        with pytest.raises(DefinitionError, match="weight"):
            RuleDef(antecedent=(("x", "lo"),), consequents=(("y", "no"),), weight=1.5)

    def test_antecedent_pairs_are_validated(self):
        with pytest.raises(DefinitionError):
            RuleDef(antecedent=(("x",),), consequents=(("y", "no"),))


class TestFLCDefinition:
    def test_rejects_rule_referencing_unknown_variable(self):
        base = tiny_definition()
        with pytest.raises(DefinitionError, match="unknown input variable 'z'"):
            FLCDefinition(
                name=base.name,
                inputs=base.inputs,
                outputs=base.outputs,
                rules=(RuleDef(antecedent=(("z", "lo"),), consequents=(("y", "no"),)),),
            )

    def test_rejects_rule_referencing_unknown_term(self):
        base = tiny_definition()
        with pytest.raises(DefinitionError, match="unknown term 'xxl'"):
            FLCDefinition(
                name=base.name,
                inputs=base.inputs,
                outputs=base.outputs,
                rules=(RuleDef(antecedent=(("x", "xxl"),), consequents=(("y", "no"),)),),
            )

    def test_rejects_unknown_defuzzifier(self):
        base = tiny_definition()
        with pytest.raises(DefinitionError, match="defuzzifier"):
            FLCDefinition(
                name=base.name,
                inputs=base.inputs,
                outputs=base.outputs,
                rules=base.rules,
                defuzzifier="median-of-maxima",
            )

    def test_retired_defuzzifier_names_are_rejected(self):
        payload = tiny_definition().to_dict()
        for retired in ("som", "lom", "weighted_average"):
            payload["defuzzifier"] = retired
            with pytest.raises(DefinitionError) as excinfo:
                FLCDefinition.from_dict(payload)
            message = str(excinfo.value)
            assert f"unknown defuzzifier {retired!r}" in message
            assert message.endswith("available: bisector, centroid, mom")

    def test_with_variable_replaces_and_revalidates(self):
        base = tiny_definition()
        replacement = VariableDef(
            name="x",
            universe=(0.0, 20.0),
            terms=base.inputs[0].terms,
        )
        updated = base.with_variable(replacement)
        assert updated.variable("x").universe == (0.0, 20.0)
        assert base.variable("x").universe == (0.0, 10.0)
        with pytest.raises(DefinitionError, match="no variable"):
            base.with_variable(VariableDef(
                name="nope", universe=(0.0, 1.0), terms=replacement.terms
            ))

    def test_with_rule_replaces_by_label(self):
        base = tiny_definition()
        updated = base.with_rule(RuleDef(
            antecedent=(("x", "lo"),), consequents=(("y", "no"),),
            weight=0.25, label="1",
        ))
        assert updated.rule_by_label("1").weight == 0.25
        assert base.rule_by_label("1").weight == 1.0

    def test_build_controller_evaluates(self):
        controller = tiny_definition().build_controller(engine="reference")
        assert 0.0 <= controller.compute(x=2.0) <= 1.0


class TestRoundTrips:
    @pytest.mark.parametrize("definition", [flc1_definition(), flc2_definition()],
                             ids=["FLC1", "FLC2"])
    def test_dict_round_trip_is_lossless(self, definition):
        assert FLCDefinition.from_dict(definition.to_dict()) == definition

    def test_json_codec_round_trip_and_version_stamp(self, tmp_path):
        definition = tiny_definition()
        payload = flc_definition_to_dict(definition)
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["type"] == "flc-definition"
        assert flc_definition_from_dict(json.loads(json.dumps(payload))) == definition
        path = tmp_path / "tiny.json"
        write_flc_definition_json(definition, path)
        assert read_flc_definition_json(path) == definition
        assert path.read_text() == flc_definition_to_json(definition)

    def test_from_dict_rejects_unknown_keys(self):
        payload = tiny_definition().to_dict()
        payload["volume"] = 11
        with pytest.raises(DefinitionError, match="volume"):
            FLCDefinition.from_dict(payload)

    def test_read_rejects_wrong_payload_type(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema_version": SCHEMA_VERSION, "type": "other"}))
        with pytest.raises(DefinitionError, match="other"):
            read_flc_definition_json(path)

    def test_read_reports_the_offending_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(DefinitionError, match="broken.json"):
            read_flc_definition_json(path)


class TestExtraction:
    def test_extraction_round_trips_the_builtin_definitions(self):
        for definition in (flc1_definition(), flc2_definition()):
            controller = definition.build_controller(engine="reference")
            assert definition_from_controller(controller) == definition

    def test_unsupported_membership_kind_is_rejected(self):
        variable = LinguisticVariable("x", (0.0, 1.0), [Term("g", _Step())])
        out = tiny_definition().outputs[0].build()
        rule = FuzzyRule(
            antecedent=Proposition("x", "g"),
            consequents=(Consequent("y", "yes"),),
        )
        rules = RuleBase([rule], inputs=[variable], outputs=[out])
        with pytest.raises(DefinitionError, match="no serializable definition"):
            definition_from_rule_base(rules, name="gauss")


# -- property tests -------------------------------------------------------

mf_params = st.lists(
    st.floats(min_value=-100.0, max_value=100.0, allow_nan=False,
              allow_infinity=False),
    min_size=3, max_size=3,
).map(lambda vs: tuple(sorted(vs)))
term_names = st.sampled_from(["a", "b", "c", "d"])


@st.composite
def definitions(draw) -> FLCDefinition:
    def variable(name: str) -> VariableDef:
        names = draw(st.lists(term_names, min_size=1, max_size=3, unique=True))
        terms = tuple(
            TermDef(term, MembershipDef("triangular", draw(mf_params)))
            for term in names
        )
        return VariableDef(
            name=name,
            universe=(-200.0, 200.0),
            terms=terms,
            resolution=draw(st.integers(min_value=2, max_value=64)),
        )

    inputs = tuple(variable(name) for name in ("in1", "in2"))
    outputs = (variable("out"),)
    rules = tuple(
        RuleDef(
            antecedent=tuple(
                (var.name, draw(st.sampled_from(var.term_names())))
                for var in inputs
            ),
            consequents=(
                ("out", draw(st.sampled_from(outputs[0].term_names()))),
            ),
            weight=draw(st.floats(min_value=0.0, max_value=1.0,
                                  allow_nan=False)),
            label=str(index),
        )
        for index in range(draw(st.integers(min_value=1, max_value=3)))
    )
    return FLCDefinition(
        name=draw(st.sampled_from(["flc-a", "flc-b"])),
        inputs=inputs,
        outputs=outputs,
        rules=rules,
        defuzzifier=draw(st.sampled_from(["centroid", "bisector", "mom"])),
    )


@settings(max_examples=50, deadline=None)
@given(definition=definitions())
def test_random_definitions_round_trip_losslessly(definition):
    assert FLCDefinition.from_dict(definition.to_dict()) == definition
    via_json = flc_definition_from_dict(
        json.loads(flc_definition_to_json(definition))
    )
    assert via_json == definition
