"""Tests for rule objects, rule bases and the rule DSL parser."""

from __future__ import annotations

import pytest

from repro.fuzzy.membership import Triangular
from repro.fuzzy.parser import RuleSyntaxError, parse_rule, parse_rules
from repro.fuzzy.rules import (
    And,
    Consequent,
    FuzzyRule,
    Proposition,
    RuleBase,
)
from repro.fuzzy.variables import LinguisticVariable, Term


def temp_var(name: str, terms: list[str]) -> LinguisticVariable:
    step = 1.0 / max(len(terms) - 1, 1)
    built = []
    for index, term in enumerate(terms):
        center = index * step
        shape = Triangular(max(center - step, 0.0), center, min(center + step, 1.0))
        built.append(Term(term, shape))
    return LinguisticVariable(name, (0.0, 1.0), built, resolution=101)


@pytest.fixture
def degrees():
    return {
        "temp": {"cold": 0.2, "hot": 0.7},
        "load": {"low": 0.9, "high": 0.1},
    }


class TestPropositions:
    def test_atomic_firing_strength(self, degrees):
        assert Proposition("temp", "hot").firing_strength(degrees) == 0.7

    def test_missing_variable_raises(self, degrees):
        with pytest.raises(KeyError):
            Proposition("humidity", "x").firing_strength(degrees)

    def test_missing_term_raises(self, degrees):
        with pytest.raises(KeyError):
            Proposition("temp", "warm").firing_strength(degrees)

    def test_and_uses_tnorm(self, degrees):
        expr = And((Proposition("temp", "hot"), Proposition("load", "low")))
        assert expr.firing_strength(degrees) == pytest.approx(0.7)

    def test_operator_sugar(self, degrees):
        expr = Proposition("temp", "hot") & Proposition("load", "low")
        assert isinstance(expr, And)
        assert expr.firing_strength(degrees) == pytest.approx(0.7)

    def test_variables_collection(self):
        expr = And((Proposition("a", "x"), And((Proposition("b", "y"), Proposition("a", "z")))))
        assert expr.variables() == {"a", "b"}

    def test_and_or_require_two_operands(self):
        with pytest.raises(ValueError):
            And((Proposition("a", "x"),))


class TestFuzzyRule:
    def test_weighted_firing_strength(self, degrees):
        rule = FuzzyRule(
            Proposition("temp", "hot"), (Consequent("fan", "fast"),), weight=0.5
        )
        assert rule.firing_strength(degrees) == pytest.approx(0.35)

    def test_requires_consequent(self):
        with pytest.raises(ValueError):
            FuzzyRule(Proposition("a", "b"), ())

    def test_weight_bounds(self):
        with pytest.raises(ValueError):
            FuzzyRule(Proposition("a", "b"), (Consequent("c", "d"),), weight=1.5)

    def test_str_rendering(self):
        rule = FuzzyRule(
            And((Proposition("temp", "hot"), Proposition("load", "low"))),
            (Consequent("fan", "fast"),),
            label="3",
        )
        text = str(rule)
        assert "IF" in text and "THEN" in text and "[3]" in text

    def test_io_variable_sets(self):
        rule = FuzzyRule(Proposition("temp", "hot"), (Consequent("fan", "fast"),))
        assert rule.input_variables() == {"temp"}
        assert rule.output_variables() == {"fan"}


class TestParser:
    def test_simple_rule(self):
        rule = parse_rule("IF temp is hot THEN fan is fast")
        assert isinstance(rule.antecedent, Proposition)
        assert rule.consequents[0] == Consequent("fan", "fast")

    def test_conjunction(self):
        rule = parse_rule("IF a is x AND b is y AND c is z THEN out is big")
        assert isinstance(rule.antecedent, And)
        assert len(rule.antecedent.operands) == 3

    def test_multiple_consequents(self):
        rule = parse_rule("IF a is x THEN out is big AND warn is on")
        assert len(rule.consequents) == 2

    def test_case_insensitive_keywords(self):
        rule = parse_rule("if a is x then out is big")
        assert rule.consequents[0].variable == "out"

    def test_empty_rule_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("   ")

    def test_missing_then_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("IF a is x")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("IF a is x THEN out is big banana split")

    def test_unbalanced_parenthesis_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("IF (a is x THEN out is big")

    def test_bad_character_rejected(self):
        with pytest.raises(RuleSyntaxError):
            parse_rule("IF a is x THEN out is big $$")

    def test_parse_rules_skips_comments_and_blank_lines(self):
        rules = parse_rules(
            """
            # header comment
            IF a is x THEN out is big

            IF a is y THEN out is small
            """
        )
        assert len(rules) == 2
        assert rules[0].label == "0" and rules[1].label == "1"

    def test_parse_rules_accepts_list(self):
        rules = parse_rules(["IF a is x THEN out is big"])
        assert len(rules) == 1


class TestRetiredGrammar:
    """OR, NOT, parentheses and hedges are syntax errors, not silent rules."""

    @pytest.mark.parametrize(
        "text, token, position",
        [
            ("IF a is x OR b is y THEN out is big", "'OR'", 10),
            ("IF NOT a is x THEN out is big", "'NOT'", 3),
            ("IF (a is x) THEN out is big", "'('", 3),
            ("IF a is x AND (b is y) THEN out is big", "'('", 14),
            ("IF a is very x THEN out is big", "'x'", 13),
        ],
    )
    def test_error_names_the_token_and_its_position(self, text, token, position):
        with pytest.raises(RuleSyntaxError) as excinfo:
            parse_rule(text)
        assert f"{token} at position {position}" in str(excinfo.value)
        assert text[position] == token[1]


class TestRuleBase:
    def setup_method(self):
        self.temp = temp_var("temp", ["cold", "hot"])
        self.load = temp_var("load", ["low", "high"])
        self.fan = temp_var("fan", ["slow", "fast"])

    def make(self, rules):
        return RuleBase(rules, [self.temp, self.load], [self.fan])

    def test_valid_rule_base(self):
        rules = parse_rules(
            [
                "IF temp is cold AND load is low THEN fan is slow",
                "IF temp is cold AND load is high THEN fan is slow",
                "IF temp is hot AND load is low THEN fan is fast",
                "IF temp is hot AND load is high THEN fan is fast",
            ]
        )
        base = self.make(rules)
        assert len(base) == 4
        assert base.is_complete()

    def test_incomplete_rule_base_reports_gaps(self):
        rules = parse_rules(["IF temp is cold AND load is low THEN fan is slow"])
        base = self.make(rules)
        gaps = base.completeness_gaps()
        assert not base.is_complete()
        assert {"temp": "hot", "load": "high"} in gaps
        assert len(gaps) == 3

    def test_unknown_input_variable_rejected(self):
        rules = parse_rules(["IF humidity is low THEN fan is slow"])
        with pytest.raises(ValueError, match="unknown input"):
            self.make(rules)

    def test_unknown_input_term_rejected(self):
        rules = parse_rules(["IF temp is lukewarm THEN fan is slow"])
        with pytest.raises(ValueError, match="unknown term"):
            self.make(rules)

    def test_unknown_output_variable_rejected(self):
        rules = parse_rules(["IF temp is cold THEN heater is on"])
        with pytest.raises(ValueError, match="unknown output"):
            self.make(rules)

    def test_unknown_output_term_rejected(self):
        rules = parse_rules(["IF temp is cold THEN fan is turbo"])
        with pytest.raises(ValueError, match="unknown term"):
            self.make(rules)

    def test_empty_rules_rejected(self):
        with pytest.raises(ValueError):
            self.make([])

    def test_variable_cannot_be_input_and_output(self):
        rules = parse_rules(["IF temp is cold THEN temp is hot"])
        with pytest.raises(ValueError):
            RuleBase(rules, [self.temp], [self.temp])

    def test_indexing_and_iteration(self):
        rules = parse_rules(
            [
                "IF temp is cold THEN fan is slow",
                "IF temp is hot THEN fan is fast",
            ]
        )
        base = self.make(rules)
        assert base[0].consequents[0].term == "slow"
        assert len(list(base)) == 2
