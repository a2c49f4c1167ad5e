"""Every row of Tables 1 and 2, realised end to end by FLC1 and FLC2.

For each rule the inputs are set to the full-membership points of its
antecedent terms.  The paper's term partitions put every other term of the
same variable at zero there, so exactly that rule fires, at strength 1, and
the defuzzified output must land in the rule's consequent term.  A wrong
break point in a term, a mistyped table row or an inference change that
leaks between rules makes one of these cases fail.
"""

from __future__ import annotations

import pytest

from repro.cac.facs.flc1 import FLC1
from repro.cac.facs.flc2 import FLC2
from repro.cac.facs.frb1 import FRB1_TABLE
from repro.cac.facs.frb2 import FRB2_TABLE
from repro.fuzzy.membership import Triangular
from repro.fuzzy.variables import LinguisticVariable

ENGINES = ("compiled", "reference")


def full_membership_point(variable: LinguisticVariable, term: str) -> float:
    """A crisp value where ``term`` has membership 1 (peak or plateau centre)."""
    mf = variable.term(term).membership
    if isinstance(mf, Triangular):
        return mf.peak
    low, high = mf.core
    lo_edge, hi_edge = variable.universe
    # Edge plateaus run past the universe; centre on the part inside it.
    return 0.5 * (max(low, lo_edge) + min(high, hi_edge))


def row_inputs(controller, names, terms) -> dict[str, float]:
    variables = controller.rule_base.input_variables
    return {name: full_membership_point(variables[name], term) for name, term in zip(names, terms)}


def assert_row_realised(controller, inputs, label, output, consequent) -> float:
    result = controller.evaluate(**inputs)
    fired = [(a.rule.label, a.firing_strength) for a in result.fired_rules()]
    assert fired == [(label, 1.0)]
    crisp = result[output]
    variable = controller.rule_base.output_variables[output]
    assert variable.fuzzify(crisp).best_term() == consequent
    return crisp


def _row_params(table):
    return [
        pytest.param(engine, row, id=f"{engine}-rule{row[0]}")
        for engine in ENGINES
        for row in table
    ]


@pytest.fixture(scope="module")
def flc1_by_engine():
    return {engine: FLC1(engine=engine) for engine in ENGINES}


@pytest.fixture(scope="module")
def flc2_by_engine():
    return {engine: FLC2(engine=engine) for engine in ENGINES}


class TestFRB1Rows:
    @pytest.mark.parametrize("engine, row", _row_params(FRB1_TABLE))
    def test_row_fires_alone_and_yields_its_correction_term(
        self, flc1_by_engine, engine, row
    ):
        index, speed, angle, distance, correction = row
        controller = flc1_by_engine[engine].controller
        inputs = row_inputs(controller, ("S", "A", "D"), (speed, angle, distance))
        assert_row_realised(controller, inputs, str(index), "Cv", correction)

    def test_engines_agree_bit_for_bit_on_every_row(self, flc1_by_engine):
        compiled = flc1_by_engine["compiled"].controller
        reference = flc1_by_engine["reference"].controller
        for _, speed, angle, distance, _ in FRB1_TABLE:
            inputs = row_inputs(compiled, ("S", "A", "D"), (speed, angle, distance))
            assert compiled.compute(**inputs) == reference.compute(**inputs)


class TestFRB2Rows:
    @pytest.mark.parametrize("engine, row", _row_params(FRB2_TABLE))
    def test_row_fires_alone_and_yields_its_decision_term(
        self, flc2_by_engine, engine, row
    ):
        index, correction, request, counter, decision = row
        controller = flc2_by_engine[engine].controller
        inputs = row_inputs(controller, ("Cv", "R", "Cs"), (correction, request, counter))
        assert_row_realised(controller, inputs, str(index), "AR", decision)

    def test_engines_agree_bit_for_bit_on_every_row(self, flc2_by_engine):
        compiled = flc2_by_engine["compiled"].controller
        reference = flc2_by_engine["reference"].controller
        for _, correction, request, counter, _ in FRB2_TABLE:
            inputs = row_inputs(compiled, ("Cv", "R", "Cs"), (correction, request, counter))
            assert compiled.compute(**inputs) == reference.compute(**inputs)
