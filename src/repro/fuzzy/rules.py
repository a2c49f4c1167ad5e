"""Fuzzy rules, antecedent expressions and rule bases.

Rules have the paper's form ``IF "conditions" THEN "control action"``:

    IF S is Sl AND A is B1 AND D is N THEN Cv is Cv3

An antecedent is an atomic proposition ``variable IS term`` or a
conjunction of them, exactly the shape of every FRB1/FRB2 rule.  The
conjunction is the minimum t-norm.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .variables import LinguisticVariable

__all__ = [
    "Antecedent",
    "Proposition",
    "And",
    "Consequent",
    "FuzzyRule",
    "RuleBase",
]


class Antecedent(ABC):
    """Node of a rule antecedent expression tree."""

    @abstractmethod
    def firing_strength(self, degrees: Mapping[str, Mapping[str, float]]) -> float:
        """Evaluate the antecedent given fuzzified input degrees.

        ``degrees`` maps variable name -> term name -> membership degree.
        """

    @abstractmethod
    def variables(self) -> set[str]:
        """Names of the linguistic variables referenced by this expression."""

    # Operator sugar so rules can be written programmatically:
    # Proposition(...) & Proposition(...)
    def __and__(self, other: "Antecedent") -> "And":
        return And((self, other))


@dataclass(frozen=True)
class Proposition(Antecedent):
    """Atomic antecedent ``variable IS term``."""

    variable: str
    term: str

    def firing_strength(self, degrees: Mapping[str, Mapping[str, float]]) -> float:
        try:
            var_degrees = degrees[self.variable]
        except KeyError:
            raise KeyError(
                f"no fuzzified degrees supplied for variable {self.variable!r}"
            ) from None
        try:
            return float(var_degrees[self.term])
        except KeyError:
            raise KeyError(
                f"variable {self.variable!r} has no fuzzified term {self.term!r}"
            ) from None

    def variables(self) -> set[str]:
        return {self.variable}

    def __str__(self) -> str:
        return f"{self.variable} is {self.term}"


@dataclass(frozen=True)
class And(Antecedent):
    """Conjunction of sub-antecedents, combined with the minimum t-norm."""

    operands: tuple[Antecedent, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise ValueError("And requires at least two operands")

    def firing_strength(self, degrees: Mapping[str, Mapping[str, float]]) -> float:
        strengths = [op.firing_strength(degrees) for op in self.operands]
        result = strengths[0]
        for strength in strengths[1:]:
            result = float(np.minimum(result, strength))
        return result

    def variables(self) -> set[str]:
        names: set[str] = set()
        for op in self.operands:
            names |= op.variables()
        return names

    def __str__(self) -> str:
        return "(" + " AND ".join(str(op) for op in self.operands) + ")"


@dataclass(frozen=True)
class Consequent:
    """Rule consequent ``variable IS term`` with an optional rule weight."""

    variable: str
    term: str

    def __str__(self) -> str:
        return f"{self.variable} is {self.term}"


@dataclass(frozen=True)
class FuzzyRule:
    """A single ``IF antecedent THEN consequent(s)`` rule.

    ``weight`` scales the firing strength (1.0 for all paper rules) and
    ``label`` carries the rule index so FRB1/FRB2 tables can be rendered and
    cross-checked against the paper.
    """

    antecedent: Antecedent
    consequents: tuple[Consequent, ...]
    weight: float = 1.0
    label: str = ""

    def __post_init__(self) -> None:
        if not self.consequents:
            raise ValueError("a rule requires at least one consequent")
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(f"rule weight must lie in [0, 1], got {self.weight}")

    def firing_strength(self, degrees: Mapping[str, Mapping[str, float]]) -> float:
        """Weighted firing strength of the rule for fuzzified inputs."""
        return self.weight * self.antecedent.firing_strength(degrees)

    def input_variables(self) -> set[str]:
        return self.antecedent.variables()

    def output_variables(self) -> set[str]:
        return {c.variable for c in self.consequents}

    def __str__(self) -> str:
        then = " AND ".join(str(c) for c in self.consequents)
        prefix = f"[{self.label}] " if self.label else ""
        return f"{prefix}IF {self.antecedent} THEN {then}"


class RuleBase:
    """An ordered collection of fuzzy rules validated against variables.

    The rule base checks, at construction time, that every rule references
    only known variables and terms — the paper's FRB1 (42 rules) and FRB2
    (27 rules) are instances of this class.
    """

    def __init__(
        self,
        rules: Iterable[FuzzyRule],
        inputs: Sequence[LinguisticVariable],
        outputs: Sequence[LinguisticVariable],
        name: str = "rule-base",
    ):
        self._name = name
        self._inputs = {var.name: var for var in inputs}
        self._outputs = {var.name: var for var in outputs}
        if not self._inputs:
            raise ValueError("rule base requires at least one input variable")
        if not self._outputs:
            raise ValueError("rule base requires at least one output variable")
        overlap = set(self._inputs) & set(self._outputs)
        if overlap:
            raise ValueError(f"variables cannot be both input and output: {sorted(overlap)}")
        self._rules = list(rules)
        if not self._rules:
            raise ValueError(f"rule base {name!r} requires at least one rule")
        for rule in self._rules:
            self._validate_rule(rule)

    def _validate_rule(self, rule: FuzzyRule) -> None:
        for prop in _propositions(rule.antecedent):
            var = self._inputs.get(prop.variable)
            if var is None:
                raise ValueError(
                    f"rule {rule.label or rule} references unknown input "
                    f"variable {prop.variable!r}"
                )
            if prop.term not in var:
                raise ValueError(
                    f"rule {rule.label or rule} references unknown term "
                    f"{prop.term!r} of variable {prop.variable!r}"
                )
        for consequent in rule.consequents:
            var = self._outputs.get(consequent.variable)
            if var is None:
                raise ValueError(
                    f"rule {rule.label or rule} references unknown output "
                    f"variable {consequent.variable!r}"
                )
            if consequent.term not in var:
                raise ValueError(
                    f"rule {rule.label or rule} references unknown term "
                    f"{consequent.term!r} of output variable {consequent.variable!r}"
                )

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def rules(self) -> list[FuzzyRule]:
        return list(self._rules)

    @property
    def input_variables(self) -> dict[str, LinguisticVariable]:
        return dict(self._inputs)

    @property
    def output_variables(self) -> dict[str, LinguisticVariable]:
        return dict(self._outputs)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[FuzzyRule]:
        return iter(self._rules)

    def __getitem__(self, index: int) -> FuzzyRule:
        return self._rules[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuleBase({self._name!r}, rules={len(self._rules)})"

    # ------------------------------------------------------------------
    def completeness_gaps(self) -> list[dict[str, str]]:
        """Return input-term combinations not covered by any rule.

        Only rules with one proposition per input variable (as every FRB1
        and FRB2 rule has) cover a combination.  A complete grid rule base
        returns ``[]``.
        """
        covered: set[tuple[tuple[str, str], ...]] = set()
        for rule in self._rules:
            props = _propositions(rule.antecedent)
            key = tuple(sorted((p.variable, p.term) for p in props))
            if len({var for var, _ in key}) == len(self._inputs):
                covered.add(key)

        gaps: list[dict[str, str]] = []
        names = sorted(self._inputs)
        combos: list[dict[str, str]] = [{}]
        for name in names:
            combos = [
                {**combo, name: term}
                for combo in combos
                for term in self._inputs[name].term_names
            ]
        for combo in combos:
            key = tuple(sorted(combo.items()))
            if key not in covered:
                gaps.append(combo)
        return gaps

    def is_complete(self) -> bool:
        """True when every input-term combination is covered by a rule."""
        return not self.completeness_gaps()


def _propositions(node: Antecedent) -> list[Proposition]:
    """Flatten an antecedent tree into its atomic propositions."""
    if isinstance(node, Proposition):
        return [node]
    if isinstance(node, And):
        props: list[Proposition] = []
        for op in node.operands:
            props.extend(_propositions(op))
        return props
    raise TypeError(f"unknown antecedent node type: {type(node)!r}")
