"""High-level fuzzy logic controller (FLC) facade.

:class:`FuzzyController` packages the four blocks of Fig. 2 of the paper —
fuzzifier, inference engine, fuzzy rule base (FRB) and defuzzifier — behind a
single callable object with named inputs and a single (or multiple) crisp
outputs.  FLC1 and FLC2 of the FACS system are both instances of this class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..registry import Registry
from .compiled import CompiledMamdaniEngine, CrispInference
from .defuzzification import DEFAULT_DEFUZZIFIER, Defuzzifier
from .inference import InferenceResult, MamdaniEngine
from .parser import parse_rules
from .rules import FuzzyRule, RuleBase, _propositions
from .variables import LinguisticVariable

__all__ = [
    "FuzzyController",
    "EngineSpec",
    "ENGINES",
]


@dataclass(frozen=True)
class EngineSpec:
    """One registered inference-engine mode."""

    name: str
    description: str


#: Registry of inference-engine modes accepted by :class:`FuzzyController`
#: (and, transitively, by ``FACSConfig.engine`` and the CLI ``--engine``
#: flag) — the single source of truth for the engine *name set* used in
#: validation, CLI choices and error messages.  Unlike the controller and
#: executor registries this one is metadata-only: adding a mode also
#: requires a dispatch branch in ``FuzzyController.__init__``.
ENGINES: Registry[EngineSpec] = Registry("engine")

ENGINES.register(
    "compiled",
    EngineSpec("compiled", "vectorized fast path lowered to numpy tensors"),
)
ENGINES.register(
    "reference",
    EngineSpec("reference", "interpreted per-rule Mamdani engine"),
)


class FuzzyController:
    """A complete Mamdani fuzzy logic controller.

    Parameters
    ----------
    name:
        Human-readable controller name (``"FLC1"``, ``"FLC2"``).
    inputs, outputs:
        Linguistic variables of the controller.
    rules:
        Either pre-built :class:`FuzzyRule` objects or a rule-DSL string /
        list of strings (see :mod:`repro.fuzzy.parser`).
    defuzzifier:
        Strategy reducing the aggregated output set to a crisp value
        (paper default: centroid).
    engine:
        ``"compiled"`` (default) runs the vectorized
        :class:`~repro.fuzzy.compiled.CompiledMamdaniEngine`;
        ``"reference"`` runs the interpreted :class:`MamdaniEngine`.  Both
        infer with min conjunction, clip implication and max aggregation
        and agree bit for bit.
    """

    def __init__(
        self,
        name: str,
        inputs: Sequence[LinguisticVariable],
        outputs: Sequence[LinguisticVariable],
        rules: Sequence[FuzzyRule] | Iterable[str] | str,
        defuzzifier: Defuzzifier = DEFAULT_DEFUZZIFIER,
        engine: str = "compiled",
    ):
        if isinstance(rules, str):
            rule_objs: Sequence[FuzzyRule] = parse_rules(rules)
        else:
            rules = list(rules)
            if rules and isinstance(rules[0], str):
                rule_objs = parse_rules([str(r) for r in rules])
            else:
                rule_objs = [r for r in rules if isinstance(r, FuzzyRule)]
                if len(rule_objs) != len(rules):
                    raise TypeError(
                        "rules must be FuzzyRule objects or rule strings, not a mix"
                    )
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {tuple(sorted(ENGINES))}"
            )
        self._name = name
        self._rule_base = RuleBase(rule_objs, inputs, outputs, name=f"{name}-rules")
        if engine == "reference":
            self._engine: MamdaniEngine = MamdaniEngine(self._rule_base, defuzzifier)
        else:
            self._engine = CompiledMamdaniEngine(self._rule_base, defuzzifier)

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def rule_base(self) -> RuleBase:
        return self._rule_base

    @property
    def engine(self) -> MamdaniEngine:
        return self._engine

    @property
    def engine_kind(self) -> str:
        """``"compiled"`` when the fast path is active, else ``"reference"``."""
        return (
            "compiled" if isinstance(self._engine, CompiledMamdaniEngine) else "reference"
        )

    @property
    def input_names(self) -> list[str]:
        return sorted(self._rule_base.input_variables)

    @property
    def output_names(self) -> list[str]:
        return sorted(self._rule_base.output_variables)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FuzzyController({self._name!r}, inputs={self.input_names}, "
            f"outputs={self.output_names}, rules={len(self._rule_base)})"
        )

    # ------------------------------------------------------------------
    def evaluate(self, **inputs: float) -> InferenceResult:
        """Run the controller and return the full :class:`InferenceResult`."""
        return self._engine.infer(inputs)

    def compute(self, **inputs: float) -> float:
        """Run the controller and return its single crisp output value.

        Raises ``ValueError`` when the controller has more than one output
        variable (use :meth:`evaluate` in that case).
        """
        outputs = self.output_names
        if len(outputs) != 1:
            raise ValueError(
                f"controller {self._name!r} has {len(outputs)} outputs; "
                "use evaluate() and index the result"
            )
        engine = self._engine
        if isinstance(engine, CompiledMamdaniEngine):
            return engine.infer_crisp(inputs)[outputs[0]]
        return engine.infer(inputs)[outputs[0]]

    def crisp_decision(self, **inputs: float) -> CrispInference:
        """Crisp outputs plus the dominant rule, via the fastest path.

        With a compiled engine this skips all per-rule diagnostics; with the
        reference engine the same record is distilled from a full
        :class:`InferenceResult`.  FLC1 and FLC2 use this in the simulator
        hot loop.
        """
        engine = self._engine
        if isinstance(engine, CompiledMamdaniEngine):
            return engine.infer_crisp(inputs)
        result = engine.infer(inputs)
        activations = result.activations
        dominant = max(range(len(activations)), key=lambda i: activations[i].firing_strength)
        return CrispInference(
            outputs=dict(result.outputs),
            dominant_index=dominant,
            dominant_label=activations[dominant].rule.label,
        )

    def compute_many(self, samples: Iterable[Mapping[str, float]]) -> list[float]:
        """Evaluate a batch of crisp input mappings (single-output controllers)."""
        return [self.compute(**dict(sample)) for sample in samples]

    def compute_batch(self, **inputs: np.ndarray) -> np.ndarray:
        """Crisp output vector for named ``(N,)`` input vectors.

        The batched counterpart of :meth:`compute`: with a compiled engine
        the whole batch flows through the tensorized
        :meth:`~repro.fuzzy.inference.MamdaniEngine.infer_batch` path and the
        returned values are bit-identical to calling :meth:`compute` per row.
        """
        outputs = self.output_names
        if len(outputs) != 1:
            raise ValueError(
                f"controller {self._name!r} has {len(outputs)} outputs; "
                "use engine.infer_batch() and index its outputs instead"
            )
        arrays = {name: np.asarray(values, dtype=float) for name, values in inputs.items()}
        return self._engine.infer_batch(arrays).outputs[outputs[0]]

    def rule_table(self) -> list[dict[str, str]]:
        """Render the rule base as a list of ``{column: value}`` rows.

        Each row contains one column per input variable plus one per output
        variable, which is exactly the layout of Tables 1 and 2 of the paper.
        """
        rows: list[dict[str, str]] = []
        for rule in self._rule_base:
            row: dict[str, str] = {"Rule": rule.label}
            for prop in _propositions(rule.antecedent):
                row[prop.variable] = prop.term
            for consequent in rule.consequents:
                row[consequent.variable] = consequent.term
            rows.append(row)
        return rows

    def membership_table(
        self, variable: str, points: int = 11
    ) -> dict[str, list[tuple[float, float]]]:
        """Sample each term of a variable at ``points`` evenly spaced values.

        Used by the experiments layer to render Figs. 5 and 6 (membership
        function plots) as ASCII tables.
        """
        all_vars = {
            **self._rule_base.input_variables,
            **self._rule_base.output_variables,
        }
        try:
            var = all_vars[variable]
        except KeyError:
            raise KeyError(
                f"controller {self._name!r} has no variable {variable!r}; "
                f"available: {sorted(all_vars)}"
            ) from None
        xs = np.linspace(*var.universe, points)
        table: dict[str, list[tuple[float, float]]] = {}
        for term in var:
            mu = term.membership.sample(xs)
            table[term.name] = [(float(x), float(m)) for x, m in zip(xs, mu)]
        return table
