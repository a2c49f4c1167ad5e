"""A self-contained fuzzy-logic toolkit, cut to what FLC1 and FLC2 run.

The whole controller contract is fuzzifier → rule engine → defuzzifier:
triangular and trapezoidal membership functions, linguistic variables,
AND-only rules (parsed from the ``IF ... THEN ...`` DSL or built from
propositions), Mamdani inference with the fixed min conjunction, clip
implication and max aggregation, and centroid, bisector or mean-of-maximum
defuzzification.  The interpreted :class:`MamdaniEngine` is the reference;
:class:`CompiledMamdaniEngine` is its bit-identical vectorized fast path.
"""

from .membership import (
    MembershipFunction,
    Trapezoidal,
    Triangular,
    paper_trapezoidal,
    paper_triangular,
)
from .variables import FuzzificationResult, LinguisticVariable, Term
from .rules import And, Antecedent, Consequent, FuzzyRule, Proposition, RuleBase
from .parser import RuleSyntaxError, parse_rule, parse_rules
from .defuzzification import (
    Bisector,
    Centroid,
    DefuzzificationError,
    Defuzzifier,
    MeanOfMaximum,
    defuzzifier_by_name,
)
from .inference import InferenceResult, MamdaniEngine, RuleActivation
from .compiled import CacheInfo, CompiledMamdaniEngine, CrispInference
from .controller import ENGINES, EngineSpec, FuzzyController

__all__ = [
    # membership
    "MembershipFunction",
    "Triangular",
    "Trapezoidal",
    "paper_triangular",
    "paper_trapezoidal",
    # variables
    "Term",
    "LinguisticVariable",
    "FuzzificationResult",
    # rules
    "Antecedent",
    "Proposition",
    "And",
    "Consequent",
    "FuzzyRule",
    "RuleBase",
    "parse_rule",
    "parse_rules",
    "RuleSyntaxError",
    # defuzzification
    "Defuzzifier",
    "Centroid",
    "Bisector",
    "MeanOfMaximum",
    "defuzzifier_by_name",
    "DefuzzificationError",
    # inference
    "MamdaniEngine",
    "InferenceResult",
    "RuleActivation",
    # compiled fast path
    "CompiledMamdaniEngine",
    "CrispInference",
    "CacheInfo",
    # controller
    "FuzzyController",
    "ENGINES",
    "EngineSpec",
]
