"""A small text DSL for fuzzy rules.

Grammar (case-insensitive keywords, whitespace-insensitive)::

    rule        := "IF" antecedent "THEN" consequents
    antecedent  := proposition ("AND" proposition)*
    proposition := IDENT "IS" IDENT
    consequents := consequent ("AND" consequent)*
    consequent  := IDENT "IS" IDENT

Rules are AND-only, as every FRB1/FRB2 rule is: ``OR``, ``NOT``,
parentheses and hedge words (``x is very a``) are syntax errors that name
the offending token and its position.

Example::

    IF S is Sl AND A is B1 AND D is N THEN Cv is Cv3

This is how the FRB1/FRB2 tables are materialised into
:class:`~repro.fuzzy.rules.FuzzyRule` objects, which keeps the rule tables in
the code byte-for-byte comparable with Tables 1 and 2 of the paper.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .rules import And, Antecedent, Consequent, FuzzyRule, Proposition

__all__ = ["parse_rule", "parse_rules", "RuleSyntaxError"]

_TOKEN_RE = re.compile(r"\s*(?P<word>[A-Za-z_][A-Za-z0-9_/\-]*)")

# "or" and "not" stay reserved so a retired connective fails at its own token.
_KEYWORDS = {"if", "then", "is", "and", "or", "not"}


class RuleSyntaxError(ValueError):
    """Raised when a rule string cannot be parsed."""


@dataclass(frozen=True)
class _Token:
    text: str
    position: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            remainder = text[pos:].lstrip()
            if not remainder:
                break
            raise RuleSyntaxError(
                f"unexpected character {remainder[0]!r} at position "
                f"{len(text) - len(remainder)} in rule: {text!r}"
            )
        tokens.append(_Token(match.group("word"), match.start("word")))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token helpers -------------------------------------------------
    def _peek(self) -> _Token | None:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise RuleSyntaxError(f"unexpected end of rule: {self.text!r}")
        self.index += 1
        return token

    def _expect_keyword(self, keyword: str) -> None:
        token = self._next()
        if token.text.lower() != keyword:
            raise RuleSyntaxError(
                f"expected {keyword.upper()!r} but found {token.text!r} "
                f"at position {token.position} in rule: {self.text!r}"
            )

    def _peek_keyword(self, keyword: str) -> bool:
        token = self._peek()
        return token is not None and token.text.lower() == keyword

    # -- grammar -------------------------------------------------------
    def parse_rule(self, weight: float, label: str) -> FuzzyRule:
        self._expect_keyword("if")
        antecedent = self._parse_antecedent()
        self._expect_keyword("then")
        consequents = self._parse_consequents()
        token = self._peek()
        if token is not None:
            raise RuleSyntaxError(
                f"unexpected trailing token {token.text!r} at position "
                f"{token.position} in rule: {self.text!r}"
            )
        return FuzzyRule(antecedent, tuple(consequents), weight=weight, label=label)

    def _parse_antecedent(self) -> Antecedent:
        operands = [self._parse_proposition()]
        while self._peek_keyword("and"):
            self._next()
            operands.append(self._parse_proposition())
        if len(operands) == 1:
            return operands[0]
        return And(tuple(operands))

    def _parse_proposition(self) -> Proposition:
        variable = self._parse_identifier("variable name")
        self._expect_keyword("is")
        return Proposition(variable, self._parse_identifier("term name"))

    def _parse_consequents(self) -> list[Consequent]:
        consequents = [self._parse_consequent()]
        while self._peek_keyword("and"):
            self._next()
            consequents.append(self._parse_consequent())
        return consequents

    def _parse_consequent(self) -> Consequent:
        variable = self._parse_identifier("output variable name")
        self._expect_keyword("is")
        term = self._parse_identifier("output term name")
        return Consequent(variable, term)

    def _parse_identifier(self, what: str) -> str:
        token = self._next()
        if token.text.lower() in _KEYWORDS:
            raise RuleSyntaxError(
                f"expected {what} but found {token.text!r} "
                f"at position {token.position} in rule: {self.text!r}"
            )
        return token.text


def parse_rule(text: str, weight: float = 1.0, label: str = "") -> FuzzyRule:
    """Parse a single ``IF ... THEN ...`` rule string into a :class:`FuzzyRule`."""
    stripped = text.strip()
    if not stripped:
        raise RuleSyntaxError("cannot parse an empty rule string")
    return _Parser(stripped).parse_rule(weight, label)


def parse_rules(lines: str | list[str]) -> list[FuzzyRule]:
    """Parse many rules from a multi-line string or list of strings.

    Blank lines and lines starting with ``#`` are ignored; rules are labelled
    with their ordinal position (``"0"``, ``"1"``, ...), matching the rule
    numbering of Tables 1 and 2.
    """
    if isinstance(lines, str):
        raw_lines = lines.splitlines()
    else:
        raw_lines = list(lines)
    rules: list[FuzzyRule] = []
    for raw in raw_lines:
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        rules.append(parse_rule(stripped, label=str(len(rules))))
    return rules
