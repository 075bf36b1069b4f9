"""Boolean formula trees over body items, and DNF normalization.

The paper (section 2.1) allows arbitrary nesting of negation, conjunction
and disjunction in rule bodies and constraint sides, and prescribes the
standard translation: convert to Disjunctive Normal Form and split the rule
into one strict-Datalog rule per alternative.  This module implements that
translation.

Negation distributes by De Morgan; a negation reaching a relational atom
flips its ``negated`` flag, a negation reaching a comparison flips the
operator (``!(X < Y)`` becomes ``X >= Y``).  Negating a builtin call or an
aggregate is rejected — neither the paper nor LogicBlox gives those a
meaning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .errors import ParseError
from .terms import BuiltinCall, Comparison, Literal


@dataclass(frozen=True)
class And:
    parts: tuple

    def __repr__(self) -> str:
        return "(" + ", ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Or:
    parts: tuple

    def __repr__(self) -> str:
        return "(" + "; ".join(map(repr, self.parts)) + ")"


@dataclass(frozen=True)
class Not:
    part: "Formula"

    def __repr__(self) -> str:
        return f"!{self.part!r}"


Formula = Union[And, Or, Not, Literal, Comparison, BuiltinCall]

_NEGATED_COMPARISON = {
    "=": "!=", "!=": "=",
    "<": ">=", ">=": "<",
    ">": "<=", "<=": ">",
}


def conj(parts: Iterable[Formula]) -> Formula:
    """Build a conjunction, flattening nested ``And`` nodes."""
    flat: list[Formula] = []
    for part in parts:
        if isinstance(part, And):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return And(tuple(flat))


def disj(parts: Iterable[Formula]) -> Formula:
    """Build a disjunction, flattening nested ``Or`` nodes."""
    flat: list[Formula] = []
    for part in parts:
        if isinstance(part, Or):
            flat.extend(part.parts)
        else:
            flat.append(part)
    if len(flat) == 1:
        return flat[0]
    return Or(tuple(flat))


def push_negations(formula: Formula, negate: bool = False) -> Formula:
    """Drive negations down to the leaves (negation normal form)."""
    if isinstance(formula, And):
        parts = tuple(push_negations(p, negate) for p in formula.parts)
        return Or(parts) if negate else And(parts)
    if isinstance(formula, Or):
        parts = tuple(push_negations(p, negate) for p in formula.parts)
        return And(parts) if negate else Or(parts)
    if isinstance(formula, Not):
        return push_negations(formula.part, not negate)
    if not negate:
        return formula
    if isinstance(formula, Literal):
        return Literal(formula.atom, negated=not formula.negated,
                       span=formula.span)
    if isinstance(formula, Comparison):
        return Comparison(_NEGATED_COMPARISON[formula.op], formula.left,
                          formula.right, span=formula.span)
    raise ParseError(f"cannot negate {formula!r}")


def to_dnf(formula: Formula) -> tuple:
    """Normalize to DNF: a tuple of conjunctions (tuples of body items).

    The empty formula (used for declaration constraints) is represented by
    the caller, not here; this function requires a real formula.
    """
    if isinstance(formula, And) and all(
            isinstance(part, _LEAVES) for part in formula.parts):
        return (formula.parts,)   # a conjunction of leaves is its own DNF
    return _dnf(push_negations(formula))


_LEAVES = (Literal, Comparison, BuiltinCall)


def _dnf(formula: Formula) -> tuple:
    if isinstance(formula, _LEAVES):
        return ((formula,),)
    if isinstance(formula, And):
        # Cartesian product of the alternatives of each conjunct.
        alternatives: tuple = ((),)
        for part in formula.parts:
            part_alts = _dnf(part)
            alternatives = tuple(
                existing + extra
                for existing in alternatives
                for extra in part_alts
            )
        return alternatives
    if isinstance(formula, Or):
        result: list[tuple] = []
        for part in formula.parts:
            result.extend(_dnf(part))
        return tuple(result)
    raise ParseError(f"unexpected formula node {formula!r}")  # pragma: no cover
