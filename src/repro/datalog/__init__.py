"""The Datalog substrate: AST, parser, evaluators (pure logic, no state)."""

from .database import Database, Relation
from .engine import EngineRule, ProvenanceStore, evaluate, normalize_rules
from .parser import parse_atom, parse_program, parse_rule, parse_statements, parse_term
from .pretty import canonical_rule, format_statement
from .runtime import EvalContext, solve
from .stats import EvalStats, StratumStats
from .stratify import stratify
from .terms import (
    Atom,
    Constant,
    Constraint,
    Literal,
    Program,
    Quote,
    Rule,
    RuleRef,
    Variable,
)

__all__ = [
    "Atom", "Constant", "Constraint", "Database", "EngineRule", "EvalContext",
    "EvalStats", "Literal", "Program", "ProvenanceStore", "Quote", "Relation",
    "StratumStats",
    "Rule", "RuleRef", "Variable", "canonical_rule", "evaluate",
    "format_statement", "normalize_rules", "parse_atom",
    "parse_program", "parse_rule", "parse_statements", "parse_term", "solve",
    "stratify",
]
