"""Predicate catalog: declarations, arities, partition keys, types.

A LogicBlox predicate definition (paper footnote 1) carries logical
attributes — name, arity — plus physical ones.  Our catalog records:

* arity (checked on every assertion and rule head),
* partition-key arity for curried predicates ``p[K](X,...)``,
* declared argument types (unary predicates, from declaration constraints
  like ``access(P,O,M) -> principal(P), object(O), mode(M).``), feeding
  the static type checker.

Predicates auto-declare on first use; an explicit declaration constraint
refines them.  Arity clashes are errors — they are almost always typos in
policies, and LogicBlox's static checking would reject them too.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from ..datalog.database import Journal
from ..datalog.errors import WorkspaceError
from ..datalog.terms import Atom, Constraint, Literal, Rule, Variable

#: Builtin unary "type" predicates that are always satisfied dynamically.
PRIMITIVE_TYPES = frozenset({"int", "string", "float", "bool", "any"})


@dataclass
class PredInfo:
    """Catalog entry for one predicate."""

    name: str
    arity: int
    key_arity: int = 0
    declared: bool = False
    arg_types: list = field(default_factory=list)  # Optional[str] per position


class Catalog:
    """Name → :class:`PredInfo`, with consistency checking.

    Inside a transaction of ``journal`` (the owning workspace's) a new
    entry logs its removal and a changed one its prior value.
    """

    def __init__(self, journal: Optional[Journal] = None) -> None:
        self._preds: dict[str, PredInfo] = {}
        self.journal = journal if journal is not None else Journal()

    def _new(self, info: PredInfo) -> PredInfo:
        self._preds[info.name] = info
        self.journal.log(self._preds.pop, info.name)
        return info

    def _log_value(self, info: PredInfo) -> None:
        """Call before changing ``info``: a rollback puts this copy back."""
        if self.journal.entries is not None:
            self.journal.log(self._preds.update, {
                info.name: replace(info, arg_types=list(info.arg_types))})

    def get(self, name: str) -> Optional[PredInfo]:
        return self._preds.get(name)

    def info(self, name: str) -> PredInfo:
        info = self._preds.get(name)
        if info is None:
            raise WorkspaceError(f"unknown predicate {name!r}")
        return info

    def __contains__(self, name: str) -> bool:
        return name in self._preds

    def names(self) -> list[str]:
        return sorted(self._preds)

    def observe_atom(self, atom: Atom, declared: bool = False) -> PredInfo:
        """Record (or check) a predicate's shape from one atom occurrence."""
        info = self._preds.get(atom.pred)
        if info is None:
            return self._new(PredInfo(
                name=atom.pred,
                arity=atom.arity,
                key_arity=len(atom.keys),
                declared=declared,
                arg_types=[None] * atom.arity,
            ))
        if info.arity != atom.arity:
            raise WorkspaceError(
                f"arity clash for {atom.pred!r}: declared {info.arity}, "
                f"used with {atom.arity}"
            )
        if atom.keys and info.key_arity != len(atom.keys):
            raise WorkspaceError(
                f"partition-key clash for {atom.pred!r}: declared "
                f"{info.key_arity} keys, used with {len(atom.keys)}"
            )
        if declared and not info.declared:
            self._log_value(info)
            info.declared = True
        return info

    def declare_tuple_pred(self, name: str, arity: int, key_arity: int = 0) -> PredInfo:
        """Programmatic declaration (used by machinery installers)."""
        info = self._preds.get(name)
        if info is None:
            return self._new(PredInfo(name, arity, key_arity, declared=True,
                                      arg_types=[None] * arity))
        if info.arity != arity or info.key_arity != key_arity:
            raise WorkspaceError(
                f"conflicting declaration for {name!r}: have "
                f"({info.arity},{info.key_arity}), asked ({arity},{key_arity})"
            )
        if not info.declared:
            self._log_value(info)
            info.declared = True
        return info

    # -- harvesting from statements -------------------------------------------

    def observe_rule(self, rule: Rule) -> None:
        for head in rule.heads:
            self.observe_atom(head)
        for item in rule.body:
            if isinstance(item, Literal):
                self.observe_atom(item.atom)

    def observe_constraint(self, constraint: Constraint) -> None:
        """Harvest declarations; type-declaration shapes record arg types.

        A *type declaration* is a constraint whose LHS is a single atom
        with all-distinct variable arguments and whose RHS alternatives are
        conjunctions of unary atoms over those variables::

            access(P,O,M) -> principal(P), object(O), mode(M).
        """
        for alternative in constraint.lhs:
            for item in alternative:
                if isinstance(item, Literal) and not item.negated:
                    self.observe_atom(item.atom, declared=True)
        for alternative in constraint.rhs:
            for item in alternative:
                if isinstance(item, Literal) and not item.negated:
                    self.observe_atom(item.atom)
        self._harvest_types(constraint)

    def _harvest_types(self, constraint: Constraint) -> None:
        if len(constraint.lhs) != 1 or len(constraint.lhs[0]) != 1:
            return
        item = constraint.lhs[0][0]
        if not isinstance(item, Literal) or item.negated:
            return
        atom = item.atom
        var_positions: dict[str, int] = {}
        for index, term in enumerate(atom.all_args):
            if not isinstance(term, Variable):
                return
            if term.name in var_positions:
                return
            var_positions[term.name] = index
        if len(constraint.rhs) != 1:
            return
        info = self.observe_atom(atom, declared=True)
        for rhs_item in constraint.rhs[0]:
            if not isinstance(rhs_item, Literal) or rhs_item.negated:
                continue
            rhs_atom = rhs_item.atom
            if rhs_atom.arity != 1:
                continue
            term = rhs_atom.all_args[0]
            if isinstance(term, Variable) and term.name in var_positions:
                position = var_positions[term.name]
                if info.arg_types[position] != rhs_atom.pred:
                    self._log_value(info)
                    info.arg_types[position] = rhs_atom.pred

    def check_fact_arity(self, pred: str, fact: tuple) -> None:
        info = self._preds.get(pred)
        if info is not None and info.arity != len(fact):
            raise WorkspaceError(
                f"fact {fact!r} has {len(fact)} columns but {pred!r} has "
                f"arity {info.arity}"
            )


def harvest_catalog(statements: Iterable, catalog: Optional[Catalog] = None) -> Catalog:
    """Build (or extend) a catalog from parsed statements."""
    catalog = catalog or Catalog()
    for statement in statements:
        if isinstance(statement, Rule):
            catalog.observe_rule(statement)
        elif isinstance(statement, Constraint):
            catalog.observe_constraint(statement)
    return catalog
