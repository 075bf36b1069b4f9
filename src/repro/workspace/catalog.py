"""Predicate catalog: the one schema of a host.

A LogicBlox predicate definition (paper footnote 1) carries logical
attributes — name, arity — plus physical ones.  Our catalog records each
predicate's arity, its partition-key arity (``p[K](X,...)``) and the
argument types its declaration constraint names
(``access(P,O,M) -> principal(P), object(O), mode(M).``).

Every route that adds a row or a rule declares through it on first use:
``Workspace.assert_facts`` and ``Cluster.assert_fact``
(:meth:`Catalog.observe_fact`), a loaded fact, a rule as it activates, a
constraint as it installs.  The load gate observes a program into a copy
of its host's catalog, so R201 and R202 fire across loads, and
``typecheck`` and the cost model read the same entries.  Reads declare
nothing, a builtin's name is never a predicate, and a fact never fixes a
key arity (the first rule using the predicate does).  Arity clashes are
errors: they are almost always typos in policies.

The catalog is also where a write into a Figure 1 relation is refused
(:class:`ReflectedWriteError`): a fact or a rule head over
:data:`~repro.meta.model.ALL_META_PREDS`.  Reflection is the only writer
of those relations (``Workspace._reflect``, the ``predicate`` / ``pname``
mirror included), and it does not declare through here; a workspace
refuses a retraction there with the same error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

from ..datalog.database import Journal
from ..datalog.errors import WorkspaceError
from ..datalog.terms import Atom, BuiltinCall, Constraint, Literal, Rule, Variable
from ..meta.model import ALL_META_PREDS


class ReflectedWriteError(WorkspaceError):
    """A fact, a rule head or a retraction over a Figure 1 relation: only
    reflection writes those, so a row there always describes a rule that
    exists, and every rule that exists is described."""

    def __init__(self, pred: str) -> None:
        super().__init__(
            f"{pred!r} is a Figure 1 meta-model relation: only reflection "
            "writes it, not a fact, a rule head or a retraction")
        self.pred = pred


@dataclass(frozen=True)
class PredInfo:
    """Catalog entry for one predicate (replaced, never changed)."""

    name: str
    arity: int
    key_arity: Optional[int] = 0  # None: only facts have named it
    declared: bool = False
    arg_types: tuple = ()  # Optional[str] per position


def rule_atoms(rule: Rule) -> Iterator[Atom]:
    """The atoms of ``rule`` that name relations: heads, body literals."""
    yield from rule.heads
    for item in rule.body:
        if isinstance(item, Literal):
            yield item.atom


class Catalog:
    """Name → :class:`PredInfo`, with consistency checking.

    Inside a transaction of ``journal`` (the owning workspace's) every
    changed entry logs its prior value.  ``builtins`` (a registry with
    ``lookup``) names what is never catalogued.  ``added`` lists the
    names in the order they were first catalogued (a rollback takes its
    own back), so a reader that keeps its place in it sees only the new.
    """

    def __init__(self, journal: Optional[Journal] = None,
                 builtins=None) -> None:
        self._preds: dict[str, PredInfo] = {}
        self.added: list[str] = []
        self.journal = journal if journal is not None else Journal()
        self.builtins = builtins

    def copy(self) -> "Catalog":
        """An independent catalog with these entries and no journal."""
        copied = Catalog(builtins=self.builtins)
        copied._preds = dict(self._preds)
        copied.added = list(self.added)
        return copied

    def entries(self) -> dict:
        """Name → entry, a copy: everything a static check reads here."""
        return dict(self._preds)

    def matches(self, entries: dict) -> bool:
        """True when this catalog holds exactly ``entries``."""
        return self._preds == entries

    def _put(self, info: PredInfo) -> PredInfo:
        old = self._preds.get(info.name)
        self._preds[info.name] = info
        if old is None:
            self.added.append(info.name)
            self.journal.log(self.added.pop, -1)
            self.journal.log(self._preds.pop, info.name)
        else:
            self.journal.log(self._preds.update, {info.name: old})
        return info

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

    def observe_atom(self, atom: Atom, declared: bool = False,
                     fact: bool = False,
                     head: bool = False) -> Optional[PredInfo]:
        """Record (or check) a predicate's shape from one atom occurrence;
        None for a builtin's name.  A ``fact`` leaves the key arity open;
        a fact or a rule ``head`` over a Figure 1 relation is refused."""
        if (fact or head) and atom.pred in ALL_META_PREDS:
            raise ReflectedWriteError(atom.pred)
        if self.builtins is not None \
                and self.builtins.lookup(atom.pred) is not None:
            return None
        keys = len(atom.keys)
        info = self._preds.get(atom.pred)
        if info is None:
            return self._put(PredInfo(
                atom.pred, atom.arity, None if fact else keys, declared,
                (None,) * atom.arity))
        if info.arity != atom.arity:
            raise WorkspaceError(
                f"arity clash for {atom.pred!r}: declared {info.arity}, "
                f"used with {atom.arity}"
            )
        if info.key_arity is None and not fact:
            info = self._put(replace(info, key_arity=keys))
        elif keys and info.key_arity not in (None, keys):
            raise WorkspaceError(
                f"partition-key clash for {atom.pred!r}: declared "
                f"{info.key_arity} keys, used with {keys}"
            )
        if declared and not info.declared:
            info = self._put(replace(info, declared=True))
        return info

    def check_fact_arity(self, pred: str, fact: tuple) -> Optional[PredInfo]:
        """``pred``'s entry (None if unknown), once ``fact`` matches its
        arity; declares nothing (a read's check)."""
        info = self._preds.get(pred)
        if info is not None and info.arity != len(fact):
            raise WorkspaceError(
                f"fact {fact!r} has {len(fact)} columns but {pred!r} has "
                f"arity {info.arity}"
            )
        return info

    def observe_fact(self, pred: str, fact: tuple) -> None:
        """Check a written fact's arity; its first fact declares ``pred``."""
        if pred in ALL_META_PREDS:
            raise ReflectedWriteError(pred)
        if self.check_fact_arity(pred, fact) is None:
            self._put(PredInfo(pred, len(fact), None,
                               arg_types=(None,) * len(fact)))

    # -- harvesting from statements -------------------------------------------

    def observe_rule(self, rule: Rule) -> None:
        fact = rule.is_fact()
        heads = len(rule.heads)
        for index, atom in enumerate(rule_atoms(rule)):
            self.observe_atom(atom, fact=fact, head=index < heads)

    def observe_constraint(self, constraint: Constraint) -> None:
        """Harvest declarations; type-declaration shapes record arg types.

        A *type declaration* is a constraint whose LHS is a single atom
        with all-distinct variable arguments and whose RHS alternatives are
        conjunctions of unary atoms over those variables::

            access(P,O,M) -> principal(P), object(O), mode(M).

        A unary builtin (``int(N)``) is a type whether it is still a
        literal (as parsed) or already a builtin call (as compiled).
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
        if len(constraint.lhs) != 1 or len(constraint.lhs[0]) != 1 \
                or len(constraint.rhs) != 1:
            return
        item = constraint.lhs[0][0]
        if not isinstance(item, Literal) or item.negated:
            return
        atom = item.atom
        positions = {term.name: index
                     for index, term in enumerate(atom.all_args)
                     if isinstance(term, Variable)}
        if len(positions) != atom.arity:
            return  # a constant or a repeated variable: not a declaration
        info = self._preds.get(atom.pred)   # observed with the LHS
        if info is None:
            return
        types = list(info.arg_types)
        for rhs_item in constraint.rhs[0]:
            if isinstance(rhs_item, BuiltinCall):
                name, args = rhs_item.name, rhs_item.args
            elif isinstance(rhs_item, Literal) and not rhs_item.negated:
                name, args = rhs_item.atom.pred, rhs_item.atom.all_args
            else:
                continue
            if len(args) == 1 and isinstance(args[0], Variable) \
                    and args[0].name in positions:
                types[positions[args[0].name]] = name
        if tuple(types) != info.arg_types:
            self._put(replace(info, arg_types=tuple(types)))
