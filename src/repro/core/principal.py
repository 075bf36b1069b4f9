"""A principal: one trust-management context plus its keys and location.

Paper section 2.2: *"A principal in Binder refers to a component in a
distributed environment.  Each principal has its own local context where
its rules reside."*  Here a principal owns:

* a :class:`repro.workspace.workspace.Workspace` (the LogicBlox context),
  preloaded with the says machinery and the system's authentication
  scheme;
* a :class:`repro.crypto.keystore.KeyStore` holding its private material;
* a home *node* in the simulated network (several principals may share
  one node — location transparency, paper section 3.5);
* an :class:`~repro.cluster.node.Outbox` its commits feed: a keyed row
  for another principal is queued at the node its ``predNode`` relation
  names for the row's key as it commits, and again when a ``predNode``
  change names the key (paper section 3.5: the ``loc`` table decides
  where facts go); a row no node takes waits, unread by any drain.

The high-level verbs — :meth:`says`, :meth:`delegate`, :meth:`grant_read`
— are thin sugar over asserting the corresponding facts; everything
observable happens through the declarative machinery.
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from ..cluster.node import Outbox
from ..datalog.terms import PredPartition, Rule, RuleRef
from ..meta.quote import resolve_me_rule
from ..workspace.workspace import Workspace


class Principal:
    """One named participant with its own workspace and keys."""

    def __init__(self, system, name: str, node: str) -> None:
        from ..crypto.keystore import KeyStore  # local import: layering

        self.system = system
        self.name = name
        self.node = node
        self.workspace = Workspace(
            name,
            registry=system.registry,
            builtins=system.builtins,
            enable_provenance=system.enable_provenance,
        )
        self.keystore = KeyStore(system.journal)
        # Crypto builtins reach the keystore through the workspace, which
        # is the evaluation-context payload.
        self.workspace.keystore = self.keystore
        #: refs of scheme machinery rules, for teardown on reconfiguration
        self.scheme_rule_refs: list[RuleRef] = []
        self.scheme_constraint_labels: list[str] = []
        self.auth_scheme: Optional[str] = None
        #: what its commits added for others, by (node, principal):
        #: shipped once per scheme epoch, a workspace keeping its rows
        self.outbox = Outbox()
        self.workspace.on_commit = self._ship

    def _ship(self, delta) -> None:
        """Queue again the rows of each partition a ``predNode`` change
        names, then the keyed rows a commit added for another principal,
        and unqueue those it took back."""
        terms = self.system.registry.terms
        for partition in {terms.values[row[0]] for row in (
                delta.inserted("predNode") | delta.deleted("predNode"))}:
            key = isinstance(partition, PredPartition) and terms.row_of(partition.keys)
            if key:
                self._requeue(partition.pred, lambda _, row: row[:len(key)] == key)
        for pred in self._keyed(delta.touched):
            self.outbox.discard(pred, delta.deleted(pred))
            self._queue(pred, delta.inserted(pred))

    def route(self) -> None:
        """Queue every held keyed row addressed to another principal that
        it has not had."""
        relations = self.workspace.db.relations
        for pred in self._keyed(list(relations)):
            self._queue(pred, relations[pred].rows)

    def release(self, name: str) -> None:
        """Queue the rows waiting for ``name``, a principal now, again."""
        for pred in list(self.outbox.queue.get((None, name), ())):
            self._requeue(pred, lambda dst, _: dst == (None, name))

    def _keyed(self, preds) -> list:
        """The keyed predicates of ``preds``."""
        catalog = self.workspace.catalog
        return [pred for pred in preds if getattr(catalog.get(pred), "key_arity", 0)]

    def _requeue(self, pred: str, taken) -> None:
        """Unqueue the rows of ``pred`` that ``taken(dst, row)`` names
        and queue them again."""
        rows = {row for dst, per_pred in self.outbox.queue.items()
                for row in per_pred.get(pred, ()) if taken(dst, row)}
        if rows:
            self.outbox.discard(pred, rows)
            self._queue(pred, rows)

    def _queue(self, pred: str, rows: Iterable[tuple]) -> None:
        """Queue the ``rows`` of ``pred`` for other principals at the node
        owning their key, one :meth:`owner` read per key: at no node while
        no ``predNode`` row places it or it names no principal."""
        terms = self.system.registry.terms
        width, me = self.workspace.catalog.get(pred).key_arity, terms.id_of(self.name)
        by_key: dict[tuple, set] = {}
        for row in rows:
            if row[0] != me:
                by_key.setdefault(row[:width], set()).add(row)
        for key, keyed in by_key.items():
            key = tuple([terms.values[i] for i in key])
            node = self.owner(pred, key) if key[0] in self.system.principals else None
            self.outbox.put(node, pred, keyed, key[0])

    def owner(self, pred: str, key: tuple) -> Optional[str]:
        """The node this workspace's ``predNode`` relation places
        partition ``pred[key]`` on (paper section 3.5): the smallest node
        name of its rows, ignoring rows of any other shape; None if no
        row places it.  One index probe."""
        relation = self.workspace.db.get("predNode")
        terms = self.system.registry.terms
        partition = terms.id_of(PredPartition(pred, key))
        if relation is None or partition is None:
            return None
        nodes = [terms.values[row[1]]
                 for row in relation.bucket_rows((0,), partition)]
        return min([node for node in nodes if isinstance(node, str)],
                   default=None)

    # ------------------------------------------------------------------
    # Policy loading (delegates to the workspace)
    # ------------------------------------------------------------------

    def load(self, source: str) -> None:
        """Load a program (facts, rules, constraints) into this context."""
        self.workspace.load(source)

    def add_rule(self, rule: Union[str, Rule]) -> RuleRef:
        return self.workspace.add_rule(rule)

    def add_constraint(self, constraint: str) -> None:
        self.workspace.add_constraint(constraint)

    def assert_fact(self, pred: str, fact: tuple) -> None:
        self.workspace.assert_fact(pred, fact)

    def assert_facts(self, pred: str, facts: Iterable[tuple]) -> None:
        self.workspace.assert_facts(pred, facts)

    def retract_fact(self, pred: str, fact: tuple) -> None:
        self.workspace.retract_fact(pred, fact)

    def tuples(self, pred: str) -> set:
        return self.workspace.tuples(pred)

    def query(self, source: str) -> list[dict]:
        return self.workspace.query(source)

    def holds(self, source: str) -> bool:
        return self.workspace.holds(source)

    # ------------------------------------------------------------------
    # Trust verbs
    # ------------------------------------------------------------------

    def says(self, listener: Union["Principal", str],
             statement: Union[str, Rule, RuleRef]) -> RuleRef:
        """Say a rule (or fact) to another principal.

        ``me`` inside the statement resolves to *this* principal (the
        speaker).  The statement is interned and a ``says(me,listener,R)``
        fact asserted; the configured scheme's exp1 rule signs and exports
        it, and the System's next :meth:`run` delivers it.
        """
        listener_name = listener.name if isinstance(listener, Principal) else listener
        ref = self.intern(statement)
        self.workspace.assert_fact("says", (self.name, listener_name, ref))
        return ref

    def intern(self, statement: Union[str, Rule, RuleRef]) -> RuleRef:
        """Intern a statement in the shared registry (resolving ``me``)."""
        if isinstance(statement, RuleRef):
            return statement
        if isinstance(statement, str):
            return self.system.registry.intern_text(statement, me=self.name)
        resolved = resolve_me_rule(statement, self.name)
        return self.system.registry.intern(resolved)

    def delegate(self, to: Union["Principal", str], pred: str,
                 depth: Optional[int] = None) -> None:
        """Delegate deriving ``pred`` to another principal (section 4.2).

        Requires the delegation machinery
        (:func:`repro.core.delegation.install_delegation`; enabled via
        ``LBTrustSystem(delegation=True)``).  ``depth`` adds a
        delegation-depth restriction (dd0-dd4): the delegatee may extend
        the chain by at most ``depth`` further hops — ``depth=0`` means it
        may not re-delegate at all.  The predicate must be declared in
        this context (del0's type constraint).  The delegation and its
        depth commit together: a depth dd0 refuses leaves no delegation.
        """
        to_name = to.name if isinstance(to, Principal) else to
        with self.workspace.transaction():
            self.workspace.assert_fact("delegates", (self.name, to_name, pred))
            if depth is not None:
                self.workspace.assert_fact(
                    "delDepth", (self.name, to_name, pred, depth))

    def grant_read(self, who: Union["Principal", str], pred: str) -> None:
        who_name = who.name if isinstance(who, Principal) else who
        self.workspace.assert_fact("mayRead", (who_name, pred))

    def grant_write(self, who: Union["Principal", str], pred: str) -> None:
        who_name = who.name if isinstance(who, Principal) else who
        self.workspace.assert_fact("mayWrite", (who_name, pred))

    # ------------------------------------------------------------------

    @property
    def audit(self) -> list:
        return self.workspace.audit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Principal({self.name!r} @ {self.node!r}, auth={self.auth_scheme})"
