"""The workspace: a LogicBlox-style database instance with active rules.

Paper section 3.1: *"A workspace in LogicBlox is essentially a database
instance which contains a set of predicate definitions and a set of active
rules (similar to continuous queries). … When predicate data is modified,
the active rules are incrementally recomputed."*

This class provides exactly that, plus the meta-programming loop of
section 3.3:

* facts are asserted/retracted transactionally; active rules are
  maintained incrementally (semi-naive insertion deltas, DRed deletions
  — of facts and of the rows a deactivated rule derived alike —
  selective stratum recompute for non-monotone strata);
* every rule is interned in the shared :class:`RuleRegistry` and reflected
  into the local meta-model relations (Figure 1) on demand: a relation is
  materialized once something here reads it — a rule body, a constraint,
  a query — and maintained from then on, and a rule is reified at that
  first read, not when it is met;
* a program text is installed from the registry's image of it
  (:mod:`repro.meta.image`): parsed once per system, its gate verdict
  reused under an equal catalog, and each ref compiled once for every
  workspace that activates it.  What an install leaves here — catalog
  entries, constraints, ``active`` rows, engine rules and their plans,
  ``last_check``, audit — is this workspace's own;
* after every pass of the one maintenance loop ``active`` is compared
  with the compiled rules both ways: a new ``active(R)`` activates R —
  code generation — and a rule whose fact went, by whatever route, is
  dropped with what it derived (bounded by ``max_activation_rounds``).
  The strata are kept, not rebuilt: an activated rule extends them
  (:func:`~repro.datalog.stratify.extend_strata`), a rule that would
  move a placed predicate and a drop restratify in full, and a rollback
  restores the strata it found;
* a base row is its supporters: one journaled store maps each to the
  label ``"$edb"`` if it is asserted and ``r<rid>`` per active ground
  fact stating it (the common said credential, which compiles to no
  rule).  A row gains and loses a label through one path each, and one
  left with none leaves ``db`` like a retracted fact;
* schema constraints and meta-constraints are checked at commit; a
  violation rolls the whole transaction back and raises
  :class:`ConstraintViolation`, leaving an audit record.  Everything a
  transaction can change logs to one undo journal (``Workspace.journal``),
  so a rollback costs what the transaction changed.  A
  :class:`Transaction` over several workspaces checks them all before
  any commits.

``me`` appearing in loaded source resolves to the owning principal before
interning, so rules-as-data are always context-independent.
"""

from __future__ import annotations

from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Collection, Iterable, Optional, Union

from ..datalog.builtins import BuiltinRegistry, standard_registry
from ..datalog.constraints import (
    TransactionDelta,
    check_constraint_safety,
    check_constraints,
)
from ..datalog.database import Database, Journal, Relation
from ..datalog.engine import (
    EngineRule,
    FactSet,
    ProvenanceStore,
    apply_rule,
    normalize_rules,
    propagate_insertions,
    reset_rows,
)
from ..datalog.errors import (
    ActivationLimitError,
    ConstraintViolation,
    ParseError,
    WorkspaceError,
)
from ..datalog.incremental import propagate_deletions
from ..datalog.parser import TRAILING_ATOM_INPUT, parse_atom, parse_statements
from ..datalog.runtime import EvalContext, eval_term, solve
from ..datalog.stratify import extend_strata, stratify
from ..datalog.terms import (
    Atom,
    BuiltinCall,
    Constant,
    Constraint,
    Literal,
    Quote,
    Rule,
    RuleRef,
    Statement,
    Variable,
)
from ..meta.model import ACTIVE_PRED, ALL_META_PREDS
from ..meta.image import ProgramImage
from ..meta.quote import compile_constraint, compile_rule, resolve_me, resolve_me_rule
from ..meta.registry import RuleRegistry
from .catalog import Catalog, ReflectedWriteError

#: the meta-model's mirror of the catalog: relation -> columns (the name)
_MIRROR = {"predicate": 1, "pname": 2}

#: an assertion's supporter label (provenance's name for it)
EDB = "$edb"


def _literal_preds(items: Iterable) -> list:
    return [item.atom.pred for item in items if isinstance(item, Literal)]


@dataclass
class AuditEvent:
    """One security-relevant occurrence (kept across rollbacks)."""

    kind: str
    detail: dict = field(default_factory=dict)

    def __repr__(self) -> str:
        return f"AuditEvent({self.kind}, {self.detail})"


class _EdbView(Mapping):
    """``Workspace.edb``: the asserted facts as value tuples, read-only.

    It materializes the asserted id rows of **one** predicate per access,
    so a reader of one predicate never pays for the meta facts of every
    reified rule.  A Figure 1 relation a reified rule populates is a key,
    and reading it materializes it in the workspace; iterating lists only
    the predicates holding base rows, so a walk never forces reflection.
    """

    def __init__(self, workspace: "Workspace") -> None:
        self._workspace = workspace

    def __getitem__(self, pred: str) -> set:
        self._workspace._read((pred,))
        base = self._workspace._base[pred]
        return set(map(self._workspace.db.interner.materialize_row,
                       [row for row, held in base.items() if EDB in held]))

    def __contains__(self, pred) -> bool:
        workspace = self._workspace
        if pred in ALL_META_PREDS and pred not in workspace._base:
            workspace._settle()
        return pred in workspace._base or pred in workspace._populated

    def __iter__(self):
        return iter(list(self._workspace._base))

    def __len__(self) -> int:
        return len(self._workspace._base)


class _Changes:
    """What one transaction changed in a workspace's base store and its
    reified refs, logged once, as it begins (as a :class:`Relation` logs
    its change list): per predicate, the rows that entered the store and
    the labels each other touched row held before, and the refs reified."""

    __slots__ = ("entered", "prior", "reified")

    def __init__(self) -> None:
        self.entered: dict[str, set] = {}
        self.prior: dict[str, dict] = {}
        self.reified: list[RuleRef] = []


class Workspace:
    """One principal's context: predicates, active rules, constraints."""

    def __init__(self, name: str, me: Optional[str] = None,
                 registry: Optional[RuleRegistry] = None,
                 builtins: Optional[BuiltinRegistry] = None,
                 enable_provenance: bool = False,
                 max_activation_rounds: int = 500) -> None:
        self.name = name
        self.me = me if me is not None else name
        self.registry = registry if registry is not None else RuleRegistry()
        self.builtins = builtins if builtins is not None else standard_registry().child()
        #: the undo log all that a transaction can change here shares.
        self.journal = Journal()
        self.db = Database(self.registry.terms, self.journal)
        #: the base rows: pred -> id row -> its supporters' labels, also its
        #: proofs: ``EDB`` if asserted, ``r<rid>`` per head of an active
        #: ground fact stating it (journaled: :meth:`_hold`, :meth:`_release`)
        self._base: dict[str, dict[tuple, tuple]] = {}
        #: what the open transaction changed in ``_base`` and ``_reified``
        self._changes = _Changes()
        #: the predicates a ground fact stated a row of: only there is a
        #: row held but not asserted
        self._stating: set[str] = set()
        self.catalog = Catalog(self.journal, self.builtins)
        self.constraints: list[Constraint] = []
        #: the constraints installed since the last commit, by instance:
        #: their first check sweeps them in full
        self._unchecked: list[Constraint] = []
        #: each installed constraint's ``(label, canonical text)``, kept
        #: from its install: what a duplicate is refused by
        self._constraint_keys: set[tuple] = set()
        self.audit: list[AuditEvent] = []
        #: diagnostics from the most recent :meth:`load` static check
        #: (errors raise instead; this holds the warnings/infos).
        self.last_check: list = []
        #: findings pragma-suppressed during that check — kept so a
        #: ``%# check: ignore[...]`` never silently hides a diagnostic.
        self.last_check_suppressed: list = []
        self.max_activation_rounds = max_activation_rounds
        self.provenance: Optional[ProvenanceStore] = (
            ProvenanceStore(self.db) if enable_provenance else None
        )
        self._activated: dict[RuleRef, list[EngineRule]] = {}
        #: the activated rules that call a volatile builtin, in activation
        #: order: kept as rules activate and drop (:meth:`_run_loop`)
        self._volatile: list[EngineRule] = []
        #: ``stratify(self._all_engine_rules())``, kept as rules activate
        #: (:func:`extend_strata`); None after a drop, until the next use
        self._strata: Optional[list] = []
        #: every ref reflected here; its meta facts are asserted only into
        #: the Figure 1 relations something here has read (``_demanded``)
        self._reified: set[RuleRef] = set()
        self._demanded: set[str] = set()
        #: the refs of ``_reified`` not yet reified while nothing here was
        #: demanded, in order, and how many of them the last commit's
        #: mirror sync saw (:meth:`_settle`)
        self._unsettled: list[RuleRef] = []
        self._synced = 0
        #: the Figure 1 relations the settled refs of ``_reified`` populate
        self._populated: set[str] = set()
        #: the names ``predicate`` / ``pname`` mirror from the catalog
        #: (:meth:`_sync_predicate_facts`)
        self._listed: set[str] = set()
        #: how much of ``catalog.added`` the mirror has read, and the
        #: relations ``_populated`` gained since it last read
        self._cataloged = 0
        self._unlisted: list[str] = []
        self._pending_template_refs: list[RuleRef] = []
        self._txn_depth = 0
        self._txn_fresh: FactSet = {}
        self._txn_deleted: FactSet = {}
        # Compiled constraint-check plans, keyed by the conjunction itself
        # (so they survive constraint-list changes and rollbacks) in the
        # FIFO-bounded band-keyed cache of ``datalog.runtime.banded_plan``,
        # and beside them each conjunction's planner analysis.
        self._constraint_plans: dict = {}
        self._constraint_analyses: dict = {}
        self.context = EvalContext(
            builtins=self.builtins,
            instantiate_quote=self._instantiate_quote,
            payload=self,
        )
        #: called with a commit's :class:`TransactionDelta` once its check
        #: has passed (a principal feeds its outbox from it)
        self.on_commit: Optional[Callable] = None
        #: the engine counters: the context's, where the engine counts
        self.stats = self.context.stats

    def own_builtins(self) -> BuiltinRegistry:
        """Take a builtins registry of this workspace's own: a child of
        the one it shares (a system's principals share one), so what is
        registered into it is seen here only — and so are the gate
        reports and compiled rules the system keeps for it."""
        self.builtins = self.builtins.child()
        self.catalog.builtins = self.context.builtins = self.builtins
        return self.builtins

    # ------------------------------------------------------------------
    # Public API: loading programs
    # ------------------------------------------------------------------

    def load(self, source: str) -> None:
        """Parse, statically check, and install a program.

        The static analyzer (:mod:`repro.analysis`) gates installation:
        error diagnostics reject the load by raising the exception type
        the engine itself would raise (``SafetyError``,
        ``StratificationError``, ``WorkspaceError``); warnings and infos
        land in :attr:`last_check` and, for warnings, the audit log.
        The text's parse and verdict come from the system's image of it
        (:class:`~repro.meta.image.ProgramImage`): a text another
        workspace installed is not parsed again, nor checked again
        against a catalog equal to the one it was checked against.
        """
        image = self.registry.image(source)
        self._static_check(image)
        with self.transaction():
            for statement in image.statements:
                self._install(statement)
        self.registry.keep(image)

    def _static_check(self, image: ProgramImage) -> None:
        from ..analysis.diagnostics import WARNING
        from ..analysis.pipeline import (
            GATE_PASSES,
            analyze_statements,
            raise_for_errors,
        )

        checked = image.report(self.builtins, self.catalog)
        if checked is None:
            suppressed: list = []
            report = analyze_statements(image.statements,
                                        source=image.source,
                                        builtins=self.builtins,
                                        catalog=self.catalog.copy(),
                                        passes=GATE_PASSES,
                                        collect_suppressed=suppressed)
            checked = image.keep_report(self.builtins, self.catalog, report,
                                        suppressed)
        report, suppressed = checked
        raise_for_errors(report)
        self.last_check = list(report)
        self.last_check_suppressed = list(suppressed)
        warnings = [d for d in report if d.severity == WARNING]
        if warnings:
            self.audit.append(AuditEvent("static_check_warnings", {
                "workspace": self.name,
                "warnings": [f"{d.location()}: [{d.code}] {d.message}"
                             for d in warnings],
            }))

    def _install(self, statement: Statement) -> None:
        if isinstance(statement, Constraint):
            self.add_constraint(statement)
        elif isinstance(statement, Rule):
            if statement.is_fact():
                for head in statement.heads:
                    self.assert_atom(head)
            else:
                self.add_rule(statement)
        else:  # pragma: no cover - parser yields only the two kinds
            raise WorkspaceError(f"cannot install {statement!r}")

    def add_rule(self, rule: Union[str, Rule]) -> RuleRef:
        """Intern and activate a rule in this context (every rule of a
        text, in one transaction; the last one's ref is returned)."""
        if isinstance(rule, str):
            image = self.registry.image(rule)
            if not image.statements:
                raise WorkspaceError("add_rule expects at least one rule")
            return self.add_rules(image)[-1]
        resolved = resolve_me_rule(rule, self.me)
        ref = self.registry.intern(resolved)
        with self.transaction():
            # refused here, where activation would only leave it inert
            self.catalog.observe_rule(resolved)
            self._write_rows(ACTIVE_PRED, {self.db.interner.intern_row(
                (ref,))})
        return ref

    def add_rules(self, image: ProgramImage) -> list[RuleRef]:
        """Intern and activate every rule of an image in one transaction,
        refusing any other statement; returns their refs."""
        refs = []
        with self.transaction():
            for statement in image.statements:
                if not isinstance(statement, Rule):
                    raise WorkspaceError("add_rule expects rules only")
                refs.append(self.add_rule(statement))
        self.registry.keep(image)
        return refs

    def add_constraint(self, constraint: Union[str, Constraint]) -> None:
        """Install a (meta-)constraint, checked on every commit that
        changes what it reads; an unsafe one is a :class:`SafetyError`
        (:func:`~repro.datalog.constraints.check_constraint_safety`)."""
        if isinstance(constraint, str):
            image = self.registry.image(constraint)
            with self.transaction():
                for statement in image.statements:
                    if not isinstance(statement, Constraint):
                        raise WorkspaceError(
                            "add_constraint expects constraints")
                    self.add_constraint(statement)
            self.registry.keep(image)
            return
        from ..datalog.pretty import canonical_constraint
        compiled = compile_constraint(constraint, self.me, self.builtins)
        check_constraint_safety(compiled, self.builtins)
        with self.transaction():
            self._read(_literal_preds(
                item for alternative in compiled.lhs + compiled.rhs
                for item in alternative))
            self.catalog.observe_constraint(compiled)
            key = (compiled.label, canonical_constraint(compiled))
            if key not in self._constraint_keys:
                self.constraints.append(compiled)
                self.journal.log(self.constraints.pop, -1)
                self._unchecked.append(compiled)
                self.journal.log(self._unchecked.pop, -1)
                self._constraint_keys.add(key)
                self.journal.log(self._constraint_keys.discard, key)

    # ------------------------------------------------------------------
    # Public API: facts
    # ------------------------------------------------------------------

    def assert_fact(self, pred: str, fact: tuple) -> None:
        self.assert_facts(pred, [fact])

    def assert_facts(self, pred: str, facts: Iterable[tuple]) -> None:
        intern_row = self.db.interner.intern_row
        facts = list(facts)
        with self.transaction():
            for fact in facts:
                self.catalog.observe_fact(pred, fact)
            self._write_rows(pred, set(map(intern_row, facts)))

    def assert_rows(self, pred: str, rows: Collection[tuple]) -> int:
        """Assert id rows, an import's checked entry: the catalog sees one
        row per arity (a wire block has one).  Returns how many rows are
        new to the database (neither asserted nor derived before)."""
        with self.transaction():
            for arity in set(map(len, rows)):
                row = next(row for row in rows if len(row) == arity)
                try:
                    self.catalog.observe_fact(pred, row)
                except WorkspaceError:
                    # refused again in values, so the refusal names them
                    self.catalog.observe_fact(
                        pred, self.db.interner.materialize_row(row))
                    raise
            return self._write_rows(
                pred, rows if isinstance(rows, set) else set(rows))

    def assert_atom(self, atom: Atom) -> None:
        """Assert a ground fact given as an atom (quotes become rule refs)."""
        resolved = resolve_me(atom, self.me)
        values = tuple(
            eval_term(term, {}, self.context) for term in resolved.all_args
        )
        with self.transaction():
            self.catalog.observe_atom(resolved, fact=True)
            self._write_rows(resolved.pred,
                             {self.db.interner.intern_row(values)})

    def retract_fact(self, pred: str, fact: tuple) -> None:
        self.retract_facts(pred, [fact])

    def retract_facts(self, pred: str, facts: Iterable[tuple]) -> None:
        with self.transaction():
            if pred in ALL_META_PREDS:
                raise ReflectedWriteError(pred)
            rows: set = set()
            for fact in map(tuple, facts):
                row = self.db.interner.row_of(fact)
                if row is None or row in rows \
                        or EDB not in self._base.get(pred, {}).get(row, ()):
                    raise WorkspaceError(
                        f"cannot retract {pred}{fact!r}: not an asserted fact"
                    )
                rows.add(row)
            # A row left with no supporter leaves ``db`` with its proofs:
            # one asserted in this very transaction has nothing derived
            # from it yet, any other is a pending deletion.
            fresh = self._txn_fresh.get(pred, set())
            for row in self._release(pred, rows, EDB):
                self.db.rel(pred).discard_row(row)
                if self.provenance is not None:
                    self.provenance.forget(pred, row)
                if row in fresh:
                    fresh.discard(row)
                else:
                    self._txn_deleted.setdefault(pred, set()).add(row)

    def deactivate_rule(self, ref: RuleRef) -> None:
        """Retract an API-activated rule (a derived activation re-derives):
        the rule leaves ``active`` and is dropped by :meth:`_run_loop`, as
        it would be by any other route out."""
        self.retract_fact(ACTIVE_PRED, (ref,))

    def remove_constraints(self, label: str) -> int:
        """Remove every installed constraint carrying ``label``."""
        with self.transaction():
            before = len(self.constraints)
            self._log_rebind("constraints")
            self.constraints = [
                c for c in self.constraints if c.label != label
            ]
            self._log_rebind("_constraint_keys")
            self._constraint_keys = {
                key for key in self._constraint_keys if key[0] != label
            }
            return before - len(self.constraints)

    # ------------------------------------------------------------------
    # Public API: queries
    # ------------------------------------------------------------------

    @property
    def edb(self) -> Mapping:
        """The asserted facts, ``pred -> set of value tuples`` (a read-only
        view; each access materializes that one predicate)."""
        return _EdbView(self)

    def relation(self, pred: str) -> Optional[Relation]:
        """``pred``'s maintained :class:`Relation` (None if no row was
        ever added), for a reader that probes it in place.  A Figure 1
        relation is materialized on its first read."""
        self._read((pred,))
        return self.db.get(pred)

    def tuples(self, pred: str) -> set:
        relation = self.relation(pred)
        return set(relation.tuples) if relation is not None else set()

    def query(self, source: str) -> list[dict]:
        """Solve a body formula, e.g. ``"access(P,O,M), !revoked(P)"``.

        Accepts anything a rule body accepts (negation, comparisons,
        quotes, disjunction).  Returns a list of variable bindings,
        anonymous variables omitted; duplicates are collapsed.  The body
        is planned like a rule's, so its constants are interned into the
        system's id space, as a :meth:`load` interns a rule's (a
        :meth:`point_query` interns nothing).
        """
        text = source.rstrip().rstrip(".")
        statements = parse_statements(f"queryresult() <- {text}.")
        results: list[dict] = []
        seen: set = set()
        for statement in statements:
            if not isinstance(statement, Rule):  # pragma: no cover
                raise WorkspaceError("query expects a body formula")
            compiled = compile_rule(statement, self.me, self.builtins)
            self._read(_literal_preds(compiled.body))
            for bindings in solve(tuple(compiled.body), self.db, self.context):
                row = {
                    name: value for name, value in bindings.items()
                    if not name.startswith("_")
                }
                key = tuple(sorted(row.items(), key=lambda kv: kv[0]))
                if key not in seen:
                    seen.add(key)
                    results.append(row)
        return results

    def holds(self, source: str) -> bool:
        return bool(self.query(source))

    def point_rows(self, query: Union[str, Atom]) -> Collection[tuple]:
        """The id rows (over ``registry.terms``) answering one atom query
        from the maintained fixpoint: the one read core of
        :meth:`point_query` and the serve plane, which encodes these rows
        without materializing a value.

        ``query`` is a single atom whose constant arguments are the bound
        ones (e.g. ``'access("carol","f1",M)'``).  Nothing is derived:
        every commit leaves ``self.db`` at fixpoint, so the answer is a
        read of the predicate's relation — all its rows for an unbound
        query, one row-membership test for a fully bound one, otherwise
        the index bucket of the bound columns.  A variable named twice
        (``X``, ``_X``; never a bare ``_``) keeps the rows whose columns
        hold one id.  Nothing is interned: a constant the system never
        saw matches nothing.  The rows may be the relation's own, so a
        caller reads them before the next commit and never mutates them.

        Inside an open transaction it reads what :meth:`tuples` reads: the
        facts asserted so far, not yet their consequences.  An atom whose
        arity disagrees with the catalog is a :class:`WorkspaceError`, and
        so is text that goes on past one atom (a trailing ``.`` aside); text
        that does not start with an atom is the parser's
        :class:`ParseError`.
        """
        if isinstance(query, str):
            try:
                atom = parse_atom(query.rstrip().rstrip("."))
            except ParseError as exc:
                if exc.base_message != TRAILING_ATOM_INPUT:
                    raise
                raise WorkspaceError(
                    "point_query expects a single atom") from None
        else:
            atom = query
        resolved = resolve_me(atom, self.me)
        args = resolved.all_args
        self.catalog.check_fact_arity(resolved.pred, args)
        relation = self.relation(resolved.pred)
        if relation is None:
            return ()
        positions = tuple(i for i, term in enumerate(args)
                          if isinstance(term, Constant))
        if not positions:
            rows = relation.rows
        else:
            key = relation.interner.row_of(
                tuple([args[i].value for i in positions]))
            if key is None:
                return ()
            if len(positions) == len(args):
                return (key,) if key in relation.rows else ()
            rows = relation.bucket_rows(
                positions, key[0] if len(positions) == 1 else key)
        first_of: dict = {}
        checks = [(i, first_of.setdefault(term.name, i))
                  for i, term in enumerate(args) if isinstance(term, Variable)]
        checks = [(i, first) for i, first in checks if i != first]
        if checks:
            rows = [row for row in rows
                    if all(row[i] == row[first] for i, first in checks)]
        return rows

    def point_query(self, query: Union[str, Atom]) -> set:
        """The set of fact tuples answering one atom query: the values of
        :meth:`point_rows`, which says what is read and what is refused.
        Like :meth:`tuples` it is a set of values, so rows that differ only
        in the type of equal values (``(1,)``, ``(True,)``) read back as
        one; :meth:`point_rows` keeps them apart."""
        return set(map(self.db.interner.materialize_row,
                       self.point_rows(query)))

    def active_refs(self) -> set:
        return set(self._activated)

    def rule_text(self, ref: RuleRef) -> str:
        return self.registry.canonical_text(ref)

    def typecheck(self) -> list:
        """Static type clashes of every active rule (section 3.2).

        Returns ``(rule_label, variable, types)`` triples — a variable
        used at positions declared with incompatible types — straight
        from the analyzer's inference (code ``R202``).  Warnings by
        design: the dynamic constraints remain authoritative.
        """
        from ..analysis.passes import infer_type_clashes

        issues = []
        for ref in self._activated:
            rule = compile_rule(self.registry.rule_of(ref), principal=None,
                                builtins=self.builtins)
            issues.extend(
                (rule.label or "<unlabeled>", variable, types)
                for variable, types in infer_type_clashes(rule, self.catalog))
        return issues

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def transaction(self):
        """Group mutations; fixpoint + constraint check happen at exit.

        Nested transactions flatten into the outermost one.  On a
        constraint violation (or any error) the workspace state rolls back
        to the transaction start; the audit log keeps the rejection event
        (a constraint violation, or an assert or retraction refused in a
        Figure 1 relation).  The one-member case of :class:`Transaction`.
        """
        return Transaction((self,))

    def _log_rebind(self, name: str) -> None:
        """Log the container ``self.<name>`` holds, about to be replaced:
        a rollback rebinds it, so its order comes back exactly."""
        self.journal.log(vars(self).update, {name: getattr(self, name)})

    def _commit(self) -> TransactionDelta:
        """Prepare: maintain, then check every constraint over what the
        transaction changed (a constraint installed in it, in full).
        Returns the change, for :meth:`_finish`."""
        self._run_loop()
        delta = TransactionDelta(self.db, self._unchecked)
        violations = check_constraints(
            self.constraints, self.db, self.context,
            plan_cache=self._constraint_plans,
            analyses=self._constraint_analyses, delta=delta)
        if violations:
            violation = violations[0]
            self.audit.append(AuditEvent("constraint_violation", {
                "workspace": self.name,
                "constraint": repr(violation.constraint),
                "bindings": dict(violation.bindings),
                "total": len(violations),
            }))
            raise ConstraintViolation(violation.constraint, violation.bindings)
        return delta

    def _finish(self, delta: TransactionDelta) -> None:
        """Hand a prepared change to :attr:`on_commit`, then commit."""
        if self.on_commit is not None:
            self.on_commit(delta)
        self._unchecked.clear()
        self.journal.commit()
        self._changes = _Changes()   # its record is nothing to undo now

    def _abort(self, refused: BaseException) -> None:
        """Roll the open transaction back; audit a refused Figure 1 write."""
        self.journal.rollback()
        self._pending_template_refs = []
        if isinstance(refused, ReflectedWriteError):
            self.audit.append(AuditEvent("meta_write_refused", {
                "workspace": self.name, "relation": refused.pred}))

    # ------------------------------------------------------------------
    # Internals: assertion, reification, activation
    # ------------------------------------------------------------------

    def _write_rows(self, pred: str, rows: set, fresh: bool = True) -> int:
        """The one way in: id ``rows`` are asserted and join ``db``; a
        newly asserted one reifies the rules it names and, if ``fresh``
        and new to ``db``, joins the pending insertions.  Returns how many
        rows are new to ``db``."""
        rows = self._hold(pred, rows, EDB)
        if not rows:
            return 0
        added = self.db.rel(pred).add_rows(rows)
        if fresh and added:
            pending = self._txn_fresh.get(pred)
            if pending is None:   # ``added`` is a set no one else holds
                self._txn_fresh[pred] = added
            else:
                pending.update(added)
        if pred not in ALL_META_PREDS:
            # a Figure 1 row is reflection's: what it names is reified
            self._reify_named(rows)
        return len(added)

    def _hold(self, pred: str, rows: set, label: str) -> set:
        """The one way a base row gains a supporter: each of ``rows`` takes
        ``label`` and its proof — an assertion once, a ground fact once per
        head stating the row.  Rows new to the store enter in bulk.
        Returns the rows that took the label, to read at once: the
        transaction's record may hold the set and grow it."""
        base = self._base.get(pred)
        if base is None:
            base = self._base[pred] = {}
            self.journal.log(self._base.pop, pred)
        new = rows.difference(base)
        if new:
            base.update(dict.fromkeys(new, (label,)))
            entered = self._changes.entered
            if pred in entered:
                entered[pred].update(new)
            else:   # ``new`` is no caller's to keep
                entered[pred] = new
        if label != EDB and pred not in self._stating:
            self._stating.add(pred)
            self.journal.log(self._stating.discard, pred)
        if len(new) < len(rows) and pred in self._stating:
            again = [row for row in rows - new
                     if label != EDB or EDB not in base[row]]
            for row in again:
                self._relabel(pred, row, base[row] + (label,))
            new = new.union(again)
        if self.provenance is not None:
            for row in new:
                self.provenance.record(pred, row, label, ())
        return new

    def _release(self, pred: str, rows: Iterable[tuple], label: str) -> list:
        """The one way a base row loses a supporter: each of ``rows`` gives
        up one ``label``, and its proof once no ``label`` is left.  Returns
        the rows left with no supporter, which the caller deletes."""
        base = self._base.get(pred, {})
        unheld = []
        for row in rows:
            held = base[row]
            at = held.index(label)
            rest = held[:at] + held[at + 1:]
            self._relabel(pred, row, rest)
            if not rest:
                unheld.append(row)
            elif self.provenance is not None and label not in rest:
                self.provenance.discard(pred, row, label)
        return unheld

    def _relabel(self, pred: str, row: tuple, held: tuple) -> None:
        """Set a held ``row``'s labels (none: unheld)."""
        base = self._base[pred]
        changes = self._changes
        if row not in changes.entered.get(pred, ()):
            changes.prior.setdefault(pred, {}).setdefault(row, base[row])
        if held:
            base[row] = held
        else:
            del base[row]

    def _begin(self) -> None:
        """Open a transaction on the journal, with its :class:`_Changes`
        and no pending insertion or deletion."""
        self.journal.begin()
        self._txn_fresh, self._txn_deleted = {}, {}
        self._changes = _Changes()
        self.journal.log(self._undo_changes, self._changes)

    def _undo_changes(self, changes: _Changes) -> None:
        """Roll back, last of all: the rows that entered leave, then each
        other touched row takes back its labels (a row that left and
        entered again among them)."""
        for pred, rows in changes.entered.items():
            base = self._base.get(pred, {})
            for row in rows:
                base.pop(row, None)
        for pred, prior in changes.prior.items():
            self._base[pred].update(prior)
        if changes.reified:
            gone = set(changes.reified)
            self._reified -= gone
            self._unsettled = [ref for ref in self._unsettled
                               if ref not in gone]

    def _reify_named(self, rows: Iterable[tuple]) -> None:
        """Reify every rule a term of ``rows`` names: one look per
        distinct term that can name one (the interner's ``named`` ids,
        intersected with the rows' terms without a Python loop over
        them), and none at all while every ref the registry holds is
        reified here already (``_reified`` only ever holds the
        registry's refs)."""
        if len(self._reified) == len(self.registry):
            return
        interner = self.db.interner
        values = interner.values
        for term in interner.named.intersection(chain.from_iterable(rows)):
            for ref in self.registry.refs_in_value(values[term]):
                self._ensure_reified(ref)

    def _ensure_reified(self, ref: RuleRef) -> None:
        """Reflect ``ref`` here with the refs it names.  While nothing
        here is demanded it waits in ``_unsettled`` and the registry
        reifies nothing (:meth:`_settle`); else its meta facts go into
        the Figure 1 relations already read (the rest wait for their
        first read, :meth:`_read`)."""
        if ref in self._reified:
            return
        self._reified.add(ref)
        self._changes.reified.append(ref)
        demanded = self._demanded
        if demanded:
            facts, relations, _nested = self.registry.reflection(ref)
            self._populate(relations)
        else:
            self._unsettled.append(ref)
        for other in self.registry.nested(ref):
            self._ensure_reified(other)
        if demanded and not demanded.isdisjoint(relations):
            self._reflect([meta for meta in facts if meta[0] in demanded],
                          fresh=True)

    def _populate(self, relations: frozenset, listed: bool = False) -> None:
        """Note the Figure 1 relations a reified ref populates: one new
        here is listed by the mirror's next sync, or at once."""
        grown = relations - self._populated
        if not grown:
            return
        self._populated |= grown
        self.journal.log(self._populated.difference_update, grown)
        if listed:
            new = grown - self._listed
            self._listed |= new
            self.journal.log(self._listed.difference_update, new)
        else:
            self.journal.log(self._unlisted.__delitem__,
                             slice(len(self._unlisted), None))
            self._unlisted.extend(grown)

    def _settle(self) -> None:
        """Reify the refs of ``_unsettled`` in order, as eager reflection
        did as each came: a relation one populates first is listed at
        once if the last mirror sync saw the ref (nothing reads the
        mirror while a ref waits, so no row is due)."""
        unsettled, synced = self._unsettled, self._synced
        if unsettled:
            self._log_rebind("_unsettled")
            self._log_rebind("_synced")
            self._unsettled, self._synced = [], 0
            for at, ref in enumerate(unsettled):
                self._populate(self.registry.reflection(ref)[1], at < synced)

    def _read(self, preds: Iterable[str]) -> None:
        """Materialize the Figure 1 relations among ``preds`` nothing here
        has read yet, inside the open transaction or one of their own.

        A relation's rows are the meta facts of every ref in ``_reified``
        (``predicate`` / ``pname`` also mirror :attr:`_listed`).  No rule
        or constraint reads a relation nothing has read, so no row is
        fresh, and a transaction of their own has nothing to maintain or
        check: it commits the rows alone, mirroring nothing new (a commit
        would, where eager reflection waits for the next one).  From then
        on each newly reified ref adds its rows as it comes.
        """
        wanted = [pred for pred in preds if pred in ALL_META_PREDS
                  and pred not in self._demanded]
        if not wanted:
            return
        wanted = sorted(set(wanted))
        journal = self.journal
        if journal.entries is not None:
            self._backfill(wanted)
            return
        self._begin()
        try:
            self._backfill(wanted)
        except BaseException:
            journal.rollback()
            raise
        journal.commit()
        self._changes = _Changes()

    def _backfill(self, preds: list) -> None:
        self._settle()
        wanted = set(preds)
        self._demanded |= wanted
        self.journal.log(self._demanded.difference_update, wanted)
        reflection = self.registry.reflection
        facts = [meta for ref in self._reified for meta in reflection(ref)[0]
                 if meta[0] in wanted]
        facts.extend((pred, (name,) * columns) for pred, columns
                     in _MIRROR.items() if pred in wanted
                     for name in self._listed)
        self._reflect(facts, fresh=False)

    def _reflect(self, facts: list, fresh: bool) -> None:
        """Assert ``(relation, fact)`` meta facts, a relation at a time
        (the refs they name are reified already)."""
        intern_row = self.db.interner.intern_row
        by_relation: dict = {}
        for pred, fact in facts:
            by_relation.setdefault(pred, set()).add(intern_row(fact))
        for pred, rows in by_relation.items():
            self._write_rows(pred, rows, fresh)

    def _instantiate_quote(self, quote: Quote, bindings: dict):
        def eval_with_context(term, local_bindings):
            return eval_term(term, local_bindings, self.context)

        value = self.registry.instantiate_template(quote, bindings,
                                                   eval_with_context)
        if isinstance(value, RuleRef):
            self._pending_template_refs.append(value)
        return value

    def _compile_ref(self, ref: RuleRef, fresh: FactSet) -> list[EngineRule]:
        """``ref``'s engine rules: none for a ground fact, whose rows take
        its label instead, nor for an inert rule."""
        rule = self.registry.rule_of(ref)
        ground = rule.is_ground_fact()
        compiled = rule if ground else self.registry.compiled(
            ref, self.builtins)
        try:
            self.catalog.observe_rule(compiled)
        except ReflectedWriteError as refused:
            # Said or generated code that would write the meta-model stays
            # inert: its ``active`` row, and a ``says`` that carried it,
            # still stand for patterns to read.
            self.audit.append(AuditEvent("meta_write_refused", {
                "workspace": self.name, "relation": refused.pred,
                "rule": self.registry.canonical_text(ref)}))
            return []
        if ground:
            # a new row joins ``fresh``; a shard holds only the rows it owns
            emit, label = self.context.remote_emit_rows, f"r{ref.rid}"
            for pred, row in self._stated(rule):
                if emit is not None and not emit(pred, {row}):
                    self.stats.remote_emissions += 1
                    continue
                self._hold(pred, {row}, label)
                if self.db.rel(pred).add_rows({row}):
                    fresh.setdefault(pred, set()).add(row)
            return []
        # before the rule's first application, which must see every row
        self._read(_literal_preds(compiled.body))
        engine_rules = normalize_rules([compiled])
        label = compiled.label or f"r{ref.rid}"
        for engine_rule in engine_rules:
            engine_rule.label = label
        return engine_rules

    def _stated(self, rule: Rule) -> Iterable[tuple]:
        """``(pred, id row)`` per head of a ground fact."""
        for head in rule.heads:
            yield head.pred, self.db.interner.intern_row(
                tuple([term.value for term in head.all_args]))

    def _all_engine_rules(self) -> list[EngineRule]:
        return [rule for rules in self._activated.values() for rule in rules]

    def _note_volatile(self, engine_rules: list[EngineRule]) -> None:
        """Keep the activating rules that call a volatile builtin: their
        dependencies are hidden from the delta machinery, so every pass
        re-runs them in full."""
        lookup = self.builtins.lookup
        for engine_rule in engine_rules:
            if any(isinstance(item, BuiltinCall)
                   and getattr(lookup(item.name), "volatile", False)
                   for item in engine_rule.body):
                self._volatile.append(engine_rule)
                self.journal.log(self._volatile.pop, -1)

    def _current_strata(self) -> list:
        if self._strata is None:
            self._set_strata(stratify(self._all_engine_rules()))
        return self._strata

    def _set_strata(self, strata: Optional[list]) -> None:
        self._log_rebind("_strata")
        self._strata = strata

    def _stratify_activated(self, new_rules: list) -> None:
        """Place rules just activated: in the strata kept so far when they
        extend them, else by a full :func:`stratify` (which refuses a
        negative cycle)."""
        strata = self._strata
        if strata is not None:
            strata = extend_strata(strata, new_rules)
        self._set_strata(strata if strata is not None
                         else stratify(self._all_engine_rules()))

    def _sync_predicate_facts(self) -> None:
        """Mirror catalog-defined predicates into the meta-model.

        Paper section 3.3: ``predicate`` "contains a unique entry for each
        predicate defined in the workspace (including predicate)".
        Reification covers predicates appearing in interned rules; this
        covers the ones only declarations or facts mention, plus the
        populated meta relations themselves ("including predicate"): the
        mirror's own two, ``active`` once it holds a row, and a Figure 1
        relation once a reified rule populates it.  A name joins
        :attr:`_listed` once and is asserted only while ``predicate`` /
        ``pname`` are materialized (:meth:`_read` backfills them from the
        list).  What is new is read from the catalog's journaled
        additions past :attr:`_cataloged` and from :attr:`_unlisted`, so
        a commit pays for the names it added, not for every name.
        """
        if self._synced != len(self._unsettled):
            self._log_rebind("_synced")
            self._synced = len(self._unsettled)
        new = set(_MIRROR) if not self._listed else set()
        added = self.catalog.added
        if len(added) > self._cataloged:
            new.update(added[self._cataloged:])
            self._log_rebind("_cataloged")
            self._cataloged = len(added)
        if self._unlisted:
            new.update(self._unlisted)
            self._log_rebind("_unlisted")
            self._unlisted = []
        if ACTIVE_PRED not in self._listed:
            relation = self.db.relations.get(ACTIVE_PRED)
            if relation is not None and len(relation):
                new.add(ACTIVE_PRED)
        new -= self._listed
        if not new:
            return
        self._listed |= new
        self.journal.log(self._listed.difference_update, new)
        self._reflect([(pred, (name,) * columns) for pred, columns
                       in _MIRROR.items() if pred in self._demanded
                       for name in new], fresh=True)

    def _run_loop(self) -> None:
        """The one maintenance loop.  A pass propagates the pending
        deletions (DRed), then compares ``_activated`` with the ``active``
        rows the transaction changed since the last comparison (the two
        agree when it begins): a rule that left, however it left, is
        dropped (:meth:`_drop`); with no deletions pending, a rule that
        entered is compiled and applied in full, and the pending
        insertions propagate."""
        self._sync_predicate_facts()
        deleted, self._txn_deleted = self._txn_deleted, {}
        fresh, self._txn_fresh = self._txn_fresh, {}
        # ``active`` rows changed and not yet compared, and how much of
        # the relation's change list they were read from
        moved: set = set()
        read = 0
        for _ in range(self.max_activation_rounds):
            if deleted:
                with self._aside(fresh):
                    propagate_deletions(
                        self._current_strata(), self.db, self.context,
                        deleted, edb_facts=self._base.get,
                        provenance=self.provenance)
            relation = self.db.get(ACTIVE_PRED)
            changes = relation.changes() if relation is not None else ()
            moved.update(changes[read:])
            read = len(changes)
            entering, gone = self._moves(moved, relation)
            if gone:
                # No activation before the cascade ends: a new rule's rows
                # would stand aside from the DRed that should delete them.
                deleted = self._drop(gone, fresh)
                continue
            moved = set()
            deleted = {}
            progressed = False

            new_rules: list[EngineRule] = []
            for ref in entering:
                self._ensure_reified(ref)
                engine_rules = self._compile_ref(ref, fresh)
                self._activated[ref] = engine_rules
                self.journal.log(self._activated.pop, ref)
                self._note_volatile(engine_rules)
                new_rules.extend(engine_rules)
                progressed = True
            if new_rules:
                # stratified now, not at the next propagation: a rule
                # that derives nothing yet still refuses its own commit
                self._stratify_activated(new_rules)
            for engine_rule in new_rules:
                if engine_rule.agg is None:
                    self._apply_in_full(engine_rule, fresh)
                else:   # a changed head recomputes its stratum
                    fresh.setdefault(engine_rule.head.pred, set())

            # Template-created rules: their meta facts are EDB.
            pending = self._pending_template_refs
            self._pending_template_refs = []
            for ref in pending:
                self._ensure_reified(ref)
                progressed = True
            for pred, facts in self._txn_fresh.items():
                fresh.setdefault(pred, set()).update(facts)
            self._txn_fresh = {}

            # Volatile-builtin rules (their dependencies are hidden from
            # the delta machinery) re-run in full each pass.
            for engine_rule in self._volatile:
                self._apply_in_full(engine_rule, fresh)

            if fresh:
                added = propagate_insertions(
                    self._current_strata(), self.db, self.context, fresh,
                    edb_facts=self._base.get, provenance=self.provenance,
                )
                progressed = True
                fresh = {}
                # derived rule references get reified
                self._reify_named(chain.from_iterable(added.values()))
                for pred, facts in self._txn_fresh.items():
                    fresh.setdefault(pred, set()).update(facts)
                self._txn_fresh = {}

            if not progressed and not fresh and not self._pending_template_refs:
                return
        raise ActivationLimitError(
            f"workspace {self.name!r} did not quiesce within "
            f"{self.max_activation_rounds} activation rounds"
        )

    def _moves(self, moved: set, relation: Optional[Relation]) -> tuple:
        """The rules entering ``active`` and leaving it, among the refs of
        its ``moved`` rows.  Several entering at once activate in the
        iteration order of the set of every active ref, so a program
        activates in one order however its rows arrived; ground facts
        (credentials) compile to no rule, so when few enter beside many
        held and all are ground, ``rid`` order spares the walk."""
        entering: set = set()
        gone: set = set()
        values = self.db.interner.values
        activated = self._activated
        for row in moved:
            ref = values[row[0]] if row else None
            if not isinstance(ref, RuleRef):
                continue
            if row in relation.rows:
                if ref not in activated:
                    entering.add(ref)
            elif ref in activated:
                gone.add(ref)
        if len(entering) > 1:
            if 2 * len(entering) < len(relation.rows) and all(
                    self.registry.rule_of(ref).is_ground_fact()
                    for ref in entering):
                return sorted(entering, key=lambda ref: ref.rid), gone
            entering = [ref for ref in {values[row[0]] for row in relation.rows
                                        if row} if ref in entering]
        return entering, gone

    def _apply_in_full(self, engine_rule: EngineRule, fresh: FactSet) -> None:
        """Apply one rule over the whole database; what it adds joins
        ``fresh`` (whose sets this loop owns).  Its rows pass the
        context's delta-exchange hook first, as a stratum's do: a shard
        keeps only the rows it owns."""
        pred = engine_rule.head.pred
        rows = apply_rule(engine_rule, self.db, self.context,
                          provenance=self.provenance)
        emit = self.context.remote_emit_rows
        if emit is not None and rows:
            kept = emit(pred, rows)
            self.stats.remote_emissions += len(rows) - len(kept)
            rows = kept
        new_rows = self.db.rel(pred).add_rows(rows)
        if new_rows:
            self.stats.new_facts += len(new_rows)
            fresh.setdefault(pred, set()).update(new_rows)

    @contextmanager
    def _aside(self, fresh: FactSet):
        """Take ``fresh`` (nothing is derived from it yet) out of ``db``:
        under a negation a fresh row would hide a row a dropped rule had
        derived, and DRed would record proofs from it."""
        for pred, rows in fresh.items():
            reset_rows(self.db, pred, rows, ())
        yield
        for pred, rows in fresh.items():
            self.db.rel(pred).add_rows(rows)

    def _drop(self, gone: set, fresh: FactSet) -> FactSet:
        """Drop the rules of ``gone`` and return the next pass's
        deletions: the rows they derive in one step (an aggregate's whole
        head) and the rows only a dropped ground fact supported, taken out
        of ``db`` — a base one stays, re-examined for its proofs' sake —
        for the remaining rules to re-derive.  Only a dropped engine rule
        restratifies and rebinds ``_activated`` to a copy (:func:`stratify`
        reads its order); a ref with none is popped, put back last."""
        activated = self._activated
        if any(activated[ref] for ref in gone):
            self._log_rebind("_activated")
            activated = self._activated = dict(activated)
        popped = {ref: activated.pop(ref) for ref in gone}
        self.journal.log(activated.update, popped)
        dropped = [rule for rules in popped.values() for rule in rules]
        if dropped:
            self._set_strata(None)
        dropped_ids = {id(rule) for rule in dropped}
        kept = [rule for rule in self._volatile
                if id(rule) not in dropped_ids]
        if len(kept) != len(self._volatile):
            self._log_rebind("_volatile")
            self._volatile = kept
        deleted: FactSet = {}
        for ref in gone:
            # a ground fact's label leaves the rows it states (none if it
            # is inert, nor a row another shard owns)
            rule, label = self.registry.rule_of(ref), f"r{ref.rid}"
            stated = self._stated(rule) if rule.is_ground_fact() else ()
            for pred, row in stated:
                if label in self._base.get(pred, {}).get(row, ()):
                    for unheld in self._release(pred, (row,), label):
                        deleted.setdefault(pred, set()).add(unheld)
        with self._aside(fresh):
            # Every dropped rule first: one's rows may support another's.
            for rule in dropped:
                pred = rule.head.pred
                rows = self.db.rel(pred).rows
                if rule.agg is None:
                    rows = rows & apply_rule(rule, self.db, self.context,
                                             known_rows=())
                if rows:
                    deleted.setdefault(pred, set()).update(rows)
            for pred, rows in deleted.items():
                reset_rows(self.db, pred, rows, self._base.get(pred, {}),
                           self.provenance)
        return deleted

    # ------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Workspace({self.name!r}, {self.db.total_facts()} facts, "
                f"{len(self._activated)} active rules)")


class Transaction:
    """One transaction over ``workspaces``: the body's writes to them
    commit together or not at all.

    A member with a transaction open takes the body into it (a nested
    transaction flattens into the outermost one); each other one opens
    its own.  At exit every member opened here prepares — maintains and
    checks (:meth:`Workspace._commit`) — and only once all have does
    each finish (:meth:`Workspace._finish`).  Any error before that rolls
    every one of them back; the audit keeps the rejection event.
    """

    __slots__ = ("workspaces", "opened")

    def __init__(self, workspaces: Collection[Workspace]) -> None:
        self.workspaces = workspaces
        self.opened: list[Workspace] = []

    def __enter__(self) -> None:
        for workspace in self.workspaces:
            if not workspace._txn_depth:
                workspace._begin()
                self.opened.append(workspace)
            workspace._txn_depth += 1

    def __exit__(self, kind, refused, traceback) -> None:
        for workspace in self.workspaces:
            workspace._txn_depth -= 1
        if kind is not None:
            self._abort(refused)
            return
        try:
            prepared = [(workspace, workspace._commit())
                        for workspace in self.opened]
            for workspace, delta in prepared:
                workspace._finish(delta)
        except BaseException as failure:
            self._abort(failure)
            raise

    def _abort(self, refused: BaseException) -> None:
        # Interrupts and exits too: a transaction left open would make
        # every later one nested, never committed and never checked.
        for workspace in self.opened:
            if workspace.journal.entries is not None:
                workspace._abort(refused)
