"""Schema-constraint checking (paper section 3.2).

A constraint ``F1 -> F2.`` means ``fail() <- F1, !(F2)``: evaluation fails
whenever some assignment satisfies F1 but no extension of it satisfies F2.
Both sides are stored in DNF.  RHS variables not bound by the LHS are
existentially quantified — exactly what rules like exp3 need::

    says(U,me,R) -> export[me](U,R,S), rsapubkey(U,K), rsaverify(R,S,K).

(the witness S, K may be any signature/key pair that verifies).

The checker solves each LHS alternative into id-row witnesses with the
shared join core, then tests each RHS alternative against every open
witness in one prepared walk (:func:`repro.datalog.runtime.unsatisfied`),
so builtins and negation work on both sides.  Only violations become
bindings, returned (not raised) — the workspace decides whether to abort
a transaction or reject an imported message.

**A commit checks what it changed.**  Given the open transaction's
:class:`TransactionDelta` — per relation, the rows it inserted and
deleted, net, read from the relation's change list only when a
delta-checked constraint reads that relation — :func:`check_constraints`
does not visit a constraint none of whose relations changed.  For one
that did, each LHS alternative is solved once per positive literal with
inserted rows, that literal pinned to them (the semi-naive delta plans
rules use): a witness that held before the transaction was satisfied
then, so only a witness that uses an inserted row can be a new
violation.  A quoted pattern's Figure 1 literals are never pinned; its
carrier is, to its own inserted rows and every row carrying a rule newly
reflected into ``rule`` — a rule's quoted patterns fire the same way
(:func:`repro.datalog.engine.pattern_groups`).  A pinned delta that is
the whole relation runs the plain plan.  A constraint is swept in full —
every witness, as without a delta — when that argument does not hold:

* its first check after it is installed
  (:attr:`TransactionDelta.unchecked`);
* it calls a volatile builtin, which reads state outside its arguments;
* a relation negated on its left lost rows (a witness may appear that
  uses no inserted row);
* a relation positive on its right lost rows, or one negated on its
  right gained rows (a witness that held may have lost its extension).

Every other builtin is a function of its arguments.  ``hmacverify`` and
``rsaverify`` read a keystore that binds each key id once
(:mod:`repro.crypto.keystore`), so a credential verified when it entered
is not verified again on every later commit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .builtins import BuiltinRegistry
from .database import Database, Relation
from .engine import carrier_delta, pattern_groups
from .errors import SafetyError
from .runtime import (
    Bindings,
    BodyAnalysis,
    EvalContext,
    FlatPlan,
    banded_plan,
    bindable_vars,
    body_relations,
    order_body,
    run_flat,
    unsatisfied,
)
from .terms import Constraint, Literal


@dataclass
class Violation:
    """One constraint violation witness."""

    constraint: Constraint
    bindings: Bindings

    def __repr__(self) -> str:
        rendered = ", ".join(
            f"{name}={value!r}" for name, value in sorted(self.bindings.items())
            if not name.startswith("_")
        )
        return f"Violation({self.constraint!r} [{rendered}])"


_NO_CHANGE: tuple = (frozenset(), frozenset())
#: the key, in a caller's ``analyses``, of ``{id(constraint): (constraint,
#: its _Reads)}``: by instance, since hashing a constraint walks its terms
_READS = "constraint reads"


class TransactionDelta:
    """What the open transaction changed in ``db``, for a delta check.

    Made while the transaction is open.  ``unchecked`` are the
    constraint instances installed since their last check, by identity:
    each is swept in full once.  ``touched`` names the relations of
    ``db`` the transaction changed a row of (possibly back again), from
    the journal's list.  A relation's net change
    (:meth:`Relation.net_change`) is computed on its first request and
    kept, so a relation no delta-checked constraint reads is never
    diffed.
    """

    def __init__(self, db: Database, unchecked: Iterable = ()) -> None:
        self.db = db
        self.unchecked = {id(constraint) for constraint in unchecked}
        relations = db.relations
        self.touched = frozenset(
            relation.name for relation in db.journal.touched
            if relations.get(relation.name) is relation)
        self._net: dict = {}

    def inserted(self, pred: str) -> set:
        return self._change(pred)[0]

    def deleted(self, pred: str) -> set:
        return self._change(pred)[1]

    def _change(self, pred: str) -> tuple:
        if pred not in self.touched:
            return _NO_CHANGE
        change = self._net.get(pred)
        if change is None:
            change = self._net[pred] = self.db.relations[pred].net_change()
        return change


@dataclass(frozen=True)
class _Reads:
    """The relations a constraint reads, by the role a delta check gives
    them, and each LHS alternative's pinnable positions."""

    preds: frozenset
    lhs_negated: frozenset
    rhs_positive: frozenset
    rhs_negated: frozenset
    volatile: bool
    #: per LHS alternative: ``((position, pred), ...)`` it may be pinned at
    pinned: tuple
    #: per LHS alternative: ``{carrier position: root columns}``
    carriers: tuple


def check_constraint_safety(constraint: Constraint,
                            builtins: Optional[BuiltinRegistry] = None
                            ) -> None:
    """Raise :class:`SafetyError` unless every LHS alternative schedules
    from nothing and every RHS alternative from the variables each LHS
    alternative binds — the planner's verdict, as for a rule body
    (:func:`repro.datalog.runtime.check_rule_safety`).  Checked at
    install: under delta checking whether a side is ever planned would
    depend on what a transaction changed."""
    for lhs in constraint.lhs:
        try:
            order_body(BodyAnalysis(lhs, builtins))
        except SafetyError as exc:
            raise _unsafe(constraint, "left", exc) from exc
        bound = frozenset(bindable_vars(lhs, builtins))
        for rhs in constraint.rhs:
            try:
                order_body(BodyAnalysis(rhs, builtins), bound)
            except SafetyError as exc:
                raise _unsafe(constraint, "right", exc) from exc


def _unsafe(constraint: Constraint, side: str, exc: SafetyError) -> SafetyError:
    from .pretty import format_constraint

    return SafetyError(f"constraint {format_constraint(constraint)} has "
                       f"an unsafe {side}-hand side: {exc}")


def check_constraint(constraint: Constraint, db: Database,
                     context: EvalContext,
                     limit: Optional[int] = None,
                     plan_cache: Optional[dict] = None,
                     analyses: Optional[dict] = None,
                     delta: Optional[TransactionDelta] = None
                     ) -> list[Violation]:
    """All (or the first ``limit``) violations of one constraint — with a
    ``delta``, those a witness using an inserted row shows, unless the
    constraint is swept in full (see the module docstring).

    ``plan_cache`` memoizes compiled LHS/RHS probe plans in the shared
    band-keyed cache (:func:`repro.datalog.runtime.banded_plan`), keyed
    ``(conjunction, binding shape, pinned position)``; ``analyses`` keeps
    each conjunction's :class:`~repro.datalog.runtime.BodyAnalysis`
    beside it, keyed by the conjunction, and each constraint's
    :class:`_Reads`, by instance.  Every witness of one LHS
    solve binds the same variable names, so the RHS plans are resolved,
    and each walked, once per solve, not once per witness.
    Caller-supplied caches (the workspace passes long-lived ones)
    amortize analysis and compilation across commits.
    """
    if constraint.is_declaration():
        return []
    if plan_cache is None:
        plan_cache = {}
    if analyses is None:
        analyses = {}
    runs = _runs(constraint, db, context, analyses, delta)
    violations: list[Violation] = []
    seen: Optional[set] = set() if len(runs) > 1 and delta is not None \
        else None
    values = db.interner.values
    for alternative, position, pinned in runs:
        try:
            plan = _plan(plan_cache, analyses, alternative, frozenset(), db,
                         context)
            if plan is None:
                continue
            if position is not None and plan.order[0] != position:
                # the plain order leads elsewhere: plan one led by the pin
                plan = _plan(plan_cache, analyses, alternative, frozenset(),
                             db, context, position)
            # id rows by sorted name: the seeds of every RHS plan
            names = sorted(plan.slot_of)
            picks = [plan.slot_of[name] for name in names]
            witnesses: list = []
            run_flat(plan, db, context, pinned, position, None, None, None,
                     None, lambda registers: witnesses.append(
                         tuple([registers[slot] for slot in picks])))
        except SafetyError as exc:
            raise SafetyError(
                f"constraint {constraint!r} has an unsafe left-hand side: {exc}"
            ) from exc
        if seen is not None:    # names are sorted: (names, row) is a key
            key = tuple(names)
            witnesses = [row for row in dict.fromkeys(witnesses)
                         if (key, row) not in seen]
            seen.update((key, row) for row in witnesses)
        if not witnesses:
            continue
        shape = frozenset(names)
        try:
            rhs_plans = [rhs_plan for rhs in constraint.rhs
                         if (rhs_plan := _plan(plan_cache, analyses, rhs,
                                               shape, db, context))
                         is not None]
        except SafetyError as exc:
            raise SafetyError(
                f"constraint {constraint!r} has an unsafe right-hand "
                f"side: {exc}"
            ) from exc
        for rhs_plan in rhs_plans:
            if not witnesses:
                break
            witnesses = unsatisfied(rhs_plan, db, context, witnesses)
        for row in witnesses:
            bindings = dict(zip(names, [values[term] for term in row]))
            violations.append(Violation(constraint, {
                name: bindings[name] for name in plan.slot_of}))
            if limit is not None and len(violations) >= limit:
                return violations
    return violations


def check_constraints(constraints: list, db: Database, context: EvalContext,
                      limit: Optional[int] = None,
                      plan_cache: Optional[dict] = None,
                      analyses: Optional[dict] = None,
                      delta: Optional[TransactionDelta] = None
                      ) -> list[Violation]:
    """Check every constraint; returns the accumulated violations.  With
    no ``delta`` each is swept in full (the oracle a delta check must
    agree with); with one, each checks what the transaction changed."""
    violations: list[Violation] = []
    if analyses is None:
        analyses = {}
    reads = analyses.get(_READS)
    if reads is not None and len(reads) > len(constraints):
        # some constraint went: keep only the live ones' entries
        analyses[_READS] = {id(constraint): reads[id(constraint)]
                            for constraint in constraints
                            if id(constraint) in reads}
    for constraint in constraints:
        remaining = None if limit is None else limit - len(violations)
        if remaining is not None and remaining <= 0:
            break
        violations.extend(check_constraint(constraint, db, context, remaining,
                                           plan_cache, analyses, delta))
    return violations


def _runs(constraint: Constraint, db: Database, context: EvalContext,
          analyses: dict, delta: Optional[TransactionDelta]) -> list:
    """The LHS solves one check makes: ``(alternative, pinned position,
    {pred: pinned rows})``, position and rows None for a plain solve."""
    if delta is not None and id(constraint) not in delta.unchecked:
        held = analyses.get(_READS)
        if held is None:
            held = analyses[_READS] = {}
        entry = held.get(id(constraint))
        if entry is None or entry[0] is not constraint:
            entry = held[id(constraint)] = (
                constraint, _reads_of(constraint, analyses, context))
        reads = entry[1]
        if not reads.volatile:
            if reads.preds.isdisjoint(delta.touched):
                return []
            if not (any(map(delta.deleted, reads.lhs_negated))
                    or any(map(delta.deleted, reads.rhs_positive))
                    or any(map(delta.inserted, reads.rhs_negated))):
                return _pinned_runs(constraint, db, reads, delta)
    return [(alternative, None, None) for alternative in constraint.lhs]


def _pinned_runs(constraint: Constraint, db: Database, reads: _Reads,
                 delta: TransactionDelta) -> list:
    """Each LHS alternative pinned at each position with inserted rows —
    one plain solve instead where a pin's rows are all its relation's."""
    new_refs = delta.inserted("rule") if any(reads.carriers) else None
    runs: list = []
    for alternative, pinned, carriers in zip(constraint.lhs, reads.pinned,
                                             reads.carriers):
        found: list = []
        for position, pred in pinned:
            rows = delta.inserted(pred)
            columns = carriers.get(position) if new_refs else None
            if columns is not None:
                relation = carrier_delta(db, pred, columns, rows, new_refs)
            elif rows:
                relation = Relation.wrap_rows(pred, rows, db.interner)
            else:
                continue
            if relation is None:
                continue
            if len(relation.rows) == len(db.relations[pred].rows):
                found = [(alternative, None, None)]
                break
            found.append((alternative, position, {pred: relation}))
        runs.extend(found)
    return runs


def _reads_of(constraint: Constraint, analyses: dict,
              context: EvalContext) -> _Reads:
    preds: set = set()
    roles: dict = {(side, negated): set() for side in ("lhs", "rhs")
                   for negated in (False, True)}
    volatile = False
    pinned: list = []
    carriers: list = []
    for side, alternatives in (("lhs", constraint.lhs),
                               ("rhs", constraint.rhs)):
        for alternative in alternatives:
            analysis = _analysis(analyses, alternative, context)
            volatile = volatile or any(
                definition.volatile
                for definition in analysis.builtin_defs.values())
            for item in alternative:
                if isinstance(item, Literal):
                    preds.add(item.atom.pred)
                    roles[side, item.negated].add(item.atom.pred)
            if side == "lhs":
                grouped, carried = pattern_groups(alternative)
                pinned.append(tuple(
                    (position, alternative[position].atom.pred)
                    for position in analysis.positives
                    if position not in grouped))
                carriers.append(carried)
    return _Reads(frozenset(preds), frozenset(roles["lhs", True]),
                  frozenset(roles["rhs", False]),
                  frozenset(roles["rhs", True]), volatile, tuple(pinned),
                  tuple(carriers))


def _analysis(analyses: dict, alternative: tuple,
              context: EvalContext) -> BodyAnalysis:
    analysis = analyses.get(alternative)
    if analysis is None:
        analysis = analyses[alternative] = BodyAnalysis(alternative,
                                                        context.builtins)
    return analysis


def _plan(plan_cache: dict, analyses: dict, alternative: tuple,
          shape: frozenset, db: Database, context: EvalContext,
          first: Optional[int] = None) -> Optional[FlatPlan]:
    """The cached plan of one alternative under one binding shape, led by
    its ``first`` literal when that is pinned — or None when a positive
    literal's relation is missing or empty: the conjunction then has no
    solution (no witness on the left, no extension on the right), and,
    like a rule that cannot fire, it is not planned."""
    analysis = _analysis(analyses, alternative, context)
    relations = body_relations(analysis.preds, db)
    if not all(relations):
        return None
    return banded_plan(plan_cache, (alternative, shape, first), analysis,
                       relations, context, db.interner,
                       initially_bound=shape, first=first)
