"""Bottom-up semi-naive fixpoint evaluation (the LogicBlox execution model).

The paper (section 3.1): *"LogicBlox utilizes a bottom-up semi-naive
fixpoint execution model for executing Datalog programs."*  This module is
that execution model:

* :func:`evaluate` — run a stratified program to fixpoint over a database;
* :func:`propagate_insertions` — incremental maintenance for newly added
  facts (semi-naive deltas through the strata; nonmonotone strata are
  selectively recomputed from their EDB);
* :func:`propagate_deletions` — DRed-style delete-and-rederive.

**Quoted patterns fire from their carrier.**  A body quote compiles to a
join over the Figure 1 relations (:mod:`repro.meta.quote`), rooted at
``rule(V)``.  When an ordinary literal — the *carrier* — binds ``V``
(``says(U,me,V)``, ``active(V)``), the pattern's Figure 1 literals are
never semi-naive delta positions (:func:`pattern_groups`): reflection is
the only writer of those relations and adds all of a ref's rows at once,
its nested refs no later, so a new row there comes with a new
``rule(R)`` row, and the carrier position re-runs over the rows that
carry ``R`` (:func:`eval_stratum`).

**One fact currency.**  Everything these functions take and return —
``changed``, ``inserted``, ``added``, ``removed``, the base rows
``edb_facts(pred)`` hands back — is *id rows* over ``db.interner``.
A host's base rows (asserted, or stated by a workspace's active ground
fact) map to their proofs, read in place: ``row in base``, ``base[row]``
(``"$edb"``: asserted); a host recording no provenance may hand a set.  A
value is interned exactly once, where it enters (a host's assert, a wire
dictionary, a plan's constants when it compiles, an aggregate result),
and materialized only where it leaves (``tuples()`` / query answers,
provenance reads, builtins and comparisons).  Row sets are adopted,
never copied: a callee must not mutate a set it was handed
(:func:`merge_rows`).  The one distribution hook is
``EvalContext.remote_emit_rows``, consulted in :func:`eval_stratum`'s
merge with each rule application's fresh rows.

Rules entering the engine are *normalized*: single head, ``me`` resolved,
body quotes already compiled away by the meta layer (heads may still carry
quote templates — instantiating those is code generation and happens here,
through ``context.instantiate_quote``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Iterable, Optional

from ..meta.model import ALL_META_PREDS
from .builtins import BuiltinRegistry
from .database import Database, Relation
from .errors import SafetyError
from .runtime import (
    HEAD_COMPUTED,
    BodyAnalysis,
    EvalContext,
    FlatPlan,
    banded_plan,
    body_relations,
    _compile_term,
    compile_head,
    fill_row,
    run_flat,
)
from .stats import EvalStats, StratumStats  # noqa: F401 - re-exported
from .stratify import Stratum, stratify
from .terms import Aggregate, Atom, Constant, Literal, Rule, Variable

#: pred -> set of id rows over ``db.interner``: the one currency of
#: evaluation and maintenance (see the module docstring).
FactSet = dict[str, set]


@dataclass
class EngineRule:
    """A normalized single-head rule plus everything planned for it.

    Planning has three lifetimes (:func:`repro.datalog.runtime.build_plan`)
    and the rule owns all three.  Its body is *analysed* once, on first
    use (``_analysis``; ``_head_analysis`` for the guarded body of
    :meth:`head_bound_plan`).  It is *ordered* once per
    ``(delta_position, cardinality bands)``: ``_plans`` is the band-keyed
    cache of :func:`repro.datalog.runtime.banded_plan`, the band signature
    running over :func:`~repro.datalog.runtime.positive_preds` of the
    body.  It is *compiled* once per distinct order: a band change that
    re-derives an order the rule already has caches the same
    :class:`~repro.datalog.runtime.FlatPlan` under the new signature.  A
    plan is compiled for the interner of the database it is planned over
    (its constants are ids there, ``FlatPlan.terms``): a rule object
    outlives that database, and planned over another interner it plans
    again.  The cache's one bound is its FIFO
    (:data:`~repro.datalog.runtime.MAX_CACHED_PLANS`): a plan keyed to a
    band its relations have left stays, and is served again when they
    come back.

    Everything cached here is per *head*: ``normalize_rules`` gives every
    head of a multi-head rule the same body tuple, but a compiled plan
    carries head-specific lazies (``FlatPlan.head_spec`` / ``supports`` /
    ``join2``), so nothing is ever shared by body identity.
    """

    head: Atom
    body: tuple
    agg: Optional[Aggregate] = None
    label: Optional[str] = None
    source: Optional[Rule] = None
    _plans: dict = field(default_factory=dict, repr=False)
    _analysis: Optional[BodyAnalysis] = field(default=None, repr=False)
    _head_analysis: Optional[BodyAnalysis] = field(default=None, repr=False)
    _positive_positions: Optional[list] = field(default=None, repr=False)
    _patterns: Optional[tuple] = field(default=None, repr=False)

    @property
    def heads(self) -> tuple:
        # Shape-compatibility with terms.Rule for stratify().
        return (self.head,)

    def analysis(self, builtins: Optional[BuiltinRegistry]) -> BodyAnalysis:
        """The body's analysis, made on first use.  Its ``preds`` are the
        relations whose sizes band this rule's plans, and which must all
        be non-empty for it to fire."""
        analysis = self._analysis
        if analysis is None:
            analysis = self._analysis = BodyAnalysis(self.body, builtins)
        return analysis

    def live_relations(self, db: Database,
                       context: EvalContext) -> Optional[list]:
        """The live relations of the body's positive predicates — or None
        when one is missing or empty: the rule cannot fire, so it is not
        planned (ordering a body against an empty relation would only be
        redone when it fills).  One pass: the list a firing rule gets
        back is what :meth:`plan` bands its cache key on."""
        relations = body_relations(self.analysis(context.builtins).preds, db)
        return relations if all(relations) else None

    def plan(self, context: EvalContext, delta_position: Optional[int],
             db: Database, relations: Optional[list] = None) -> FlatPlan:
        """The body's plan over ``db`` with ``delta_position`` leading, for
        the live sizes of ``db`` — or of ``relations``, when the caller
        already holds them (:meth:`live_relations`)."""
        analysis = self.analysis(context.builtins)
        if relations is None:
            relations = body_relations(analysis.preds, db)
        return banded_plan(self._plans, delta_position, analysis, relations,
                           context, db.interner, first=delta_position)

    def head_bound_plan(self, context: EvalContext,
                        db: Database) -> Optional[FlatPlan]:
        """The plan that runs the body with the head bound to given rows.

        DRed re-derivation asks "which of these candidate head rows does
        this rule still derive?".  The plan answers it by matching: the
        head atom leads the body as a *guard* literal at position 0, and
        the caller hands the candidate rows in as that position's delta
        relation, so every head variable is bound per candidate before
        the first real body literal is probed.  The guard exists only in
        this plan's item tuple — ``self.body`` is untouched, so provenance
        supports (compiled from ``self.body``) never name it.  Cached in
        ``_plans`` under the key ``"head"`` with the usual band
        signature, and built only on first request; the guarded body has
        its own analysis, so its plans never stand in for the body's.

        Returns None for a head carrying a computed term (quote template,
        expression): matching cannot bind it, so the caller must run the
        rule unrestricted and intersect.
        """
        if not all(isinstance(term, (Variable, Constant))
                   for term in self.head.all_args):
            return None
        analysis = self._head_analysis
        if analysis is None:
            analysis = self._head_analysis = BodyAnalysis(
                (Literal(self.head),) + self.body, context.builtins)
            # The guard reads the candidate rows, never a live relation:
            # the plans are banded over the body's relations alone.
            analysis.preds = self.analysis(context.builtins).preds
        return banded_plan(
            self._plans, "head", analysis, body_relations(analysis.preds, db),
            context, db.interner, first=0)

    def positive_positions(self) -> list[int]:
        positions = self._positive_positions
        if positions is None:
            positions = self._positive_positions = [
                index for index, item in enumerate(self.body)
                if isinstance(item, Literal) and not item.negated
            ]
        return positions

    def patterns(self) -> tuple:
        """The body's carried pattern groups (:func:`pattern_groups`),
        found on first use."""
        patterns = self._patterns
        if patterns is None:
            patterns = self._patterns = pattern_groups(self.body)
        return patterns

    def body_preds(self) -> set:
        return {
            item.atom.pred for item in self.body if isinstance(item, Literal)
        }

    def __repr__(self) -> str:
        name = self.label or "rule"
        return f"<{name}: {self.head!r} <- {len(self.body)} items>"


#: the Figure 1 relations that lead from their first argument to another
#: part of the same rule (the argument's position): a rule to an atom, an
#: atom to a term, a term to its value — followed only to a nested rule
_LEADS = {"head": 1, "body": 1, "arg": 2, "value": 1}


def pattern_groups(body: tuple) -> tuple:
    """The quoted patterns of a compiled body that fire from a carrier.

    Every positive ``rule(V)`` literal roots a pattern.  Its *carrier* is
    the first positive literal outside Figure 1 that binds ``V``; its
    *group* is every positive Figure 1 literal whose first argument is
    reached from ``V``: ``head`` and ``body`` lead to an atom, ``arg`` to
    a term, and ``value(T,X)`` to a nested ``X`` with its own
    ``rule(X)``.  A root with no carrier (a pattern enumerating rules by
    itself) groups nothing.  Returns ``(group positions, {carrier
    position: the columns holding a root})``.
    """
    literals = [(index, item.atom) for index, item in enumerate(body)
                if isinstance(item, Literal) and not item.negated]

    def leading(atom: Atom, position: int = 0) -> Optional[str]:
        args = atom.all_args
        if len(args) > position and isinstance(args[position], Variable):
            return args[position].name
        return None

    roots = [name for _, atom in literals if atom.pred == "rule"
             for name in (leading(atom),) if name is not None]
    grouped: set = set()
    carriers: dict = {}
    for root in dict.fromkeys(roots):
        carrier = next((
            (index, column) for index, atom in literals
            if atom.pred not in ALL_META_PREDS
            for column, term in enumerate(atom.all_args)
            if isinstance(term, Variable) and term.name == root), None)
        if carrier is None:
            continue
        index, column = carrier
        carriers[index] = carriers.get(index, ()) + (column,)
        reached = {root}
        grown = True
        while grown:
            grown = False
            for index, atom in literals:
                if index in grouped or atom.pred not in ALL_META_PREDS \
                        or leading(atom) not in reached:
                    continue
                grouped.add(index)
                grown = True
                if atom.pred in _LEADS:
                    name = leading(atom, _LEADS[atom.pred])
                    if name is not None and (atom.pred != "value"
                                             or name in roots):
                        reached.add(name)
    return frozenset(grouped), carriers


def normalize_rules(rules: Iterable[Rule]) -> list[EngineRule]:
    """Split multi-head rules and wrap them for the engine."""
    normalized = []
    for rule in rules:
        for head in rule.heads:
            normalized.append(EngineRule(head, rule.body, rule.agg, rule.label, rule))
    return normalized


class ProvenanceStore:
    """Optional why-provenance: one or more derivations per derived fact.

    The store explains the facts of ``db`` in its id space: a key is
    ``(pred, id row)``, a derivation ``(rule_label, ((pred, id row),
    ...))`` listing the positive body facts that supported the head, and
    EDB assertions have the pseudo-label ``"$edb"``.  Only :meth:`of`,
    the reader, materializes values.

    Derivations are frozensets, replaced on write: inside a transaction of
    the database's journal each write logs what the fact held, so a
    rollback costs what the transaction touched, not what the store holds.
    """

    def __init__(self, db: Optional[Database] = None) -> None:
        self.derivations: dict[tuple, frozenset] = {}
        self.db = db if db is not None else Database()

    def _set(self, key: tuple, held: Optional[frozenset]) -> None:
        self.db.journal.log(self._put_back, (key, self.derivations.get(key)))
        if held:
            self.derivations[key] = held
        else:
            self.derivations.pop(key, None)

    def _put_back(self, logged: tuple) -> None:
        self._set(*logged)

    def record(self, pred: str, row: tuple, rule_label: str,
               supports: tuple) -> None:
        key = (pred, row)
        self._set(key, self.derivations.get(key, frozenset())
                  | {(rule_label, supports)})

    def record_base(self, pred: str, row: tuple, base) -> None:
        """Record a base row's proofs: each label ``base[row]`` names
        (``base`` is what the host's ``edb_facts(pred)`` returned)."""
        for label in base[row]:
            self.record(pred, row, label, ())

    def discard(self, pred: str, row: tuple, label: str) -> None:
        """Drop the empty-support proof ``label`` of a row that holds on."""
        held = self.derivations.get((pred, row))
        if held:
            self._set((pred, row), held - {(label, ())})

    def forget(self, pred: str, row: tuple) -> None:
        self._set((pred, row), None)

    def of(self, pred: str, fact: tuple) -> frozenset:
        """The derivations of the value tuple ``fact``, in values."""
        interner = self.db.interner
        materialize = interner.materialize_row
        return frozenset(
            (label, tuple([(support, materialize(row))
                           for support, row in supports]))
            for label, supports
            in self.derivations.get((pred, interner.row_of(fact)), ()))


# ---------------------------------------------------------------------------
# Rule application
# ---------------------------------------------------------------------------

def apply_rule(rule: EngineRule, db: Database, context: EvalContext,
               delta: Optional[dict[str, Relation]] = None,
               delta_position: Optional[int] = None,
               provenance: Optional[ProvenanceStore] = None,
               known_rows=None) -> set:
    """All head rows derivable by one rule (optionally delta-restricted).

    Returns id rows over ``db.interner`` that are not in ``known_rows``
    (default: those *already present* in the database).  Does not mutate
    the database — callers merge the result so rounds stay well-defined.
    ``delta`` maps a predicate to its delta :class:`Relation` (built once
    per round with :meth:`Relation.wrap_rows` over ``db.interner``, so the
    join probes it in id space; its rows are in ``db`` already).

    A rule that cannot fire (:meth:`EngineRule.live_relations`) derives
    nothing and is not planned.
    """
    relations = rule.live_relations(db, context)
    if relations is None:
        return set()
    plan = rule.plan(context, delta_position, db, relations)
    produced: set = set()
    if known_rows is None:
        known_rows = db.rel(rule.head.pred).rows
    fired = derive_rows(rule, plan, db, context, delta,
                        delta_position, known_rows, produced, provenance)
    if fired:
        context.stats.derivations += fired
        context.stats.fire(rule.label or rule.head.pred, fired)
    return produced


def derive_rows(rule: EngineRule, flat: FlatPlan, db: Database,
                context: EvalContext, delta_relations, delta_position,
                known_rows, produced: set,
                provenance: Optional[ProvenanceStore] = None) -> int:
    """Walk one rule's register plan, collecting head id rows.

    Every solution's head row (over ``db.interner``) lands in ``produced``
    unless it is in ``known_rows`` or already produced; returns the
    number of firings.  The head's id template is built once per plan
    (``flat.head_spec``): its constants are interned into the plan's id
    space, like the body's.  An all-variable/constant head without
    provenance is emitted inline by :func:`run_flat`; a computed head
    term (quote template, expression) or a provenance store takes the
    walker's callback leaf, which builds the same row from the registers
    and records the matched body facts.
    """
    if flat.head_spec is None:
        spec = compile_head(rule.head, flat)
        flat.head_spec = (
            spec, any(kind == HEAD_COMPUTED for kind, _ in spec))
    id_spec, computed = flat.head_spec
    on_solution: Optional[Callable] = None
    if computed or provenance is not None:
        values = db.interner.values
        intern = db.interner.intern
        supports = _supports(rule, flat) if provenance is not None else ()
        head_pred = rule.head.pred
        label = rule.label or "rule"

        def emit(registers: list) -> None:
            row = fill_row(id_spec, registers, values, context, intern)
            if row not in known_rows and row not in produced:
                produced.add(row)
            if provenance is not None:
                provenance.record(head_pred, row, label, tuple([
                    (pred, fill_row(spec, registers, values, context, intern))
                    for pred, spec in supports]))

        on_solution = emit
    return run_flat(flat, db, context, delta_relations, delta_position,
                    id_spec, known_rows, produced, None, on_solution)


def _supports(rule: EngineRule, flat: FlatPlan) -> tuple:
    """``(pred, id template)`` per positive body literal: the facts a
    solution records as its proof, compiled once per plan."""
    if flat.supports is None:
        flat.supports = tuple(
            (item.atom.pred, compile_head(item.atom, flat))
            for item in rule.body
            if isinstance(item, Literal) and not item.negated)
    return flat.supports


#: ``agg<<>>`` functions over one group's values (a group is never empty)
_AGGREGATES: dict[str, Callable[[list], Any]] = {
    "count": len, "total": sum, "min": min, "max": max}


def apply_aggregate_rule(rule: EngineRule, db: Database,
                         context: EvalContext,
                         provenance: Optional[ProvenanceStore] = None) -> set:
    """Evaluate one aggregate rule over the (complete) lower strata;
    returns the head id rows not yet present (an aggregate result is a
    value entering the database, so it is interned here).

    The body's plan is walked in id space, like a rule's: solutions are
    deduplicated on their registers (set semantics, matching LogicBlox's
    ``agg<<>>`` over distinct derivations) and grouped on the id row of
    the head terms other than the result.  Only the aggregated term is
    read as a value.  With a provenance store, each group's row records
    one derivation: the positive body rows of all its solutions, sorted.
    """
    agg = rule.agg
    if agg is None:  # pragma: no cover - guarded by callers
        raise SafetyError("apply_aggregate_rule on a non-aggregate rule")
    flat = rule.plan(context, None, db)
    head = rule.head.all_args
    at_result = [isinstance(term, Variable) and term.name == agg.result.name
                 for term in head]
    group_spec = compile_head(Atom(rule.head.pred, tuple(
        term for term, result in zip(head, at_result) if not result)), flat)
    over = _compile_term(agg.over, flat.slot_of)
    values = db.interner.values
    intern = db.interner.intern
    groups: dict[tuple, list] = {}
    seen: set = set()
    supports = _supports(rule, flat) if provenance is not None else ()
    proofs: dict[tuple, set] = {}

    def collect(registers: list) -> None:
        signature = tuple(registers)
        if signature not in seen:
            seen.add(signature)
            group = fill_row(group_spec, registers, values, context, intern)
            groups.setdefault(group, []).append(
                over(registers, values, context))
            if supports:
                proofs.setdefault(group, set()).update(
                    (pred, fill_row(spec, registers, values, context, intern))
                    for pred, spec in supports)

    run_flat(flat, db, context, None, None, None, None, None, None, collect)
    if seen:
        context.stats.derivations += len(seen)
        context.stats.fire(rule.label or rule.head.pred, len(seen))

    produced: set = set()
    known_rows = db.rel(rule.head.pred).rows
    for group, over_values in groups.items():
        result_id = intern(_AGGREGATES[agg.func](over_values))
        keys = iter(group)
        row = tuple([result_id if result else next(keys)
                     for result in at_result])
        if row not in known_rows:
            produced.add(row)
        if provenance is not None:
            provenance.record(rule.head.pred, row, rule.label or "rule",
                              tuple(sorted(proofs.get(group, ()))))
    return produced


# ---------------------------------------------------------------------------
# Stratum evaluation
# ---------------------------------------------------------------------------

def eval_stratum(stratum: Stratum, db: Database, context: EvalContext,
                 provenance: Optional[ProvenanceStore] = None,
                 changed: Optional[FactSet] = None) -> FactSet:
    """Run one stratum to fixpoint; return the rows it added.

    With ``changed`` (incremental mode) the first delta is seeded with the
    entries of ``changed`` the stratum reads — adopted, never copied or
    mutated — instead of a full application of every rule.  Counts go
    to ``context.stats``, which is also the storage-counter sink for the
    pass.
    """
    stats = context.stats
    record = StratumStats(number=stratum.number)
    started = perf_counter()
    interner = db.interner
    added: FactSet = {}
    remote_emit_rows = context.remote_emit_rows

    def merge(new_rows: set, pred: str, delta_pool: dict) -> None:
        if not new_rows:
            return
        if remote_emit_rows is not None:
            # Delta exchange: the hook decides ownership on id rows, so
            # neither the locally-kept derivations nor the ones it
            # diverts to a remote owner leave id space here.
            kept_rows = remote_emit_rows(pred, new_rows)
            stats.remote_emissions += len(new_rows) - len(kept_rows)
            if not kept_rows:
                return
            new_rows = kept_rows
        fresh = db.rel(pred).add_rows(new_rows)
        if fresh:
            added.setdefault(pred, set()).update(fresh)
            # The delta pool takes ownership of ``fresh`` (a set
            # ``add_rows`` built for us) instead of copying it — the
            # common case is one rule per head predicate per round.
            pooled = delta_pool.get(pred)
            if pooled is None:
                delta_pool[pred] = fresh
            else:
                pooled.update(fresh)
            stats.new_facts += len(fresh)

    with stats.capture_indexes():
        # 1. Aggregate rules: bodies live strictly below this stratum.
        delta: dict[str, set] = {}
        for rule in stratum.agg_rules:
            merge(apply_aggregate_rule(rule, db, context, provenance),
                  rule.head.pred, delta)

        # 2. The first delta: every rule applied in full, or the seed.
        seed_pass = changed is not None
        if seed_pass:
            reads = stratum.reads
            for pred, rows in changed.items():
                if rows and pred in reads:
                    pooled = delta.get(pred)
                    delta[pred] = rows if pooled is None else pooled | rows
        else:
            for rule in stratum.rules:
                merge(apply_rule(rule, db, context, provenance=provenance),
                      rule.head.pred, delta)

        # 3. Semi-naive rounds (the seed pass is not a ``stats`` round).
        while delta:
            if not seed_pass:
                stats.rounds += 1
            seed_pass = False
            record.rounds += 1
            record.delta_sizes.append(
                sum(len(rows) for rows in delta.values()))
            delta_rels = {pred: Relation.wrap_rows(pred, rows, interner)
                          for pred, rows in delta.items()}
            new_refs = delta.get("rule")
            carried: dict = {}
            next_delta: dict[str, set] = {}
            for rule in stratum.rules:
                grouped, carriers = rule.patterns()
                for position in rule.positive_positions():
                    if position in grouped:
                        continue
                    pred = rule.body[position].atom.pred
                    columns = carriers.get(position) if new_refs else None
                    if columns is not None:
                        # A new rule(R) fires the pattern from the rows
                        # that carry R, whenever they arrived.
                        key = (pred, columns)
                        if key not in carried:
                            carried[key] = carrier_delta(
                                db, pred, columns, delta.get(pred), new_refs)
                        if carried[key] is None:
                            continue
                        relations = {pred: carried[key]}
                    elif pred in delta:
                        relations = delta_rels
                    else:
                        continue
                    merge(apply_rule(rule, db, context, relations,
                                     position, provenance),
                          rule.head.pred, next_delta)
            delta = next_delta

    record.elapsed = perf_counter() - started
    record.new_facts = sum(len(rows) for rows in added.values())
    stats.record_stratum(record)
    return added


def carrier_delta(db: Database, pred: str, columns: tuple,
                  own: Optional[set], new_refs: set) -> Optional[Relation]:
    """A carrier position's delta in a round that reflected ``new_refs``
    (``rule`` rows): its own delta rows plus every row of ``pred`` that
    holds one of the refs in a root's column — None when that is none."""
    rows = set(own) if own else set()
    relation = db.relations.get(pred)
    if relation is not None and relation.rows:
        for column in columns:
            index = relation.index_for((column,))
            for (ref,) in new_refs:
                rows.update(index.get(ref, ()))
    return Relation.wrap_rows(pred, rows, db.interner) if rows else None


def merge_rows(target: FactSet, source: FactSet) -> None:
    """Union ``source`` into ``target`` per predicate.

    Row sets are adopted, not copied: a set either side was handed may be
    shared with a caller, a delta relation or a host's EDB, so a union
    builds a new set and nothing is ever updated in place.
    """
    for pred, rows in source.items():
        held = target.get(pred)
        target[pred] = rows if held is None else held | rows


# ---------------------------------------------------------------------------
# Full evaluation
# ---------------------------------------------------------------------------

def evaluate(rules: Iterable[Rule], db: Database,
             context: Optional[EvalContext] = None,
             provenance: Optional[ProvenanceStore] = None) -> FactSet:
    """Run a whole program to fixpoint; return every row added."""
    context = context or EvalContext()
    rule_list = list(rules)
    if all(isinstance(r, EngineRule) for r in rule_list):
        engine_rules = rule_list
    else:
        engine_rules = normalize_rules(rule_list)
    added: FactSet = {}
    for stratum in stratify(engine_rules):
        # A predicate is defined in exactly one stratum.
        added.update(eval_stratum(stratum, db, context, provenance))
    return added


# ---------------------------------------------------------------------------
# Incremental insertion
# ---------------------------------------------------------------------------

def propagate_insertions(strata: list, db: Database, context: EvalContext,
                         inserted: FactSet,
                         edb_facts: Optional[Callable[[str], set]] = None,
                         provenance: Optional[ProvenanceStore] = None) -> FactSet:
    """Incrementally maintain the database after EDB insertions.

    ``inserted`` are rows already added to ``db``.  Monotone strata are
    maintained with semi-naive deltas; strata containing negation or
    aggregation whose inputs changed are recomputed from their EDB
    (``edb_facts(pred)`` supplies the host's base rows of a predicate,
    asserted or stated by an active ground fact, only read: see the
    module docstring).
    """
    changed: FactSet = dict(inserted)
    total_added: FactSet = {}
    last = strata[-1] if strata else None
    for stratum in strata:
        if stratum.touches.isdisjoint(changed):
            continue
        if stratum.nonmonotone:
            added, removed = recompute_stratum(stratum, db, context, edb_facts,
                                               provenance)
            # Removals from a recomputed stratum propagate as deletions.
            if removed:
                from .incremental import propagate_deletions_from  # cycle
                higher = [s for s in strata if s.number > stratum.number]
                propagate_deletions_from(higher, db, context, removed,
                                         edb_facts, provenance)
        else:
            added = eval_stratum(stratum, db, context, provenance,
                                 changed=changed)
        if stratum is not last:   # only a higher stratum reads them
            merge_rows(changed, added)
        merge_rows(total_added, added)
    return total_added


def reset_rows(db: Database, pred: str, rows: set, base,
               provenance: Optional[ProvenanceStore] = None) -> None:
    """Take ``rows`` out of ``pred`` and forget their proofs; one of the
    ``base`` rows (``edb_facts(pred)``) stays, with its base proofs."""
    relation = db.rel(pred)
    for row in rows:
        if row not in base:
            relation.discard_row(row)
    if provenance is not None:
        for row in rows:
            provenance.forget(pred, row)
            if row in base:
                provenance.record_base(pred, row, base)


def recompute_stratum(stratum: Stratum, db: Database, context: EvalContext,
                      edb_facts: Optional[Callable[[str], set]],
                      provenance: Optional[ProvenanceStore] = None) -> tuple:
    """Reset a stratum's predicates to their EDB and re-derive.

    Returns the ``(added, removed)`` rows relative to the prior state.
    """
    if edb_facts is None:
        raise SafetyError(
            "nonmonotone stratum changed but no EDB accessor was provided; "
            "use a full re-evaluation instead"
        )
    old_rows: dict[str, set] = {}
    for pred in stratum.preds:
        old_rows[pred] = set(db.rel(pred).rows)
        reset_rows(db, pred, old_rows[pred], edb_facts(pred) or (), provenance)
    eval_stratum(stratum, db, context, provenance)
    added: FactSet = {}
    removed: FactSet = {}
    for pred in stratum.preds:
        new_rows = db.rel(pred).rows
        grew = new_rows - old_rows[pred]
        shrank = old_rows[pred] - new_rows
        if grew:
            added[pred] = grew
        if shrank:
            removed[pred] = shrank
    return added, removed
