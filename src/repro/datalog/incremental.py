"""Incremental deletion: DRed (delete-and-rederive) over stratified programs.

When facts are retracted from a workspace, the paper's "active rules are
incrementally recomputed" behaviour needs non-monotone maintenance.  We use
the classic DRed recipe, stratum by stratum:

1. **Over-delete**: starting from the retracted facts, propagate deletions
   through every rule (a head fact is over-deleted whenever one of its
   positive supports is), joining against the *pre-deletion* state.
2. **Re-derive**: re-add EDB-asserted survivors and run the stratum forward
   again; any over-deleted fact with an alternative derivation comes back.

Strata containing negation or aggregation are recomputed from their EDB
instead (always correct, and cheap at trust-policy scale); the net
add/remove diff keeps propagating upward.  Tests check both paths against
from-scratch recomputation, including hypothesis properties over random
fact streams.
"""

from __future__ import annotations

from typing import Callable, Optional

from .database import Database, Relation
from .engine import (
    EvalStats,
    FactSet,
    ProvenanceStore,
    derive_rows,
    eval_stratum,
    recompute_stratum,
)
from .runtime import EvalContext
from .stratify import Stratum
from .terms import Literal


def propagate_deletions(strata: list, db: Database, context: EvalContext,
                        deleted: FactSet,
                        edb_facts: Optional[Callable[[str], set]] = None,
                        provenance: Optional[ProvenanceStore] = None,
                        stats: Optional[EvalStats] = None) -> FactSet:
    """Maintain ``db`` after the EDB facts in ``deleted`` were retracted.

    The caller must already have removed the ``deleted`` facts from ``db``
    (the workspace retracts EDB first).  Returns the net set of facts that
    disappeared, per predicate.
    """
    return propagate_deletions_from(strata, db, context, deleted, edb_facts,
                                    provenance, stats)


def propagate_deletions_from(strata: list, db: Database, context: EvalContext,
                             deleted: FactSet,
                             edb_facts: Optional[Callable[[str], set]],
                             provenance: Optional[ProvenanceStore] = None,
                             stats: Optional[EvalStats] = None) -> FactSet:
    net_removed: FactSet = {pred: set(facts) for pred, facts in deleted.items()}
    pending_removed: FactSet = {pred: set(facts) for pred, facts in deleted.items()}
    pending_added: FactSet = {}

    for stratum in strata:
        reads = stratum.reads | stratum.preds
        if not (reads & (pending_removed.keys() | pending_added.keys())):
            continue
        if stratum.nonmonotone:
            added, removed = recompute_stratum(stratum, db, context, edb_facts,
                                               provenance, stats)
            if stats is not None:
                stats.strata_recomputed += 1
        else:
            added, removed = _dred_stratum(stratum, db, context,
                                           pending_removed, edb_facts,
                                           provenance, stats)
            if stats is not None:
                stats.dred_strata += 1
        for pred, facts in removed.items():
            pending_removed.setdefault(pred, set()).update(facts)
            net_removed.setdefault(pred, set()).update(facts)
        for pred, facts in added.items():
            pending_added.setdefault(pred, set()).update(facts)
            if pred in net_removed:
                net_removed[pred] -= facts

    net = {pred: facts for pred, facts in net_removed.items() if facts}
    if net:
        _invalidate_shrunk_plans(strata, db, net.keys(), stats)
    return net


def _invalidate_shrunk_plans(strata: list, db: Database, shrunk,
                             stats: Optional[EvalStats]) -> None:
    """Plan-invalidation hook for deletion-heavy workloads.

    Every rule reading a predicate that just lost facts drops cached
    plans keyed to cardinality bands the relation has fallen out of —
    those keys can never be served again, but they would squat in the
    FIFO plan cache evicting still-live entries.
    """
    shrunk = set(shrunk)
    evicted = 0
    for stratum in strata:
        for rule in list(stratum.rules) + list(stratum.agg_rules):
            evicted += rule.evict_shrunk_plans(db, shrunk)
    if stats is not None and evicted:
        stats.plans_evicted += evicted


def _dred_stratum(stratum: Stratum, db: Database, context: EvalContext,
                  deleted_below: FactSet,
                  edb_facts: Optional[Callable[[str], set]],
                  provenance: Optional[ProvenanceStore],
                  stats: Optional[EvalStats]) -> tuple:
    """DRed one positive stratum.  Returns ``(added, removed)`` for it."""
    # -- Phase 0: a COW shadow restoring the deleted facts, so that
    # over-deletion joins see the pre-deletion state.  Only relations that
    # actually had deletions are unshared (by the first ``add``); every
    # other relation is read through the shared O(1) view.
    shadow = db.snapshot()
    for pred, facts in deleted_below.items():
        restored = shadow.rel(pred)
        for fact in facts:
            restored.add(fact)

    # -- Phase 1: over-delete.
    materialize = shadow.interner.materialize_row
    overdeleted: FactSet = {}
    frontier: FactSet = {
        pred: set(facts) for pred, facts in deleted_below.items()
    }
    while frontier:
        next_frontier: FactSet = {}
        delta_rels = {pred: Relation.wrap(pred, facts, shadow.interner)
                      for pred, facts in frontier.items()}
        for rule in stratum.rules:
            for position, item in enumerate(rule.body):
                if not isinstance(item, Literal) or item.negated:
                    continue
                if item.atom.pred not in frontier:
                    continue
                plan = rule.plan(context, position, db=shadow, stats=stats)
                candidates: set = set()
                derive_rows(rule, plan.flat(), shadow, context, delta_rels,
                            position, (), candidates)
                pred = rule.head.pred
                # Only facts that were actually derived can be over-deleted.
                candidates &= shadow.rel(pred).rows
                fresh = ({materialize(row) for row in candidates}
                         - overdeleted.get(pred, set()))
                if fresh:
                    overdeleted.setdefault(pred, set()).update(fresh)
                    next_frontier.setdefault(pred, set()).update(fresh)
                    if stats is not None:
                        stats.derivations += len(fresh)
        frontier = next_frontier

    # -- Phase 2: physically remove over-deleted facts.
    for pred, facts in overdeleted.items():
        relation = db.rel(pred)
        for fact in facts:
            relation.discard(fact)
            if provenance is not None:
                provenance.forget(pred, fact)

    # -- Phase 3: re-derive.  EDB-asserted facts of this stratum come back
    # first; then the stratum runs forward to fixpoint, restoring every
    # over-deleted fact that still has a derivation.
    for pred in stratum.preds:
        base = edb_facts(pred) if edb_facts is not None else None
        if not base:
            continue
        relation = db.rel(pred)
        for fact in overdeleted.get(pred, set()):
            if fact in base and relation.add(fact) and provenance is not None:
                provenance.record_edb(pred, fact)
    before = {pred: set(db.tuples(pred)) for pred in stratum.preds}
    eval_stratum(stratum, db, context, provenance, changed=None, stats=stats)

    added: FactSet = {}
    removed: FactSet = {}
    for pred in stratum.preds:
        now = db.tuples(pred)
        over = overdeleted.get(pred, set())
        gone = over - now
        grew = now - before[pred] - over
        if gone:
            removed[pred] = gone
        if grew:
            added[pred] = grew
    return added, removed
