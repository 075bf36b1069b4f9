"""Incremental deletion: DRed (delete-and-rederive) over stratified programs.

When facts are retracted from a workspace, the paper's "active rules are
incrementally recomputed" behaviour needs non-monotone maintenance.  We use
the classic DRed recipe, stratum by stratum, in interned-id space and at a
cost bounded by what the deletion touches, never by the stratum's size:

1. **Over-delete**: starting from the retracted facts, propagate deletions
   through the stratum's rules (a head fact is over-deleted whenever one
   of its positive supports is), joining against the *pre-deletion*
   state.
2. **Candidates**: the over-deleted rows, plus any retracted fact whose
   own predicate is derived in this stratum (its assertion is gone, a
   derivation may remain).  Base candidates come straight back: the host's
   ``edb_facts(pred)`` maps each base row — asserted, or stated by an
   active ground fact — to the labels of its proofs, so ``row in base``
   is a dict probe and ``base[row]`` the proofs recorded.
3. **Head-bound re-derivation**: each rule whose head has candidates
   runs once with its head bound to them
   (:meth:`~repro.datalog.engine.EngineRule.head_bound_plan`); candidates
   with a derivation from the surviving facts come back.
4. **Semi-naive closure**: the restored and re-derived facts seed
   :func:`~repro.datalog.engine.eval_stratum` as its delta, bringing back
   candidates that depend on other candidates.

The stratum's ``(added, removed)`` diff falls out of the candidate and
re-derived sets; no relation is ever copied.  Every fact set in here —
``deleted``, the over-deleted rows, the candidates, ``back``, the diff,
what ``edb_facts(pred)`` holds — is id rows over ``db.interner`` (the
engine's one currency, see :mod:`repro.datalog.engine`), so phase 2 is a
membership test per candidate, and a provenance store forgets and
records id rows.

A pass is seeded by deleted rows, wherever they came from: a retracted
assertion, a lower stratum's removals, a retracted fact this stratum also
derives — or the rows a rule derived until it left ``active``, however
it left (``Workspace._drop`` applies the dropped rule once and hands them
in), or the rows no active ground fact states any more.  Phase 2 makes
them candidates; nothing here knows of rules.

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
    FactSet,
    ProvenanceStore,
    derive_rows,
    eval_stratum,
    merge_rows,
    recompute_stratum,
)
from .runtime import EvalContext
from .stratify import Stratum


def propagate_deletions(strata: list, db: Database, context: EvalContext,
                        deleted: FactSet,
                        edb_facts: Optional[Callable[[str], set]] = None,
                        provenance: Optional[ProvenanceStore] = None) -> FactSet:
    """Maintain ``db`` after the EDB rows in ``deleted`` were retracted.

    The caller must already have removed the ``deleted`` rows from ``db``
    (the workspace retracts EDB first).  Returns the net set of rows that
    disappeared, per predicate.
    """
    return propagate_deletions_from(strata, db, context, deleted, edb_facts,
                                    provenance)


def propagate_deletions_from(strata: list, db: Database, context: EvalContext,
                             deleted: FactSet,
                             edb_facts: Optional[Callable[[str], set]],
                             provenance: Optional[ProvenanceStore] = None) -> FactSet:
    net_removed: FactSet = dict(deleted)
    pending_removed: FactSet = dict(deleted)
    pending_added: FactSet = {}

    for stratum in strata:
        if (stratum.touches.isdisjoint(pending_removed)
                and stratum.touches.isdisjoint(pending_added)):
            continue
        if stratum.nonmonotone:
            added, removed = recompute_stratum(stratum, db, context, edb_facts,
                                               provenance)
            context.stats.strata_recomputed += 1
        else:
            added, removed = _dred_stratum(stratum, db, context,
                                           pending_removed, pending_added,
                                           edb_facts, provenance)
            context.stats.dred_strata += 1
        merge_rows(pending_removed, removed)
        merge_rows(net_removed, removed)
        merge_rows(pending_added, added)
        for pred, rows in added.items():
            if pred in net_removed:
                net_removed[pred] = net_removed[pred] - rows

    return {pred: rows for pred, rows in net_removed.items() if rows}


def _dred_stratum(stratum: Stratum, db: Database, context: EvalContext,
                  deleted_below: FactSet, inserted_below: FactSet,
                  edb_facts: Optional[Callable[[str], set]],
                  provenance: Optional[ProvenanceStore]) -> tuple:
    """DRed one positive stratum.  Returns ``(added, removed)`` for it.

    ``deleted_below`` are the rows already gone from ``db`` (retracted, or
    removed by lower strata); ``inserted_below`` are rows lower strata
    added, which ride along in the closure's seed delta.
    """
    interner = db.interner
    stats = context.stats
    touches = stratum.touches
    deleted_rows: FactSet = {
        pred: rows for pred, rows in deleted_below.items()
        if rows and pred in touches
    }

    # -- Phase 1: over-delete.  The deleted facts go back first, so that
    # the joins see the pre-deletion state.  In place: nothing is copied
    # (a host's open transaction logs the rows going in and coming out).
    # A deleted fact that is present anyway (asserted again since) is not
    # ``restored``, so it is not taken out below.
    restored = {pred: db.rel(pred).add_rows(rows)
                for pred, rows in deleted_rows.items()}
    overdeleted: FactSet = {}
    frontier = deleted_rows
    while frontier:
        next_frontier: FactSet = {}
        delta_rels = {pred: Relation.wrap_rows(pred, rows, interner)
                      for pred, rows in frontier.items()}
        for rule in stratum.rules:
            pred = rule.head.pred
            for position in rule.positive_positions():
                if rule.body[position].atom.pred not in frontier:
                    continue
                plan = rule.plan(context, position, db=db)
                hit: set = set()
                derive_rows(rule, plan, db, context, delta_rels,
                            position, overdeleted.get(pred, ()), hit)
                # Only facts that were actually derived can be over-deleted.
                hit &= db.rel(pred).rows
                if hit:
                    overdeleted.setdefault(pred, set()).update(hit)
                    next_frontier.setdefault(pred, set()).update(hit)
                    stats.derivations += len(hit)
        frontier = next_frontier

    # Take the deleted facts out again, and the over-deleted ones with
    # them.
    for pred, rows in list(restored.items()) + list(overdeleted.items()):
        relation = db.rel(pred)
        for row in rows:
            relation.discard_row(row)
    if provenance is not None:
        for pred, rows in overdeleted.items():
            for row in rows:
                provenance.forget(pred, row)

    # -- Phase 2: candidates.  An over-deleted row may have another
    # derivation; a retracted fact of one of this stratum's own predicates
    # lost its assertion but may still be derivable.  Those that are (still)
    # base rows come back at once.  ``back`` collects, per predicate,
    # every row this stratum puts (back) into ``db`` from here on; it
    # doubles as the closure's seed delta, which adopts its sets — so
    # they only ever grow by :func:`merge_rows`, never in place.
    back: FactSet = {pred: rows for pred, rows in inserted_below.items()
                     if rows and pred in touches}
    candidates: FactSet = {}
    for pred in stratum.preds:
        rows = overdeleted.get(pred, set()) | deleted_rows.get(pred, set())
        if not rows:
            continue
        candidates[pred] = rows
        base = edb_facts(pred) if edb_facts is not None else None
        if not base:
            continue
        based = {row for row in rows if row in base}
        if not based:
            continue
        db.rel(pred).add_rows(based)
        merge_rows(back, {pred: based})
        if provenance is not None:
            for row in based:
                provenance.record_base(pred, row, base)

    # -- Phase 3: head-bound re-derivation.  Each rule whose head has
    # candidates runs once with its head matched against them, so the work
    # is bounded by the candidates, not by the stratum's rows.  A head with
    # a computed term cannot be bound by matching: that rule runs
    # unrestricted and is intersected with the candidates.
    survivors: FactSet = {}
    for rule in stratum.rules:
        pred = rule.head.pred
        rows = candidates.get(pred)
        if not rows:
            continue
        derivable: set = set()
        plan = rule.head_bound_plan(context, db)
        if plan is None:
            fired = derive_rows(rule, rule.plan(context, None, db=db), db,
                                context, None, None, (), derivable, provenance)
            derivable &= rows
        else:
            fired = derive_rows(
                rule, plan, db, context,
                {pred: Relation.wrap_rows(pred, rows, interner)}, 0,
                (), derivable, provenance)
        if fired:
            stats.derivations += fired
            stats.fire(rule.label or pred, fired)
        if derivable:
            survivors.setdefault(pred, set()).update(derivable)
    for pred, rows in survivors.items():
        fresh = db.rel(pred).add_rows(rows)
        if fresh:
            merge_rows(back, {pred: fresh})
            stats.new_facts += len(fresh)

    # -- Phase 4: semi-naive closure from the restored and re-derived
    # rows, bringing back candidates that depend on other candidates.
    merge_rows(back, eval_stratum(stratum, db, context, provenance,
                                  changed=back))

    # -- Phase 5: the diff, from the over-deleted and brought-back sets.
    added: FactSet = {}
    removed: FactSet = {}
    for pred in stratum.preds:
        over = overdeleted.get(pred, set())
        came = back.get(pred, set())
        gone = over - came
        grew = came - over
        if gone:
            removed[pred] = gone
        if grew:
            added[pred] = grew
    return added, removed
