"""Naive bottom-up evaluation — the ablation baseline for benchmark A1.

Same stratified semantics as :mod:`repro.datalog.engine`, but every round
re-applies every rule against the *full* database instead of restricting
one body literal to the delta.  Kept deliberately simple: the property
tests assert it computes exactly the same models as the semi-naive engine,
and ``benchmarks/bench_eval_strategies.py`` shows the asymptotic gap the
semi-naive optimization buys (the reason LogicBlox, and every serious
Datalog engine, uses it).
"""

from __future__ import annotations

from typing import Iterable, Optional

from .database import Database
from .engine import (
    EngineRule,
    apply_aggregate_rule,
    apply_rule,
    normalize_rules,
)
from .runtime import EvalContext
from .stratify import stratify
from .terms import Rule


def evaluate_naive(rules: Iterable[Rule], db: Database,
                   context: Optional[EvalContext] = None) -> dict:
    """Run a program to fixpoint naively; returns the id rows added per
    predicate (the engine's currency, like :func:`~.engine.evaluate`)."""
    context = context or EvalContext()
    rule_list = list(rules)
    if all(isinstance(r, EngineRule) for r in rule_list):
        engine_rules = rule_list
    else:
        engine_rules = normalize_rules(rule_list)
    strata = stratify(engine_rules)
    stats = context.stats
    added_rows: dict[str, set] = {}

    def merge(pred: str, new_rows: set) -> bool:
        fresh = db.rel(pred).add_rows(new_rows)
        if not fresh:
            return False
        added_rows.setdefault(pred, set()).update(fresh)
        stats.new_facts += len(fresh)
        return True

    for stratum in strata:
        for rule in stratum.agg_rules:
            merge(rule.head.pred,
                  apply_aggregate_rule(rule, db, context))
        changed = True
        while changed:
            changed = False
            stats.rounds += 1
            for rule in stratum.rules:
                if merge(rule.head.pred,
                         apply_rule(rule, db, context)):
                    changed = True
    return added_rows
