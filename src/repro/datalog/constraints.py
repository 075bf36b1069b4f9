"""Schema-constraint checking (paper section 3.2).

A constraint ``F1 -> F2.`` means ``fail() <- F1, !(F2)``: evaluation fails
whenever some assignment satisfies F1 but no extension of it satisfies F2.
Both sides are stored in DNF.  RHS variables not bound by the LHS are
existentially quantified — exactly what rules like exp3 need::

    says(U,me,R) -> export[me](U,R,S), rsapubkey(U,K), rsaverify(R,S,K).

(the witness S, K may be any signature/key pair that verifies).

The checker enumerates LHS witnesses with the shared join core and probes
each RHS alternative as a seeded sub-query, so builtins and negation work
on both sides.  Violations are returned (not raised) — the workspace
decides whether to abort a transaction or reject an imported message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .database import Database
from .errors import SafetyError
from .runtime import (
    Bindings,
    BodyAnalysis,
    EvalContext,
    Plan,
    banded_plan,
    body_relations,
    satisfiable,
    solve,
)
from .terms import Constraint


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


def check_constraint(constraint: Constraint, db: Database,
                     context: EvalContext,
                     limit: Optional[int] = None,
                     plan_cache: Optional[dict] = None,
                     analyses: Optional[dict] = None) -> list[Violation]:
    """All (or the first ``limit``) violations of one constraint.

    ``plan_cache`` memoizes compiled LHS/RHS probe plans in the shared
    band-keyed cache (:func:`repro.datalog.runtime.banded_plan`), keyed
    by the conjunction itself and the binding shape it is probed under;
    ``analyses`` keeps each conjunction's
    :class:`~repro.datalog.runtime.BodyAnalysis` beside it, keyed the
    same way.  Every witness of one LHS alternative binds the same
    variable names, so the RHS plans are resolved once per LHS
    alternative, not once per witness.  Caller-supplied caches (the
    workspace passes long-lived ones) amortize analysis and compilation
    across commits.
    """
    if constraint.is_declaration():
        return []
    violations: list[Violation] = []
    if plan_cache is None:
        plan_cache = {}
    if analyses is None:
        analyses = {}
    for alternative in constraint.lhs:
        try:
            plan = _plan(plan_cache, analyses, alternative, frozenset(), db,
                         context)
            if plan is None:
                continue
            witnesses = solve(alternative, db, context, plan=plan)
        except SafetyError as exc:
            raise SafetyError(
                f"constraint {constraint!r} has an unsafe left-hand side: {exc}"
            ) from exc
        rhs_plans = None
        for witness in witnesses:
            if rhs_plans is None:
                shape = frozenset(witness)
                try:
                    rhs_plans = [
                        (rhs, plan) for rhs in constraint.rhs
                        if (plan := _plan(plan_cache, analyses, rhs, shape,
                                          db, context)) is not None]
                except SafetyError as exc:
                    raise SafetyError(
                        f"constraint {constraint!r} has an unsafe right-hand "
                        f"side: {exc}"
                    ) from exc
            if any(satisfiable(rhs, db, context, witness, plan)
                   for rhs, plan in rhs_plans):
                continue
            violations.append(Violation(constraint, witness))
            if limit is not None and len(violations) >= limit:
                return violations
    return violations


def check_constraints(constraints: list, db: Database, context: EvalContext,
                      limit: Optional[int] = None,
                      plan_cache: Optional[dict] = None,
                      analyses: Optional[dict] = None) -> list[Violation]:
    """Check every constraint; returns the accumulated violations."""
    violations: list[Violation] = []
    if analyses is None:
        analyses = {}
    for constraint in constraints:
        remaining = None if limit is None else limit - len(violations)
        if remaining is not None and remaining <= 0:
            break
        violations.extend(check_constraint(constraint, db, context, remaining,
                                           plan_cache, analyses))
    return violations


def _plan(plan_cache: dict, analyses: dict, alternative: tuple,
          shape: frozenset, db: Database,
          context: EvalContext) -> Optional[Plan]:
    """The cached plan of one alternative under one binding shape — or
    None when a positive literal's relation is missing or empty: the
    conjunction then has no solution (no witness on the left, no
    extension on the right), and, like a rule that cannot fire, it is
    not planned."""
    analysis = analyses.get(alternative)
    if analysis is None:
        analysis = analyses[alternative] = BodyAnalysis(alternative,
                                                        context.builtins)
    relations = body_relations(analysis.preds, db)
    if not all(relations):
        return None
    return banded_plan(plan_cache, (alternative, shape), analysis, relations,
                       context, db.interner, initially_bound=shape)
