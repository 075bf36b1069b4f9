"""Reference evaluators: naive bottom-up and tabled top-down.

Neither is on a trust-manager path.  They are the independent oracles
the engine is compared against — the differential tests hold the
semi-naive engine and the register walker to them — and the two
ablations that show what the engine's strategies buy:
``bench_eval_strategies.py`` (A1, naive vs semi-naive, section 3.1) and
``bench_magic.py`` (magic sets vs top-down, sections 5.1 and 7).

:func:`evaluate_naive` has the engine's stratified semantics, but every
round re-applies every rule against the *full* database instead of
restricting one body literal to the delta.

:class:`TopDownEngine` is the paper's section 5.1 strategy: *"Most
practical access control languages, including Binder, utilize a top-down
(or backward-chaining) evaluation strategy.  Specific requests are made
as goals … minimizing the disclosure of sensitive information."*  It is
OLDT-style resolution with answer tables, iterated to fixpoint (naive
tabling), so recursive policies terminate.  Its scope: positive rules,
builtins and comparisons everywhere; negation only over goals that are
fully ground at call time.  Aggregates are not supported — the engine
raises so callers can fall back.  It shares no join code with
:mod:`repro.datalog.runtime`.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional

from repro.datalog.builtins import apply_comparison, invoke_builtin
from repro.datalog.database import Database
from repro.datalog.engine import (
    EngineRule,
    apply_aggregate_rule,
    apply_rule,
    normalize_rules,
)
from repro.datalog.errors import SafetyError
from repro.datalog.runtime import Bindings, EvalContext, Unbound, eval_term
from repro.datalog.stratify import stratify
from repro.datalog.terms import Atom, BuiltinCall, Comparison, Literal, Rule, Variable


def _engine_rules(rules: Iterable[Rule]) -> list:
    rule_list = list(rules)
    if all(isinstance(r, EngineRule) for r in rule_list):
        return rule_list
    return normalize_rules(rule_list)


def evaluate_naive(rules: Iterable[Rule], db: Database,
                   context: Optional[EvalContext] = None) -> dict:
    """Run a program to fixpoint naively; returns the id rows added per
    predicate (the engine's currency, like :func:`~repro.datalog.engine.evaluate`)."""
    context = context or EvalContext()
    strata = stratify(_engine_rules(rules))
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


class TopDownEngine:
    """Goal-directed evaluation over a rule set and an EDB."""

    def __init__(self, rules: Iterable[Rule], db: Database,
                 context: Optional[EvalContext] = None) -> None:
        self.rules_by_pred: dict[str, list[EngineRule]] = {}
        for rule in _engine_rules(rules):
            if rule.agg is not None:
                raise SafetyError("top-down evaluation does not support aggregates")
            self.rules_by_pred.setdefault(rule.head.pred, []).append(rule)
        self.db = db
        self.context = context or EvalContext()
        self._tables: dict[tuple, set] = {}
        self._complete: set[tuple] = set()
        self._in_progress: set[tuple] = set()
        #: total subgoal invocations (benchmark instrumentation)
        self.calls = 0

    # ------------------------------------------------------------------

    def query(self, goal: Atom, bindings: Optional[Bindings] = None) -> list[Bindings]:
        """All bindings satisfying ``goal`` (a single atom)."""
        bindings = dict(bindings or {})
        # Iterate the whole resolution to fixpoint: recursive goals use
        # partial tables, so repeat until no table grows.
        while True:
            before = sum(len(t) for t in self._tables.values())
            results = list(self._solve_atom(goal, bindings))
            after = sum(len(t) for t in self._tables.values())
            if after == before:
                return results
            # tables grew: clear completion marks and resolve again
            self._complete.clear()

    def holds(self, goal: Atom, bindings: Optional[Bindings] = None) -> bool:
        return bool(self.query(goal, bindings))

    # ------------------------------------------------------------------

    def _goal_key(self, atom: Atom, bindings: Bindings) -> tuple:
        pattern = []
        for term in atom.all_args:
            try:
                pattern.append(("b", eval_term(term, bindings, self.context)))
            except Unbound:
                pattern.append(("f", None))
        return (atom.pred, tuple(pattern))

    def _solve_atom(self, atom: Atom, bindings: Bindings) -> Iterator[Bindings]:
        """Extensions of ``bindings`` making ``atom`` true."""
        self.calls += 1
        key = self._goal_key(atom, bindings)
        answers = self._answers(key, atom, bindings)
        for fact in list(answers):
            extended = self._match_fact(atom, fact, bindings)
            if extended is not None:
                yield extended

    def _match_fact(self, atom: Atom, fact: tuple,
                    bindings: Bindings) -> Optional[Bindings]:
        extended = dict(bindings)
        for term, value in zip(atom.all_args, fact):
            if isinstance(term, Variable):
                existing = extended.get(term.name, _MISSING)
                if existing is _MISSING:
                    extended[term.name] = value
                elif existing != value:
                    return None
            else:
                try:
                    if eval_term(term, extended, self.context) != value:
                        return None
                except Unbound:
                    return None
        return extended

    def _answers(self, key: tuple, atom: Atom, bindings: Bindings) -> set:
        table = self._tables.get(key)
        if table is not None and (key in self._complete or key in self._in_progress):
            return table
        if table is None:
            table = set()
            self._tables[key] = table

        self._in_progress.add(key)
        try:
            pred, pattern = key
            # EDB (and previously derived) facts
            for fact in self.db.tuples(pred):
                if len(fact) == len(pattern) and self._fact_matches(fact, pattern):
                    table.add(fact)
            # rules
            for rule in self.rules_by_pred.get(pred, ()):
                head_bindings = self._bind_head(rule, pattern)
                if head_bindings is None:
                    continue
                for solution in self._solve_body(rule.body, 0, head_bindings):
                    try:
                        fact = tuple(
                            eval_term(term, solution, self.context)
                            for term in rule.head.all_args
                        )
                    except Unbound as exc:
                        raise SafetyError(
                            f"unbound head variable in {rule!r}: {exc}"
                        ) from exc
                    if self._fact_matches(fact, pattern):
                        table.add(fact)
        finally:
            self._in_progress.discard(key)
        self._complete.add(key)
        return table

    @staticmethod
    def _fact_matches(fact: tuple, pattern: tuple) -> bool:
        for value, (mode, bound_value) in zip(fact, pattern):
            if mode == "b" and value != bound_value:
                return False
        return True

    def _bind_head(self, rule: EngineRule, pattern: tuple) -> Optional[Bindings]:
        """Unify the goal's bound positions with the rule head."""
        bindings: Bindings = {}
        for term, (mode, value) in zip(rule.head.all_args, pattern):
            if mode != "b":
                continue
            if isinstance(term, Variable):
                existing = bindings.get(term.name, _MISSING)
                if existing is _MISSING:
                    bindings[term.name] = value
                elif existing != value:
                    return None
            else:
                try:
                    if eval_term(term, bindings, self.context) != value:
                        return None
                except Unbound:
                    # head term needs body bindings (e.g. an expression);
                    # defer the check to _fact_matches.
                    continue
        return bindings

    def _solve_body(self, body: tuple, index: int,
                    bindings: Bindings) -> Iterator[Bindings]:
        if index >= len(body):
            yield bindings
            return
        item = body[index]
        if isinstance(item, Literal):
            if item.negated:
                try:
                    tuple(eval_term(t, bindings, self.context)
                          for t in item.atom.all_args)
                except Unbound:
                    # Local existentials inside negation: solve with the
                    # free variables and negate the existence.
                    pass
                if not list(self._solve_atom(item.atom, bindings)):
                    yield from self._solve_body(body, index + 1, bindings)
                return
            for extended in self._solve_atom(item.atom, bindings):
                yield from self._solve_body(body, index + 1, extended)
            return
        if isinstance(item, Comparison):
            yield from self._solve_comparison(item, body, index, bindings)
            return
        if isinstance(item, BuiltinCall):
            definition = self.context.builtins.lookup(item.name)
            if definition is None:
                raise SafetyError(f"unknown builtin {item.name!r}")
            inputs = tuple(eval_term(item.args[p], bindings, self.context)
                           for p in definition.input_positions)
            for row in invoke_builtin(definition, inputs, self.context.payload):
                extended = dict(bindings)
                ok = True
                for out_value, position in zip(row, definition.output_positions):
                    target = item.args[position]
                    if isinstance(target, Variable):
                        existing = extended.get(target.name, _MISSING)
                        if existing is _MISSING:
                            extended[target.name] = out_value
                        elif existing != out_value:
                            ok = False
                            break
                    elif eval_term(target, extended, self.context) != out_value:
                        ok = False
                        break
                if ok:
                    yield from self._solve_body(body, index + 1, extended)
            return
        raise SafetyError(f"unexpected body item {item!r}")  # pragma: no cover

    def _solve_comparison(self, item: Comparison, body: tuple, index: int,
                          bindings: Bindings) -> Iterator[Bindings]:
        left_unbound = isinstance(item.left, Variable) and item.left.name not in bindings
        right_unbound = isinstance(item.right, Variable) and item.right.name not in bindings
        if item.op == "=" and left_unbound != right_unbound:
            source = item.right if left_unbound else item.left
            target = item.left if left_unbound else item.right
            value = eval_term(source, bindings, self.context)
            extended = dict(bindings)
            extended[target.name] = value
            yield from self._solve_body(body, index + 1, extended)
            return
        left = eval_term(item.left, bindings, self.context)
        right = eval_term(item.right, bindings, self.context)
        if apply_comparison(item.op, left, right):
            yield from self._solve_body(body, index + 1, bindings)


_MISSING = object()


def query_topdown(rules: Iterable[Rule], db: Database, goal: Atom,
                  context: Optional[EvalContext] = None,
                  bindings: Optional[Bindings] = None) -> list[Bindings]:
    """One-shot goal-directed query (builds a fresh engine)."""
    return TopDownEngine(rules, db, context).query(goal, bindings)
