"""Constraint checking: fail() semantics, positive form, existential RHS,
and the batched witness check against a per-witness reference."""

from contextlib import contextmanager

import pytest
from hypothesis import given, settings

from repro.datalog import constraints
from repro.datalog.builtins import BuiltinRegistry, standard_registry
from repro.datalog.constraints import (
    Violation,
    check_constraint,
    check_constraints,
)
from repro.datalog.database import Database
from repro.datalog.errors import ConstraintViolation, SafetyError
from repro.datalog.parser import parse_statements
from repro.datalog.runtime import EvalContext, satisfiable, solve
from repro.datalog.terms import Constraint
from repro.meta.quote import compile_constraint
from repro.workspace import workspace as workspace_module
from repro.workspace.workspace import Workspace

from strategies import CheckStream, check_streams


def constraint_of(source):
    statements = parse_statements(source)
    assert len(statements) == 1 and isinstance(statements[0], Constraint)
    return statements[0]


def db_with(facts):
    database = Database()
    for pred, rows in facts.items():
        for row in rows:
            database.add(pred, tuple(row))
    return database


class TestBasic:
    def test_satisfied(self):
        constraint = constraint_of("access(P,O,M) -> principal(P).")
        database = db_with({"access": [("alice", "f", "r")],
                            "principal": [("alice",)]})
        assert check_constraint(constraint, database, EvalContext()) == []

    def test_violated_with_witness(self):
        constraint = constraint_of("access(P,O,M) -> principal(P).")
        database = db_with({"access": [("eve", "f", "r")]})
        violations = check_constraint(constraint, database, EvalContext())
        assert len(violations) == 1
        assert violations[0].bindings["P"] == "eve"

    def test_declaration_never_fails(self):
        constraint = constraint_of("rule(R) -> .")
        database = db_with({"rule": [("anything",)]})
        assert check_constraint(constraint, database, EvalContext()) == []

    def test_multiple_rhs_conjuncts(self):
        constraint = constraint_of("access(P,O,M) -> principal(P), object(O).")
        database = db_with({"access": [("a", "f", "r")],
                            "principal": [("a",)]})
        violations = check_constraint(constraint, database, EvalContext())
        assert len(violations) == 1  # object(O) missing

    def test_limit(self):
        constraint = constraint_of("v(X) -> w(X).")
        database = db_with({"v": [(1,), (2,), (3,)]})
        violations = check_constraint(constraint, database, EvalContext(), limit=2)
        assert len(violations) == 2


class TestExistentialRHS:
    def test_rhs_variable_existentially_quantified(self):
        # like exp3: some S,K must exist
        constraint = constraint_of("said(U,R) -> export(U,R,S), pubkey(U,K).")
        database = db_with({
            "said": [("alice", "r1")],
            "export": [("alice", "r1", "sig")],
            "pubkey": [("alice", "k1")],
        })
        assert check_constraint(constraint, database, EvalContext()) == []

    def test_rhs_witness_missing(self):
        constraint = constraint_of("said(U,R) -> export(U,R,S).")
        database = db_with({"said": [("alice", "r1")],
                            "export": [("alice", "r2", "sig")]})
        assert len(check_constraint(constraint, database, EvalContext())) == 1

    def test_disjunctive_rhs(self):
        constraint = constraint_of("v(X) -> w(X) ; u(X).")
        database = db_with({"v": [(1,), (2,)], "w": [(1,)], "u": [(2,)]})
        assert check_constraint(constraint, database, EvalContext()) == []

    def test_equality_escape_in_rhs(self):
        constraint = constraint_of('v(X) -> X = "me" ; w(X).')
        database = db_with({"v": [("me",), ("other",)], "w": []})
        violations = check_constraint(constraint, database, EvalContext())
        assert len(violations) == 1
        assert violations[0].bindings["X"] == "other"

    def test_negated_rhs(self):
        constraint = constraint_of("locked(P) -> !delegates(P,_).")
        database = db_with({"locked": [("a",)], "delegates": [("a", "b")]})
        assert len(check_constraint(constraint, database, EvalContext())) == 1
        database = db_with({"locked": [("a",)], "delegates": [("z", "b")]})
        assert check_constraint(constraint, database, EvalContext()) == []


class TestDisjunctiveLHS:
    def test_each_alternative_checked(self):
        constraint = constraint_of("(v(X) ; u(X)) -> w(X).")
        database = db_with({"v": [(1,)], "u": [(2,)], "w": [(1,)]})
        violations = check_constraint(constraint, database, EvalContext())
        assert len(violations) == 1
        assert violations[0].bindings["X"] == 2


class TestMultipleConstraints:
    def test_accumulation(self):
        constraints = [
            constraint_of("v(X) -> w(X)."),
            constraint_of("u(X) -> w(X)."),
        ]
        database = db_with({"v": [(1,)], "u": [(2,)]})
        violations = check_constraints(constraints, database, EvalContext())
        assert len(violations) == 2

    def test_purely_negative_lhs_is_existential(self):
        # `!p(X)` with X occurring nowhere else means "no p fact exists":
        # the check is well-defined, not a safety error.
        constraint = constraint_of("!p(_) -> q(_).")
        empty = db_with({})
        assert len(check_constraint(constraint, empty, EvalContext())) == 1
        populated = db_with({"p": [(1,)]})
        assert check_constraint(constraint, populated, EvalContext()) == []

    def test_unsafe_comparison_lhs_raises(self):
        constraint = constraint_of("X > 3 -> q(X).")
        with pytest.raises(SafetyError):
            check_constraint(constraint, db_with({}), EvalContext())


class TestConstraintPlansOverLargeRelations:
    def test_band_keyed_cache_handles_relation_valued_sizes(self):
        # regression: the cost model is handed live Relation objects since
        # the distinct-count statistics; the constraint plan cache must
        # band on their cardinality, not compare them to ints
        from repro.datalog.parser import parse_statements
        from repro.datalog.runtime import EvalContext
        from repro.datalog.terms import Constraint

        (constraint,) = [
            s for s in parse_statements("big(X) -> ok(X).")
            if isinstance(s, Constraint)
        ]
        db = Database()
        for i in range(100):  # past _COST_MODEL_MIN_SIZE: sized plans engage
            db.add("big", (i,))
            db.add("ok", (i,))
        cache: dict = {}
        assert check_constraints([constraint], db, EvalContext(),
                                 plan_cache=cache) == []
        assert cache  # the sized plan was cached
        db.add("big", (100,))
        violations = check_constraints([constraint], db, EvalContext(),
                                       plan_cache=cache)
        assert len(violations) == 1


class TestDeltaCheck:
    """``check_constraints`` over a transaction's delta agrees with the
    sweep where only the delta's shape can make it right."""

    @staticmethod
    def both(constraint, db, context=None):
        from repro.datalog.constraints import TransactionDelta

        context = context or EvalContext()
        delta = check_constraints([constraint], db, context,
                                  delta=TransactionDelta(db))
        return delta, check_constraints([constraint], db, context)

    def test_a_late_reflection_fires_the_quote_from_its_carrier(self):
        """A ``says`` row committed before its rule was reflected: the
        quoted pattern first matches when ``rule(R)`` comes, and the
        carrier is pinned to the rows that hold ``R``."""
        from repro.datalog.database import Journal
        from repro.meta.quote import compile_constraint
        from repro.meta.registry import RuleRegistry

        registry = RuleRegistry()
        db = Database(registry.terms, Journal())
        intern_row = registry.terms.intern_row
        constraint = compile_constraint(
            constraint_of("says(U,me,[| p(X). |]) -> q(X)."), "w")
        ref = registry.intern_text("p(1).")
        db.journal.begin()
        db.rel("says").add_row(intern_row(("alice", "w", ref)))
        db.journal.commit()
        db.journal.begin()
        for pred, fact in registry.reflection(ref)[0]:
            db.rel(pred).add_row(intern_row(fact))
        delta, swept = self.both(constraint, db)
        assert len(swept) == 1 and delta == swept

    def test_a_deletion_under_lhs_negation_sweeps(self):
        from repro.datalog.database import Journal

        constraint = constraint_of("q(X), !r(X) -> s(X).")
        db = Database(journal=Journal())
        db.journal.begin()
        db.add("q", (1,))
        db.add("r", (1,))
        db.journal.commit()
        db.journal.begin()
        db.discard("r", (1,))     # q(1) is a witness that uses no new row
        delta, swept = self.both(constraint, db)
        assert len(swept) == 1 and delta == swept

    def test_an_insertion_under_rhs_negation_sweeps(self):
        from repro.datalog.database import Journal

        constraint = constraint_of("p(X) -> !r(X).")
        db = Database(journal=Journal())
        db.journal.begin()
        db.add("p", (1,))
        db.journal.commit()
        db.journal.begin()
        db.add("r", (1,))         # p(1) lost its extension, p is unchanged
        delta, swept = self.both(constraint, db)
        assert len(swept) == 1 and delta == swept


def register_checks(registry):
    """``odd(X)`` and ``half(X, H)``: builtins that fail on some values."""
    registry.register("odd", "i",
                      lambda x: isinstance(x, int) and x % 2 == 1)
    registry.register("half", "io", lambda x: [(x // 2,)]
                      if isinstance(x, int) and x % 2 == 0 else [])
    return registry


def checking(text):
    """A context knowing ``odd`` and ``half``, and ``text`` compiled to
    call them."""
    context = EvalContext(builtins=register_checks(
        BuiltinRegistry(standard_registry())))
    return context, compile_constraint(constraint_of(text), None,
                                       context.builtins)


def per_witness(constraint, db, context, limit=None, plan_cache=None,
                analyses=None, delta=None):
    """The reference checker: the same LHS runs, each witness a bindings
    dict from ``solve``, each RHS alternative a ``satisfiable`` call on
    it, stopping at ``limit`` violations."""
    plan_cache = {} if plan_cache is None else plan_cache
    analyses = {} if analyses is None else analyses
    runs = constraints._runs(constraint, db, context, analyses, delta)
    seen = set() if len(runs) > 1 and delta is not None else None
    violations = []
    for alternative, position, pinned in runs:
        plan = constraints._plan(plan_cache, analyses, alternative,
                                 frozenset(), db, context)
        if plan is None:
            continue
        if position is not None and plan.order[0] != position:
            plan = constraints._plan(plan_cache, analyses, alternative,
                                     frozenset(), db, context, position)
        for witness in solve(alternative, db, context, plan=plan,
                             delta=pinned, delta_position=position):
            if seen is not None:
                if frozenset(witness.items()) in seen:
                    continue
                seen.add(frozenset(witness.items()))
            plans = [(rhs, constraints._plan(plan_cache, analyses, rhs,
                                             frozenset(witness), db,
                                             context))
                     for rhs in constraint.rhs]
            if any(satisfiable(rhs, db, context, witness, rhs_plan)
                   for rhs, rhs_plan in plans if rhs_plan is not None):
                continue
            violations.append(Violation(constraint, witness))
            if limit is not None and len(violations) >= limit:
                return violations
    return violations


def per_witness_all(constraint_list, db, context, limit=None, **caches):
    """:func:`check_constraints` over :func:`per_witness`."""
    violations = []
    for constraint in constraint_list:
        remaining = None if limit is None else limit - len(violations)
        if remaining is not None and remaining <= 0:
            break
        violations.extend(per_witness(constraint, db, context, remaining,
                                      **caches))
    return violations


def exactly(violations):
    """Violations with their bindings' order, which the audit prints."""
    return [(violation.constraint, list(violation.bindings.items()))
            for violation in violations]


@contextmanager
def checked_by(check):
    """Every workspace commit checks its constraints with ``check``."""
    production = workspace_module.check_constraints
    workspace_module.check_constraints = check
    try:
        yield
    finally:
        workspace_module.check_constraints = production


def stream_workspace(stream: CheckStream, check) -> Workspace:
    """``stream`` run on a fresh workspace whose commits check with
    ``check``; refused installs and commits are skipped."""
    workspace = Workspace("w")
    register_checks(workspace.builtins)
    with checked_by(check):
        for pred, fact in stream.facts:
            workspace.assert_fact(pred, fact)
        for text in stream.constraints:
            try:
                workspace.add_constraint(text)
            except ConstraintViolation:
                pass
        for ops in stream.transactions:
            try:
                with workspace.transaction():
                    for kind, pred, fact in ops:
                        if kind == "assert":
                            workspace.assert_fact(pred, fact)
                        elif fact in workspace.tuples(pred):
                            workspace.retract_fact(pred, fact)
            except ConstraintViolation:
                pass
    return workspace


class TestBatchedWitnesses:
    """The checker tests all of an LHS run's witnesses against each RHS
    alternative in one walk: it finds what a per-witness check finds, in
    the same order, with the same bindings, up to the same limit."""

    @settings(max_examples=200, deadline=None)
    @given(check_streams())
    def test_a_sweep_finds_what_the_per_witness_check_finds(self, stream):
        db = Database()
        for pred, fact in stream.facts:
            db.add(pred, fact)
        for text in stream.constraints:
            context, constraint = checking(text)
            for limit in (None, stream.limit):
                assert exactly(check_constraint(
                    constraint, db, context, limit)) == exactly(
                    per_witness(constraint, db, context, limit))

    @settings(max_examples=150, deadline=None)
    @given(check_streams())
    def test_every_commit_and_the_audit_agree(self, stream):
        """Each commit's delta check (pinned runs included) agrees with
        the reference on the same delta and caches; and a workspace
        checked by the reference audits the same refusals."""
        def compared(constraint_list, db, context, **caches):
            found = check_constraints(constraint_list, db, context,
                                      **caches)
            assert exactly(found) == exactly(per_witness_all(
                constraint_list, db, context, **caches))
            limited = check_constraints(constraint_list, db, context,
                                        stream.limit, **caches)
            assert exactly(limited) == exactly(per_witness_all(
                constraint_list, db, context, stream.limit, **caches))
            return found

        batched = stream_workspace(stream, compared)
        reference = stream_workspace(stream, per_witness_all)
        assert list(map(repr, batched.audit)) \
            == list(map(repr, reference.audit))

    def test_several_alternatives_each_side(self):
        """Witnesses of two LHS alternatives, closed by either RHS
        alternative or by neither; a failing builtin on each side."""
        text = ("c: (p(X,Y), !q(X)) ; (r(X,Y), odd(X)) -> "
                "(half(Y,H), q(H)) ; (r(Y,Z), !q(Z)).")
        context, constraint = checking(text)
        db = db_with({"p": [(1, 2), (3, 4), (5, 5), (0, 1)],
                      "q": [(0,), (1,), (2,)],
                      "r": [(1, 3), (5, 0), (3, 4), (4, 1), (7, 5)]})
        found = check_constraint(constraint, db, context)
        assert exactly(found) == exactly(
            per_witness(constraint, db, context))
        assert [violation.bindings for violation in found] == [
            {"X": 5, "Y": 5}, {"X": 7, "Y": 5}]
        assert check_constraint(constraint, db, context, 1) == found[:1]
