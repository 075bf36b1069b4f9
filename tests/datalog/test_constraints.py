"""Constraint checking: fail() semantics, positive form, existential RHS."""

import pytest

from repro.datalog.constraints import check_constraint, check_constraints
from repro.datalog.database import Database
from repro.datalog.errors import SafetyError
from repro.datalog.parser import parse_statements
from repro.datalog.runtime import EvalContext
from repro.datalog.terms import Constraint


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
