"""Semi-naive engine: joins, recursion, negation, aggregates, provenance."""

import pytest

from repro.datalog.database import Database
from repro.datalog.engine import (
    EvalStats,
    ProvenanceStore,
    evaluate,
    normalize_rules,
)
from repro.datalog.errors import SafetyError
from repro.datalog.parser import parse_statements
from repro.datalog.runtime import EvalContext
from repro.datalog.terms import Rule


def rules_of(source):
    return [s for s in parse_statements(source) if isinstance(s, Rule)]


def run(source, facts, context=None):
    database = Database()
    for pred, rows in facts.items():
        for row in rows:
            database.add(pred, tuple(row))
    evaluate(rules_of(source), database, context or EvalContext())
    return database


class TestBasics:
    def test_projection(self):
        database = run("p(X) <- e(X,_).", {"e": [("a", 1), ("b", 2)]})
        assert database.tuples("p") == {("a",), ("b",)}

    def test_join(self):
        database = run("p(X,Z) <- e(X,Y), e(Y,Z).",
                       {"e": [("a", "b"), ("b", "c")]})
        assert database.tuples("p") == {("a", "c")}

    def test_self_join_with_shared_var(self):
        database = run("loop(X) <- e(X,X).",
                       {"e": [("a", "a"), ("a", "b")]})
        assert database.tuples("loop") == {("a",)}

    def test_constants_filter(self):
        database = run('p(X) <- e(X,"k").', {"e": [("a", "k"), ("b", "z")]})
        assert database.tuples("p") == {("a",)}

    def test_transitive_closure(self):
        database = run(
            "r(X,Y) <- e(X,Y). r(X,Z) <- r(X,Y), e(Y,Z).",
            {"e": [("a", "b"), ("b", "c"), ("c", "d")]})
        assert ("a", "d") in database.tuples("r")
        assert len(database.tuples("r")) == 6

    def test_mutual_recursion(self):
        database = run("""
            even(X) <- zero(X).
            even(Y) <- odd(X), succ(X,Y).
            odd(Y) <- even(X), succ(X,Y).
        """, {"zero": [(0,)], "succ": [(i, i + 1) for i in range(6)]})
        assert database.tuples("even") == {(0,), (2,), (4,), (6,)}
        assert database.tuples("odd") == {(1,), (3,), (5,)}

    def test_multi_head_rule(self):
        database = run("p(X), q(X) <- e(X).", {"e": [("a",)]})
        assert database.tuples("p") == {("a",)}
        assert database.tuples("q") == {("a",)}

    def test_idempotent_re_evaluation(self):
        database = run("p(X) <- e(X).", {"e": [("a",)]})
        before = {name: set(rel.tuples) for name, rel in database.relations.items()}
        evaluate(rules_of("p(X) <- e(X)."), database, EvalContext())
        after = {name: set(rel.tuples) for name, rel in database.relations.items()}
        assert before == after


class TestComparisonsAndExpressions:
    def test_filter(self):
        database = run("big(X) <- v(X), X > 2.", {"v": [(1,), (3,)]})
        assert database.tuples("big") == {(3,)}

    def test_assignment(self):
        database = run("inc(X,Y) <- v(X), Y = X + 1.", {"v": [(1,), (2,)]})
        assert database.tuples("inc") == {(1, 2), (2, 3)}

    def test_modulo(self):
        database = run("odd(X) <- v(X), X%2 = 1.", {"v": [(3,), (4,), (7,)]})
        assert database.tuples("odd") == {(3,), (7,)}

    def test_expression_in_head(self):
        database = run("double(X * 2) <- v(X).", {"v": [(3,)]})
        assert database.tuples("double") == {(6,)}

    def test_equality_as_test(self):
        database = run("same(X,Y) <- v(X), v(Y), X = Y.",
                       {"v": [(1,), (2,)]})
        assert database.tuples("same") == {(1, 1), (2, 2)}

    def test_string_comparison(self):
        database = run('first(X) <- v(X), X < "m".',
                       {"v": [("apple",), ("zebra",)]})
        assert database.tuples("first") == {("apple",)}


class TestNegation:
    def test_basic(self):
        database = run("only(X) <- v(X), !w(X).",
                       {"v": [("a",), ("b",)], "w": [("b",)]})
        assert database.tuples("only") == {("a",)}

    def test_negation_over_derived(self):
        database = run("""
            r(X,Y) <- e(X,Y).
            r(X,Z) <- r(X,Y), e(Y,Z).
            unreach(X,Y) <- n(X), n(Y), !r(X,Y).
        """, {"e": [("a", "b")], "n": [("a",), ("b",)]})
        assert ("b", "a") in database.tuples("unreach")
        assert ("a", "b") not in database.tuples("unreach")

    def test_negation_with_local_existential(self):
        # !e(X,_): X has no outgoing edge at all
        database = run("sink(X) <- n(X), !e(X,_).",
                       {"n": [("a",), ("b",)], "e": [("a", "b")]})
        assert database.tuples("sink") == {("b",)}

    def test_negation_variable_shared_with_later_literal_reorders(self):
        # Y is shared with u(Y) written *after* the negation — the planner
        # must schedule u(Y) first; the rule is safe.
        database = run("p(X) <- v(X), !w(X,Y), u(Y).",
                       {"v": [("a",)], "u": [(1,)], "w": []})
        assert database.tuples("p") == {("a",)}

    def test_negation_only_variable_in_head_rejected(self):
        # Y occurs only inside the negation and in the head: unsafe.
        with pytest.raises(SafetyError):
            run("p(X,Y) <- v(X), !w(X,Y).", {"v": [("a",)]})


class TestAggregates:
    def test_count_groups(self):
        database = run("deg(X,N) <- agg<<N = count(Y)>> e(X,Y).",
                       {"e": [("a", 1), ("a", 2), ("b", 1)]})
        assert database.tuples("deg") == {("a", 2), ("b", 1)}

    def test_total(self):
        database = run("sum(X,S) <- agg<<S = total(V)>> w(X,V).",
                       {"w": [("a", 3), ("a", 4), ("b", 5)]})
        assert database.tuples("sum") == {("a", 7), ("b", 5)}

    def test_min_max(self):
        facts = {"w": [("a", 3), ("a", 4)]}
        low = run("m(X,V) <- agg<<V = min(W)>> w(X,W).", facts)
        high = run("m(X,V) <- agg<<V = max(W)>> w(X,W).", facts)
        assert low.tuples("m") == {("a", 3)}
        assert high.tuples("m") == {("a", 4)}

    def test_count_over_derived(self):
        database = run("""
            r(X,Y) <- e(X,Y).
            r(X,Z) <- r(X,Y), e(Y,Z).
            reach_count(X,N) <- agg<<N = count(Y)>> r(X,Y).
        """, {"e": [("a", "b"), ("b", "c")]})
        assert ("a", 2) in database.tuples("reach_count")

    def test_aggregate_feeds_rules(self):
        database = run("""
            deg(X,N) <- agg<<N = count(Y)>> e(X,Y).
            hub(X) <- deg(X,N), N >= 2.
        """, {"e": [("a", 1), ("a", 2), ("b", 1)]})
        assert database.tuples("hub") == {("a",)}

    def test_empty_group_no_result(self):
        database = run("deg(X,N) <- agg<<N = count(Y)>> e(X,Y).", {"e": []})
        assert database.tuples("deg") == set()

    def test_global_aggregate(self):
        database = run("tot(N) <- agg<<N = count(X)>> v(X).",
                       {"v": [(1,), (2,), (3,)]})
        assert database.tuples("tot") == {(3,)}


def spelled_rows(database, pred):
    """``pred``'s id rows, each value by type and spelling."""
    return {tuple((type(value).__name__, repr(value))
                  for value in database.interner.materialize_row(row))
            for row in database.rel(pred).rows}


class TestAggregatesFollowIds:
    """``1``, ``True`` and ``1.0`` are three facts: an aggregate counts
    them apart and groups them apart, as a join would."""

    def test_count_over_three_spellings(self):
        database = Database()
        for value in (1, True, 1.0):
            database.add("r", ("k", value))
        evaluate(rules_of("n(K,C) <- agg<<C = count(X)>> r(K,X)."),
                 database, EvalContext())
        assert spelled_rows(database, "n") == {(("str", "'k'"), ("int", "3"))}

    def test_groups_by_spelling(self):
        database = Database()
        database.add("s", (1, "a"))
        database.add("s", (True, "b"))
        evaluate(rules_of("g(X,C) <- agg<<C = count(Y)>> s(X,Y)."),
                 database, EvalContext())
        assert spelled_rows(database, "g") == {
            (("int", "1"), ("int", "1")), (("bool", "True"), ("int", "1"))}


class TestSafety:
    def test_unbound_head_variable(self):
        with pytest.raises(SafetyError):
            run("p(X,Y) <- e(X).", {"e": [("a",)]})

    def test_unschedulable_comparison(self):
        with pytest.raises(SafetyError):
            run("p(X) <- e(X), Y > 3.", {"e": [("a",)]})


class TestProvenance:
    def test_edb_and_rule_provenance(self):
        database = Database()
        database.add("e", ("a", "b"))
        database.add("e", ("b", "c"))
        provenance = ProvenanceStore(database)
        for row in database.rel("e").rows:
            provenance.record("e", row, "$edb", ())
        evaluate(rules_of("r(X,Y) <- e(X,Y). r(X,Z) <- r(X,Y), e(Y,Z)."),
                 database, EvalContext(), provenance=provenance)
        derivations = provenance.of("r", ("a", "c"))
        assert derivations
        rule_label, supports = next(iter(derivations))
        assert ("e", ("b", "c")) in supports or ("e", ("a", "b")) in supports

    def test_stats_counting(self):
        database = Database()
        for i in range(5):
            database.add("e", (i, i + 1))
        stats = EvalStats()
        evaluate(rules_of("r(X,Y) <- e(X,Y). r(X,Z) <- r(X,Y), e(Y,Z)."),
                 database, EvalContext(stats=stats))
        assert stats.new_facts == len(database.tuples("r"))
        assert stats.derivations >= stats.new_facts
