"""Tabled top-down evaluation agrees with bottom-up."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.oracles import TopDownEngine, query_topdown
from repro.datalog.database import Database
from repro.datalog.engine import evaluate
from repro.datalog.errors import SafetyError
from repro.datalog.parser import parse_atom, parse_statements
from repro.datalog.runtime import EvalContext
from repro.datalog.terms import Rule

TC = "r(X,Y) <- e(X,Y). r(X,Z) <- e(X,Y), r(Y,Z)."
LEFT_TC = "r(X,Y) <- e(X,Y). r(X,Z) <- r(X,Y), e(Y,Z)."


def rules_of(source):
    return [s for s in parse_statements(source) if isinstance(s, Rule)]


def db_with(facts):
    database = Database()
    for pred, rows in facts.items():
        for row in rows:
            database.add(pred, tuple(row))
    return database


def bottom_up(source, facts, pred):
    database = db_with(facts)
    evaluate(rules_of(source), database, EvalContext())
    return database.tuples(pred)


class TestBasics:
    def test_edb_goal(self):
        database = db_with({"e": [("a", "b")]})
        results = query_topdown([], database, parse_atom('e("a",X)'))
        assert [b["X"] for b in results] == ["b"]

    def test_bound_goal_true_false(self):
        database = db_with({"e": [("a", "b"), ("b", "c")]})
        engine = TopDownEngine(rules_of(TC), database)
        assert engine.holds(parse_atom('r("a","c")'))
        assert not engine.holds(parse_atom('r("c","a")'))

    def test_free_goal_enumerates(self):
        facts = {"e": [("a", "b"), ("b", "c"), ("c", "d")]}
        database = db_with(facts)
        results = query_topdown(rules_of(TC), database, parse_atom("r(X,Y)"))
        got = {(b["X"], b["Y"]) for b in results}
        assert got == bottom_up(TC, facts, "r")

    def test_left_recursion_terminates(self):
        facts = {"e": [("a", "b"), ("b", "c")]}
        database = db_with(facts)
        results = query_topdown(rules_of(LEFT_TC), database,
                                parse_atom('r("a",X)'))
        assert {b["X"] for b in results} == {"b", "c"}

    def test_cyclic_graph_terminates(self):
        facts = {"e": [("a", "b"), ("b", "a")]}
        database = db_with(facts)
        results = query_topdown(rules_of(TC), database, parse_atom('r("a",X)'))
        assert {b["X"] for b in results} == {"a", "b"}

    def test_builtins_in_body(self):
        source = "big(X,Y) <- v(X), Y = X * 2, Y > 4."
        database = db_with({"v": [(1,), (3,)]})
        results = query_topdown(rules_of(source), database,
                                parse_atom("big(X,Y)"))
        assert {(b["X"], b["Y"]) for b in results} == {(3, 6)}

    def test_ground_negation(self):
        source = "ok(X) <- v(X), !blocked(X)."
        database = db_with({"v": [("a",), ("b",)], "blocked": [("b",)]})
        results = query_topdown(rules_of(source), database, parse_atom("ok(X)"))
        assert {b["X"] for b in results} == {"a"}

    def test_aggregates_rejected(self):
        with pytest.raises(SafetyError):
            TopDownEngine(rules_of("c(N) <- agg<<N = count(X)>> v(X)."),
                          Database())

    def test_goal_directedness_skips_irrelevant(self):
        # two disconnected components; querying one should not derive the other
        facts = {"e": [("a", "b"), ("x", "y"), ("y", "z")]}
        database = db_with(facts)
        engine = TopDownEngine(rules_of(TC), database)
        engine.query(parse_atom('r("a",X)'))
        # the answer tables must not contain x-component reach facts
        all_answers = set()
        for table in engine._tables.values():
            all_answers |= table
        assert ("x", "z") not in all_answers


@given(st.integers(0, 2 ** 30))
@settings(max_examples=20, deadline=None)
def test_property_topdown_matches_bottomup(seed):
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(rng.randint(2, 7))]
    edges = {(rng.choice(nodes), rng.choice(nodes))
             for _ in range(rng.randint(1, 14))}
    facts = {"e": sorted(edges)}
    truth = bottom_up(TC, facts, "r")
    database = db_with(facts)
    engine = TopDownEngine(rules_of(TC), database)
    source = rng.choice(nodes)
    answers = engine.query(parse_atom(f'r("{source}",X)'))
    assert {(source, b["X"]) for b in answers} == \
        {t for t in truth if t[0] == source}
