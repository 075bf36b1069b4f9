"""Naive evaluation agrees with semi-naive — concretely and by property."""

import random

from hypothesis import given, settings, strategies as st

from benchmarks.oracles import evaluate_naive
from repro.datalog.database import Database
from repro.datalog.engine import EvalStats, evaluate
from repro.datalog.parser import parse_statements
from repro.datalog.runtime import EvalContext
from repro.datalog.terms import Rule


def rules_of(source):
    return [s for s in parse_statements(source) if isinstance(s, Rule)]


TC = "r(X,Y) <- e(X,Y). r(X,Z) <- r(X,Y), e(Y,Z)."


def load(facts):
    database = Database()
    for pred, rows in facts.items():
        for row in rows:
            database.add(pred, tuple(row))
    return database


def models_equal(source, facts):
    semi = load(facts)
    naive = load(facts)
    evaluate(rules_of(source), semi, EvalContext())
    evaluate_naive(rules_of(source), naive, EvalContext())
    semi_model = {n: set(r.tuples) for n, r in semi.relations.items()}
    naive_model = {n: set(r.tuples) for n, r in naive.relations.items()}
    return semi_model == naive_model


class TestAgreement:
    def test_transitive_closure(self):
        assert models_equal(TC, {"e": [("a", "b"), ("b", "c"), ("c", "a")]})

    def test_negation(self):
        assert models_equal(
            TC + " un(X,Y) <- n(X), n(Y), !r(X,Y).",
            {"e": [("a", "b")], "n": [("a",), ("b",), ("c",)]})

    def test_aggregation(self):
        assert models_equal(
            "deg(X,N) <- agg<<N = count(Y)>> e(X,Y). "
            "hub(X) <- deg(X,N), N >= 2.",
            {"e": [("a", 1), ("a", 2), ("b", 1)]})

    def test_mutual_recursion(self):
        assert models_equal(
            "p(X) <- s(X). p(X) <- q(X). q(Y) <- p(X), e(X,Y).",
            {"s": [("a",)], "e": [("a", "b"), ("b", "c")]})


class TestEfficiency:
    def test_seminaive_fires_fewer_derivations_on_chains(self):
        chain = {"e": [(i, i + 1) for i in range(30)]}
        semi_stats, naive_stats = EvalStats(), EvalStats()
        semi = load(chain)
        naive = load(chain)
        evaluate(rules_of(TC), semi, EvalContext(stats=semi_stats))
        evaluate_naive(rules_of(TC), naive, EvalContext(stats=naive_stats))
        assert semi.tuples("r") == naive.tuples("r")
        # the whole point of semi-naive: no re-derivation of old facts
        assert semi_stats.derivations < naive_stats.derivations


@given(st.integers(0, 2 ** 30))
@settings(max_examples=30, deadline=None)
def test_property_random_graphs_agree(seed):
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(rng.randint(2, 8))]
    edges = {(rng.choice(nodes), rng.choice(nodes))
             for _ in range(rng.randint(1, 15))}
    facts = {"e": sorted(edges), "n": [(n,) for n in nodes]}
    program = TC + " un(X,Y) <- n(X), n(Y), !r(X,Y)."
    assert models_equal(program, facts)


@given(st.integers(0, 2 ** 30))
@settings(max_examples=20, deadline=None)
def test_property_tc_matches_networkx(seed):
    import networkx as nx

    rng = random.Random(seed)
    nodes = list(range(rng.randint(2, 9)))
    edges = {(rng.choice(nodes), rng.choice(nodes))
             for _ in range(rng.randint(1, 18))}
    database = load({"e": sorted(edges)})
    evaluate(rules_of(TC), database, EvalContext())

    graph = nx.DiGraph()
    graph.add_nodes_from(nodes)
    graph.add_edges_from(edges)
    # nx.transitive_closure uses paths of length >= 1 — exactly datalog TC
    # semantics, including (x,x) for nodes on cycles.
    closure = nx.transitive_closure(graph)
    assert database.tuples("r") == set(closure.edges())
