"""Magic-sets rewrite: equivalence with bottom-up, goal-directedness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.datalog.database import Database
from repro.datalog.engine import EvalStats, evaluate
from repro.datalog.errors import SafetyError
from repro.datalog.magic import choose_strategy, magic_transform, query_magic
from repro.datalog.parser import parse_atom, parse_statements
from repro.datalog.runtime import EvalContext
from repro.datalog.terms import Rule

TC = "r(X,Y) <- e(X,Y). r(X,Z) <- e(X,Y), r(Y,Z)."
SAME_GEN = """
sg(X,X) <- person(X).
sg(X,Y) <- par(X,XP), sg(XP,YP), par(Y,YP).
"""


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


class TestEquivalence:
    def test_bound_free_query(self):
        facts = {"e": [("a", "b"), ("b", "c"), ("c", "d"), ("x", "y")]}
        answers = query_magic(rules_of(TC), db_with(facts),
                              parse_atom('r("a",X)'))
        truth = {t for t in bottom_up(TC, facts, "r") if t[0] == "a"}
        assert answers == truth

    def test_fully_bound_query(self):
        facts = {"e": [("a", "b"), ("b", "c")]}
        hit = query_magic(rules_of(TC), db_with(facts), parse_atom('r("a","c")'))
        miss = query_magic(rules_of(TC), db_with(facts), parse_atom('r("c","a")'))
        assert hit == {("a", "c")} and miss == set()

    def test_free_bound_query(self):
        facts = {"e": [("a", "b"), ("b", "c")]}
        answers = query_magic(rules_of(TC), db_with(facts),
                              parse_atom('r(X,"c")'))
        truth = {t for t in bottom_up(TC, facts, "r") if t[1] == "c"}
        assert answers == truth

    def test_same_generation(self):
        facts = {
            "person": [("ann",), ("bob",), ("cal",), ("dee",)],
            "par": [("bob", "ann"), ("cal", "ann"), ("dee", "bob")],
        }
        answers = query_magic(rules_of(SAME_GEN), db_with(facts),
                              parse_atom('sg("bob",X)'))
        truth = {t for t in bottom_up(SAME_GEN, facts, "sg") if t[0] == "bob"}
        assert answers == truth

    def test_no_pollution_of_source_db(self):
        facts = {"e": [("a", "b")]}
        database = db_with(facts)
        query_magic(rules_of(TC), database, parse_atom('r("a",X)'))
        assert set(database.relations) == {"e"}


class TestGoalDirectedness:
    def test_irrelevant_component_not_explored(self):
        # a big component unrelated to the query should cost nothing
        edges = [("a", "b")] + [(f"x{i}", f"x{i+1}") for i in range(40)]
        program = magic_transform(rules_of(TC), parse_atom('r("a",X)'))
        overlay = db_with({"e": edges})
        overlay.add(program.seed_pred, program.seed_fact)
        stats = EvalStats()
        evaluate(program.rules, overlay, EvalContext(stats=stats))
        full_stats = EvalStats()
        evaluate(rules_of(TC), db_with({"e": edges}),
                 EvalContext(stats=full_stats))
        assert stats.new_facts < full_stats.new_facts / 4


class TestRestrictionsAndStrategy:
    def test_negation_rejected(self):
        with pytest.raises(SafetyError):
            magic_transform(rules_of("p(X) <- v(X), !w(X)."),
                            parse_atom('p("a")'))

    def test_aggregate_rejected(self):
        with pytest.raises(SafetyError):
            magic_transform(rules_of("c(N) <- agg<<N = count(X)>> v(X)."),
                            parse_atom("c(N)"))

    def test_query_without_rules_rejected(self):
        with pytest.raises(SafetyError):
            magic_transform(rules_of(TC), parse_atom('e("a",X)'))

    def test_choose_strategy(self):
        rules = rules_of(TC)
        database = db_with({"e": [("a", "b")]})
        assert choose_strategy(rules, parse_atom('r("a",X)'), database) == "magic"
        assert choose_strategy(rules, parse_atom("r(X,Y)"), database) == "bottomup"
        neg_rules = rules_of("p(X) <- v(X), !w(X).")
        assert choose_strategy(neg_rules, parse_atom('p("a")'), database) == "bottomup"


@given(st.integers(0, 2 ** 30))
@settings(max_examples=20, deadline=None)
def test_property_magic_matches_bottomup(seed):
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(rng.randint(2, 7))]
    edges = {(rng.choice(nodes), rng.choice(nodes))
             for _ in range(rng.randint(1, 14))}
    facts = {"e": sorted(edges)}
    source = rng.choice(nodes)
    answers = query_magic(rules_of(TC), db_with(facts),
                          parse_atom(f'r("{source}",X)'))
    truth = {t for t in bottom_up(TC, facts, "r") if t[0] == source}
    assert answers == truth


class TestProgramCache:
    """The rewrite cache: one program per (rules, pred, binding pattern)."""

    def test_same_pattern_different_bindings_share_one_program(self):
        facts = {"e": [("a", "b"), ("b", "c"), ("c", "d")]}
        db = db_with(facts)
        rules = rules_of(TC)
        truth = bottom_up(TC, facts, "r")
        stats = EvalStats()
        context = EvalContext(stats=stats)
        for source in ("a", "b", "c", "zz"):
            answers = query_magic(rules, db, parse_atom(f'r("{source}",X)'),
                                  context)
            assert answers == {t for t in truth if t[0] == source}
        # one rewrite built, three served from the cache — the bound
        # *values* differ per query but the binding pattern does not
        assert stats.magic_programs_built == 1
        assert stats.magic_cache_hits == 3

    def test_distinct_patterns_get_distinct_programs(self):
        facts = {"e": [("a", "b"), ("b", "c")]}
        db = db_with(facts)
        rules = rules_of(TC)
        stats = EvalStats()
        context = EvalContext(stats=stats)
        bf = query_magic(rules, db, parse_atom('r("a",X)'), context)
        fb = query_magic(rules, db, parse_atom('r(X,"c")'), context)
        bb = query_magic(rules, db, parse_atom('r("a","c")'), context)
        assert stats.magic_programs_built == 3
        assert stats.magic_cache_hits == 0
        truth = bottom_up(TC, facts, "r")
        assert bf == {t for t in truth if t[0] == "a"}
        assert fb == {t for t in truth if t[1] == "c"}
        assert bb == {("a", "c")}

    def test_fresh_rule_objects_do_not_poison_the_cache(self):
        # identity-keyed: re-parsing the program is a different key, so
        # answers stay correct (a miss, never a wrong hit)
        facts = {"e": [("a", "b"), ("b", "c")]}
        db = db_with(facts)
        first = query_magic(rules_of(TC), db, parse_atom('r("a",X)'))
        second = query_magic(rules_of(TC), db, parse_atom('r("a",X)'))
        assert first == second == {("a", "b"), ("a", "c")}

    def test_cache_is_fifo_bounded(self):
        from repro.datalog import magic as magic_module

        facts = {"e": [("a", "b")]}
        db = db_with(facts)
        keep = []
        before = len(magic_module._PROGRAM_CACHE)
        for _ in range(magic_module.MAX_CACHED_PROGRAMS + 8):
            rules = rules_of(TC)   # fresh identities: a fresh cache key
            keep.append(rules)
            query_magic(rules, db, parse_atom('r("a",X)'))
        assert len(magic_module._PROGRAM_CACHE) \
            <= magic_module.MAX_CACHED_PROGRAMS
        assert len(magic_module._PROGRAM_CACHE) >= before
