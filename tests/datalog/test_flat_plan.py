"""Register plans over mixed bodies: parity with an independent oracle.

Bodies containing comparisons, builtin calls or expression-valued literal
keys all compile to :class:`FlatPlan` steps.  Every mixed body below must
produce exactly (a) the explicit expected set and (b) what the top-down
resolver (:mod:`benchmarks.oracles` — its own SLD resolution, sharing
no join code with the walker) answers for the same rule and facts, with
the provenance store attached or not.
"""

from benchmarks.oracles import query_topdown
from repro.datalog.builtins import standard_registry
from repro.datalog.database import Database
from repro.datalog.engine import (
    EngineRule,
    ProvenanceStore,
    apply_rule,
    normalize_rules,
)
from repro.datalog.parser import parse_statements
from repro.datalog.runtime import EvalContext, eval_term
from repro.datalog.terms import Rule
from repro.meta.quote import compile_rule


def engine_rule(source: str) -> EngineRule:
    (statement,) = [s for s in parse_statements(source)
                    if isinstance(s, Rule)]
    compiled = compile_rule(statement, principal=None,
                            builtins=standard_registry())
    (rule,) = normalize_rules([compiled])
    return rule


def database(facts: dict) -> Database:
    db = Database()
    for pred, rows in facts.items():
        for row in rows:
            db.add(pred, row)
    return db


def assert_parity(source: str, facts: dict, expected: set) -> None:
    context = EvalContext(builtins=standard_registry())
    for provenance in (None, ProvenanceStore()):
        db = database(facts)
        derived = apply_rule(engine_rule(source), db, context,
                             provenance=provenance)
        assert {db.interner.materialize_row(row)
                for row in derived} == expected
    rule = engine_rule(source)
    answers = query_topdown([rule], database(facts), rule.head, context)
    assert {tuple(eval_term(term, answer, context)
                  for term in rule.head.all_args)
            for answer in answers} == expected


class TestComparisonSteps:
    def test_filter_comparison(self):
        assert_parity(
            "h(X) <- a(X), X > 3.",
            {"a": [(1,), (4,), (9,)]},
            {(4,), (9,)},
        )

    def test_equality_assignment_with_expr(self):
        assert_parity(
            "h(X,Y) <- a(X), Y = X * 2 + 1.",
            {"a": [(1,), (3,)]},
            {(1, 3), (3, 7)},
        )

    def test_assignment_feeds_later_join(self):
        assert_parity(
            "h(X,Z) <- a(X), Y = X + 1, b(Y,Z).",
            {"a": [(1,), (5,)], "b": [(2, "two"), (6, "six"), (9, "no")]},
            {(1, "two"), (5, "six")},
        )

    def test_filter_between_two_bound_sides(self):
        assert_parity(
            "h(X,Y) <- a(X), b(Y), X = Y.",
            {"a": [(1,), (2,)], "b": [(2,), (3,)]},
            {(2, 2)},
        )


class TestBuiltinSteps:
    def test_builtin_output_binds_fresh_variable(self):
        assert_parity(
            'h(S,N) <- a(S), strlen(S,N).',
            {"a": [("ab",), ("wxyz",)]},
            {("ab", 2), ("wxyz", 4)},
        )

    def test_builtin_output_checks_bound_variable(self):
        assert_parity(
            'h(S) <- a(S,N), strlen(S,N).',
            {"a": [("ab", 2), ("ab", 3), ("xyz", 3)]},
            {("ab",), ("xyz",)},
        )

    def test_type_guard_builtin(self):
        assert_parity(
            "h(X) <- a(X), int(X).",
            {"a": [(1,), ("s",), (True,), (7,)]},
            {(1,), (7,)},
        )

    def test_list_builtin_chain(self):
        assert_parity(
            "h(L2) <- a(X), list_nil(L), list_cons(X,L,L2).",
            {"a": [(1,), (2,)]},
            {((1,),), ((2,),)},
        )


class TestExprLiteralKeys:
    def test_expr_valued_probe_key(self):
        assert_parity(
            "h(X,Y) <- a(X), b(X + 1, Y).",
            {"a": [(1,), (2,)], "b": [(2, "p"), (3, "q"), (5, "r")]},
            {(1, "p"), (2, "q")},
        )

    def test_negated_literal_with_expr_key(self):
        assert_parity(
            "h(X) <- a(X), !b(X + 1).",
            {"a": [(1,), (2,)], "b": [(2,)]},
            {(2,)},
        )


class TestMixedEverything:
    def test_comparison_builtin_and_join(self):
        assert_parity(
            'h(S,N,Z) <- a(S), strlen(S,N), N > 1, b(N,Z).',
            {"a": [("x",), ("ab",), ("abc",)],
             "b": [(2, "two"), (3, "three")]},
            {("ab", 2, "two"), ("abc", 3, "three")},
        )

    def test_stats_still_counted_on_flat_path(self):
        from repro.datalog.engine import EvalStats, evaluate

        rules = [s for s in parse_statements(
            "r: h(X) <- a(X), X > 0, b(X).") if isinstance(s, Rule)]
        db = Database()
        for i in (-1, 1, 2):
            db.add("a", (i,))
        db.add("b", (1,))
        stats = EvalStats()
        evaluate(rules, db, EvalContext(stats=stats))
        assert db.tuples("h") == {(1,)}
        assert stats.rule_firings == {"r": 1}
        assert stats.literal_scans > 0
