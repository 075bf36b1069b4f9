"""The join core: plans, term evaluation, matching, safety analysis."""

import pytest

from repro.datalog.builtins import standard_registry
from repro.datalog.database import Database, TermInterner
from repro.datalog.errors import BuiltinError, SafetyError
from repro.datalog.parser import parse_statements, parse_term
from repro.datalog.stats import EvalStats
from repro.datalog.runtime import (
    EvalContext,
    Unbound,
    bindable_vars,
    build_plan,
    check_rule_safety,
    eval_term,
    solve,
)
from repro.datalog.terms import (
    Atom,
    BuiltinCall,
    Comparison,
    Constant,
    Literal,
    PredPartition,
    Rule,
    Variable,
)


def body_of(source):
    (rule,) = [s for s in parse_statements(source) if isinstance(s, Rule)]
    return rule.body


def compiled_body(source):
    """Body with builtin functors resolved (what the engine actually sees)."""
    from repro.meta.quote import compile_rule

    (rule,) = [s for s in parse_statements(source) if isinstance(s, Rule)]
    return compile_rule(rule, None, standard_registry()).body


class TestEvalTerm:
    def setup_method(self):
        self.context = EvalContext()

    def test_constant(self):
        assert eval_term(Constant(5), {}, self.context) == 5

    def test_variable_bound(self):
        assert eval_term(Variable("X"), {"X": "v"}, self.context) == "v"

    def test_variable_unbound_raises(self):
        with pytest.raises(Unbound):
            eval_term(Variable("X"), {}, self.context)

    def test_nested_expression(self):
        term = parse_term("(X + 1) * 2")
        assert eval_term(term, {"X": 3}, self.context) == 8

    def test_partition_term(self):
        term = parse_term("export[P]")
        value = eval_term(term, {"P": "bob"}, self.context)
        assert value == PredPartition("export", ("bob",))

    def test_quote_without_registry_raises(self):
        term = parse_term("[| p(X). |]")
        with pytest.raises(BuiltinError):
            eval_term(term, {"X": 1}, self.context)


class TestMatchLiteral:
    """Single-literal matching, driven through :func:`solve` (the cases
    the removed ``match_literal`` helper used to pin)."""

    @staticmethod
    def match(atom, rows, bindings=None, context=None):
        db = Database()
        for row in rows:
            db.add(atom.pred, row)
        return list(solve((Literal(atom),), db, context or EvalContext(),
                          bindings=bindings))

    def test_bound_positions_use_index(self):
        from repro.datalog.engine import EvalStats

        stats = EvalStats()
        atom = Atom("p", (Constant("a"), Variable("X")))
        results = self.match(atom, [("a", 1), ("a", 2), ("b", 3)],
                             context=EvalContext(stats=stats))
        assert {r["X"] for r in results} == {1, 2}
        assert (stats.literal_scans, stats.full_scans, stats.id_joins) \
            == (1, 0, 1)

    def test_repeated_free_variable(self):
        atom = Atom("p", (Variable("X"), Variable("X")))
        results = self.match(atom, [("a", "a"), ("a", "b")])
        assert [r["X"] for r in results] == ["a"]

    def test_arity_mismatch_is_no_match(self):
        atom = Atom("p", (Variable("X"), Variable("Y")))
        assert self.match(atom, [("a",)]) == []

    def test_existing_binding_filters(self):
        atom = Atom("p", (Variable("X"), Variable("Y")))
        results = self.match(atom, [("a", 1), ("b", 2)], {"X": "b"})
        assert results == [{"X": "b", "Y": 2}]

    def test_caller_binding_unknown_to_the_database_matches_nothing(self):
        atom = Atom("p", (Variable("X"), Variable("Y")))
        assert self.match(atom, [("a", 1)], {"X": "never-stored"}) == []


class TestBuildPlan:
    def test_filters_scheduled_after_binding(self):
        body = body_of("h(X) <- big(X), X > 3, small(X).")
        plan = build_plan(body, TermInterner(), builtins=standard_registry())
        kinds = [type(body[i]).__name__ for i in plan.order]
        # the comparison runs immediately after the first literal binds X
        assert kinds == ["Literal", "Comparison", "Literal"]

    def test_negation_deferred_until_shared_vars_bound(self):
        body = body_of("h(X) <- v(X), !w(X,Y), u(Y).")
        plan = build_plan(body, TermInterner(), builtins=standard_registry())
        order = [body[i] for i in plan.order]
        negated_index = next(i for i, item in enumerate(order)
                             if isinstance(item, Literal) and item.negated)
        u_index = next(i for i, item in enumerate(order)
                       if isinstance(item, Literal) and item.atom.pred == "u")
        assert u_index < negated_index

    def test_delta_position_comes_first(self):
        body = body_of("h(X,Z) <- a(X,Y), b(Y,Z).")
        plan = build_plan(body, TermInterner(), first=1,
                          builtins=standard_registry())
        assert plan.order[0] == 1

    def test_builtin_waits_for_inputs(self):
        body = compiled_body("h(X,N) <- strlen(X,N), v(X).")
        plan = build_plan(body, TermInterner(), builtins=standard_registry())
        order = [body[i] for i in plan.order]
        assert isinstance(order[0], Literal)       # v(X) first binds X
        assert isinstance(order[1], BuiltinCall)

    def test_unknown_builtin_rejected(self):
        body = (BuiltinCall("nosuch", (Variable("X"),)),)
        with pytest.raises(SafetyError):
            build_plan(body, TermInterner(), builtins=standard_registry())

    def test_unschedulable_raises(self):
        body = (Comparison(">", Variable("X"), Constant(1)),)
        with pytest.raises(SafetyError):
            build_plan(body, TermInterner(), builtins=standard_registry())


class TestCostBasedPlan:
    def plan_order(self, body, sizes):
        plan = build_plan(body, TermInterner(),
                          builtins=standard_registry(), sizes=sizes)
        return [body[i].atom.pred for i in plan.order
                if isinstance(body[i], Literal)], plan

    def test_small_relation_scheduled_first_when_much_cheaper(self):
        body = body_of("h(X) <- big(X), small(X).")
        order, plan = self.plan_order(body, {"big": 1000, "small": 5})
        assert order == ["small", "big"]
        assert plan.reordered

    def test_near_tie_keeps_source_order(self):
        body = body_of("h(X) <- big(X), small(X).")
        order, plan = self.plan_order(body, {"big": 12, "small": 5})
        assert order == ["big", "small"]
        assert not plan.reordered

    def test_no_sizes_keeps_greedy_order(self):
        body = body_of("h(X) <- big(X), small(X).")
        order, plan = self.plan_order(body, None)
        assert order == ["big", "small"]
        assert not plan.reordered

    def test_bound_columns_discount_scan_estimates(self):
        # seed(X) binds X; big(X,Y) then probes on a bound column, which
        # beats scanning mid unbound even though mid is smaller than big.
        body = body_of("h(Y) <- seed(X), big(X,Y), mid(Y).")
        order, _ = self.plan_order(
            body, {"seed": 2, "big": 10000, "mid": 500})
        assert order == ["seed", "big", "mid"]

    def test_delta_position_still_forced_first(self):
        body = body_of("h(X,Z) <- a(X,Y), b(Y,Z).")
        plan = build_plan(body, TermInterner(), first=1,
                          builtins=standard_registry(),
                          sizes={"a": 100000, "b": 3})
        assert plan.order[0] == 1

    def test_solve_sizes_a_fresh_plan_only_past_the_band_floor(self):
        # solve() plans through banded_plan: the cost model engages once
        # some body relation leaves the small band, and not before
        body = body_of("h(X) <- big(X), small(X).")
        db = Database()
        for i in range(100):
            db.add("big", (i,))
        db.add("small", (1,))
        stats = EvalStats()
        assert list(solve(body, db, EvalContext(stats=stats))) == [{"X": 1}]
        assert (stats.plans_built, stats.reorder_wins) == (1, 1)
        tiny = Database()
        tiny.add("big", (1,))
        tiny.add("small", (1,))
        stats = EvalStats()
        assert list(solve(body, tiny, EvalContext(stats=stats))) == [{"X": 1}]
        assert (stats.plans_built, stats.reorder_wins) == (1, 0)


class TestPlanReuse:
    def test_stale_plan_assumptions_trigger_rebuild(self):
        db = Database()
        db.add("p", ("a",))
        db.add("p", ("b",))
        body = body_of("h(X) <- p(X).")
        plan = build_plan(body, db.interner, frozenset({"X"}),
                          builtins=standard_registry())
        # Reusing a plan compiled for bound X with unbound bindings must
        # fall back to a fresh plan, not misread the binding shape.
        results = list(solve(body, db, EvalContext(), plan=plan))
        assert {r["X"] for r in results} == {"a", "b"}

    def test_matching_assumptions_reuse_the_plan(self):
        db = Database()
        db.add("p", ("a",))
        body = body_of("h(X) <- p(X).")
        plan = build_plan(body, db.interner, frozenset({"X"}),
                          builtins=standard_registry())
        results = list(solve(body, db, EvalContext(),
                             bindings={"X": "a"}, plan=plan))
        assert results == [{"X": "a"}]

    def test_flat_compilation_covers_pure_literal_bodies(self):
        body = body_of("h(X,Z) <- a(X,Y), b(Y,Z), !c(X).")
        plan = build_plan(body, TermInterner(), builtins=standard_registry())
        assert len(plan.steps) == len(plan.order) == 3

    def test_flat_compilation_covers_filters(self):
        body = body_of("h(X) <- a(X), X > 3.")
        plan = build_plan(body, TermInterner(), builtins=standard_registry())
        assert len(plan.steps) == len(plan.order) == 2

    def test_flat_compilation_covers_assignment_and_builtins(self):
        body = compiled_body("h(Y,N) <- p(X,S), Y = X + 1, strlen(S,N).")
        plan = build_plan(body, TermInterner(), builtins=standard_registry())
        assert len(plan.steps) == len(plan.order) == 3
        assert {"X", "S", "Y", "N"} <= set(plan.slot_of)

    def test_flat_compilation_covers_quote_terms(self):
        # A quote-valued probe key compiles to a getter that materializes
        # only the pattern variables bound at that step (here: none — X is
        # first bound by this very literal) and asks the meta registry.
        body = body_of("h(X) <- says(X, [| q(X). |]).")
        db = Database()
        db.add("says", ("alice", "the-rule"))
        plan = build_plan(body, db.interner, builtins=standard_registry())
        (step,) = plan.steps
        assert step.key_positions == (1,) and len(step.eval_fills) == 1
        seen = []

        def instantiate(quote, bindings):
            seen.append(dict(bindings))
            return "the-rule"

        context = EvalContext(instantiate_quote=instantiate)
        assert list(solve(body, db, context, plan=plan)) == [{"X": "alice"}]
        assert seen == [{}]

    def test_flat_compilation_covers_caller_bindings(self):
        body = body_of("h(Y) <- p(X,Y), Y > 1.")
        plan = build_plan(body, TermInterner(), frozenset({"X"}),
                          builtins=standard_registry())
        assert plan.assumes == {"X"}
        assert plan.slot_of["X"] == 0          # seeds take the first slots
        assert plan.steps[0].single_var == 0   # and feed the index probe


class TestSafetyAnalysis:
    def check(self, source):
        (rule,) = [s for s in parse_statements(source) if isinstance(s, Rule)]
        check_rule_safety(rule, standard_registry())

    def test_bindable_vars(self):
        body = compiled_body("h(Y) <- p(X), Y = X + 1, strlen(S,N).")
        names = bindable_vars(body, standard_registry())
        assert {"X", "Y", "N"} <= names

    def test_range_restricted_ok(self):
        self.check("h(X,Y) <- p(X), q(Y).")

    def test_head_var_from_assignment_ok(self):
        self.check("h(Y) <- p(X), Y = X * 2.")

    def test_head_var_from_builtin_output_ok(self):
        self.check("h(N) <- p(S), strlen(S,N).")

    def test_unbound_head_var_rejected(self):
        with pytest.raises(SafetyError):
            self.check("h(X,Y) <- p(X).")

    def test_quote_template_vars_exempt(self):
        # R stays a variable of the generated rule — legitimate
        self.check("active([| a(R) <- s(U,R). |]) <- d(U).")

    def test_aggregate_result_exempt(self):
        self.check("h(X,N) <- agg<<N = count(Y)>> e(X,Y).")


class TestSolveEdgeCases:
    def test_empty_conjunction_yields_once(self):
        results = list(solve((), Database(), EvalContext()))
        assert results == [{}]

    def test_seeded_bindings_respected(self):
        db = Database()
        db.add("p", ("a",))
        db.add("p", ("b",))
        body = body_of("h(X) <- p(X).")
        results = list(solve(body, db, EvalContext(), bindings={"X": "a"}))
        assert [r["X"] for r in results] == ["a"]

    def test_equality_binds_either_side(self):
        db = Database()
        db.add("p", (3,))
        left = body_of("h(Y) <- p(X), Y = X + 1.")
        right = body_of("h(Y) <- p(X), X + 1 = Y.")
        for body in (left, right):
            results = list(solve(body, db, EvalContext()))
            assert [r["Y"] for r in results] == [4]

    def test_builtin_output_conflict_filters(self):
        db = Database()
        db.add("p", ("abc", 3))
        db.add("p", ("abcd", 3))
        body = compiled_body("h(S) <- p(S,N), strlen(S,N).")
        results = list(solve(body, db, EvalContext(
            builtins=standard_registry())))
        assert [r["S"] for r in results] == ["abc"]
