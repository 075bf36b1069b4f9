"""One join executor: every body evaluation walks the register plan.

The generator-continuation pipeline is gone, so there is no fallback to
take — these tests pin that structurally (every plan the paper's
machinery builds, for rules *and* for constraint LHS/RHS alternatives, is
a register program), and pin the behaviours the removed pipeline used to
own: caller-seeded bindings, stop-at-first existence checks, quote-valued
head terms, provenance, and the unbound-head ``SafetyError``.
"""

import pytest
from hypothesis import example, given, settings

from repro.apps.filesystem import AccessDenied, DistributedFileSystem
from repro.datalog import runtime
from repro.datalog.database import Database, Relation
from repro.datalog.engine import (
    EvalStats,
    ProvenanceStore,
    apply_rule,
    evaluate,
    normalize_rules,
)
from repro.datalog.errors import SafetyError
from repro.datalog.magic import query_magic
from repro.datalog.parser import parse_atom, parse_statements
from repro.datalog.runtime import (
    EvalContext,
    FlatPlan,
    build_plan,
    compile_head,
    run_flat,
    satisfiable,
    solve,
)
from repro.datalog.terms import Rule

from strategies import JoinCase, join_cases

STEP_CLASSES = (runtime._LiteralStep, runtime._CompareStep,
                runtime._BuiltinStep)


def rules_of(source):
    return [s for s in parse_statements(source) if isinstance(s, Rule)]


def section9_file_system():
    """The paper's section 9 demo: says + delegation + authorization
    meta-constraints, a delegated owner, granted and refused reads, and a
    scheme reconfiguration."""
    fs = DistributedFileSystem(auth="hmac", seed=5)
    fs.add_store("store")
    fs.add_owner("owner", mode="delegated")
    fs.add_manager("mgr")
    for requester in ("r1", "r2"):
        fs.add_requester(requester)
    fs.owner_trusts_manager("owner", "mgr", delegate=True, depth=0)
    fs.create_file("doc", owner="owner", store="store", data="secret")
    fs.manager_grant("mgr", "r1", "doc", "read")
    fs.system.run()
    assert fs.read("r1", "doc", "store") == "secret"
    with pytest.raises(AccessDenied):
        fs.read("r2", "doc", "store")
    fs.system.reconfigure_auth("plaintext")
    fs.system.run()
    assert fs.read("r1", "doc", "store") == "secret"
    return fs.system


class TestNoFallbackExists:
    def test_every_plan_of_the_paper_machinery_is_a_register_program(self):
        system = section9_file_system()
        rule_plans, constraint_plans = [], []
        for principal in system.principals.values():
            workspace = principal.workspace
            for rule in workspace._all_engine_rules():
                rule_plans.extend(rule._plans.values())
            constraint_plans.extend(workspace._constraint_plans.values())
        assert rule_plans and constraint_plans
        # constraint RHS alternatives are probed under their LHS witness:
        # caller-seeded plans compile like any other
        assert any(plan.assumes for plan in constraint_plans)
        for plan in rule_plans + constraint_plans:
            assert isinstance(plan, FlatPlan)
            assert len(plan.steps) == len(plan.order)
            assert set(plan.assumes) <= set(plan.slot_of)
            for step in plan.steps:
                assert isinstance(step, STEP_CLASSES)
        # head-position quote templates (says rules) compiled too
        quote_heads = sum(
            1 for plan in rule_plans if plan.head_spec is not None
            and plan.head_spec[1])
        assert quote_heads > 0

    def test_the_generator_pipeline_is_gone(self):
        for name in ("match_literal", "literal_holds", "instantiate_head",
                     "_LiteralOp", "_CompareOp", "_BuiltinOp",
                     "_FlatUnsupported"):
            assert not hasattr(runtime, name)
        for cls in STEP_CLASSES:
            assert not hasattr(cls, "run")


class TestSeededWalks:
    BODY = "h(Y) <- p(X,Y), Y > 1."

    def db(self):
        db = Database()
        for row in [("a", 1), ("a", 2), ("a", 3), ("b", 5)]:
            db.add("p", row)
        return db

    def test_seed_registers_feed_probe_keys(self):
        (rule,) = rules_of(self.BODY)
        stats = EvalStats()
        results = list(solve(rule.body, self.db(), EvalContext(stats=stats),
                             bindings={"X": "a"}))
        assert sorted(r["Y"] for r in results) == [2, 3]
        assert all(r["X"] == "a" for r in results)
        # the seeded column is an index probe, not a scan
        assert (stats.literal_scans, stats.full_scans, stats.id_joins) \
            == (1, 0, 1)

    def test_existence_check_stops_at_the_first_solution(self):
        (rule,) = rules_of("h(X) <- p(X,Y), q(Y).")
        db = self.db()
        for y in (1, 2, 3, 5):
            db.add("q", (y,))
        stats = EvalStats()
        assert satisfiable(rule.body, db, EvalContext(stats=stats))
        # one scan of p, one probe of q for the first p row — then stop
        assert stats.literal_scans == 2
        assert not satisfiable(rule.body, db, EvalContext(),
                               bindings={"X": "nobody"})

    def test_registers_are_not_read_before_they_are_bound(self):
        # Registers are reused across branches: when the walk comes back
        # to the quote-keyed literal for the second a-row, X's register
        # still holds the previous branch's value.  The getter may read
        # only what the plan order has bound at that step (Z is not a
        # pattern variable, X is bound later): nothing.
        (rule,) = rules_of("h(X) <- a(Z), seen(Z, [| q(X). |]), p(X,Y).")
        db = self.db()
        for z in (1, 2):
            db.add("a", (z,))
            db.add("seen", (z, "quoted"))
        calls = []

        def instantiate(quote, bindings):
            calls.append(dict(bindings))
            return "quoted"

        context = EvalContext(instantiate_quote=instantiate)
        assert len(list(solve(rule.body, db, context))) == 2 * 4
        assert calls == [{}, {}]


class TestQuoteHeadsAndProvenance:
    SOURCE = 'out: told(U, [| ok(U, N + 1). |], N) <- req(U, N), N > 0.'

    def run(self, provenance):
        (rule,) = normalize_rules(rules_of(self.SOURCE))
        db = Database() if provenance is None else provenance.db
        for row in [("ann", 1), ("bob", 0), ("cy", 2)]:
            db.add("req", row)
        seen = []

        def instantiate(quote, bindings):
            seen.append(dict(bindings))
            return ("rule-for", bindings["U"], bindings["N"])

        context = EvalContext(instantiate_quote=instantiate)
        rows = apply_rule(rule, db, context, provenance=provenance)
        return {db.interner.materialize_row(row) for row in rows}, seen

    def test_quote_head_sees_exactly_its_bound_pattern_variables(self):
        facts, seen = self.run(None)
        assert facts == {("ann", ("rule-for", "ann", 1), 1),
                         ("cy", ("rule-for", "cy", 2), 2)}
        assert sorted(seen, key=lambda b: b["U"]) == [
            {"U": "ann", "N": 1}, {"U": "cy", "N": 2}]

    def test_provenance_on_and_off_derive_the_same_facts(self):
        store = ProvenanceStore()
        with_store, _ = self.run(store)
        without, _ = self.run(None)
        assert with_store == without
        # supports are the matched positive body facts, in body order
        assert store.of("told", ("cy", ("rule-for", "cy", 2), 2)) == {
            ("out", (("req", ("cy", 2)),))}

    def test_provenance_records_duplicate_firings_too(self):
        rules = rules_of("a: r(X) <- e(X,Y). b: r(X) <- f(X).")
        db = Database()
        db.add("e", (1, 2))
        db.add("e", (1, 3))
        db.add("f", (1,))
        store = ProvenanceStore(db)
        evaluate(rules, db, provenance=store)
        assert store.of("r", (1,)) == {
            ("a", (("e", (1, 2)),)), ("a", (("e", (1, 3)),)),
            ("b", (("f", (1,)),))}


class TestUnboundHead:
    # message parity with the removed generic path (instantiate_head)
    MESSAGE = "head variable 'Y' of h is not bound by the body"

    @pytest.mark.parametrize("provenance", [None, ProvenanceStore()])
    def test_unbound_head_variable(self, provenance):
        (rule,) = normalize_rules(rules_of("h(X,Y) <- p(X)."))
        db = Database()
        db.add("p", (1,))
        with pytest.raises(SafetyError) as excinfo:
            apply_rule(rule, db, EvalContext(), provenance=provenance)
        assert str(excinfo.value) == self.MESSAGE

    def test_unbound_variable_inside_a_head_expression(self):
        (rule,) = normalize_rules(rules_of("h(X, Y + 1) <- p(X)."))
        db = Database()
        db.add("p", (1,))
        with pytest.raises(SafetyError) as excinfo:
            apply_rule(rule, db, EvalContext())
        assert str(excinfo.value) == self.MESSAGE

    def test_unbound_key_expression_raises_at_join_time(self):
        (rule,) = rules_of("h(Y) <- b(X + 1, Y).")
        db = Database()
        with pytest.raises(SafetyError, match="not bound at join time"):
            list(solve(rule.body, db, EvalContext()))


def two_id_spaces(facts):
    """Two databases holding ``facts`` whose interners number every value
    differently: the second interns some padding first."""
    first, second = Database(), Database()
    for pad in range(7):
        second.add("pad", (f"pad{pad}",))
    for db in (first, second):
        for pred, row in facts:
            db.add(pred, row)
    assert first.interner.ids["on"] != second.interner.ids["on"]
    return first, second


class TestOnePlanOneIdSpace:
    """A plan is compiled for the interner of the database it is planned
    over: one rule list evaluated over two id spaces plans once per id
    space and reaches each database's own fixpoint."""

    FACTS = [("edge", ("a", "b", "on")), ("edge", ("b", "c", "on")),
             ("edge", ("c", "d", "off"))]
    SOURCE = ('reach(X, Y, "via") <- edge(X, Y, "on"). '
              'reach(X, Z, "via") <- reach(X, Y, "via"), edge(Y, Z, "on").')
    ANSWERS = {("a", "b", "via"), ("a", "c", "via"), ("b", "c", "via")}

    def test_engine_rules_over_two_databases(self):
        rules = normalize_rules(rules_of(self.SOURCE))
        for db in two_id_spaces(self.FACTS):
            evaluate(rules, db)
            assert db.tuples("reach") == self.ANSWERS

    def test_one_magic_program_over_two_databases(self):
        rules = rules_of(self.SOURCE)
        for db in two_id_spaces(self.FACTS):
            assert query_magic(rules, db, parse_atom('reach("a", Y, T)')) \
                == {("a", "b", "via"), ("a", "c", "via")}


class TestConstantNoRowCarries:
    """A constant no row has ever carried becomes an id when its plan
    compiles: a positive literal on it matches nothing, and its negation
    holds — on every access path a constant reaches."""

    def db(self):
        db = Database()
        for row in [("a", "b"), ("b", "c")]:
            db.add("e", row)
        return db

    def plan(self, source, db):
        (rule,) = rules_of(source)
        return rule.body, build_plan(rule.body, db.interner)

    def test_constant_bucket(self):
        db = self.db()
        body, plan = self.plan('h(Y) <- e("ghost", Y).', db)
        (step,) = plan.steps
        assert step.key_const == db.interner.ids["ghost"]
        assert list(solve(body, db, EvalContext(), plan=plan)) == []
        body, plan = self.plan('h(X) <- e(X, Y), !e("ghost", Z).', db)
        (negation,) = [step for step in plan.steps if step.negated]
        assert negation.key_const == db.interner.ids["ghost"]
        assert {s["X"] for s in solve(body, db, EvalContext(), plan=plan)} \
            == {"a", "b"}

    def test_template_probe(self):
        db = self.db()
        for source, answers in [('h(X) <- e(X, Y), e(X, "ghost").', set()),
                                ('h(X) <- e(X, Y), !e(X, "ghost").',
                                 {"a", "b"})]:
            body, plan = self.plan(source, db)
            probe = plan.steps[1]
            assert probe.key_const is None and probe.single_var is None
            assert probe.key_template[1] == db.interner.ids["ghost"]
            assert {s["X"] for s in solve(body, db, EvalContext(),
                                          plan=plan)} == answers

    def test_outer_literal_of_the_two_literal_join(self):
        db = self.db()
        (rule,) = normalize_rules(
            rules_of('h(X, Z) <- e("ghost", X), e(X, Z).'))
        stats = EvalStats()
        evaluate([rule], db, EvalContext(stats=stats))
        (plan,) = rule._plans.values()
        assert plan.join2       # the fast join ran, no general walk
        assert db.tuples("h") == set()
        assert stats.literal_scans == 1 and stats.id_joins == 1


def join_application(case, join2):
    """One application of ``case``'s rule through its plan, the kernel
    left to decide (``join2`` None) or switched off (False): the rows it
    produces, its firings and its scan counters."""
    (rule,) = rules_of(case.rule)
    db = Database()
    for pred, row in case.rows:
        db.add(pred, row)
    plan = build_plan(rule.body, db.interner, first=case.lead)
    plan.join2 = join2
    delta = None
    if case.delta_position is not None:
        pred = rule.body[case.delta_position].atom.pred
        delta = {pred: Relation.wrap_rows(
            pred, {db.interner.intern_row(row) for row in case.delta},
            db.interner)}
    head = rule.heads[0]
    head_rows = db.rel(head.pred).rows if case.known else ()
    produced = {db.interner.intern_row(row) for row in case.produced}
    stats = EvalStats()
    fired = run_flat(plan, db, EvalContext(stats=stats), delta,
                     case.delta_position, compile_head(head, plan),
                     head_rows, produced)
    return plan, (produced, fired, stats.literal_scans, stats.id_joins,
                  stats.full_scans)


#: One probe key shared by two outer rows, a wrong-arity row on each
#: side, a known head row: the grouped loop's plain and mirrored heads
GROUPED = {
    mirrored: JoinCase(
        f"h({head}) <- p(X,Y), q(Y,Z).",
        (("p", (0, 1)), ("p", (2, 1)), ("p", (3, 1, 1)), ("q", (1, 2)),
         ("q", (1, 3)), ("q", (1, 0, 0)), ("h", (0, 2)), ("h", (2, 0))),
        0, 0, ((0, 1), (2, 1)), True, ())
    for mirrored, head in ((False, "X,Z"), (True, "Z,X"))}


class TestTheJoinKernel:
    """The two-literal kernel is the general walk's fast path: on every
    rule of its shape it produces the same rows and counts the same
    firings and scans, whether a key's rows arrive grouped or not."""

    @settings(max_examples=400, deadline=None)
    @given(join_cases())
    @example(GROUPED[False])
    @example(GROUPED[True])
    def test_the_grouped_kernel_equals_the_general_walk(self, case):
        _, kernel = join_application(case, None)
        _, walked = join_application(case, False)
        assert kernel == walked

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_the_examples_take_the_grouped_loop(self, mirrored):
        plan, (produced, fired, *_) = join_application(GROUPED[mirrored],
                                                        None)
        assert plan.join2[2][0] == mirrored
        assert (len(produced), fired) == (3, 4)
