"""Workspace behaviour: loading, queries, transactions, activation loop."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.errors import (
    ActivationLimitError,
    ConstraintViolation,
    WorkspaceError,
)
from repro.datalog.parser import parse_rule
from repro.workspace.workspace import Workspace


class TestLoading:
    def test_facts_rules_constraints(self):
        workspace = Workspace("w")
        workspace.load("""
            base("a"). base("b").
            derived(X) <- base(X).
            derived(X) -> base(X).
        """)
        assert workspace.tuples("derived") == {("a",), ("b",)}

    def test_incremental_fact_assertion(self):
        workspace = Workspace("w")
        workspace.load("d(X) <- b(X).")
        workspace.assert_fact("b", ("a",))
        assert workspace.tuples("d") == {("a",)}
        workspace.assert_fact("b", ("c",))
        assert workspace.tuples("d") == {("a",), ("c",)}

    def test_rule_added_after_facts(self):
        workspace = Workspace("w")
        workspace.assert_fact("b", ("a",))
        workspace.add_rule("d(X) <- b(X).")
        assert workspace.tuples("d") == {("a",)}

    def test_me_resolution(self):
        workspace = Workspace("alice")
        workspace.load('owner(me). mine(X) <- owned(me,X).')
        assert workspace.tuples("owner") == {("alice",)}
        workspace.assert_fact("owned", ("alice", "f"))
        assert workspace.tuples("mine") == {("f",)}

    def test_arity_clash_rejected(self):
        workspace = Workspace("w")
        workspace.load("p(X,Y) <- q(X,Y).")
        with pytest.raises(WorkspaceError):
            workspace.assert_fact("p", ("only-one",))

    def test_fact_with_quote_becomes_ruleref(self):
        from repro.datalog.terms import RuleRef
        workspace = Workspace("w")
        workspace.load('want([| data("x"). |]).')
        ((ref,),) = workspace.tuples("want")
        assert isinstance(ref, RuleRef)
        assert workspace.rule_text(ref) == 'data("x").'

    @pytest.mark.parametrize("text", ["", "% only a comment"])
    def test_add_rule_without_a_rule_is_refused(self, text):
        # it used to fail with a bare IndexError from refs[-1]
        workspace = Workspace("w")
        with pytest.raises(WorkspaceError, match="at least one rule"):
            workspace.add_rule(text)
        assert workspace.journal.entries is None
        assert workspace.active_refs() == set()


class TestQueries:
    def setup_method(self):
        self.workspace = Workspace("w")
        self.workspace.load("""
            e("a","b"). e("b","c").
            r(X,Y) <- e(X,Y).
            r(X,Z) <- r(X,Y), e(Y,Z).
        """)

    def test_query_bindings(self):
        rows = self.workspace.query('r("a",X)')
        assert {row["X"] for row in rows} == {"b", "c"}

    def test_query_with_negation(self):
        rows = self.workspace.query('e(X,_), !r(X,"b")')
        assert {row["X"] for row in rows} == {"b"}

    def test_query_with_comparison(self):
        rows = self.workspace.query('e(X,Y), X < "b"')
        assert {row["X"] for row in rows} == {"a"}

    def test_holds(self):
        assert self.workspace.holds('r("a","c")')
        assert not self.workspace.holds('r("c","a")')

    def test_query_deduplicates(self):
        rows = self.workspace.query("e(X,_)")
        assert len(rows) == len({tuple(sorted(r.items())) for r in rows})


class TestTransactions:
    def test_violation_rolls_back_facts(self):
        workspace = Workspace("w")
        workspace.add_constraint("p(X) -> q(X).")
        with pytest.raises(ConstraintViolation):
            workspace.assert_fact("p", ("a",))
        assert workspace.tuples("p") == set()

    def test_violation_rolls_back_derivations(self):
        workspace = Workspace("w")
        workspace.load("d(X) <- b(X). d(X) -> allowed(X).")
        workspace.assert_fact("allowed", ("ok",))
        workspace.assert_fact("b", ("ok",))
        with pytest.raises(ConstraintViolation):
            workspace.assert_fact("b", ("bad",))
        assert workspace.tuples("d") == {("ok",)}
        assert workspace.tuples("b") == {("ok",)}

    def test_batch_transaction_atomic(self):
        workspace = Workspace("w")
        workspace.add_constraint("p(X) -> q(X).")
        with pytest.raises(ConstraintViolation):
            with workspace.transaction():
                workspace.assert_fact("q", ("a",))
                workspace.assert_fact("p", ("a",))
                workspace.assert_fact("p", ("orphan",))
        # everything in the failed transaction is gone, even the valid part
        assert workspace.tuples("q") == set()

    def test_audit_survives_rollback(self):
        workspace = Workspace("w")
        workspace.add_constraint("p(X) -> q(X).")
        with pytest.raises(ConstraintViolation):
            workspace.assert_fact("p", ("a",))
        assert any(e.kind == "constraint_violation" for e in workspace.audit)

    def test_rule_rollback(self):
        workspace = Workspace("w")
        workspace.assert_fact("secretish", ("s",))
        workspace.add_constraint(
            'rule(R), body(R,A), functor(A,"secretish") -> never().')
        with pytest.raises(ConstraintViolation):
            workspace.add_rule("leak(X) <- secretish(X).")
        assert workspace.tuples("leak") == set()
        assert not workspace.holds('active(R), rule(R), body(R,A), functor(A,"secretish")')

    def test_nested_transactions_flatten(self):
        workspace = Workspace("w")
        with workspace.transaction():
            workspace.assert_fact("a", (1,))
            with workspace.transaction():
                workspace.assert_fact("b", (2,))
        assert workspace.tuples("a") == {(1,)}
        assert workspace.tuples("b") == {(2,)}

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    @pytest.mark.parametrize("where", ["body", "commit"])
    def test_an_interrupt_rolls_the_transaction_back(self, interrupt, where):
        """A transaction left open would make every later one nested:
        never committed, so nothing derived and no constraint checked."""
        workspace = Workspace("w")
        workspace.load("q(X) <- p(X). q(X) -> !banned(X).")
        workspace.assert_fact("banned", (3,))
        workspace.assert_fact("p", (0,))
        before = {pred: workspace.tuples(pred) for pred in workspace.db.preds()}
        edb = dict(workspace.edb.items())
        if where == "commit":
            def interrupted(*_args, **_kwargs):
                raise interrupt
            workspace._run_loop = interrupted
        with pytest.raises(interrupt):
            with workspace.transaction():
                workspace.assert_fact("p", (1,))
                if where == "body":
                    raise interrupt
        vars(workspace).pop("_run_loop", None)
        assert workspace._txn_depth == 0
        assert {pred: workspace.tuples(pred)
                for pred in workspace.db.preds()} == before
        assert dict(workspace.edb.items()) == edb
        assert workspace.journal.entries is None
        workspace.assert_fact("p", (2,))
        assert workspace.tuples("q") == {(0,), (2,)}
        with pytest.raises(ConstraintViolation):
            workspace.assert_fact("p", (3,))
        assert workspace.tuples("q") == {(0,), (2,)}


class TestConstraintDedup:
    """A constraint already installed (same label, same canonical text)
    is refused silently; its key is computed once, at install."""

    def test_duplicates_refused_and_order_kept(self):
        from repro.datalog.pretty import canonical_constraint

        workspace = Workspace("w")
        workspace.add_constraint("p(X) -> q(X).")
        workspace.add_constraint("r(X) -> q(X).")
        first_two = list(workspace.constraints)
        workspace.add_constraint("p(Y)   ->   q(Y).")   # same, respelled
        workspace.add_constraint("r(X) -> q(X).")
        assert workspace.constraints == first_two
        workspace.add_constraint("other: p(X) -> q(X).")    # another label
        assert [c.label for c in workspace.constraints][2:] == ["other"]
        assert canonical_constraint(workspace.constraints[0]) == \
            canonical_constraint(workspace.constraints[2])

    def test_an_add_does_not_revisit_the_installed_constraints(
            self, monkeypatch):
        import repro.datalog.pretty as pretty
        calls = []
        canonical = pretty.canonical_constraint
        monkeypatch.setattr(
            pretty, "canonical_constraint",
            lambda c: calls.append(c) or canonical(c))
        workspace = Workspace("w")
        for i in range(30):
            workspace.add_constraint(f"p{i}(X) -> q(X).")
        workspace.add_constraint("p7(X) -> q(X).")
        assert len(workspace.constraints) == 30
        assert len(calls) == 31     # it was 30 * 31 / 2 + 31

    def test_rollback_and_removal_keep_the_keys_in_step(self):
        workspace = Workspace("w")
        workspace.add_constraint("keep: p(X) -> q(X).")
        with pytest.raises(RuntimeError):
            with workspace.transaction():
                workspace.add_constraint("gone: r(X) -> q(X).")
                workspace.remove_constraints("keep")
                raise RuntimeError("abort")
        assert [c.label for c in workspace.constraints] == ["keep"]
        workspace.add_constraint("keep: p(X) -> q(X).")     # still a duplicate
        workspace.add_constraint("gone: r(X) -> q(X).")     # never installed
        assert [c.label for c in workspace.constraints] == ["keep", "gone"]
        assert workspace.remove_constraints("keep") == 1
        workspace.add_constraint("keep: p(X) -> q(X).")     # installable again
        assert [c.label for c in workspace.constraints] == ["gone", "keep"]


class TestTransactionCostsWhatItChanges:
    """On a workspace holding one indexed relation, a committed one-fact
    transaction and a constraint-refused two-fact one take the same time
    at 2,000 rows and at 20,000 (with a copy of the written relation per
    transaction they took ≈7× and ≈5× as long).  Best of many interleaved
    runs, as a ratio, so the host's speed and load cancel."""

    @staticmethod
    def build(rows):
        workspace = Workspace("w")
        workspace.load("edge(X,Y) -> .  bad(X) -> .  bad(X) -> nosuch(X).")
        workspace.assert_facts("edge", [(i, i + 1) for i in range(rows)])
        workspace.db.rel("edge").index_for((0,))
        return workspace

    @staticmethod
    def committed(workspace, t):
        workspace.assert_fact("edge", (-t, t))

    @staticmethod
    def refused(workspace, t):
        with pytest.raises(ConstraintViolation):
            with workspace.transaction():
                workspace.assert_fact("edge", (-t, -t))
                workspace.assert_fact("bad", (t,))

    @pytest.mark.parametrize("kind", ["committed", "refused"])
    def test_time_is_flat_in_the_size_of_the_relation(self, kind):
        from time import perf_counter

        transact = getattr(self, kind)
        small, large = self.build(2_000), self.build(20_000)
        best = {id(small): 1.0, id(large): 1.0}
        for t in range(1, 151):
            for workspace in (small, large):
                started = perf_counter()
                transact(workspace, t)
                best[id(workspace)] = min(best[id(workspace)],
                                          perf_counter() - started)
        assert best[id(large)] <= 1.5 * best[id(small)]
        if kind == "refused":
            assert len(large.edb["edge"]) == 20_000


class TestOneInternerForLife:
    """A deactivation inside a transaction that then rolls back must
    leave the relations and ``db.interner`` in agreement: the restored
    snapshot's id rows mean nothing under any other interner.  (The
    workspace keeps one ``Database`` for life; the name of the test is
    from when a deactivation replaced it.)"""

    PROGRAM = """
        base: path(X,Y) <- edge(X,Y).
        tag(X,"seen") <- path(X,_).
    """
    STEP = "step: path(X,Z) <- path(X,Y), edge(Y,Z)."
    EDGES = [("a", "b"), ("b", "c"), ("c", "d")]

    def build(self, edges):
        workspace = Workspace("w")
        workspace.load(self.PROGRAM)
        step = workspace.add_rule(self.STEP)
        for edge in edges:
            workspace.assert_fact("edge", edge)
        return workspace, step

    def test_rolled_back_full_recompute_keeps_the_interner(self):
        workspace, step = self.build(self.EDGES)
        db, interner = workspace.db, workspace.db.interner
        with pytest.raises(ConstraintViolation):
            with workspace.transaction():
                workspace.deactivate_rule(step)
                workspace.add_constraint("edge(X,Y) -> never(X).")
        assert workspace.stats.full_recomputes == 0
        assert workspace.db is db
        assert workspace.db.interner is interner
        assert all(relation.interner is interner
                   for relation in workspace.db.relations.values())

        workspace.assert_fact("edge", ("d", "e"))
        fresh, _ = self.build(self.EDGES + [("d", "e")])
        for pred in ("edge", "path", "tag"):
            assert workspace.tuples(pred) == fresh.tuples(pred)
        assert workspace.edb["edge"] == fresh.edb["edge"]


class TestRetraction:
    def test_retract_propagates(self):
        workspace = Workspace("w")
        workspace.load('e("a","b"). e("b","c"). r(X,Y) <- e(X,Y). '
                       "r(X,Z) <- r(X,Y), e(Y,Z).")
        workspace.retract_fact("e", ("b", "c"))
        assert workspace.tuples("r") == {("a", "b")}

    def test_retract_unknown_fact_rejected(self):
        workspace = Workspace("w")
        with pytest.raises(WorkspaceError):
            workspace.retract_fact("e", ("nope", "nope"))

    def test_retract_derived_fact_rejected(self):
        workspace = Workspace("w")
        workspace.load('e("a","b"). r(X,Y) <- e(X,Y).')
        with pytest.raises(WorkspaceError):
            workspace.retract_fact("r", ("a", "b"))

    def test_deactivate_rule(self):
        workspace = Workspace("w")
        workspace.assert_fact("b", ("x",))
        ref = workspace.add_rule("d(X) <- b(X).")
        assert workspace.tuples("d") == {("x",)}
        workspace.deactivate_rule(ref)
        assert workspace.tuples("d") == set()
        assert ref not in workspace.active_refs()


class TestActivationLoop:
    def test_derived_activation(self):
        """Deriving active(R) activates R — code generation (section 3.3)."""
        workspace = Workspace("w")
        workspace.load("""
            trigger("go").
            active([| generated("yes"). |]) <- trigger("go").
        """)
        assert workspace.tuples("generated") == {("yes",)}

    def test_chained_generation(self):
        workspace = Workspace("w")
        workspace.load("""
            seed(3).
            active([| countdown(N). |]) <- seed(N).
            active([| countdown(N-1). |]) <- countdown(N), N > 0.
        """)
        assert workspace.tuples("countdown") == {(3,), (2,), (1,), (0,)}

    def test_runaway_generation_capped(self):
        workspace = Workspace("w", max_activation_rounds=20)
        with pytest.raises(ActivationLimitError):
            workspace.load("""
                up(0).
                active([| up(N+1). |]) <- up(N).
            """)

    def test_deactivation_of_generator_removes_generated(self):
        workspace = Workspace("w")
        ref = workspace.add_rule('active([| gen("a"). |]) <- on().')
        workspace.assert_fact("on", ())
        assert workspace.tuples("gen") == {("a",)}
        workspace.retract_fact("on", ())
        assert workspace.tuples("gen") == set()


class TestVolatileRules:
    """The rules calling a volatile builtin re-run in full on every pass
    of the loop; the workspace keeps their list as rules activate and
    drop, so it must always equal a scan of every activated body."""

    RULES = [
        "ticked(T) <- clock(T).",
        "seen(X,T) <- item(X), clock(T).",
        "plain(X) <- item(X).",
        "active([| late(T) <- clock(T). |]) <- flag(1).",
    ]

    @staticmethod
    def scanned(ws):
        from repro.datalog.terms import BuiltinCall
        return [rule for rules in ws._activated.values() for rule in rules
                if any(isinstance(item, BuiltinCall)
                       and ws.builtins.lookup(item.name).volatile
                       for item in rule.body)]

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=30, deadline=None)
    def test_property_the_kept_list_is_the_scan(self, seed):
        rng = random.Random(seed)
        ws = Workspace("w")
        ws.builtins.register("clock", "o", lambda: [(0,)], volatile=True)
        ws.load('item("a").\nbad(X) -> never(X).')
        refs = {}
        for _ in range(12):
            step = rng.choice(["add", "add", "drop", "flag", "abort"])
            text = rng.choice(self.RULES)
            if step == "add":
                refs[text] = ws.add_rule(text)
            elif step == "drop" and text in refs:
                ws.deactivate_rule(refs.pop(text))
            elif step == "flag":
                if (1,) in ws.tuples("flag"):
                    ws.retract_fact("flag", (1,))
                else:
                    ws.assert_fact("flag", (1,))
            elif step == "abort":
                # refused at commit, after the loop activated the rule
                with pytest.raises(ConstraintViolation):
                    with ws.transaction():
                        if text in refs and rng.random() < 0.5:
                            ws.deactivate_rule(refs[text])
                        else:
                            ws.add_rule(text)
                        if (1,) not in ws.tuples("flag"):
                            ws.assert_fact("flag", (1,))
                        ws.assert_fact("bad", (1,))
            assert [id(r) for r in ws._volatile] == \
                [id(r) for r in self.scanned(ws)]


class TestPartitionedPredicates:
    def test_partitioned_storage_flattens_keys(self):
        workspace = Workspace("w")
        workspace.load('''
            prin("w"). prin("bob").
            exp0: export[U1](U2,R) -> prin(U1), prin(U2), string(R).
            export[U](me,R) <- outbox(U,R).
        ''')
        workspace.assert_fact("outbox", ("bob", "msg"))
        assert workspace.tuples("export") == {("bob", "w", "msg")}
        info = workspace.catalog.get("export")
        assert info.key_arity == 1 and info.arity == 3
