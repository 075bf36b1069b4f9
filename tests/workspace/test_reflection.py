"""Reflection on demand (paper section 3.3, Figure 1).

A workspace reifies every rule it meets, but materializes a Figure 1
relation only once something in it reads that relation — a rule body, a
constraint, a query, ``tuples`` / ``point_query`` / ``edb``, Binder's
``factsmatching`` — and maintains it eagerly from then on.  What a read
returns never depends on when the relation was first read: every
property here compares a workspace that reads lazily with a twin that
read all 17 relations before anything else happened, which is eager
reflection.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import LBTrustSystem
from repro.core.provenance import explain
from repro.datalog.errors import (
    BuiltinError,
    ConstraintViolation,
    WorkspaceError,
)
from repro.datalog.terms import Atom, Constant, Rule
from repro.languages.binder import BinderContext
from repro.meta.model import ALL_META_PREDS
from repro.workspace.catalog import ReflectedWriteError
from repro.workspace.workspace import Workspace

META = sorted(ALL_META_PREDS)


class Aborted(Exception):
    pass


def materialized(workspace):
    return ALL_META_PREDS & set(workspace.db.relations)


def read_everything(workspace):
    for pred in META:
        workspace.tuples(pred)


class TestOnDemand:
    def test_an_exchange_reads_no_figure_1_relation(self):
        system = LBTrustSystem(auth="hmac", seed=3)
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        bob.load("gotA(X) <- ping(X).")
        for token in ("a", "b", "c"):
            alice.says(bob, f'ping("{token}").')
        system.run()
        assert bob.tuples("gotA") == {("a",), ("b",), ("c",)}
        for principal in (alice, bob):
            assert materialized(principal.workspace) == set()
            assert principal.workspace._demanded == set()
        # still reified: a later read has everything to backfill from
        assert len(bob.workspace._reified) > 3

    def test_a_rule_body_demands_before_the_rule_first_applies(self):
        ws = Workspace("w")
        ws.add_rule("p(X) <- q(X).")
        assert materialized(ws) == set()
        ws.add_rule("shape(P) <- functor(_,P).")
        assert ws._demanded == {"functor"}
        assert ws.tuples("shape") == {("p",), ("q",), ("shape",),
                                      ("functor",)}
        # maintained from then on
        ws.add_rule("r(X) <- s(X).")
        assert {("r",), ("s",)} <= ws.tuples("shape")

    def test_a_constraint_demands_what_it_reads(self):
        ws = Workspace("w")
        ws.add_rule("p(X) <- q(X).")
        ws.add_constraint("functor(A,P) -> predicate(P).")
        assert ws._demanded == {"functor", "predicate"}
        assert materialized(ws) == {"functor", "predicate"}

    def test_a_query_and_a_point_query_demand(self):
        ws = Workspace("w")
        ref = ws.add_rule("p(X) <- q(X).")
        assert ws.query("factrule(R)") == []
        assert ws.query("rule(R)") == [{"R": ref}]
        assert ws.point_query("head(R,A)") == {(ref, f"$a{ref.rid}_1")}
        assert ws._demanded == {"factrule", "rule", "head"}

    def test_explaining_a_meta_fact_reads_its_relation(self):
        ws = Workspace("w", enable_provenance=True)
        ref = ws.add_rule("p(X) <- q(X).")
        assert explain(ws, "rule", (ref,)).is_edb

    def test_a_rolled_back_read_is_undone_with_its_rows(self):
        ws = Workspace("w")
        ref = ws.add_rule("p(X) <- q(X).")
        with pytest.raises(Aborted):
            with ws.transaction():
                assert ws.tuples("rule") == {(ref,)}
                raise Aborted
        assert ws._demanded == set()
        assert ws.db.get("rule") is None and "rule" not in ws._base
        assert ws.tuples("rule") == {(ref,)}

    def test_retracting_a_meta_fact_is_refused_lazy_or_eager(self):
        # reflection is a Figure 1 relation's only remover, as it is its
        # only writer: the refusal is audited, and the row stays
        lazy, eager = Workspace("w"), Workspace("w")
        read_everything(eager)
        for ws in (lazy, eager):
            ref = ws.add_rule("p(X) <- q(X).")
            with pytest.raises(ReflectedWriteError):
                ws.retract_fact("rule", (ref,))
            assert ws.tuples("rule") == {(ref,)}
            assert [event.detail for event in ws.audit
                    if event.kind == "meta_write_refused"] == [
                {"workspace": "w", "relation": "rule"}]

    def test_retracting_a_mirrored_name_is_refused(self):
        lazy, eager = Workspace("w"), Workspace("w")
        read_everything(eager)
        for ws in (lazy, eager):
            ws.load("q(1).")
            with pytest.raises(ReflectedWriteError):
                ws.retract_fact("predicate", ("q",))
            assert ("q",) in ws.tuples("predicate")

    def test_a_ref_named_inside_a_reified_rule_is_reified_with_it(self):
        ws = Workspace("w")
        inner = ws.registry.intern_text("p(X) <- q(X).")
        outer = ws.add_rule(Rule((Atom("holds", (Constant(inner),)),)))
        assert ws._reified == {outer, inner}
        assert ws.tuples("rule") == {(outer,), (inner,)}

    def test_a_rule_interned_after_the_skip_is_reified_at_its_next_mention(
            self):
        ws = Workspace("w")
        ref = ws.add_rule("p(X) <- q(X).")
        # every ref of the registry is reified: these rows are not scanned
        ws.assert_fact("q", (1,))
        assert ws._reified == {ref} and len(ws.registry) == 1
        said = ws.registry.intern_text("s(X) <- t(X).")
        ws.assert_fact("q", (said,))
        assert ws._reified == {ref, said}
        assert ws.tuples("rule") == {(ref,), (said,)}

    def test_the_mirror_lists_every_relation_eager_reflection_populates(self):
        lazy, eager = Workspace("w"), Workspace("w")
        read_everything(eager)
        for ws in (lazy, eager):
            ws.load('p(X) <- q(X), !r(X, "k").\n'
                    "out([| s(X). |]) <- go(X).")
            ws.assert_fact("q", (1,))
        # first of all: nothing else is materialized in ``lazy`` yet
        assert lazy.tuples("predicate") == eager.tuples("predicate")
        assert {("negated",), ("quoteterm",), ("vname",)} \
            <= lazy.tuples("predicate")
        assert lazy.tuples("pname") == eager.tuples("pname")


def fig2_exchange(eager, registry=None):
    """alice and bob say three facts each to the other under HMAC; the
    ``eager`` twin reads every Figure 1 relation first."""
    system = LBTrustSystem(auth="hmac", seed=1)
    if registry is not None:
        system.registry = registry
    alice = system.create_principal("alice")
    bob = system.create_principal("bob")
    if eager:
        for principal in (alice, bob):
            for pred in sorted(ALL_META_PREDS):
                principal.tuples(pred)
    alice.load("gotB(X) <- pong(X).")
    bob.load("gotA(X) <- ping(X).")
    for token in ("a", "b", "c"):
        alice.says(bob, f"ping(\"{token}\").")
        bob.says(alice, f"pong(\"{token}\").")
    report = system.run()
    assert report.delivered == 6 and report.rejected == 0, report
    return system, bob


def test_reflection_stays_on_demand_over_a_fig2_exchange():
    """Reflection stays on demand: a Figure 2 exchange reads no Figure 1
    relation, so neither workspace may hold one.  Every rule is still
    reified, so a later read answers what eager reflection would: the
    twin read all 17 relations before anything happened.  Reifying
    eagerly again is what fails the first assert."""
    system, bob = fig2_exchange(eager=False)
    assert bob.tuples("gotA") == {("a",), ("b",), ("c",)}
    for principal in system.principals.values():
        held = ALL_META_PREDS & set(principal.workspace.db.relations)
        assert not held, (principal.name, sorted(held))
    _, eager_bob = fig2_exchange(eager=True, registry=system.registry)
    lazy, eager = bob.tuples("factrule"), eager_bob.tuples("factrule")
    assert lazy == eager and len(lazy) >= 3, (lazy, eager)


class TestEdbView:
    def test_membership_materializes_nothing(self, monkeypatch):
        ws = Workspace("w")
        ws.assert_facts("edge", [(i, i + 1) for i in range(100)])
        ws.add_rule("p(X) <- q(X).")
        calls = []
        view = type(ws.edb)
        getitem = view.__getitem__
        monkeypatch.setattr(view, "__getitem__", lambda self, pred:
                            calls.append(pred) or getitem(self, pred))
        assert "edge" in ws.edb and "nope" not in ws.edb
        # a Figure 1 relation a reified rule populates is a key before
        # anything reads it, and asking does not read it
        assert "rule" in ws.edb and "negated" not in ws.edb
        assert calls == [] and materialized(ws) == set()

    def test_reading_a_figure_1_relation_demands_it(self):
        ws = Workspace("w")
        ref = ws.add_rule("p(X) <- q(X).")
        assert ws.edb["rule"] == {(ref,)}
        assert ws._demanded == {"rule"}
        assert ws.edb.get("factrule") is None
        assert "factrule" in ws._demanded


# -- the eager twin ------------------------------------------------------------

RULES = [
    "path(X,Y) <- edge(X,Y).",
    "path(X,Z) <- path(X,Y), edge(Y,Z).",
    "big(X) <- num(X), X > 2.",
    "lone(X) <- num(X), !big(X).",
    # these read Figure 1 relations through their bodies
    "heardrule(U,P) <- says(U,me,[| P(T*) <- A*. |]).",
    "told(U,N) <- says(U,me,[| num(N). |]).",
    "shape(P) <- functor(_,P).",
    "named(N) <- vname(_,N).",
]
SAID = ["num(1).", "num(7).", "edge(1,2).", "edge(2,3).",
        "path(X,Y) <- edge(Y,X).", "flag(X) <- num(X), X > 5."]
CONSTRAINTS = ["functor(A,P) -> predicate(P).",
               "head(R,A) -> rule(R), atom(A)."]
USER_PREDS = ("path", "big", "lone", "heardrule", "told", "shape", "named",
              "flag", "num", "edge")

steps = st.lists(st.tuples(
    st.sampled_from(["alice", "bob"]),
    st.sampled_from(["load", "deactivate", "says", "assert", "constrain",
                     "abort", "read", "read"]),
    st.integers(0, 1000)), min_size=1, max_size=12)


def build(eager, registry=None):
    """A system of two principals.  The twin shares the lazy system's
    registry, so both hold the same rules as the same refs (the parser
    names anonymous variables from a process-wide counter, and a rule's
    ``vname`` rows are the names its first parse gave)."""
    system = LBTrustSystem(auth="plaintext")
    if registry is not None:
        system.registry = registry
    principals = {name: system.create_principal(name)
                  for name in ("alice", "bob")}
    if eager:
        for principal in principals.values():
            read_everything(principal.workspace)
    return system, principals


def step(system, principals, name, op, pick, loaded):
    """One step at ``name``; returns what it read, or the error it met."""
    principal = principals[name]
    workspace = principal.workspace
    other = "bob" if name == "alice" else "alice"
    try:
        if op == "load":
            loaded.append(principal.add_rule(RULES[pick % len(RULES)]))
        elif op == "deactivate":
            if loaded:
                workspace.deactivate_rule(loaded[pick % len(loaded)])
        elif op == "says":
            principal.says(other, SAID[pick % len(SAID)])
            system.run()
        elif op == "assert":
            principal.assert_fact("num", (pick % 9,))
        elif op == "constrain":
            principal.add_constraint(CONSTRAINTS[pick % len(CONSTRAINTS)])
        elif op == "abort":
            # a read inside a transaction that then rolls back
            with workspace.transaction():
                workspace.add_rule(RULES[pick % len(RULES)])
                workspace.tuples(META[pick % len(META)])
                raise Aborted
        else:
            pred = META[pick % len(META)]
            return pred, workspace.tuples(pred)
    except (Aborted, BuiltinError, ConstraintViolation,
            WorkspaceError) as exc:
        return type(exc).__name__
    return None


def state(principal):
    workspace = principal.workspace
    return {
        "reified": set(workspace._reified),
        "active": set(workspace._activated),
        "tuples": {pred: workspace.tuples(pred) for pred in USER_PREDS},
    }


class TestEagerTwin:
    @given(steps)
    # ``predicate`` first, before any other relation is read, then after
    @example([("bob", "read", META.index("predicate")),
              ("bob", "load", 6), ("bob", "read", META.index("predicate")),
              ("bob", "read", META.index("pname"))])
    # a rule reading ``functor`` at bob, said rules arriving after it
    @example([("bob", "load", 6), ("alice", "says", 4),
              ("alice", "says", 0), ("bob", "abort", 3)])
    @settings(max_examples=60, deadline=None)
    def test_every_read_answers_what_eager_reflection_does(self, stream):
        lazy_system, lazy = build(eager=False)
        eager_system, eager = build(eager=True, registry=lazy_system.registry)
        loaded = {(side, name): [] for side in ("lazy", "eager")
                  for name in lazy}
        for name, op, pick in stream:
            seen = step(lazy_system, lazy, name, op, pick,
                        loaded["lazy", name])
            expected = step(eager_system, eager, name, op, pick,
                            loaded["eager", name])
            assert seen == expected, (name, op, pick)
            for each in lazy:
                assert state(lazy[each]) == state(eager[each]), each
        for each in lazy:
            for pred in META:
                assert lazy[each].tuples(pred) == eager[each].tuples(pred), \
                    (each, pred)
            assert lazy[each].workspace.edb.keys() \
                <= eager[each].workspace.edb.keys()


class TestBinderPull:
    def test_a_pull_of_a_figure_1_pattern(self):
        """alice asks bob for his ``negated`` rows through pull0/pull1:
        bob's ``factsmatching`` is the first reader of that relation.
        (An answer is a fact-rule bob reifies in turn, so a pattern over
        a relation every rule populates — ``functor``, ``factrule`` —
        never quiesces, lazily or eagerly.)"""
        def run(eager, registry=None):
            system, principals = build(eager=False, registry=registry)
            alice, bob = principals["alice"], principals["bob"]
            if eager:
                read_everything(bob.workspace)
            bob.load('good(C) <- rating(C, "good"), !banned(C).')
            BinderContext(bob).install_pull()
            alice_context = BinderContext(alice)
            alice_context.install_pull()
            alice_context.load("marked(A) :- bob says negated(A).")
            system.run()
            return system, bob, alice.tuples("marked")

        system, bob, marked = run(eager=False)
        assert "negated" in bob.workspace._demanded
        assert marked == bob.tuples("negated") != set()
        assert marked == run(eager=True, registry=system.registry)[2]
