"""Provenance (section 7, built): explain trees and trust chains."""

import pytest

from repro.core.provenance import explain, format_explanation, trust_chain
from repro.workspace.workspace import Workspace


class TestExplain:
    def make_workspace(self):
        workspace = Workspace("w", enable_provenance=True)
        workspace.load("""
            e("a","b"). e("b","c").
            r(X,Y) <- e(X,Y).
            tc: r(X,Z) <- r(X,Y), e(Y,Z).
        """)
        return workspace

    def test_edb_leaf(self):
        workspace = self.make_workspace()
        node = explain(workspace, "e", ("a", "b"))
        assert node.is_edb and node.children == []

    def test_derived_tree(self):
        workspace = self.make_workspace()
        node = explain(workspace, "r", ("a", "c"))
        assert node is not None and not node.is_edb
        assert node.rule == "tc"
        leaf_facts = set()

        def collect(n):
            if n.is_edb:
                leaf_facts.add((n.pred, n.fact))
            for child in n.children:
                collect(child)

        collect(node)
        assert ("e", ("a", "b")) in leaf_facts
        assert ("e", ("b", "c")) in leaf_facts

    def test_unknown_fact(self):
        workspace = self.make_workspace()
        assert explain(workspace, "r", ("z", "z")) is None

    def test_formatting(self):
        workspace = self.make_workspace()
        text = format_explanation(explain(workspace, "r", ("a", "c")))
        assert "tc" in text and "asserted" in text

    def test_disabled_provenance_raises(self):
        workspace = Workspace("w")
        with pytest.raises(ValueError):
            explain(workspace, "p", ("x",))

    def test_provenance_after_retraction(self):
        workspace = self.make_workspace()
        workspace.retract_fact("e", ("b", "c"))
        assert explain(workspace, "r", ("a", "c")) is None
        assert explain(workspace, "r", ("a", "b")) is not None

    def test_an_aggregate_fact_is_explained(self):
        """A count (a k-of-n threshold's shape) is proved by its group's
        body rows, and re-proved as the group changes."""
        workspace = Workspace("w", enable_provenance=True)
        workspace.load("p(1). p(2). c(N) <- agg<<N = count(X)>> p(X).")

        def leaves(fact):
            node = explain(workspace, "c", fact)
            assert not node.is_edb
            return {(child.pred, child.fact) for child in node.children}

        assert leaves((2,)) == {("p", (1,)), ("p", (2,))}
        workspace.retract_fact("p", (1,))
        assert explain(workspace, "c", (2,)) is None
        assert leaves((1,)) == {("p", (2,))}

    def test_cycles_terminate(self):
        workspace = Workspace("w", enable_provenance=True)
        workspace.load('e("a","b"). e("b","a"). '
                       "r(X,Y) <- e(X,Y). r(X,Z) <- r(X,Y), e(Y,Z).")
        node = explain(workspace, "r", ("a", "a"))
        assert node is not None
        assert_well_founded(workspace, node)

    def test_a_cycle_is_passed_over_for_a_founded_proof(self):
        """q(1) has a derivation through p(1), whose only derivation is
        through q(1) again; the proof explain returns is c <- e(1)."""
        workspace = Workspace("w", enable_provenance=True)
        workspace.load("a: p(X) <- q(X). b: q(X) <- p(X). "
                       "c: q(X) <- e(X). e(1).")
        node = explain(workspace, "q", (1,))
        assert_well_founded(workspace, node)
        assert node.rule == "c"
        assert [(c.pred, c.fact) for c in node.children] == [("e", (1,))]
        assert_well_founded(workspace, explain(workspace, "p", (1,)))

    def test_a_proof_is_a_shortest_one(self):
        """A non-linear closure over a complete graph: r(0,0) is proved
        from two edges, however many longer cyclic proofs the store
        holds (walking the first derivation at each node built a tree
        of 2**max_depth nodes)."""
        workspace = Workspace("w", enable_provenance=True)
        edges = " ".join(f"e({i},{j})." for i in range(6) for j in range(6)
                         if i != j)
        workspace.load(edges + " a: r(X,Z) <- r(X,Y), r(Y,Z). "
                               "b: r(X,Y) <- e(X,Y).")
        node = explain(workspace, "r", (0, 0))
        assert_well_founded(workspace, node)
        assert node.rule == "a"
        assert [child.rule for child in node.children] == ["b", "b"]


def assert_well_founded(workspace, node, path=()):
    """Every leaf is a derivation with no supports (an asserted row or a
    stated ground fact), and no fact repeats on a root-to-leaf path."""
    key = (node.pred, node.fact)
    assert key not in path, f"{key} repeats on the path {path}"
    if not node.children:
        assert (node.rule, ()) in workspace.provenance.of(*key), (
            f"leaf {key} by {node.rule} has supports")
    for child in node.children:
        assert_well_founded(workspace, child, path + (key,))


class TestTypedFacts:
    def test_retracting_one_spelling_keeps_the_others_proof(self):
        # t(1) and t(True) are two facts with two proofs: forgetting one
        # must not forget the other
        workspace = Workspace("w", enable_provenance=True)
        workspace.assert_fact("r", (1,))
        workspace.assert_fact("r", (True,))
        workspace.load("copy: t(X) <- r(X).")
        workspace.retract_fact("r", (True,))
        [(held,)] = workspace.tuples("t")
        assert type(held) is int
        assert workspace.provenance.of("t", (1,)) == {
            ("copy", (("r", (1,)),))}
        assert workspace.provenance.of("t", (True,)) == set()
        node = explain(workspace, "t", (1,))
        assert node is not None and node.rule == "copy"
        [leaf] = node.children
        assert leaf.is_edb and type(leaf.fact[0]) is int


class TestTrustChain:
    def test_says_hops_collected(self, make_system):
        system = make_system("plaintext", enable_provenance=True)
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        bob.load('object("f1"). access(P,O,"read") <- good(P), object(O).')
        alice.says(bob, 'good("carol").')
        system.run()
        hops = trust_chain(bob.workspace, "access", ("carol", "f1", "read"))
        assert any(speaker == "alice" and 'good("carol")' in text
                   for speaker, _listener, text in hops)


class TestQuoteBearingSaysProgram:
    """Provenance rides the same register walker as everything else: a
    relay whose rule head carries a quote template derives the same
    relations with the store on or off, and its explanations are the
    ones the store has always produced."""

    def relay(self, make_system, enable_provenance):
        system = make_system("hmac", enable_provenance=enable_provenance)
        a = system.create_principal("a")
        b = system.create_principal("b")
        c = system.create_principal("c")
        b.load('fwd: says(me,"c",[| msg(X). |]) <- msg(X).')
        c.load("see: seen(X) <- msg(X).")
        a.says(b, 'msg("hello").')
        a.says(b, 'msg("again").')
        system.run()
        return system

    def test_provenance_on_and_off_yield_identical_relations(self, make_system):
        on = self.relay(make_system, True)
        off = self.relay(make_system, False)
        for name in ("a", "b", "c"):
            with_store = on.principal(name).workspace.db
            without = off.principal(name).workspace.db
            assert with_store.preds() == without.preds()
            for pred in with_store.preds():
                if pred == "vname":
                    continue  # anonymous-variable names: a global counter
                assert with_store.tuples(pred) == without.tuples(pred), pred

    def test_explanations_cross_the_quote_head(self, make_system):
        system = self.relay(make_system, True)
        c = system.principal("c").workspace
        assert c.db.tuples("seen") == {("hello",), ("again",)}
        node = explain(c, "seen", ("hello",))
        assert (node.pred, node.fact, node.rule) == ("seen", ("hello",), "see")
        (child,) = node.children
        assert (child.pred, child.fact) == ("msg", ("hello",))
        assert trust_chain(c, "seen", ("hello",)) == [
            ("b", "c", 'msg("hello").')]
        # on the relay, the quote-headed rule's firing is recorded with
        # the body fact that matched
        b = system.principal("b").workspace
        relayed = [b.provenance.of("says", fact)
                   for fact in b.tuples("says") if fact[:2] == ("b", "c")]
        assert sorted(relayed, key=repr) == sorted(
            [{("fwd", (("msg", ("hello",)),))},
             {("fwd", (("msg", ("again",)),))}], key=repr)
