"""Only reflection writes the Figure 1 relations.

Every row of ``rule`` / ``functor`` / ``arg`` / … describes a rule the
workspace has met: a quoted pattern matching ``says(alice, me, [| pong(X).
|])`` trusts that ``functor`` row as much as alice's signature.  The host
catalog refuses a fact or a rule head over those relations on every
route — an API assert (audited), a fact or a rule in a load (``R203``),
a served ``assert`` — the workspace refuses a retraction there, and
code said or generated into one stays inert.
"""

import pytest

from repro import LBTrustSystem
from repro.analysis.pipeline import analyze_source
from repro.cluster.runtime import Cluster
from repro.datalog.errors import ClusterError, ServeError, WorkspaceError
from repro.datalog.terms import Atom, Constant
from repro.net.network import SimulatedNetwork
from repro.serve import ServeClient, ServeRouter, TrustServer
from repro.workspace.workspace import Workspace

LISTENER = "got(X) <- says(alice, me, [| pong(X). |])."


def exchange():
    """bob listens for alice's ``pong``; alice says ``ping("x")``."""
    system = LBTrustSystem(auth="hmac", seed=3)
    alice = system.create_principal("alice")
    bob = system.create_principal("bob")
    bob.load(LISTENER)
    alice.says(bob, 'ping("x").')
    system.run()
    atom = next(atom for atom, pred in bob.tuples("functor")
                if pred == "ping")
    return system, bob, atom


def refusals(workspace):
    return [event for event in workspace.audit
            if event.kind == "meta_write_refused"]


class TestRefusedRoutes:
    def test_an_api_assert_cannot_forge_a_pattern_match(self):
        _system, bob, atom = exchange()
        with pytest.raises(WorkspaceError, match="Figure 1"):
            bob.workspace.assert_fact("functor", (atom, "pong"))
        assert bob.tuples("got") == set()
        assert (atom, "pong") not in bob.tuples("functor")
        assert [event.detail for event in refusals(bob.workspace)] == [
            {"workspace": "bob", "relation": "functor"}]

    def test_an_asserted_atom_is_refused_too(self):
        ws = Workspace("w")
        with pytest.raises(WorkspaceError, match="Figure 1"):
            ws.assert_atom(Atom("rule", (Constant("r"),)))
        assert len(refusals(ws)) == 1

    def test_a_fact_in_a_load_is_r203(self):
        _system, bob, atom = exchange()
        with pytest.raises(WorkspaceError, match=r"\[R203\]"):
            bob.load(f'functor("{atom}", "pong").')
        assert bob.tuples("got") == set()

    def test_a_rule_head_in_a_load_is_r203(self):
        _system, bob, atom = exchange()
        bob.assert_fact("hint", (atom, "pong"))
        with pytest.raises(WorkspaceError, match=r"\[R203\]"):
            bob.load("functor(A,P) <- hint(A,P).")
        with pytest.raises(WorkspaceError, match="Figure 1"):
            bob.workspace.add_rule("functor(A,P) <- hint(A,P).")
        assert bob.tuples("got") == set()

    def test_r203_points_at_the_head(self):
        [diagnostic] = [d for d in analyze_source(
            "ok(1).\nvalue(T,V) <- ok(T), ok(V).\n") if d.code == "R203"]
        assert diagnostic.severity == "error"
        assert (diagnostic.span.line, diagnostic.span.column) == (2, 1)
        assert diagnostic.pred == "value"

    def test_reading_and_declaring_stay_open(self):
        ws = Workspace("w")
        ws.load("shape(P) <- functor(_,P).\nrule(R) -> .\n")
        ws.add_rule("p(X) <- q(X).")
        assert ("q",) in ws.tuples("shape")

    def test_a_served_assert_is_refused_and_the_server_answers(self):
        system, _bob, atom = exchange()
        network = SimulatedNetwork()
        server = TrustServer(system, network)
        client = ServeClient(network, "c1",
                             router=ServeRouter(network, server),
                             timeout=10.0)
        client.connect()
        with pytest.raises(ServeError, match="ReflectedWriteError"):
            client.assert_fact("functor", (atom, "pong"), principal="bob")
        assert isinstance(client.ping(), float)
        assert system.principal("bob").tuples("got") == set()
        assert server.last_unexpected_error == ""

    def test_a_served_retract_is_refused_and_the_server_answers(self):
        system, bob, atom = exchange()
        network = SimulatedNetwork()
        server = TrustServer(system, network)
        client = ServeClient(network, "c1",
                             router=ServeRouter(network, server),
                             timeout=10.0)
        client.connect()
        held = bob.tuples("functor")
        with pytest.raises(ServeError, match="ReflectedWriteError"):
            client.retract_fact("functor", (atom, "ping"), principal="bob")
        assert isinstance(client.ping(), float)
        assert bob.tuples("functor") == held
        assert [event.detail for event in refusals(bob.workspace)] == [
            {"workspace": "bob", "relation": "functor"}]
        assert server.last_unexpected_error == ""

    def test_a_cluster_refuses_it_as_a_cluster_error(self):
        cluster = Cluster(1)
        with pytest.raises(ClusterError, match="Figure 1"):
            cluster.assert_fact("functor", ("$a1_1", "pong"))


class TestInertCode:
    def test_a_said_rule_over_a_figure_1_relation_stays_inert(self):
        """alice says a fact rule into ``functor``: says1 activates it,
        and activation leaves it inert — the says row stands for
        patterns to read, the forged row never lands."""
        system, bob, atom = exchange()
        alice = system.principal("alice")
        alice.says(bob, f'functor("{atom}", "pong").')
        system.run()
        assert (atom, "pong") not in bob.tuples("functor")
        assert bob.tuples("got") == set()
        [event] = refusals(bob.workspace)
        assert event.detail["relation"] == "functor"
        said = {text for (_u, _me, ref) in bob.tuples("says")
                for text in [bob.workspace.rule_text(ref)]}
        assert f'functor("{atom}","pong").' in said

    def test_generated_code_over_a_figure_1_relation_stays_inert(self):
        ws = Workspace("w")
        ws.load("active([| rule(X) <- seed(X). |]) <- go(1).\n"
                "go(1). seed(7).")
        assert (7,) not in ws.tuples("rule")
        assert len(refusals(ws)) == 1
