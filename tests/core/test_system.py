"""System runtime: placement, distribution, colocation, multi-hop runs."""

import pytest
from hypothesis import given, settings

from repro import LBTrustSystem
from repro.cluster.scheduler import ExecutionRuntime, refuse_faults
from repro.datalog.errors import ClusterError, WorkspaceError
from repro.datalog.terms import PredPartition
from repro.meta.registry import RuleRegistry
from repro.net.network import SimulatedNetwork
from repro.net.transport import encode_batch_message_dict

from strategies import (INJECTED, LISTENING, PEERS, UNACTIVATABLE,
                        hostile_streams)

#: The per-item wire shapes an older encoder produced (a single fact, a
#: ``batch`` list of them); nothing decodes them any more.
LEGACY_SHAPES = [
    pytest.param(
        b'{"to":"b","pred":"msg","fact":[{"t":"str","v":"forged"}]}',
        id="single-fact"),
    pytest.param(
        b'{"round":0,"batch":[{"to":"b","pred":"msg",'
        b'"fact":[{"t":"str","v":"forged"}]}]}', id="batch-key"),
]


class TestPrincipalManagement:
    def test_duplicate_principal_rejected(self, make_system):
        system = make_system()
        system.create_principal("alice")
        with pytest.raises(WorkspaceError):
            system.create_principal("alice")

    def test_everyone_knows_locations(self, make_system):
        system = make_system()
        alice = system.create_principal("alice")
        bob = system.create_principal("bob", node="host7")
        assert ("bob", "host7") in alice.tuples("loc")
        assert ("alice", "alice") in bob.tuples("loc")
        assert ("bob",) in alice.tuples("prin")

    def test_principal_lookup(self, make_system):
        system = make_system()
        alice = system.create_principal("alice")
        assert system.principal("alice") is alice
        with pytest.raises(WorkspaceError):
            system.principal("ghost")


class TestPlacement:
    def test_ld2_places_export_partitions(self, make_system):
        """The paper's ld1/ld2 rules drive predNode placement."""
        system = make_system()
        alice = system.create_principal("alice")
        system.create_principal("bob", node="hostB")
        placements = dict()
        for part, node in alice.tuples("predNode"):
            placements[part] = node
        assert placements[PredPartition("export", ("bob",))] == "hostB"
        assert placements[PredPartition("export", ("alice",))] == "alice"

    def test_custom_placement_via_loc(self, make_system):
        """'Users can easily enforce various distribution plans by
        modifying the loc table' (section 5.2)."""
        system = make_system()
        alice = system.create_principal("alice")
        system.network.add_node("elsewhere")
        with alice.workspace.transaction():
            alice.assert_fact("prin", ("carol",))
            alice.assert_fact("node", ("elsewhere",))
            alice.assert_fact("loc", ("carol", "elsewhere"))
        placements = dict(alice.tuples("predNode"))
        assert placements[PredPartition("export", ("carol",))] == "elsewhere"


class TestColocation:
    def test_two_principals_one_node(self, make_system):
        """Location transparency: policies unchanged when colocated."""
        system = make_system("hmac")
        alice = system.create_principal("alice", node="shared")
        bob = system.create_principal("bob", node="shared")
        bob.load("seen(X) <- msg(X).")
        alice.says(bob, 'msg("local").')
        report = system.run()
        assert bob.tuples("seen") == {("local",)}
        # messages between colocated principals cost zero latency
        assert report.virtual_time == 0.0

    def test_mixed_colocated_and_remote(self, make_system):
        system = make_system("plaintext")
        alice = system.create_principal("alice", node="n1")
        bob = system.create_principal("bob", node="n1")
        carol = system.create_principal("carol", node="n2")
        for principal in (bob, carol):
            principal.load("seen(X) <- msg(X).")
        alice.says(bob, 'msg("near").')
        alice.says(carol, 'msg("far").')
        report = system.run()
        assert bob.tuples("seen") == {("near",)}
        assert carol.tuples("seen") == {("far",)}
        assert report.virtual_time > 0.0


class TestRunLoop:
    def test_multi_hop_forwarding(self, make_system):
        """A fact relayed a→b→c needs multiple rounds."""
        system = make_system("plaintext")
        a = system.create_principal("a")
        b = system.create_principal("b")
        c = system.create_principal("c")
        b.load('says(me,"c",[| msg(X). |]) <- msg(X).')
        c.load("seen(X) <- msg(X).")
        a.says(b, 'msg("relay me").')
        report = system.run()
        assert c.tuples("seen") == {("relay me",)}
        assert report.productive_rounds >= 2

    def test_no_duplicate_sends(self, make_system):
        system = make_system("plaintext")
        a = system.create_principal("a")
        b = system.create_principal("b")
        a.says(b, 'msg("once").')
        first = system.run()
        second = system.run()
        assert first.delivered == 1
        assert second.delivered == 0
        # a says taken back before any run never ships
        ref = a.says(b, 'msg("withdrawn").')
        a.retract_fact("says", ("a", "b", ref))
        assert system.run().delivered == 0

    def test_quiescence_report(self, make_system):
        system = make_system()
        report = system.run()
        assert report.productive_rounds == 0 and report.delivered == 0

    def test_says_to_unknown_principal_stays_queued(self, make_system):
        system = make_system("plaintext")
        a = system.create_principal("a")
        a.says("ghost", 'msg("void").')
        report = system.run()
        # no placement for ghost → nothing is sent, nothing crashes
        assert report.delivered == 0
        # ghost's placement arrives with ghost: the held row ships then
        ghost = system.create_principal("ghost")
        ghost.load("seen(X) <- msg(X).")
        assert system.run().delivered == 1
        assert ghost.tuples("seen") == {("void",)}

    def test_bidirectional_exchange(self, make_system):
        system = make_system("hmac")
        a = system.create_principal("a")
        b = system.create_principal("b")
        a.load("got(X) <- ping(X).")
        b.load('says(me,"a",[| ping(X). |]) <- pong(X).')
        a.says(b, 'pong("1").')
        system.run()
        assert a.tuples("got") == {("1",)}


class TestNetworkIntegration:
    def test_latency_model_respected(self, make_system):
        network = SimulatedNetwork(default_latency=3.0)
        system = make_system("plaintext", network=network)
        a = system.create_principal("a")
        b = system.create_principal("b")
        b.load("seen(X) <- msg(X).")
        a.says(b, 'msg("slow").')
        report = system.run()
        assert report.virtual_time >= 3.0

    def test_traffic_accounting(self, make_system):
        system = make_system("plaintext")
        a = system.create_principal("a")
        b = system.create_principal("b")
        a.says(b, 'msg("counted").')
        report = system.run()
        assert report.bytes > 0
        assert system.network.total.messages == 1


class TestOpenNetworkRobustness:
    """The system's network is open: foreign/corrupted traffic must be
    rejected and audited, never crash the run loop (PR-3 regressions)."""

    def test_injected_garbage_is_rejected_not_fatal(self, make_system):
        system = make_system("plaintext")
        a = system.create_principal("a")
        b = system.create_principal("b")
        b.load("seen(X) <- msg(X).")
        a.says(b, 'msg("real").')
        system.network.send("a", "b", b"\xff not a message")
        report = system.run()
        assert b.tuples("seen") == {("real",)}
        assert report.rejected == 1
        assert report.rejected_detail[0][0] == "<decode>"

    def test_exhausted_max_rounds_returns_partial_report(self, make_system):
        """The open-transport contract: hitting the round cap returns a
        best-effort report (the pre-scheduler behavior), not an
        exception surfacing from the workspace API."""
        system = make_system("plaintext")
        a = system.create_principal("a")
        b = system.create_principal("b")
        b.load("seen(X) <- msg(X).")
        a.says(b, 'msg("one").')
        a.says(b, 'msg("two").')
        report = system.run(max_rounds=1)    # too few to finish cleanly
        assert report.productive_rounds <= 1  # capped, not crashed
        second = system.run()                # a later run completes it
        assert b.tuples("seen") == {("one",), ("two",)}
        assert report.rejected + second.rejected == 0

    def test_placement_through_principal_less_node_still_delivers(
            self, make_system):
        """predNode may route through a network node hosting no
        principal; import finds the destination by the message's ``to``
        field, so the facts must not be dropped as 'unknown node'."""
        system = make_system("plaintext")
        a = system.create_principal("a")
        b = system.create_principal("b")
        system.network.add_node("relay")
        b.load("seen(X) <- msg(X).")
        # route everything addressed to b through the relay node
        for principal in (a, b):
            with principal.workspace.transaction():
                principal.workspace.assert_fact("node", ("relay",))
                principal.workspace.retract_fact("loc", ("b", "b"))
                principal.workspace.assert_fact("loc", ("b", "relay"))
        a.says(b, 'msg("via relay").')
        report = system.run()
        assert b.tuples("seen") == {("via relay",)}
        assert report.rejected == 0

    def test_async_relay_routing_drains_every_host(self, make_system):
        """Overlapped mode: an import routed through a relay node lands
        at a principal hosted *elsewhere*; that host's consequent
        exports must still ship (every node is offered a drain after an
        integration), or the multi-hop chain silently stalls."""
        system = make_system("plaintext")
        a = system.create_principal("a")
        b = system.create_principal("b")
        c = system.create_principal("c")
        system.network.add_node("relay")
        b.load('says(me,"c",[| msg(X). |]) <- msg(X).')
        c.load("seen(X) <- msg(X).")
        for principal in (a, b, c):
            with principal.workspace.transaction():
                principal.workspace.assert_fact("node", ("relay",))
                principal.workspace.retract_fact("loc", ("b", "b"))
                principal.workspace.assert_fact("loc", ("b", "relay"))
        a.says(b, 'msg("hop").')
        report = system.run(mode="async")
        assert c.tuples("seen") == {("hop",)}
        assert report.rejected == 0

    def test_corrupted_midrun_batch_is_rejected_not_fatal(self, make_system):
        """A *ticketed* batch corrupted in transit (round stamp and all)
        must not wedge the quiescence ledger: the run completes with the
        rejection audited, and the sender's oldest outstanding ticket is
        retired on the evidence that something of theirs arrived."""
        class CorruptingNetwork(SimulatedNetwork):
            def __init__(self):
                super().__init__()
                self.sent = 0

            def send(self, src, dst, payload, at=None):
                self.sent += 1
                if self.sent == 2:      # the round-1 relay batch
                    payload = b"\xff" + payload[1:]
                super().send(src, dst, payload, at=at)

        system = make_system("plaintext", network=CorruptingNetwork())
        a = system.create_principal("a")
        b = system.create_principal("b")
        system.create_principal("c")
        b.load('says(me,"c",[| msg(X). |]) <- msg(X).')
        a.says(b, 'msg("relay me").')
        report = system.run()       # must not raise
        assert report.rejected == 1
        assert report.rejected_detail[0][0] == "<decode>"
        assert b.tuples("msg") == {("relay me",)}

    def test_injected_one_item_envelope_imports(self, make_system):
        system = make_system("plaintext")
        system.create_principal("a")
        b = system.create_principal("b")
        b.load("seen(X) <- msg(X).")
        blob = encode_batch_message_dict([("b", "msg", ("foreign",))],
                                         system.registry)
        system.network.send("a", "b", blob)
        report = system.run()
        assert b.tuples("seen") == {("foreign",)}
        assert report.delivered == 1
        assert report.rejected == 0

    def test_forged_export_in_an_injected_envelope_never_lands(
            self, make_system):
        """A badly signed ``export`` riding an injected envelope is
        rejected and audited by the verification constraint; the rest of
        the same delivery lands."""
        system = make_system("hmac")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        bob.load("seen(X) <- msg(X).")
        forged = ("bob", "alice", alice.intern('msg("forged").'), "deadbeef")
        blob = encode_batch_message_dict(
            [("bob", "export", forged), ("bob", "note", ("kept",))],
            system.registry)
        system.network.send("alice", "bob", blob)
        alice.says(bob, 'msg("genuine").')
        report = system.run()
        assert bob.tuples("seen") == {("genuine",)}
        assert bob.tuples("note") == {("kept",)}
        assert report.delivered == 2 and report.rejected == 1
        assert [e.detail["pred"] for e in bob.audit
                if e.kind == "import_rejected"] == ["export"]

    def test_a_rolled_back_import_ships_nothing_it_derived(
            self, make_system):
        """A forged ``export`` whose said rule makes bob say something to
        carol derives, inside the import, an ``export`` to carol that
        bob's own key signs validly; the verification constraint then
        rolls the import back.  Nothing of it may ship: a principal
        queues what it commits, never what a transaction derives before
        its check.  The control says the same rule genuinely."""
        relay = 'says("bob","carol",[| msg("relayed"). |]).'
        system = make_system("hmac")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        carol = system.create_principal("carol")
        carol.load("seen(X) <- msg(X).")
        forged = ("bob", "alice", alice.intern(relay), "deadbeef")
        system.network.send("alice", "bob", encode_batch_message_dict(
            [("bob", "export", forged)], system.registry))
        report = system.run()
        assert report.rejected == 1 and report.delivered == 0
        assert carol.tuples("seen") == set()
        assert bob.tuples("says") == set()
        alice.says(bob, relay)
        assert system.run().delivered == 2
        assert carol.tuples("seen") == {("relayed",)}

    @pytest.mark.parametrize("mode", ["bsp", "async"])
    @pytest.mark.parametrize("shape", LEGACY_SHAPES)
    def test_legacy_shaped_payload_is_rejected(self, make_system, shape,
                                               mode):
        """The per-item formats no sender emits are not a way in: a
        kind-less payload without ``rows`` is a decode reject, not a
        stamp-0 batch.  (At the parent of PR 20 both shapes imported.)"""
        system = make_system("plaintext")
        a = system.create_principal("a")
        b = system.create_principal("b")
        b.load("seen(X) <- msg(X).")
        a.says(b, 'msg("real").')
        system.network.send("a", "b", shape)
        report = system.run(mode=mode)
        assert b.tuples("seen") == {("real",)}
        assert report.delivered == 1 and report.rejected == 1
        assert report.rejected_detail == [
            ("<decode>", "malformed batch payload")]

    @pytest.mark.parametrize("mode", ["bsp", "async"])
    def test_envelope_with_its_body_cut_short_is_rejected(self, make_system,
                                                          mode):
        """A packed envelope whose body stops short of the rows its
        blocks claim is refused whole — counted, with the reason — and
        the genuine ``says`` of the same run still lands."""
        system = make_system("plaintext")
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        bob.load("seen(X) <- msg(X).")
        whole = encode_batch_message_dict(
            [("bob", "msg", ("forged", )), ("bob", "msg", ("too", ))],
            system.registry)
        system.network.send("alice", "bob", whole[:-4])
        alice.says(bob, 'msg("genuine").')
        report = system.run(mode=mode)
        assert bob.tuples("seen") == {("genuine",)}
        assert report.delivered == 1 and report.rejected == 1
        assert report.rejected_detail == [
            ("<decode>", "batch body does not match its blocks")]

    @pytest.mark.parametrize("shape", LEGACY_SHAPES)
    def test_legacy_shape_in_place_of_a_ticketed_batch_stays_outstanding(
            self, make_system, shape):
        """A ticketed batch replaced in transit by a legacy-shaped
        payload retires nothing: the run stops at its first quiet round,
        not at the round cap, with the lost batch's ticket outstanding."""
        class ReplacingNetwork(SimulatedNetwork):
            replaced = 0

            def send(self, src, dst, payload, at=None):
                if not self.replaced:
                    payload, self.replaced = shape, 1
                super().send(src, dst, payload, at=at)

        system = make_system("plaintext", network=ReplacingNetwork())
        a = system.create_principal("a")
        b = system.create_principal("b")
        a.says(b, 'msg("lost").')
        report = system.run(max_rounds=5)
        assert not b.tuples("msg")
        assert report.rejected == 1 and report.delivered == 0
        assert report.rounds < 5 and not system.network.pending()
        assert report.quiescent is False and report.outstanding == 1

    @pytest.mark.parametrize("shape", LEGACY_SHAPES)
    def test_legacy_shape_on_a_closed_transport_is_fatal(self, shape):
        network = SimulatedNetwork()
        network.add_node("a")
        network.add_node("b")
        network.send("a", "b", shape)
        runtime = ExecutionRuntime({}, network, RuleRegistry())
        with pytest.raises(ClusterError, match="malformed batch payload"):
            refuse_faults(runtime.run())

    def test_batches_count_includes_early_size_capped_flushes(
            self, make_system):
        system = make_system("plaintext", max_batch_bytes=64)
        a = system.create_principal("a")
        b = system.create_principal("b")
        b.load("seen(X) <- msg(X).")
        for i in range(20):
            a.says(b, f'msg("payload number {i}").')
        report = system.run()
        assert len(b.tuples("seen")) == 20
        assert report.messages == system.network.total.messages
        assert report.messages > 1  # the cap actually split the round


def rejections(principal):
    return [event for event in principal.workspace.audit
            if event.kind == "import_rejected"]


class TestHostileDelivery:
    """A row whose import cannot commit is rejected, not fatal: counted
    once in ``report.rejected``, named with its values in
    ``rejected_detail``, audited once at the receiver — and the honest
    rows of the same delivery land."""

    def exchange(self, block=None, said=None):
        """bob listens for ``ping``; a hostile ``block`` from a node no
        principal lives on, or a rule alice ``said``, arrives beside
        carol's honest ``ping("honest")``."""
        system = LBTrustSystem(auth="hmac", seed=1)
        alice, bob, carol = map(system.create_principal,
                                ("alice", "bob", "carol"))
        bob.load("gotA(X) <- ping(X).")
        system.run()
        if block is not None:
            system.network.add_node("mallory")
            system.network.send("mallory", "bob", encode_batch_message_dict(
                [block], system.registry))
        if said is not None:
            alice.says(bob, said)
        carol.says(bob, 'ping("honest").')
        report = system.run()
        assert bob.tuples("gotA") == {("honest",)}
        assert report.delivered == 1 and report.rejected == 1
        [event] = rejections(bob)
        assert system.run().rejected == 0
        assert bob.tuples("gotA") == {("honest",)}
        return report, event

    def test_a_wrong_arity_block_is_rejected(self):
        report, event = self.exchange(block=("bob", "gotA", (1, 2)))
        assert report.rejected_detail == [
            ("bob", "fact (1, 2) has 2 columns but 'gotA' has arity 1")]
        assert event.detail["pred"] == "gotA"
        assert event.detail["fact"] == ("1", "2")

    def test_a_figure_1_block_is_rejected(self):
        report, event = self.exchange(block=("bob", "functor", ("a", "b")))
        [(receiver, reason)] = report.rejected_detail
        assert receiver == "bob" and "Figure 1" in reason
        assert event.detail["fact"] == ("a", "b")

    def test_an_unsafe_said_rule_is_rejected(self):
        report, event = self.exchange(said="evil(X) <- !q(X).")
        [(receiver, reason)] = report.rejected_detail
        assert receiver == "bob" and "not range-restricted" in reason
        assert event.detail["pred"] == "export"

    def test_a_negative_cycle_refuses_itself_not_a_later_import(self):
        """alice's ``alarm`` rule closes a negative cycle through bob's
        ``calm`` rule but derives nothing yet: its own import is refused,
        not the next honest one (which is where stratification used to
        notice)."""
        system = LBTrustSystem(auth="hmac", seed=1)
        alice, bob = map(system.create_principal, ("alice", "bob"))
        bob.load(LISTENING)
        alice.says(bob, UNACTIVATABLE["negative cycle"])
        assert system.run().rejected == 1
        alice.says(bob, 'ping("honest").')
        assert system.run().rejected == 0
        assert bob.tuples("calm") == {("honest",)}

    @given(hostile_streams())
    @settings(max_examples=25, deadline=None)
    def test_property_hostile_input_leaves_the_honest_fixpoint(
            self, stream):
        """After every run, no exception, each principal holds what a
        system fed only the honest steps holds, and every refused row is
        counted once and audited once at its receiver (a row for an
        unknown principal has none: it is counted and named)."""
        hostile, honest = self.driven(stream.steps), \
            self.driven(stream.honest)
        for (system, report, unknown), (twin, _, _) in zip(
                (run for run in hostile if run is not None),
                (run for run in honest if run is not None)):
            for name in PEERS:
                assert self.held(system, name) == self.held(twin, name)
            audited = sum(map(len, map(rejections,
                                       system.principals.values())))
            assert report.rejected == audited + unknown
            assert len(report.rejected_detail) == report.rejected

    @staticmethod
    def held(system, name):
        principal = system.principal(name)
        return {pred: principal.tuples(pred)
                for pred in ("ping", "gotA", "calm")}

    @staticmethod
    def driven(steps):
        """Apply ``steps`` to a fresh system; yields, per step, None or
        (for a run) the system, its report and the rows injected for an
        unknown principal since the last run — audits are cleared after
        each run, so they count that run's."""
        system = LBTrustSystem(auth="hmac", seed=5)
        for name in PEERS:
            system.create_principal(name).load(LISTENING)
        system.network.add_node("mallory")
        unknown = 0
        for step in steps:
            if step[0] == "run":
                for principal in system.principals.values():
                    principal.workspace.audit.clear()
                report = system.run()
                yield system, report, unknown
                unknown = 0
                continue
            yield None
            if step[0] == "inject":
                _, receiver, kind = step
                block = INJECTED[kind](receiver)
                unknown += block[0] not in system.principals
                system.network.send("mallory", receiver,
                                    encode_batch_message_dict(
                                        [block], system.registry))
            else:
                kind, (speaker, listener), said = step
                system.principal(speaker).says(
                    listener, f'ping("t{said}").' if kind == "say"
                    else UNACTIVATABLE[said])
