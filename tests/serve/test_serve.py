"""The online authorization service, end to end over both transports.

The serving contract: every answer the server returns is bit-identical
to a batch fixpoint read of the same workspace, while updates stream in
between queries.  A reference ``LBTrustSystem`` applies the identical
update script directly; after every step the served answer must equal
the reference's filtered fixpoint read — over the in-process simulated
network and over real TCP sockets.
"""

import json
import socket
import struct
import threading
import time

import pytest

from repro.core.system import LBTrustSystem
from repro.datalog.errors import NetworkError, ServeError
from repro.net.network import SimulatedNetwork
from repro.net.socket_transport import SocketNetwork
from repro.net.transport import (
    decode_reply_frame,
    encode_reply_frame,
    encode_request_frame,
)
from repro.serve import SERVE_OPS, ServeClient, ServeRouter, TrustServer

POLICY = """
object("f1"). object("f2").
access(P,O,"read") <- good(P), object(O).
"""


def build_system():
    system = LBTrustSystem(auth="plaintext", seed=7)
    system.create_principal("srv").load(POLICY)
    return system


class ServeHarness:
    """One server plus client factory, over either transport."""

    def __init__(self, transport):
        self.transport = transport
        self.system = build_system()
        self._client_nets = []
        if transport == "simulated":
            self.network = SimulatedNetwork()
            self.server = TrustServer(self.system, self.network)
            self.router = ServeRouter(self.network, self.server)
            self.thread = None
        else:
            self.network = SocketNetwork()
            self.server = TrustServer(self.system, self.network,
                                      poll_interval=0.01)
            self.router = None
            self.thread = threading.Thread(target=self.server.serve_forever,
                                           daemon=True)
            self.thread.start()

    def client(self, name):
        if self.transport == "simulated":
            client = ServeClient(self.network, name, router=self.router,
                                 timeout=10.0)
            client.connect()
            return client
        net = SocketNetwork()
        self._client_nets.append(net)
        client = ServeClient(net, name, timeout=10.0)
        client.connect(server_host="127.0.0.1",
                       server_port=self.network.port_of(self.server.node))
        return client

    def close(self, shutdown_via=None):
        if self.thread is not None:
            if shutdown_via is not None and not self.server.stopping:
                shutdown_via.shutdown()
            self.server.stop()
            self.thread.join(timeout=10.0)
        for net in self._client_nets:
            net.close()
        if self.transport == "socket":
            self.network.close()


@pytest.fixture(params=["simulated", "socket"])
def harness(request):
    h = ServeHarness(request.param)
    try:
        yield h
    finally:
        h.close()


def reference_read(principal, pred, pattern):
    return {fact for fact in principal.tuples(pred)
            if all(want is None or have == want
                   for have, want in zip(fact, pattern))}


class TestServedAnswersMatchBatch:
    def test_interleaved_updates_and_queries(self, harness):
        client = harness.client("c1")
        reference = build_system().principal("srv")
        subjects = ["alice", "bob", "carol", "dave"]
        for step, subject in enumerate(subjects):
            client.assert_fact("good", (subject,))
            reference.assert_fact("good", (subject,))
            for probe in subjects[:step + 1]:
                served = set(client.query(f'access("{probe}",O,"read")'))
                assert served == reference_read(
                    reference, "access", (probe, None, "read"))
            if step % 2 == 1:
                client.retract_fact("good", (subject,))
                reference.retract_fact("good", (subject,))
                served = set(client.query(f'access("{subject}",O,"read")'))
                assert served == reference_read(
                    reference, "access", (subject, None, "read"))

    def test_non_string_values_cross_the_wire(self, harness):
        client = harness.client("c1")
        client.load("big(N) <- num(N), N > 10.")
        client.assert_fact("num", (7,))
        client.assert_fact("num", (25,))
        assert set(client.query("big(N)")) == {(25,)}
        assert set(client.query("num(N)")) == {(7,), (25,)}

    def test_unbound_query_reads_full_relation(self, harness):
        client = harness.client("c1")
        client.assert_fact("good", ("alice",))
        served = set(client.query("access(P,O,M)"))
        assert served == {("alice", "f1", "read"), ("alice", "f2", "read")}


def test_a_served_query_treats_a_repeated_variable_as_equality():
    harness = ServeHarness("simulated")
    try:
        client = harness.client("c1")
        for fact in [("a", "a"), ("a", "b"), ("c", "c")]:
            client.assert_fact("delegates", fact)
        assert set(client.query("delegates(X,X)")) == {("a", "a"),
                                                        ("c", "c")}
        assert set(client.query("delegates(X,Y)")) == {
            ("a", "a"), ("a", "b"), ("c", "c")}
    finally:
        harness.close()


class TestMaintenanceCounters:
    def test_updates_are_incremental_queries_hit_cache(self, harness):
        """The cache a query hits is the maintained fixpoint: updates
        keep it current incrementally, queries on the quiescent workspace
        between them derive nothing."""
        client = harness.client("c1")
        client.assert_fact("good", ("alice",))
        before = client.stats()
        for subject in ("bob", "carol"):
            client.assert_fact("good", (subject,))
        client.retract_fact("good", ("bob",))
        updated = client.stats()
        assert updated["full_recomputes"] == before["full_recomputes"]
        assert updated["dred_strata"] > before["dred_strata"]
        for subject in ("alice", "bob", "carol", "alice"):
            client.query(f'access("{subject}",O,"read")')
        client.query("access(P,O,M)")
        client.query('access("carol","f1","read")')
        after = client.stats()
        for counter in ("derivations", "rounds", "plans_built",
                        "magic_programs_built", "magic_cache_hits"):
            assert after[counter] == updated[counter], counter


class TestProtocol:
    def test_hello_lists_principals(self, harness):
        client = harness.client("c1")
        body = client.call("hello", {"client": "c1"})
        assert body == {"node": "server", "principals": ["srv"]}

    def test_ping_returns_a_clock(self, harness):
        client = harness.client("c1")
        assert isinstance(client.ping(), float)

    def test_error_reply_keeps_the_server_alive(self, harness):
        client = harness.client("c1")
        with pytest.raises(ServeError, match="unknown principal"):
            client.query("p(X)", principal="nobody")
        with pytest.raises(ServeError):
            client.call("frobnicate")
        with pytest.raises(ServeError):  # retracting a never-asserted fact
            client.retract_fact("good", ("ghost",))
        with pytest.raises(ServeError, match="arity 3"):
            client.query('access("alice")')  # access has three columns
        client.assert_fact("good", ("alice",))  # still serving
        assert len(client.query('access("alice",O,"read")')) == 2

    def test_malformed_frames_do_not_kill_the_server(self, harness,
                                                     monkeypatch):
        # Regression (ROADMAP item 4): both frames used to propagate out
        # of handle() and end serve_forever — one frame, one dead server.
        client = harness.client("c1")

        def trips(body):
            raise ValueError("a field the handler did not anticipate")

        # a handler failing in a way nobody anticipated still replies
        monkeypatch.setattr(harness.server, "_op_query", trips)
        with pytest.raises(ServeError, match="ValueError"):
            client.query("good(P)")
        monkeypatch.undo()
        # an op that is not a string: decoding fails, the id is recoverable
        client.network.send(client.name, client.server, json.dumps(
            {"kind": "request", "id": 9001, "op": 5, "body": {}}).encode())
        reply_id, ok, _, error = decode_reply_frame(client._await_reply())
        assert (reply_id, ok) == (9001, False)
        assert error.startswith("NetworkError")
        # no recoverable id: nobody to answer, dropped and counted
        client.network.send(client.name, client.server, b"not json")
        assert isinstance(client.ping(), float)  # still serving
        assert harness.server.frames_dropped == 1
        assert "ValueError" in harness.server.last_unexpected_error

    @pytest.mark.parametrize("max_rounds", ["abc", [1], 2.7, True, 0, -3])
    def test_sync_rejects_a_malformed_max_rounds(self, harness, max_rounds):
        # Regression: "abc" and [1] reached int() as an unanticipated
        # ValueError / TypeError; 2.7 was truncated; True, 0 and -3 ran
        # nothing and still replied ok with rounds 0.
        client = harness.client("c1")
        with pytest.raises(ServeError, match="^ServeError: .*max_rounds"):
            client.call("sync", {"max_rounds": max_rounds})
        assert harness.server.last_unexpected_error == ""
        assert isinstance(client.ping(), float)

    @pytest.mark.parametrize("port", [True, 0, 70000, "80"])
    def test_hello_refuses_a_malformed_port(self, harness, port):
        # Regression: True, 0 and 70000 passed isinstance(port, int), so a
        # stranger's hello registered an address no reply could reach.
        client = harness.client("c1")
        nodes = harness.network.nodes()
        with pytest.raises(ServeError, match="^ServeError: .*port"):
            client.call("hello", {"client": "c1", "host": "127.0.0.1",
                                  "port": port})
        assert harness.network.nodes() == nodes
        assert harness.server.last_unexpected_error == ""
        assert isinstance(client.ping(), float)

    def test_stats_reports_the_systems_id_space(self, harness):
        client = harness.client("c1")
        reply = client.call("stats", {"principal": "srv"})
        assert reply["rules"] == len(harness.system.registry) > 0
        assert reply["terms"] == len(harness.system.registry.terms)
        assert client.stats() == reply["stats"]
        client.assert_fact("good", ("never-seen-before",))
        grown = client.call("stats", {"principal": "srv"})["terms"]
        # the fact's value, and "read": the access rule's head constant,
        # interned once the rule first fires (no workspace here reads the
        # Figure 1 relation ``value`` that would have held it before)
        assert grown == reply["terms"] + 2
        client.assert_fact("good", ("never-seen-before",))
        assert client.call("stats", {"principal": "srv"})["terms"] == grown

    @pytest.mark.parametrize("value", [
        None, [], {"v": 1}, {"t": "int"}, {"t": "rule", "v": 123},
        {"t": "pattern", "v": 7},
        {"t": "list", "v": 5}, {"t": "part", "p": "x", "k": 5},
        {"t": "rule", "v": ["p(1)."]}, {"t": "rule", "v": "p(X) -> q(X)."},
        {"t": "bytes", "v": "zz"},
    ])
    def test_malformed_fact_values_fail_closed(self, harness, value):
        # Regression: each of these reached last_unexpected_error as a
        # raw AttributeError / KeyError / TypeError / ValueError.  A bare
        # JSON scalar is a value (5 is the int 5); null, a bare list and
        # an object without "t" are not.
        client = harness.client("c1")
        with pytest.raises(ServeError, match="^NetworkError: "):
            client.call("assert", {"principal": "srv", "pred": "good",
                                   "fact": [value]})
        assert harness.server.last_unexpected_error == ""
        assert isinstance(client.ping(), float)

    @pytest.mark.parametrize("body", [
        {}, {"answers": None}, {"answers": 5}, {"answers": {"x": 1}},
        {"answers": [1, 2]}, {"answers": [None]}, {"answers": [[None]]},
        {"answers": [["a", None]]}, {"answers": [[[1]]]},
        {"answers": [["a", {"t": "int"}]]}, {"answers": [[{"v": 1}]]},
    ])
    def test_a_malformed_reply_fails_closed_at_the_client(self, harness,
                                                          body, monkeypatch):
        client = harness.client("c1")
        monkeypatch.setattr(client, "call", lambda op, request=None: body)
        with pytest.raises(NetworkError):
            client.query("good(X)")

    def test_a_fact_of_another_arity_is_refused(self, harness):
        # The served principal's first `zz` fact declares it; a second
        # arity is a WorkspaceError reply, not a stored row.
        client = harness.client("c1")
        client.assert_fact("zz", (1,))
        with pytest.raises(ServeError, match="^WorkspaceError: .*arity 1"):
            client.assert_fact("zz", (1, 2))
        assert harness.server.last_unexpected_error == ""
        assert harness.system.principal("srv").tuples("zz") == {(1,)}

    @pytest.mark.parametrize("query", ["q(\u00b2)", "q(\u0663)"])
    def test_a_non_ascii_digit_is_a_parse_error(self, harness, query):
        # Regression: '\u00b2'.isdigit() is true, so the lexer read an INT
        # that int() refused, and the ValueError was recorded as a bug;
        # '\u0663' (Arabic-Indic three) silently became q(3).
        client = harness.client("c1")
        with pytest.raises(ServeError,
                           match="^ParseError: unexpected character"):
            client.query(query)
        assert harness.server.last_unexpected_error == ""
        assert isinstance(client.ping(), float)

    def test_request_ids_match_in_order(self, harness):
        client = harness.client("c1")
        for _ in range(5):
            client.ping()
        assert client.requests_sent >= 5

    def test_sync_runs_the_exchange(self, harness):
        client = harness.client("c1")
        body = client.sync(max_rounds=5)
        assert set(body) == {"rounds", "delivered", "rejected", "quiescent",
                             "outstanding"}

    def test_shutdown_is_clean(self, harness):
        client = harness.client("c1")
        client.shutdown()
        assert harness.server.stopping
        harness.close()
        if harness.thread is not None:
            assert not harness.thread.is_alive()

    def test_ops_catalog_is_complete(self):
        assert set(SERVE_OPS) == {"hello", "ping", "assert", "retract",
                                  "load", "query", "sync", "stats",
                                  "shutdown"}


class _LosingNetwork(SimulatedNetwork):
    """Loses the first frame sent, as a broken link would."""
    lost = 0

    def send(self, src, dst, payload, at=None):
        if not self.lost:
            self.lost = 1
            return
        super().send(src, dst, payload, at=at)


@pytest.mark.parametrize("network, verdict", [
    (SimulatedNetwork, (1, True, 0)),
    (_LosingNetwork, (0, False, 1)),
])
def test_a_served_sync_carries_the_runs_verdict(network, verdict):
    """The ``sync`` reply says whether the exchange finished: a healthy
    one delivers carol's fact and reads ``quiescent`` with nothing
    ``outstanding``; one whose frame was lost says so instead of
    reading like a quiet run."""
    system = LBTrustSystem(auth="hmac", seed=3, network=network())
    carol = system.create_principal("carol", node="n1")
    system.create_principal("srv", node="n2")
    carol.says("srv", 'ping("ok").')
    serve_network = SimulatedNetwork()
    server = TrustServer(system, serve_network)
    client = ServeClient(serve_network, "c1",
                         router=ServeRouter(serve_network, server),
                         timeout=10.0)
    client.connect()
    reply = client.sync(max_rounds=5)
    assert (reply["delivered"], reply["quiescent"],
            reply["outstanding"]) == verdict, reply


def test_a_hello_advertising_a_dead_port_does_not_stop_the_server():
    # Regression: the reply to this hello raised ConnectionRefusedError
    # out of handle() and ended serve_forever; the next client got no
    # answer.  The undeliverable reply is now dropped and counted.
    harness = ServeHarness("socket")
    try:
        client = harness.client("c1")
        with socket.socket() as probe:     # a port nobody listens on
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        hostile = SocketNetwork()
        harness._client_nets.append(hostile)
        hostile.add_node("mallory")
        hostile.add_remote("server", "127.0.0.1",
                           harness.network.port_of("server"))
        hostile.send("mallory", "server", encode_request_frame(
            1, "hello", {"host": "127.0.0.1", "port": dead_port}))
        deadline = time.monotonic() + 10.0
        while (harness.server.frames_dropped == 0
               and harness.thread.is_alive()
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert harness.thread.is_alive()
        assert harness.server.frames_dropped == 1
        assert isinstance(client.ping(), float)
    finally:
        harness.close()


_FRAME_LEN, _NAME_LEN = struct.Struct("!I"), struct.Struct("!H")


@pytest.mark.parametrize("wire, reason", [
    (_FRAME_LEN.pack(40) + b"half a frame", "closed mid-frame"),
    (_FRAME_LEN.pack(2 ** 31), "exceeds the 67108864 cap"),
    (_FRAME_LEN.pack(6) + _NAME_LEN.pack(200) + b"abcd",
     "truncated socket frame name"),
    (_FRAME_LEN.pack(6) + _NAME_LEN.pack(1) + b"\xff"
     + _NAME_LEN.pack(1) + b"s", "not UTF-8"),
], ids=["mid-frame", "over-cap", "truncated-name", "name-not-utf8"])
def test_a_broken_connection_does_not_stop_the_server(wire, reason):
    # Regression: each of these raised out of SocketNetwork.receive and
    # ended serve_forever.  The connection is now closed and counted.
    harness = ServeHarness("socket")
    try:
        client = harness.client("c1")
        with socket.create_connection(
                ("127.0.0.1", harness.network.port_of("server"))) as raw:
            raw.sendall(wire)
        assert isinstance(client.ping(), float)
        deadline = time.monotonic() + 10.0
        while (harness.network.connections_dropped == 0
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert harness.thread.is_alive()
        assert harness.network.connections_dropped == 1
        assert reason in harness.network.last_drop_reason
        assert isinstance(client.ping(), float)
    finally:
        harness.close()


def test_broken_connections_do_not_stop_a_socket_server():
    """A stray TCP client must cost only its own connection: half a
    frame, a 2**31 length prefix and a truncated name header, sent one
    after another to one server, each used to stop ``serve_forever``,
    after which nothing answered ``ping``.  The server answers, and
    counts three dropped connections."""
    system = LBTrustSystem(auth="plaintext")
    system.create_principal("srv")
    network = SocketNetwork()
    server = TrustServer(system, network, poll_interval=0.01)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(SocketNetwork(), "c1", timeout=10.0)
    try:
        port = network.port_of(server.node)
        for wire in (struct.pack("!I", 40) + b"half a frame",
                     struct.pack("!I", 2 ** 31),
                     struct.pack("!I", 6) + struct.pack("!H", 200) + b"abcd"):
            with socket.create_connection(("127.0.0.1", port)) as raw:
                raw.sendall(wire)
        client.connect(server_host="127.0.0.1", server_port=port)
        client.ping()
        deadline = time.monotonic() + 10.0
        while network.connections_dropped < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert thread.is_alive(), "serve_forever died"
        assert network.connections_dropped == 3, network.connections_dropped
    finally:
        server.stop()
        thread.join(timeout=10.0)
        client.network.close()
        network.close()


def test_a_hostile_peer_cannot_abort_a_served_sync():
    """A row whose import cannot commit is rejected, not fatal: alice's
    unsafe rule (X only under negation) cannot activate at srv, so its
    import is counted, named and audited, and carol's fact in the same
    delivery lands.  It used to raise SafetyError out of the served sync
    and lose carol's fact for good."""
    system = LBTrustSystem(auth="hmac", seed=3)
    alice = system.create_principal("alice")
    carol = system.create_principal("carol")
    srv = system.create_principal("srv")
    carol.says(srv, 'ping("ok").')
    alice.says(srv, "evil(X) <- !q(X).")
    network = SocketNetwork()
    server = TrustServer(system, network, poll_interval=0.01)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(SocketNetwork(), "c1", timeout=10.0)
    try:
        client.connect(server_host="127.0.0.1",
                       server_port=network.port_of(server.node))
        reply = client.sync()
        assert reply["rejected"] == 1, reply
        assert srv.tuples("ping") == {("ok",)}, srv.tuples("ping")
        client.ping()
        kinds = [event.kind for event in srv.workspace.audit]
        assert kinds.count("import_rejected") == 1, kinds
        client.shutdown()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "serve_forever did not stop"
    finally:
        server.stop()
        thread.join(timeout=10.0)
        client.network.close()
        network.close()


def test_a_served_assert_into_a_figure_1_relation_is_refused():
    """Figure 1 relations are reflection's alone: a served assert into
    ``functor`` would forge a quoted-pattern match (here alice's pong).
    It is a refused request (ReflectedWriteError, audited), and the
    server keeps answering."""
    system = LBTrustSystem(auth="hmac", seed=3)
    alice = system.create_principal("alice")
    srv = system.create_principal("srv")
    srv.load('got(X) <- says(alice, me, [| pong(X). |]).')
    alice.says(srv, 'ping("x").')
    system.run()
    atom = next(a for a, p in srv.tuples("functor") if p == "ping")
    network = SocketNetwork()
    server = TrustServer(system, network, poll_interval=0.01)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(SocketNetwork(), "c1", timeout=10.0)
    try:
        client.connect(server_host="127.0.0.1",
                       server_port=network.port_of(server.node))
        try:
            client.assert_fact("functor", (atom, "pong"), principal="srv")
        except ServeError as exc:
            assert "ReflectedWriteError" in str(exc), exc
        else:
            pytest.fail("a served assert into functor was accepted")
        client.ping()
        assert srv.tuples("got") == set(), srv.tuples("got")
        kinds = [event.kind for event in srv.workspace.audit]
        assert "meta_write_refused" in kinds, kinds
        client.shutdown()
        thread.join(timeout=10.0)
        assert not thread.is_alive(), "serve_forever did not stop"
    finally:
        server.stop()
        thread.join(timeout=10.0)
        client.network.close()
        network.close()


def test_a_late_reply_to_a_timed_out_call_is_dropped():
    """The server answers request 2 after 0.6 s; the client gave up at
    0.3 s.  That late reply used to meet the next call and break every
    call after it (``reply id 2 for request 3``); it is dropped and
    counted, and the calls after it are answered."""
    system = LBTrustSystem(auth="plaintext")
    system.create_principal("srv")
    network = SocketNetwork()
    server = TrustServer(system, network, poll_interval=0.01)
    dispatch = server._dispatch
    delayed = []

    def slow_first_ping(src, op, body):
        if op == "ping" and not delayed:
            delayed.append(op)
            time.sleep(0.6)
        return dispatch(src, op, body)

    server._dispatch = slow_first_ping
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(SocketNetwork(), "c1", timeout=10.0)
    try:
        client.connect(server_host="127.0.0.1",
                       server_port=network.port_of(server.node))
        client.timeout = 0.3
        with pytest.raises(ServeError, match="timed out"):
            client.ping()
        client.timeout = 10.0
        for _ in range(3):
            assert isinstance(client.ping(), float)
        assert client.stale_replies == 1
        assert client.requests_sent == 5
    finally:
        server.stop()
        thread.join(timeout=10.0)
        client.network.close()
        network.close()


def test_a_reply_ahead_of_the_awaited_call_is_a_protocol_error():
    """An id below the awaited one answers an abandoned call; an id above
    it answers a request never sent."""
    harness = ServeHarness("simulated")
    try:
        client = harness.client("c1")
        harness.router.inboxes["c1"].append(encode_reply_frame(1))
        assert isinstance(client.ping(), float)
        assert client.stale_replies == 1
        harness.router.inboxes["c1"].append(encode_reply_frame(99))
        with pytest.raises(ServeError, match="reply id 99 for request 3"):
            client.ping()
    finally:
        harness.close()


class TestRouter:
    def test_multiple_clients_share_one_queue(self):
        harness = ServeHarness("simulated")
        try:
            first = harness.client("c1")
            second = harness.client("c2")
            first.assert_fact("good", ("alice",))
            # interleave: both clients issue queries; the router must park
            # each reply in the right inbox even when deliveries for the
            # other client come off the shared queue first
            assert len(first.query('access("alice",O,"read")')) == 2
            assert len(second.query('access("alice",O,"read")')) == 2
            assert second.query('access("nobody",O,"read")') == []
        finally:
            harness.close()

    def test_unknown_destination_is_loud(self):
        harness = ServeHarness("simulated")
        try:
            client = harness.client("c1")
            harness.network.add_node("stranger")
            harness.network.send("server", "stranger", b"{}")
            with pytest.raises(ServeError, match="unknown client"):
                client.ping()
        finally:
            harness.close()
