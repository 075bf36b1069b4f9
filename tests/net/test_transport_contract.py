"""The transport contract, run against BOTH network implementations.

The cluster scheduler consumes a duck-typed network surface —
``add_node`` / ``send`` / ``deliver_next`` / ``deliver_all`` /
``pending`` / ``link_stats`` / ``clock`` — from either the virtual-clock
:class:`SimulatedNetwork` or the TCP :class:`SocketNetwork`.  Every test
here is parametrized over both, so the contract (per-link FIFO, stats
accounting, queue semantics) can never drift apart between transports.
"""

import pytest

from repro.datalog.errors import NetworkError
from repro.net import SimulatedNetwork, SocketNetwork
from repro.net.transport import (
    decode_reply_frame,
    decode_request_frame,
    encode_batch_message_dict,
    encode_reply_frame,
    encode_request_frame,
    frame_kind,
)


@pytest.fixture(params=["simulated", "socket"])
def net(request):
    if request.param == "simulated":
        network = SimulatedNetwork()
        yield network
    else:
        network = SocketNetwork(delivery_timeout=10.0)
        try:
            yield network
        finally:
            network.close()


@pytest.fixture
def abc(net):
    for name in ("a", "b", "c"):
        net.add_node(name)
    return net


class TestTopology:
    def test_nodes_listed(self, abc):
        assert abc.nodes() == {"a", "b", "c"}

    def test_add_node_is_idempotent(self, abc):
        abc.add_node("a")
        assert abc.nodes() == {"a", "b", "c"}

    def test_send_to_unknown_node_rejected(self, abc):
        with pytest.raises(NetworkError):
            abc.send("a", "zz", b"x")
        with pytest.raises(NetworkError):
            abc.send("zz", "a", b"x")


class TestDeliverySemantics:
    def test_fifo_per_link(self, abc):
        for i in range(10):
            abc.send("a", "b", f"m{i}".encode())
        payloads = [p for _, _, p in abc.deliver_all()]
        assert payloads == [f"m{i}".encode() for i in range(10)]

    def test_fifo_survives_interleaved_links(self, abc):
        for i in range(6):
            abc.send("a", "b", f"ab{i}".encode())
            abc.send("a", "c", f"ac{i}".encode())
            abc.send("b", "c", f"bc{i}".encode())
        per_link = {}
        for src, dst, payload in abc.deliver_all():
            per_link.setdefault((src, dst), []).append(payload)
        assert per_link[("a", "b")] == [f"ab{i}".encode() for i in range(6)]
        assert per_link[("a", "c")] == [f"ac{i}".encode() for i in range(6)]
        assert per_link[("b", "c")] == [f"bc{i}".encode() for i in range(6)]

    def test_delivery_carries_src_dst_payload(self, abc):
        abc.send("a", "b", b"hello")
        assert abc.deliver_next() == ("a", "b", b"hello")

    def test_self_send_delivers(self, abc):
        abc.send("b", "b", b"self")
        assert abc.deliver_next() == ("b", "b", b"self")

    def test_pending_counts_undelivered(self, abc):
        assert abc.pending() == 0
        abc.send("a", "b", b"1")
        abc.send("a", "b", b"2")
        assert abc.pending() == 2
        abc.deliver_next()
        assert abc.pending() == 1
        abc.deliver_next()
        assert abc.pending() == 0

    def test_deliver_next_none_when_quiet(self, abc):
        assert abc.deliver_next() is None

    def test_deliver_all_empty_when_quiet(self, abc):
        assert abc.deliver_all() == []

    def test_deliver_all_drains_everything(self, abc):
        for i in range(5):
            abc.send("a", "c", str(i).encode())
        assert len(abc.deliver_all()) == 5
        assert abc.pending() == 0
        assert abc.deliver_next() is None

    def test_large_payload_roundtrip(self, abc):
        blob = bytes(range(256)) * 512  # 128 KiB, beyond one recv chunk
        abc.send("a", "b", blob)
        assert abc.deliver_next() == ("a", "b", blob)

    def test_empty_payload_roundtrip(self, abc):
        abc.send("a", "b", b"")
        assert abc.deliver_next() == ("a", "b", b"")


class TestStatsAccounting:
    def test_message_and_byte_counters(self, abc):
        abc.send("a", "b", b"1234")
        abc.send("a", "b", b"56")
        abc.send("b", "c", b"x")
        assert abc.total.messages == 3
        assert abc.total.bytes == 7
        link = abc.link_stats("a", "b")
        assert link.messages == 2 and link.bytes == 6
        assert abc.link_stats("c", "a").messages == 0

    def test_link_stats_returns_the_stored_entry(self, abc):
        stats = abc.link_stats("a", "b")
        abc.send("a", "b", b"xyz")
        assert stats.messages == 1 and stats.bytes == 3
        assert abc.link_stats("a", "b") is stats

    def test_bytes_count_payload_only(self, abc):
        # framing/envelope overhead must not leak into the traffic
        # measure, or reports stop being comparable across transports
        abc.send("a", "b", b"12345")
        assert abc.total.bytes == 5

    def test_reset_stats_zeroes_counters(self, abc):
        abc.send("a", "b", b"x")
        abc.deliver_all()
        abc.reset_stats()
        assert abc.total.messages == 0
        assert abc.link_stats("a", "b").messages == 0


class TestClock:
    def test_clock_monotone_over_deliveries(self, abc):
        before = abc.clock
        abc.send("a", "b", b"x")
        abc.deliver_all()
        assert abc.clock >= before


class TestServeFrames:
    """Serve-plane request/reply frames ride the same transports as the
    delta exchange — framing, FIFO and classification must hold on both."""

    def test_request_frame_roundtrip(self, abc):
        abc.send("a", "b", encode_request_frame(7, "query", {"q": "p(X)"}))
        src, dst, blob = abc.deliver_next()
        assert (src, dst) == ("a", "b")
        assert frame_kind(blob) == "request"
        assert decode_request_frame(blob) == (7, "query", {"q": "p(X)"})

    def test_reply_frame_roundtrip(self, abc):
        abc.send("b", "a", encode_reply_frame(7, True, {"answers": []}))
        src, dst, blob = abc.deliver_next()
        assert (src, dst) == ("b", "a")
        assert frame_kind(blob) == "reply"
        assert decode_reply_frame(blob) == (7, True, {"answers": []}, "")

    def test_error_reply_carries_the_message(self, abc):
        abc.send("b", "a", encode_reply_frame(9, False, error="nope"))
        _, _, blob = abc.deliver_next()
        assert decode_reply_frame(blob) == (9, False, {}, "nope")

    def test_request_reply_fifo_per_link(self, abc):
        # a request conversation interleaved with opaque batch traffic on
        # the same link keeps its order — the client relies on this to
        # match replies by id without a reorder buffer
        abc.send("a", "b", encode_request_frame(1, "ping"))
        abc.send("a", "b", encode_batch_message_dict([], None))
        abc.send("a", "b", encode_request_frame(2, "ping"))
        kinds = [frame_kind(p) for _, _, p in abc.deliver_all()]
        assert kinds == ["request", "batch", "request"]

    def test_reply_ids_preserve_send_order(self, abc):
        for request_id in (3, 1, 2):
            abc.send("b", "a", encode_reply_frame(request_id))
        ids = [decode_reply_frame(p)[0] for _, _, p in abc.deliver_all()]
        assert ids == [3, 1, 2]
