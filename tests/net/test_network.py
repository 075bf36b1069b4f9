"""Simulated network: FIFO delivery, latency, virtual clock, stats."""

import pytest

from repro.datalog.errors import NetworkError
from repro.net.network import SimulatedNetwork


def network(**kwargs):
    net = SimulatedNetwork(**kwargs)
    for node in ("a", "b", "c"):
        net.add_node(node)
    return net


class TestDelivery:
    def test_fifo_per_link(self):
        net = network()
        for i in range(5):
            net.send("a", "b", f"m{i}".encode())
        payloads = [p for _, _, p in net.deliver_all()]
        assert payloads == [f"m{i}".encode() for i in range(5)]

    def test_unknown_node_rejected(self):
        net = network()
        with pytest.raises(NetworkError):
            net.send("a", "zz", b"x")

    def test_local_delivery_zero_latency(self):
        net = network(default_latency=5.0)
        net.send("a", "a", b"self")
        net.deliver_all()
        assert net.clock == 0.0

    def test_clock_advances_with_latency(self):
        net = network(default_latency=2.5)
        net.send("a", "b", b"x")
        net.deliver_all()
        assert net.clock == 2.5

    def test_arrival_order_across_links(self):
        net = network()
        net.set_latency("a", "b", 10.0)
        net.set_latency("a", "c", 1.0)
        net.send("a", "b", b"slow")
        net.send("a", "c", b"fast")
        deliveries = net.deliver_all()
        assert [p for _, _, p in deliveries] == [b"fast", b"slow"]

    def test_deliver_next_one_at_a_time(self):
        net = network()
        net.send("a", "b", b"1")
        net.send("a", "b", b"2")
        assert net.pending() == 2
        assert net.deliver_next()[2] == b"1"
        assert net.pending() == 1

    def test_empty_deliver(self):
        assert network().deliver_next() is None
        assert network().deliver_all() == []

    @pytest.mark.parametrize("kwargs", [{"default_latency": -1.0},
                                        {"jitter": -0.5},
                                        {"default_latency": float("nan")}])
    def test_negative_delay_refused(self, kwargs):
        """A negative latency or jitter would deliver before the send."""
        with pytest.raises(NetworkError, match=">= 0"):
            SimulatedNetwork(**kwargs)

    def test_negative_link_latency_refused(self):
        net = network()
        with pytest.raises(NetworkError, match=">= 0"):
            net.set_latency("a", "b", -2.0)
        assert net.latency("a", "b") == net.default_latency

    def test_jitter_is_deterministic_with_seed(self):
        first = network(jitter=1.0, seed=7)
        second = network(jitter=1.0, seed=7)
        first.send("a", "b", b"x")
        second.send("a", "b", b"x")
        first.deliver_all()
        second.deliver_all()
        assert first.clock == second.clock

    def test_latency_inspection_does_not_consume_jitter(self):
        """Regression: latency() used to draw from the jitter RNG, so
        merely inspecting a link perturbed the seeded stream and broke
        run-to-run determinism."""
        first = network(jitter=1.0, seed=7)
        second = network(jitter=1.0, seed=7)
        # inspect links on one network only — must not desync the runs
        for _ in range(5):
            first.latency("a", "b")
            first.latency("b", "c")
        clocks = []
        for net in (first, second):
            for i in range(4):
                net.send("a", "b", f"m{i}".encode())
                net.send("b", "c", f"m{i}".encode())
            net.deliver_all()
            clocks.append(net.clock)
        assert clocks[0] == clocks[1]

    def test_latency_is_pure_and_jitter_free(self):
        net = network(default_latency=2.0, jitter=1.0, seed=3)
        assert net.latency("a", "b") == 2.0
        assert net.latency("a", "b") == net.latency("a", "b")


class TestStats:
    def test_message_and_byte_counters(self):
        net = network()
        net.send("a", "b", b"1234")
        net.send("a", "b", b"56")
        net.send("b", "c", b"x")
        assert net.total.messages == 3
        assert net.total.bytes == 7
        link = net.link_stats("a", "b")
        assert link.messages == 2 and link.bytes == 6
        assert net.link_stats("c", "a").messages == 0

    def test_reset(self):
        net = network()
        net.send("a", "b", b"x")
        net.reset_stats()
        assert net.total.messages == 0
        assert net.link_stats("a", "b").messages == 0

    def test_asymmetric_latency(self):
        net = network()
        net.set_latency("a", "b", 1.0, symmetric=False)
        assert net.latency("a", "b") == 1.0
        assert net.latency("b", "a") == net.default_latency

    def test_link_stats_returns_the_stored_entry(self):
        """Regression: link_stats() on an unrecorded link returned a
        fresh LinkStats not stored in net.stats, so callers mutating the
        returned object silently lost their counts."""
        net = network()
        stats = net.link_stats("a", "b")
        stats.messages += 7
        assert net.link_stats("a", "b").messages == 7
        assert net.stats[("a", "b")] is stats
        # traffic keeps accumulating into the same object
        net.send("a", "b", b"x")
        assert stats.messages == 8

    def test_reset_stats_clears_fifo_watermarks_between_runs(self):
        """Regression: reset_stats() left _last_sent and the clock
        stale, so a "fresh" run inherited the previous run's per-link
        delivery floor (arrivals clamped to the old watermark)."""
        net = network(default_latency=5.0)
        net.send("a", "b", b"run1")
        net.deliver_all()
        assert net.clock == 5.0
        net.reset_stats()
        assert net.clock == 0.0
        net.send("a", "b", b"run2")
        net.deliver_all()
        # a truly fresh run: arrival at plain latency, not max(5.0, ...)
        assert net.clock == 5.0
        assert net.total.messages == 1

    def test_reset_stats_keeps_timing_while_messages_in_flight(self):
        net = network(default_latency=2.0)
        net.send("a", "b", b"early")
        net.send("a", "b", b"queued")
        net.deliver_next()
        net.reset_stats()   # one message still queued: timing survives
        assert net.clock == 2.0
        assert net.pending() == 1
        net.deliver_all()
        assert net.clock == 2.0

    def test_full_reset_drops_queue_and_timing(self):
        net = network(default_latency=2.0)
        net.send("a", "b", b"x")
        net.reset()
        assert net.pending() == 0
        assert net.clock == 0.0
        assert net.total.messages == 0
        assert net.deliver_next() is None
