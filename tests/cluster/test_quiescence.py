"""Ticket-counting quiescence: the protocol, not the transport."""

import pytest

from repro.cluster import Cluster
from repro.cluster.quiescence import TicketLedger
from repro.datalog.errors import ClusterError
from repro.net.transport import encode_batch_message_dict


class TestTicketLedger:
    def test_not_quiescent_before_any_round(self):
        assert not TicketLedger().quiescent()

    def test_outstanding_tickets_block_quiescence(self):
        ledger = TicketLedger()
        ledger.issue(0, 2)
        ledger.close_round(0, new_facts=5, clock=1.0)
        assert ledger.outstanding() == 2
        assert not ledger.quiescent()
        ledger.retire(0)
        ledger.retire(0)
        assert ledger.outstanding() == 0
        # still not quiescent: the last closed round was active
        assert not ledger.quiescent()
        ledger.close_round(1, new_facts=0, clock=2.0)
        assert ledger.quiescent()

    def test_new_facts_without_messages_block_quiescence(self):
        ledger = TicketLedger()
        ledger.close_round(0, new_facts=3, clock=0.0)
        assert not ledger.quiescent()
        ledger.close_round(1, new_facts=0, clock=0.0)
        assert ledger.quiescent()

    def test_a_quiet_round_with_a_ticket_outstanding_is_not_quiescent(self):
        """``quiet`` reads the last round alone; ``quiescent`` also needs
        every ticket retired, so a lost batch stops a run unconverged."""
        ledger = TicketLedger()
        assert not ledger.quiet()
        ledger.issue(0, sender="a")
        ledger.close_round(0, new_facts=1, clock=0.0)
        assert not ledger.quiet()
        ledger.close_round(1, new_facts=0, clock=1.0)
        assert ledger.quiet() and not ledger.quiescent()
        assert ledger.outstanding() == 1
        ledger.retire(0, sender="a")
        assert ledger.quiet() and ledger.quiescent()

    def test_retiring_more_than_issued_is_loud(self):
        ledger = TicketLedger()
        ledger.issue(0)
        ledger.retire(0)
        with pytest.raises(ClusterError):
            ledger.retire(0)

    def test_convergence_clock_is_last_productive_round(self):
        ledger = TicketLedger()
        ledger.issue(0, 1)
        ledger.close_round(0, new_facts=4, clock=1.0)
        ledger.retire(0)
        ledger.close_round(1, new_facts=2, clock=3.0)
        ledger.close_round(2, new_facts=0, clock=9.0)  # the idle confirm round
        assert ledger.quiescent()
        assert ledger.convergence_clock() == 3.0

    def test_round_records_track_per_round_tickets(self):
        ledger = TicketLedger()
        ledger.issue(0, 3)
        record = ledger.close_round(0, new_facts=1, clock=0.5)
        assert record.issued == 3 and record.retired == 0
        ledger.retire(0, 2)
        record = ledger.close_round(1, new_facts=0, clock=1.5)
        assert record.retired == 2
        assert ledger.outstanding() == 1


class TestRoundVectors:
    """Per-sender round vectors: exactness the global counters lacked."""

    def test_duplicate_detected_while_other_sender_outstanding(self):
        ledger = TicketLedger()
        ledger.issue(0, sender="a")
        ledger.issue(0, sender="b")
        ledger.retire(0, sender="a")
        # a's slot is drained; a duplicate of a's message must be loud
        # even though b's ticket legitimately keeps outstanding() > 0 —
        # a single global counter pair would have masked this.
        with pytest.raises(ClusterError):
            ledger.retire(0, sender="a")

    def test_retire_against_wrong_round_is_loud(self):
        ledger = TicketLedger()
        ledger.issue(3, sender="a")
        with pytest.raises(ClusterError):
            ledger.retire(4, sender="a")

    def test_retire_guarded_ignores_foreign_traffic(self):
        ledger = TicketLedger()
        assert ledger.retire_guarded(0, sender="intruder") is False
        ledger.issue(1, sender="a")
        assert ledger.retire_guarded(1, sender="a") is True
        assert ledger.retire_guarded(1, sender="a") is False
        assert ledger.outstanding() == 0

    def test_an_unticketed_envelope_in_a_cluster_run_is_a_cluster_error(self):
        """A batch no batcher ticketed, injected into a strict cluster's
        network, is a transport fault the run names."""
        cluster = Cluster(2)
        cluster.load("tc0: reach(X,Y) <- edge(X,Y).")
        cluster.network.send("node0", "node1", encode_batch_message_dict(
            [("", "reach", (9, 9))], cluster.registry, round_stamp=3))
        with pytest.raises(ClusterError, match=(
                "ticket ledger: sender 'node0' round 3 retired 1 > issued 0")):
            cluster.run()


class TestQuiescenceProperty:
    """Hypothesis: quiescence is never declared with a ticket in flight,
    and every finite delivery trace terminates quiescent — under
    arbitrary reordering, delay, and (detected) duplication."""

    import random as _random

    from hypothesis import given, settings
    from hypothesis import strategies as st

    sends_strategy = st.lists(
        st.tuples(st.sampled_from(["a", "b", "c", "d"]),
                  st.integers(min_value=0, max_value=6)),
        max_size=40,
    )

    @given(sends=sends_strategy, seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=120, deadline=None)
    def test_never_quiescent_with_a_ticket_outstanding(self, sends, seed):
        rng = self._random.Random(seed)
        ledger = TicketLedger()
        queue = list(sends)
        rng.shuffle(queue)          # sends happen in arbitrary order
        in_flight: list = []        # delivery delayed arbitrarily long
        clock = 0.0
        while queue or in_flight:
            clock += 1.0
            if queue and (not in_flight or rng.random() < 0.5):
                sender, stamp = queue.pop()
                ledger.issue(stamp, sender=sender)
                in_flight.append((sender, stamp))
            else:
                # deliver any in-flight message, not the oldest —
                # reordering across senders and rounds
                sender, stamp = in_flight.pop(rng.randrange(len(in_flight)))
                ledger.retire(stamp, sender=sender)
            if in_flight:
                assert ledger.outstanding() == len(in_flight)
                assert not ledger.quiescent()
        # the finite trace terminated; an idle closing round completes
        # the proof and quiescence is declared exactly now
        assert ledger.outstanding() == 0
        ledger.close_quiet(clock)
        assert ledger.quiescent()

    @given(sends=sends_strategy.filter(bool),
           seed=st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_duplicated_delivery_is_always_detected(self, sends, seed):
        rng = self._random.Random(seed)
        ledger = TicketLedger()
        for sender, stamp in sends:
            ledger.issue(stamp, sender=sender)
        order = list(sends)
        rng.shuffle(order)
        for sender, stamp in order:
            ledger.retire(stamp, sender=sender)
        duplicate = rng.choice(sends)
        with pytest.raises(ClusterError):
            ledger.retire(duplicate[1], sender=duplicate[0])
        # and the guarded form refuses silently instead
        assert ledger.retire_guarded(duplicate[1],
                                     sender=duplicate[0]) is False
