"""Batch wire format and the size-capped per-link message batcher."""

import json

import pytest

from repro.cluster.quiescence import TicketLedger
from repro.datalog.database import TermInterner
from repro.datalog.errors import NetworkError
from repro.meta.registry import RuleRegistry
from repro.net.batch import MessageBatcher
from repro.net.network import SimulatedNetwork
from repro.net.transport import (
    decode_batch_message,
    encode_batch_message,
    encode_batch_message_dict,
    encode_value,
)


def decoded(blob, registry):
    """``(round stamp, [(to, pred, fact), ...])`` of one batch message."""
    batch = decode_batch_message(blob, registry)
    return batch.stamp, list(batch.items())


def make_network(*nodes):
    network = SimulatedNetwork()
    for node in nodes:
        network.add_node(node)
    return network


class TestBatchCodec:
    @pytest.mark.parametrize("payload", [
        {"to": "bob", "pred": "p", "fact": [{"t": "int", "v": 1}]},
        {"round": 7, "batch": [
            {"to": "bob", "pred": "p", "fact": [{"t": "int", "v": 1}]}]},
        {"round": 7, "batch": []},
        {},
    ])
    def test_payload_without_rows_is_malformed(self, payload):
        """The per-item shapes an older encoder produced (and any other
        kind-less object) are not batches.  (Before PR 20 the first two
        decoded to ``[("bob", "p", (1,))]``.)"""
        blob = json.dumps(payload).encode("utf-8")
        with pytest.raises(NetworkError, match="malformed batch payload"):
            decode_batch_message(blob, RuleRegistry())

    def test_malformed_batch_rejected(self):
        registry = RuleRegistry()
        with pytest.raises(NetworkError):
            decode_batch_message(b"not json", registry)
        bad = json.dumps({"round": "x", "batch": []}).encode()
        with pytest.raises(NetworkError):
            decode_batch_message(bad, registry)


class TestDictCompressedCodec:
    def test_roundtrip_multiple_items(self):
        registry = RuleRegistry()
        items = [("alice", "p", (1, "x")), ("", "q", (b"\x01",)),
                 ("alice", "p", (1, "y"))]
        blob = encode_batch_message_dict(items, registry, round_stamp=7)
        assert decoded(blob, registry) == (7, items)

    def test_repeated_values_stored_once(self):
        registry = RuleRegistry()
        items = [("", "reach", ("node-with-a-long-name", i % 3))
                 for i in range(40)]
        compressed = encode_batch_message_dict(items, registry, 1)
        # one dictionary entry for the shared string, not forty
        assert compressed.count(b"node-with-a-long-name") == 1
        assert len(compressed) < 40 * len("node-with-a-long-name")
        assert decoded(compressed, registry) == (1, items)

    def test_classified_as_batch_frame(self):
        from repro.net.transport import frame_kind

        registry = RuleRegistry()
        blob = encode_batch_message_dict([("", "p", (1,))], registry, 2)
        assert frame_kind(blob) == "batch"

    @pytest.mark.parametrize("payload", [
        {"round": "x", "names": [], "dict": [], "rows": []},
        {"round": 0, "names": [1], "dict": [], "rows": []},
        {"round": 0, "names": [], "dict": ["notag"], "rows": []},
        {"round": 0, "names": ["", "p"], "dict": [], "rows": [[0]]},
        {"round": 0, "names": ["", "p"], "dict": [], "rows": [[0, 5]]},
        {"round": 0, "names": ["", "p"], "dict": [], "rows": [[0, -1]]},
        {"round": 0, "names": ["", "p"], "dict": [], "rows": [[0, True]]},
        {"round": 0, "names": ["", "p"],
         "dict": [{"t": "int", "v": 1}], "rows": [[0, 1, 3]]},
    ])
    def test_malformed_compressed_payloads_rejected(self, payload):
        registry = RuleRegistry()
        blob = json.dumps(payload).encode("utf-8")
        with pytest.raises(NetworkError):
            decode_batch_message(blob, registry)


class TestMessageBatcher:
    def test_coalesces_per_link(self):
        network = make_network("a", "b", "c")
        batcher = MessageBatcher(network, RuleRegistry())
        terms = TermInterner()
        for i in range(10):
            batcher.add("a", "b", "p", [terms.intern_row((i,))], terms)
        batcher.add("a", "c", "p", [terms.intern_row((99,))], terms)
        sent = batcher.flush(round_stamp=3)
        assert sent == 2
        assert network.total.messages == 2
        assert batcher.sent_items == 11
        deliveries = network.deliver_all()
        by_link = {(src, dst): blob for src, dst, blob in deliveries}
        round_stamp, items = decoded(by_link[("a", "b")], RuleRegistry())
        assert round_stamp == 3
        assert {fact for _to, _pred, fact in items} == {(i,) for i in range(10)}

    def test_size_cap_flushes_early(self):
        network = make_network("a", "b")
        batcher = MessageBatcher(network, RuleRegistry(), max_bytes=256)
        terms = TermInterner()
        for i in range(50):
            batcher.add("a", "b", "p",
                        [terms.intern_row((i, "some payload text"))], terms)
        batcher.flush()
        assert network.total.messages > 1
        # every message respects the cap (within one item's slack)
        for _src, _dst, blob in network.deliver_all():
            assert len(blob) <= 256 + 64

    def test_ledger_sees_early_flushes(self):
        network = make_network("a", "b")
        ledger = TicketLedger()
        batcher = MessageBatcher(network, RuleRegistry(), max_bytes=256,
                                 ledger=ledger)
        terms = TermInterner()
        for i in range(50):
            batcher.add("a", "b", "p",
                        [terms.intern_row((i, "some payload text"))], terms,
                        round_stamp=4)
        batcher.flush(round_stamp=4)
        assert ledger.issued == network.total.messages
        assert ledger.issued > 1

    def test_flush_with_nothing_pending_is_a_noop(self):
        network = make_network("a", "b")
        batcher = MessageBatcher(network, RuleRegistry())
        assert batcher.flush() == 0
        assert batcher.pending_items() == 0


class TestWireFormatInterop:
    """The batcher's spliced envelope against the canonical encoder."""

    FACTS = [("p", (i % 4, "shared text", i)) for i in range(20)]

    def _drain(self):
        network = make_network("a", "b")
        batcher = MessageBatcher(network, RuleRegistry())
        terms = TermInterner()
        for pred, fact in self.FACTS:
            batcher.add("a", "b", pred, [terms.intern_row(fact)], terms,
                        to="alice")
        batcher.flush(round_stamp=9)
        [(_, _, blob)] = network.deliver_all()
        return blob

    def _per_item_envelope(self):
        """One tagged object per fact — the shape the dictionary format
        replaced (its encoder is still there; no decoder reads it)."""
        registry = RuleRegistry()
        return encode_batch_message(
            [{"to": "alice", "pred": pred,
              "fact": [encode_value(value, registry) for value in fact]}
             for pred, fact in self.FACTS], 9)

    def test_dict_batcher_matches_canonical_encoder(self):
        registry = RuleRegistry()
        expected = encode_batch_message_dict(
            [("alice", pred, fact) for pred, fact in self.FACTS],
            registry, 9)
        assert self._drain() == expected

    def test_dict_format_is_smaller_on_repetitive_traffic(self):
        assert len(self._drain()) < len(self._per_item_envelope()) / 2

    def test_dict_format_respects_size_cap(self):
        network = make_network("a", "b")
        batcher = MessageBatcher(network, RuleRegistry(), max_bytes=256)
        terms = TermInterner()
        for i in range(50):
            batcher.add(
                "a", "b", "p",
                [terms.intern_row((i, f"unique payload text {i}"))], terms)
        batcher.flush()
        registry = RuleRegistry()
        seen = set()
        for _src, _dst, blob in network.deliver_all():
            assert len(blob) <= 256 + 64
            _stamp, items = decoded(blob, registry)
            seen.update(fact for _to, _pred, fact in items)
        assert seen == {(i, f"unique payload text {i}") for i in range(50)}
