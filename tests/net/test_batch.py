"""Batch wire format and the size-capped per-link message batcher."""

import json
import struct

import pytest

from repro.cluster.quiescence import TicketLedger
from repro.datalog.errors import NetworkError
from repro.meta.registry import RuleRegistry
from repro.net.batch import MessageBatcher
from repro.net.network import SimulatedNetwork
from repro.net.transport import (
    BATCH_MAGIC,
    decode_batch_message,
    encode_batch_message,
    encode_batch_message_dict,
    encode_value,
    frame_kind,
)


def decoded(blob, registry):
    """``(round stamp, [(to, pred, fact), ...])`` of one batch message."""
    batch = decode_batch_message(blob, registry)
    materialize = registry.terms.materialize_row
    return batch.stamp, [(to, pred, materialize(row)) for to, pred, rows
                         in batch.rows(registry.terms) for row in rows]


def parts(blob):
    """``(header, body slots)`` of a packed envelope, read by hand."""
    assert blob[:1] == BATCH_MAGIC
    (length,) = struct.unpack_from("<I", blob, 1)
    header = json.loads(blob[5:5 + length])
    body = blob[5 + length:]
    return header, list(struct.unpack(f"<{len(body) // 4}I", body))


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
        # the all-JSON dictionary envelope the packed one replaced
        {"round": 0, "names": ["", "p"], "dict": [{"t": "int", "v": 1}],
         "rows": [[0, 1, 0]]},
        {},
    ])
    def test_a_json_object_is_no_batch(self, payload):
        """Every shape an older encoder produced (and any other kind-less
        object) is named as what it is, a malformed batch payload.
        (Before PR 20 the first two decoded to ``[("bob", "p", (1,))]``,
        before PR 24 the fourth did.)"""
        blob = json.dumps(payload).encode("utf-8")
        with pytest.raises(NetworkError, match="malformed batch payload"):
            decode_batch_message(blob, RuleRegistry())

    def test_a_serve_frame_is_named_as_one(self):
        blob = json.dumps({"kind": "request", "id": 1, "op": "ping",
                           "body": {}}).encode("utf-8")
        with pytest.raises(NetworkError,
                           match="serve-plane request frame in batch"):
            decode_batch_message(blob, RuleRegistry())

    def test_malformed_batch_rejected(self):
        registry = RuleRegistry()
        with pytest.raises(NetworkError, match="undecodable message"):
            decode_batch_message(b"not json", registry)
        with pytest.raises(NetworkError, match="malformed message payload"):
            decode_batch_message(b"[1, 2]", registry)
        with pytest.raises(NetworkError):
            decode_batch_message(b"", registry)


class TestPackedCodec:
    def test_roundtrip_multiple_items(self):
        registry = RuleRegistry()
        items = [("alice", "p", (1, "x")), ("", "q", (b"\x01",)),
                 ("alice", "p", (1, "y"))]
        blob = encode_batch_message_dict(items, registry, round_stamp=7)
        assert decoded(blob, registry) == (7, items)

    def test_the_layout_is_header_plus_one_uint32_array(self):
        registry = RuleRegistry()
        items = [("alice", "p", (7, "x")), ("alice", "p", (7, "y")),
                 ("", "q", (b"\x01",))]
        header, body = parts(encode_batch_message_dict(items, registry, 3))
        assert header == {
            "round": 3, "names": ["alice", "p", "", "q"],
            # JSON-native scalars bare, anything else encode_value's object
            "dict": [7, "x", "y", {"t": "bytes", "v": "01"}],
            # consecutive items agreeing on (to, pred, arity) are one block
            "blocks": [[0, 1, 2, 2], [2, 3, 1, 1]]}
        assert body == [0, 1, 0, 2, 3]

    def test_repeated_values_stored_once(self):
        registry = RuleRegistry()
        items = [("", "reach", ("node-with-a-long-name", i % 3))
                 for i in range(40)]
        packed = encode_batch_message_dict(items, registry, 1)
        # one dictionary entry for the shared string, not forty
        assert packed.count(b"node-with-a-long-name") == 1
        assert len(packed) < 40 * len("node-with-a-long-name")
        assert decoded(packed, registry) == (1, items)

    def test_zero_arity_facts_roundtrip(self):
        registry = RuleRegistry()
        items = [("", "flag", ()), ("bob", "flag", ()), ("", "p", (1,)),
                 ("", "flag", ())]
        blob = encode_batch_message_dict(items, registry, 2)
        header, body = parts(blob)
        assert [block[2:] for block in header["blocks"]] == \
            [[0, 1], [0, 1], [1, 1], [0, 1]]
        assert body == [0]
        assert decoded(blob, registry) == (2, items)
        assert len(decode_batch_message(blob, registry)) == 4

    def test_equal_but_distinct_scalars_stay_distinct(self):
        """``1 == 1.0 == True`` in Python, and ``"1"`` prints alike: on
        the wire they are four dictionary entries and arrive as four
        values of four types."""
        registry = RuleRegistry()
        fact = (1, 1.0, True, "1")
        blob = encode_batch_message_dict([("", "p", fact)], registry)
        header, body = parts(blob)
        assert json.dumps(header["dict"]) == '[1, 1.0, true, "1"]'
        assert body == [0, 1, 2, 3]
        [(_to, _pred, arrived)] = decoded(blob, registry)[1]
        assert [(type(v), v) for v in arrived] == \
            [(int, 1), (float, 1.0), (bool, True), (str, "1")]

    def test_classified_as_batch_by_its_magic_byte(self):
        registry = RuleRegistry()
        blob = encode_batch_message_dict([("", "p", (1,))], registry, 2)
        assert frame_kind(blob) == "batch"
        # classification reads one byte: what follows is the decoder's
        assert frame_kind(BATCH_MAGIC + b"\xff not an envelope") == "batch"
        with pytest.raises(NetworkError):
            decode_batch_message(BATCH_MAGIC + b"\xff not an envelope",
                                 registry)


class TestMessageBatcher:
    def test_coalesces_per_link(self):
        network = make_network("a", "b", "c")
        batcher = MessageBatcher(network, RuleRegistry())
        terms = batcher.registry.terms
        for i in range(10):
            batcher.add("a", "b", "p", [terms.intern_row((i,))])
        batcher.add("a", "c", "p", [terms.intern_row((99,))])
        sent = batcher.flush(round_stamp=3)
        assert sent == 2
        assert network.total.messages == 2
        assert batcher.sent_items == 11
        deliveries = network.deliver_all()
        by_link = {(src, dst): blob for src, dst, blob in deliveries}
        round_stamp, items = decoded(by_link[("a", "b")], RuleRegistry())
        assert round_stamp == 3
        assert {fact for _to, _pred, fact in items} == {(i,) for i in range(10)}
        # ten one-row adds of one predicate went out as one block
        header, body = parts(by_link[("a", "b")])
        assert header["blocks"] == [[0, 1, 1, 10]]
        assert body == list(range(10))

    def test_mixed_arities_in_one_add_split_by_arity_in_order(self):
        network = make_network("a", "b")
        registry = RuleRegistry()
        batcher = MessageBatcher(network, registry)
        terms = batcher.registry.terms
        facts = [(1, 2), (3, 4), (), (5,), (6,), (7, 8)]
        batcher.add("a", "b", "p", [terms.intern_row(f) for f in facts],
                    to="bob")
        assert batcher.pending_items() == 6
        batcher.flush(5)
        [(_src, _dst, blob)] = network.deliver_all()
        header, _body = parts(blob)
        assert [block[2:] for block in header["blocks"]] == \
            [[2, 2], [0, 1], [1, 2], [2, 1]]
        assert decoded(blob, registry) == \
            (5, [("bob", "p", fact) for fact in facts])
        assert blob == encode_batch_message_dict(
            [("bob", "p", fact) for fact in facts], registry, 5)

    def test_size_cap_flushes_early(self):
        network = make_network("a", "b")
        batcher = MessageBatcher(network, RuleRegistry(), max_bytes=256)
        terms = batcher.registry.terms
        for i in range(50):
            batcher.add("a", "b", "p",
                        [terms.intern_row((i, "some payload text"))])
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
        terms = batcher.registry.terms
        for i in range(50):
            batcher.add("a", "b", "p",
                        [terms.intern_row((i, "some payload text"))],
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
        terms = batcher.registry.terms
        for pred, fact in self.FACTS:
            batcher.add("a", "b", pred, [terms.intern_row(fact)],
                        to="alice")
        batcher.flush(round_stamp=9)
        [(_, _, blob)] = network.deliver_all()
        return blob

    def _per_item_envelope(self):
        """One tagged object per fact — the shape the dictionary formats
        replaced (its encoder is still there; no decoder reads it)."""
        registry = RuleRegistry()
        return encode_batch_message(
            [{"to": "alice", "pred": pred,
              "fact": [encode_value(value, registry) for value in fact]}
             for pred, fact in self.FACTS], 9)

    def test_batcher_matches_canonical_encoder(self):
        registry = RuleRegistry()
        expected = encode_batch_message_dict(
            [("alice", pred, fact) for pred, fact in self.FACTS],
            registry, 9)
        assert self._drain() == expected

    def test_packed_format_is_smaller_on_repetitive_traffic(self):
        assert len(self._drain()) < len(self._per_item_envelope()) / 4

    def test_packed_format_respects_size_cap(self):
        network = make_network("a", "b")
        batcher = MessageBatcher(network, RuleRegistry(), max_bytes=256)
        terms = batcher.registry.terms
        for i in range(50):
            batcher.add(
                "a", "b", "p",
                [terms.intern_row((i, f"unique payload text {i}"))])
        batcher.flush()
        registry = RuleRegistry()
        seen = set()
        for _src, _dst, blob in network.deliver_all():
            assert len(blob) <= 256 + 64
            _stamp, items = decoded(blob, registry)
            seen.update(fact for _to, _pred, fact in items)
        assert seen == {(i, f"unique payload text {i}") for i in range(50)}
