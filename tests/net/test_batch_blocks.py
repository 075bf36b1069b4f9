"""The block handoff: id-row blocks through ``MessageBatcher.add``,
checked against the one-item-at-a-time definition of the packed wire
format; and a decoder that fails closed."""

import json
import struct
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import LBTrustSystem
from repro.cluster.quiescence import TicketLedger
from repro.datalog.errors import NetworkError
from repro.meta.registry import RuleRegistry
from repro.net.batch import (
    _BLOCK_OVERHEAD,
    _ENVELOPE_OVERHEAD,
    MessageBatcher,
)
from repro.net.transport import (
    BATCH_MAGIC,
    decode_batch_message,
    encode_batch_message,
    encode_batch_message_dict,
    encode_value,
)

# -- strategies -------------------------------------------------------------

scalars = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2 ** 40), max_value=2 ** 40),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.binary(max_size=4),
)
values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=2).map(tuple),
    max_leaves=4)


@st.composite
def blocks(draw):
    """Blocks for one link: mixed arity (zero included), a small pool of
    repeated terms plus fresh ones, several preds and ``to`` names."""
    pool = draw(st.lists(values, min_size=1, max_size=5))
    term = st.one_of(st.sampled_from(pool), values)
    row = st.lists(term, max_size=3).map(tuple)
    block = st.tuples(st.sampled_from(["p", "q", "reach"]),
                      st.sampled_from(["", "alice", "p"]),
                      st.lists(row, min_size=1, max_size=6))
    return draw(st.lists(block, min_size=1, max_size=6))


class _Wire:
    """A network stand-in keeping every blob sent, per link, in order."""

    def __init__(self):
        self.sent = {}

    def send(self, src, dst, blob):
        self.sent.setdefault((src, dst), []).append(blob)


def split(blob):
    """``(header, body bytes)`` of a packed envelope."""
    (length,) = struct.unpack_from("<I", blob, 1)
    return json.loads(blob[5:5 + length]), blob[5 + length:]


def compact(entry):
    return json.dumps(entry, separators=(",", ":"))


def accounted_size(items, registry):
    """What the batcher's byte accounting charges a message of ``items``:
    the fixed envelope allowance, every name and dictionary entry at its
    text's length + 1 (the comma), a fixed allowance per block and four
    bytes per term."""
    header, body = split(encode_batch_message_dict(items, registry, 0))
    return (_ENVELOPE_OVERHEAD
            + sum(len(compact(entry).encode()) + 1
                  for entry in header["names"] + header["dict"])
            + _BLOCK_OVERHEAD * len(header["blocks"]) + len(body))


def one_at_a_time(items, registry, max_bytes):
    """The reference: messages formed by adding ``items`` one by one,
    flushing first whenever the next item would cross the cap."""
    messages, current = [], []
    for item in items:
        if current and accounted_size(current + [item], registry) > max_bytes:
            messages.append(current)
            current = []
        current.append(item)
    if current:
        messages.append(current)
    return messages


def decoded_items(blob, registry):
    return facts_of(decode_batch_message(blob, registry), registry)


def facts_of(batch, registry):
    """``batch`` as ``(to, pred, fact)`` triples, in wire order."""
    materialize = registry.terms.materialize_row
    return [(to, pred, materialize(row))
            for to, pred, rows in batch.rows(registry.terms) for row in rows]


class TestBlockProperty:
    @given(link_blocks=blocks(),
           max_bytes=st.integers(min_value=80, max_value=600),
           round_stamp=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_blocks_equal_the_one_item_at_a_time_definition(
            self, link_blocks, max_bytes, round_stamp):
        registry = RuleRegistry()
        wire = _Wire()
        ledger = TicketLedger()
        batcher = MessageBatcher(wire, registry, max_bytes=max_bytes,
                                 ledger=ledger)
        interner = registry.terms
        items = []
        for pred, to, rows in link_blocks:
            id_rows = [interner.intern_row(row) for row in rows]
            batcher.add("a", "b", pred, id_rows, to=to,
                        round_stamp=round_stamp)
            # 1, 1.0 and True share an id: the wire carries the
            # first-interned representative, as materialize_row would
            items.extend((to, pred, interner.materialize_row(row))
                         for row in id_rows)
        batcher.flush(round_stamp)

        blobs = wire.sent[("a", "b")]
        messages = [decoded_items(blob, registry) for blob in blobs]
        # the same messages, cut at the same items, as adding one by one
        assert list(map(repr, messages)) == \
            list(map(repr, one_at_a_time(items, registry, max_bytes)))
        for blob, message in zip(blobs, messages):
            # byte-identical to the canonical encoder over its items
            assert blob == encode_batch_message_dict(
                message, registry, round_stamp)
            # the accounting never undercounts, and the cap is exceeded
            # by at most one item
            assert len(blob) <= accounted_size(message, registry)
            assert len(message) == 1 or \
                accounted_size(message[:-1], registry) <= max_bytes
            # a term shipped to several principals takes one entry
            header, _body = split(blob)
            assert len(set(map(compact, header["dict"]))) == \
                len(header["dict"])
        assert Counter(map(repr, sum(messages, []))) == \
            Counter(map(repr, items))
        assert batcher.sent_items == len(items)
        # every message — the early, size-capped ones too — is ticketed
        assert batcher.sent_messages == len(blobs) == ledger.issued

    def test_one_term_table_whichever_node_sends(self):
        """Every sender's rows index the registry's interner, so a term
        two nodes ship is encoded once and means the same on both links."""
        registry = RuleRegistry()
        batcher = MessageBatcher(_Wire(), registry)
        row = registry.terms.intern_row(("x",))
        batcher.add("a", "c", "p", [row])
        batcher.add("b", "c", "p", [row])
        batcher.flush()
        for link in (("a", "c"), ("b", "c")):
            assert decoded_items(batcher.network.sent[link][0], registry) \
                == [("", "p", ("x",))]
        assert registry.term_texts == {row[0]: compact("x")}

    def test_an_empty_block_queues_nothing(self):
        batcher = MessageBatcher(_Wire(), RuleRegistry())
        batcher.add("a", "b", "p", [])
        assert batcher.pending_items() == 0
        assert batcher.flush() == 0


# -- fail-closed decode -------------------------------------------------------

def envelope(body=(0, 1), prefix=None, **overrides):
    """A packed envelope built by hand: the well-formed one-row batch
    ``p(1, "x")`` unless a header field, the body's slots (or raw bytes)
    or the length prefix is overridden."""
    header = {"round": 0, "names": ["", "p"], "dict": [1, "x"],
              "blocks": [[0, 1, 2, 1]]}
    header.update(overrides)
    text = json.dumps(header).encode("utf-8")
    if not isinstance(body, bytes):
        body = struct.pack(f"<{len(body)}I", *body)
    length = len(text) if prefix is None else prefix
    return BATCH_MAGIC + struct.pack("<I", length) + text + body


#: Envelopes wrong in the packed part alone — each with the fault it
#: carries.  The header of every one is well-formed JSON.
BROKEN_BODIES = {
    "body cut short": envelope(body=(0,)),
    "body cut mid-slot": envelope(body=struct.pack("<II", 0, 1)[:-1]),
    "body over-long": envelope(body=(0, 1, 0)),
    "no body": envelope(body=()),
    "slot out of range": envelope(body=(0, 2)),
    "slot far out of range": envelope(body=(0, 2 ** 32 - 1)),
    "arity * count overflows the body":
        envelope(blocks=[[0, 1, 2, 2 ** 31]]),
    "huge arity": envelope(blocks=[[0, 1, 10 ** 30, 1]]),
    "length prefix short": envelope(prefix=10),
    "length prefix past the end": envelope(prefix=2 ** 31),
    "length prefix into the body": envelope(
        prefix=struct.unpack_from("<I", envelope(), 1)[0] + 4),
    "no length prefix": BATCH_MAGIC + b"\x05\x00",
    "magic byte alone": BATCH_MAGIC,
    "more rows than bytes": envelope(body=(), blocks=[[0, 1, 0, 10 ** 9]]),
}


class TestDecodeFailsClosed:
    def test_the_well_formed_envelope_decodes(self):
        registry = RuleRegistry()
        batch = decode_batch_message(envelope(), registry)
        assert facts_of(batch, registry) == [("", "p", (1, "x"))]
        # the hand-built envelope is the canonical one, JSON spacing aside
        assert split(envelope()) == split(encode_batch_message_dict(
            [("", "p", (1, "x"))], registry))

    @pytest.mark.parametrize("blocks", [
        [5],                        # a block that is not a list
        ["0121"],
        [{"0": 1}],
        [None],
        [[0, 1, 2]],                # not four fields
        [[0, 1, 2, 1, 0]],
        [[]],
        [[0, 1, 2, -1]],            # negative field
        [[-1, 1, 2, 1]],
        [[0, 1, -2, 1]],
        [[0, True, 2, 1]],          # bool is not a field
        [[0, 1, 2, True]],
        [[0, 1, 2.0, 1]],           # nor is a float
        [[0, 1, "2", 1]],
        [[0, 1, None, 1]],
        [[0, 1, [2], 1]],
        [[2, 1, 2, 1]],             # name index out of range
        [[0, 2, 2, 1]],
        [[10 ** 30, 1, 2, 1]],
        [[0, 1, 2, 0]],             # an empty block
        [[0, 1, 10 ** 30, 0]],
        [[0, 1, 2, 1], [0, 1, 2, 1]],   # claims more than the body holds
        [[0, 1, 1, 1]],             # claims less
        [[0, 1, 2, 1], [0, 7, 0, 1]],   # a good block does not excuse a bad
        5,                          # blocks itself is not a list
        None,
    ])
    def test_malformed_blocks_raise_network_error(self, blocks):
        with pytest.raises(NetworkError):
            decode_batch_message(envelope(blocks=blocks), RuleRegistry())

    @pytest.mark.parametrize("overrides", [
        {"round": "x"}, {"round": True}, {"round": 1.0}, {"round": None},
        {"names": [1, "p"]}, {"names": "ab"}, {"names": None},
        {"names": ["", ["p"]]},
    ])
    def test_malformed_header_fields_raise_network_error(self, overrides):
        with pytest.raises(NetworkError):
            decode_batch_message(envelope(**overrides), RuleRegistry())

    @pytest.mark.parametrize("header", [
        b"[]", b"5", b'"names"', b"null", b"{", b"", b"\xff\xfe",
        b'{"round":0,"names":["","p"],"dict":[1,"x"]}',     # no blocks
        b'{"round":0,"blocks":[[0,1,2,1]],"dict":[1,"x"]}',     # no names
        b'{"round":0,"blocks":[[0,1,2,1]],"names":["","p"]}',   # no dict
    ])
    def test_a_header_that_is_not_the_object_raises_network_error(
            self, header):
        blob = BATCH_MAGIC + struct.pack("<I", len(header)) + header \
            + struct.pack("<II", 0, 1)
        with pytest.raises(NetworkError):
            decode_batch_message(blob, RuleRegistry())

    @pytest.mark.parametrize("dictionary", [
        [None, "x"],                        # neither scalar nor object
        [[1], "x"],
        [[{"t": "int", "v": 1}], "x"],
        [{"v": 1}, "x"],                    # an object with no tag
        [{"t": "int"}, "x"],                # no payload
        [{"t": "int", "v": "1"}, "x"],      # payload of the wrong type
        [{"t": "int", "v": True}, "x"],
        [{"t": "int", "v": [1]}, "x"],
        [{"t": "str", "v": 1}, "x"],
        [{"t": "bool", "v": 0}, "x"],
        [{"t": "bytes", "v": "zz"}, "x"],
        [{"t": "bytes", "v": 7}, "x"],
        [{"t": "list", "v": 5}, "x"],
        [{"t": "list", "v": "ab"}, "x"],
        [{"t": "list", "v": [1]}, "x"],     # bare scalars do not nest
        [{"t": "part", "p": ["x"], "k": []}, "x"],
        [{"t": "part", "p": "x", "k": 3}, "x"],
        [{"t": "rule", "v": "not a ( rule"}, "x"],
        [{"t": "rule", "v": 3}, "x"],
        [{"t": "pattern", "v": "p(X)"}, "x"],
        [1],                                # shorter than a slot used
        "nope",
        None,
    ])
    def test_malformed_dictionary_raises_network_error(self, dictionary):
        with pytest.raises(NetworkError):
            decode_batch_message(envelope(dict=dictionary), RuleRegistry())

    def test_an_unused_dictionary_entry_is_still_checked(self):
        with pytest.raises(NetworkError):
            decode_batch_message(envelope(dict=[1, "x", None]),
                                 RuleRegistry())

    def test_tagged_and_bare_entries_mix(self):
        blob = envelope(dict=[{"t": "bytes", "v": "01"}, 2.5])
        assert decoded_items(blob, RuleRegistry()) == \
            [("", "p", (b"\x01", 2.5))]

    def test_names_may_outnumber_the_dictionary(self):
        blob = envelope(names=["", "p", "q"], dict=[7], body=(0,),
                        blocks=[[0, 2, 1, 1], [0, 1, 0, 1]])
        assert decoded_items(blob, RuleRegistry()) == \
            [("", "q", (7,)), ("", "p", ())]

    @pytest.mark.parametrize("fault", sorted(BROKEN_BODIES))
    def test_a_broken_body_raises_network_error(self, fault):
        with pytest.raises(NetworkError):
            decode_batch_message(BROKEN_BODIES[fault], RuleRegistry())

    @pytest.mark.parametrize("mode", ["bsp", "async"])
    @pytest.mark.parametrize("fault", sorted(BROKEN_BODIES))
    def test_a_rejected_envelope_integrates_nothing(self, fault, mode):
        """On the open network the reject is counted and named, and not
        one row of the refused envelope — its well-formed header's
        ``p(1, "x")`` included — reaches a workspace."""
        system = LBTrustSystem(auth="plaintext")
        system.create_principal("a")
        b = system.create_principal("b")
        blob = BROKEN_BODIES[fault].replace(b'["", "p"]', b'["b", "p"]')
        system.network.send("a", "b", blob)
        report = system.run(mode=mode)
        assert (report.delivered, report.rejected) == (0, 1)
        [(source, _reason)] = report.rejected_detail
        assert source == "<decode>"
        assert b.tuples("p") == set()

    @given(items=st.lists(
        st.tuples(st.sampled_from(["", "alice"]),
                  st.sampled_from(["p", "reach"]),
                  st.lists(values, max_size=3).map(tuple)),
        min_size=1, max_size=5),
        edits=st.lists(
            st.tuples(st.sampled_from(["replace", "insert", "delete",
                                       "prefix", "truncate", "pad"]),
                      st.integers(min_value=0, max_value=10 ** 6),
                      st.one_of(st.integers(min_value=0, max_value=255),
                                st.sampled_from(list(b'[]{}",:-0129.etf')))),
            min_size=1, max_size=4),
        seed=st.sampled_from(["envelope", "envelope", "json-rows",
                              "single-fact", "batch-key"]))
    @settings(max_examples=700, deadline=None)
    def test_mutated_envelopes_raise_only_network_error(self, items, edits,
                                                        seed):
        registry = RuleRegistry()
        # seeds: the envelope, and the all-JSON shapes no decoder reads
        legacy = [{"to": to, "pred": pred,
                   "fact": [encode_value(value, registry) for value in fact]}
                  for to, pred, fact in items]
        blob = bytearray({
            "envelope": encode_batch_message_dict(items, registry, 3),
            "json-rows": json.dumps(
                {"round": 3, "names": ["", "p"], "dict": legacy[0]["fact"],
                 "rows": [[0, 1, *range(len(legacy[0]["fact"]))]]}
            ).encode("utf-8"),
            "single-fact": json.dumps(legacy[0]).encode("utf-8"),
            "batch-key": encode_batch_message(legacy, 3),
        }[seed])
        for kind, position, byte in edits:
            if kind == "prefix":        # the length prefix, bytes 1..4
                blob[1 + position % 4:2 + position % 4] = bytes([byte])
                continue
            if kind == "truncate":      # a body (or header) cut short
                del blob[len(blob) - 1 - position % min(len(blob), 12):]
                continue
            if kind == "pad":           # an over-long body
                blob.extend(bytes([byte]) * (1 + position % 8))
                continue
            position %= len(blob) + 1
            if kind == "insert":
                blob.insert(position, byte)
            elif position < len(blob):
                if kind == "replace":
                    blob[position] = byte
                elif len(blob) > 1:
                    del blob[position]
        try:
            batch = decode_batch_message(bytes(blob), registry)
        except NetworkError:
            return
        # whatever still decodes is a well-formed batch of as many rows
        # as it says
        arrived = facts_of(batch, registry)
        assert len(arrived) == len(batch)
        for to, pred, fact in arrived:
            assert isinstance(to, str) and isinstance(pred, str)
            assert isinstance(fact, tuple)
