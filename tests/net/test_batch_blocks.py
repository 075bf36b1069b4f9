"""The block handoff: id-row blocks through ``MessageBatcher.add``,
checked against the one-item-at-a-time definition of the dictionary wire
format; and a decoder that fails closed."""

import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datalog.database import TermInterner
from repro.datalog.errors import NetworkError
from repro.meta.registry import RuleRegistry
from repro.net.batch import _ENVELOPE_OVERHEAD, MessageBatcher
from repro.net.transport import (
    decode_batch_message,
    encode_batch_message,
    encode_batch_message_compressed,
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
    """Blocks for one link: mixed arity, a small pool of repeated terms
    plus fresh ones, several preds and ``to`` names."""
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


_EMPTY_ENVELOPE = len(encode_batch_message_compressed([], [], [], 0))


def accounted_size(items, registry):
    """What the batcher's byte accounting charges a message of ``items``:
    the fixed envelope allowance plus every dictionary entry and row at
    its length + 1 (the comma each is charged, first entry included)."""
    blob = encode_batch_message_dict(items, registry, 0)
    payload = json.loads(blob)
    nonempty = sum(1 for key in ("names", "dict", "rows") if payload[key])
    return len(blob) - _EMPTY_ENVELOPE + _ENVELOPE_OVERHEAD + nonempty


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
    return list(decode_batch_message(blob, registry).items())


class TestBlockProperty:
    @given(link_blocks=blocks(),
           max_bytes=st.integers(min_value=60, max_value=600),
           round_stamp=st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_blocks_equal_the_one_item_at_a_time_definition(
            self, link_blocks, max_bytes, round_stamp):
        registry = RuleRegistry()
        wire = _Wire()
        batcher = MessageBatcher(wire, registry, max_bytes=max_bytes)
        interner = TermInterner()
        items = []
        for pred, to, rows in link_blocks:
            id_rows = [interner.intern_row(row) for row in rows]
            batcher.add("a", "b", pred, id_rows, interner, to=to,
                        round_stamp=round_stamp)
            # 1, 1.0 and True share an id: the wire carries the
            # first-interned representative, as materialize_row would
            items.extend((to, pred, interner.materialize_row(row))
                         for row in id_rows)
        batcher.flush(round_stamp)

        blobs = wire.sent[("a", "b")]
        messages = [decoded_items(blob, registry) for blob in blobs]
        # the same messages, cut at the same items, as adding one by one
        assert messages == one_at_a_time(items, registry, max_bytes)
        for blob, message in zip(blobs, messages):
            # byte-identical to the canonical encoder over its items
            assert blob == encode_batch_message_dict(
                message, registry, round_stamp)
            # the cap is exceeded by at most one item
            assert len(message) == 1 or \
                accounted_size(message[:-1], registry) <= max_bytes
        assert Counter(map(repr, sum(messages, []))) == \
            Counter(map(repr, items))
        assert batcher.sent_items == len(items)
        assert batcher.sent_messages == len(blobs)

    def test_one_interner_table_per_sender_and_it_dies_with_it(self):
        import gc

        registry = RuleRegistry()
        batcher = MessageBatcher(_Wire(), registry)
        first, second = TermInterner(), TermInterner()
        # the same ids mean different terms in different interners
        row_a, row_b = first.intern_row(("x",)), second.intern_row(("y",))
        assert row_a == row_b
        batcher.add("a", "c", "p", [row_a], first)
        batcher.add("b", "c", "p", [row_b], second)
        batcher.flush()
        sent = batcher.network.sent
        assert decoded_items(sent[("a", "c")][0], registry) == \
            [("", "p", ("x",))]
        assert decoded_items(sent[("b", "c")][0], registry) == \
            [("", "p", ("y",))]
        assert len(batcher._term_texts) == 2
        del first, second
        gc.collect()
        assert len(batcher._term_texts) == 0

    @given(turns=st.lists(
        st.tuples(st.sampled_from([0, 1]),
                  st.lists(st.lists(st.sampled_from(
                      ["x", "y", 1, 2, ("x",)]), max_size=3).map(tuple),
                      min_size=1, max_size=3)),
        min_size=2, max_size=8),
        max_bytes=st.sampled_from([120, 10 ** 4]))
    @settings(max_examples=200, deadline=None)
    def test_two_interners_interleave_on_one_link(self, turns, max_bytes):
        """Co-located workspaces share a link but not an interner: the
        same id means a different term in each, whichever sent last, and
        a term both shipped takes one dictionary entry.  (Fails if the
        link keeps its term-id slots across an interner change.)"""
        registry = RuleRegistry()
        wire = _Wire()
        batcher = MessageBatcher(wire, registry, max_bytes=max_bytes)
        interners = TermInterner(), TermInterner()
        interners[1].intern_row(("skew", "the", "ids"))
        items = []
        for which, rows in turns:
            interner = interners[which]
            batcher.add("n", "m", "p",
                        [interner.intern_row(row) for row in rows], interner,
                        to=f"principal{which}", round_stamp=4)
            items.extend((f"principal{which}", "p", row) for row in rows)
        batcher.flush(4)
        blobs = wire.sent[("n", "m")]
        messages = [decoded_items(blob, registry) for blob in blobs]
        assert messages == one_at_a_time(items, registry, max_bytes)
        for blob, message in zip(blobs, messages):
            assert blob == encode_batch_message_dict(message, registry, 4)

    def test_an_empty_block_queues_nothing(self):
        batcher = MessageBatcher(_Wire(), RuleRegistry())
        batcher.add("a", "b", "p", [], TermInterner())
        assert batcher.pending_items() == 0
        assert batcher.flush() == 0

    def test_a_block_without_its_interner_is_a_type_error(self):
        """Value tuples are no block form: ``terms`` is required."""
        batcher = MessageBatcher(_Wire(), RuleRegistry())
        with pytest.raises(TypeError):
            batcher.add("a", "b", "p", [("x", 1)])
        assert batcher.pending_items() == 0


# -- fail-closed decode -------------------------------------------------------

def envelope(**overrides):
    payload = {"round": 0, "names": ["", "p"],
               "dict": [{"t": "int", "v": 1}, {"t": "str", "v": "x"}],
               "rows": [[0, 1, 0, 1]]}
    payload.update(overrides)
    return json.dumps(payload).encode("utf-8")


class TestDecodeFailsClosed:
    def test_the_well_formed_envelope_decodes(self):
        batch = decode_batch_message(envelope(), RuleRegistry())
        assert list(batch.items()) == [("", "p", (1, "x"))]

    @pytest.mark.parametrize("rows", [
        [5],                        # a row that is not a list
        ["01"],
        [{"0": 1}],
        [None],
        [[0]],                      # shorter than to + pred
        [[]],
        [[0, 1, -1]],               # negative index
        [[-1, 1, 0]],
        [[0, True, 0]],             # bool is not an index
        [[0, 1, False]],
        [[0, 1, 1.0]],              # nor is a float
        [[0, 1, "0"]],
        [[0, 1, None]],
        [[0, 1, [0]]],
        [[0, 1, 2]],                # value index out of range
        [[2, 1, 0]],                # name index out of range
        [[0, 2, 0]],
        [[0, 1, 10 ** 30]],         # huge index
        [[10 ** 30, 1, 0]],
        [[0, 1, 0], [0, 1, 0, 2]],  # a good row does not excuse a bad one
        5,                          # rows itself is not a list
    ])
    def test_malformed_rows_raise_network_error(self, rows):
        with pytest.raises(NetworkError):
            decode_batch_message(envelope(rows=rows), RuleRegistry())

    @pytest.mark.parametrize("dictionary", [
        ["int"],                            # an entry that is not an object
        [1],
        [None],
        [[{"t": "int", "v": 1}]],
        [{"v": 1}],                         # no tag
        [{"t": "int"}],                     # no payload
        [{"t": "int", "v": "1"}],           # payload of the wrong type
        [{"t": "int", "v": True}],
        [{"t": "int", "v": [1]}],
        [{"t": "str", "v": 1}],
        [{"t": "bool", "v": 0}],
        [{"t": "bytes", "v": "zz"}],
        [{"t": "bytes", "v": 7}],
        [{"t": "list", "v": 5}],
        [{"t": "list", "v": "ab"}],
        [{"t": "part", "p": ["x"], "k": []}],
        [{"t": "part", "p": "x", "k": 3}],
        [{"t": "rule", "v": "not a ( rule"}],
        [{"t": "rule", "v": 3}],
        [{"t": "pattern", "v": "p(X)"}],
        "nope",
    ])
    def test_malformed_dictionary_raises_network_error(self, dictionary):
        with pytest.raises(NetworkError):
            decode_batch_message(envelope(dict=dictionary, rows=[]),
                                 RuleRegistry())

    def test_a_tiny_dictionary_does_not_reject_a_larger_name_index(self):
        # names outnumber values: the largest index overall is a name's
        blob = envelope(names=["", "p", "q"], dict=[{"t": "int", "v": 7}],
                        rows=[[0, 2, 0], [0, 1]])
        batch = decode_batch_message(blob, RuleRegistry())
        assert list(batch.items()) == [("", "q", (7,)), ("", "p", ())]

    @given(items=st.lists(
        st.tuples(st.sampled_from(["", "alice"]),
                  st.sampled_from(["p", "reach"]),
                  st.lists(values, max_size=3).map(tuple)),
        min_size=1, max_size=5),
        edits=st.lists(
            st.tuples(st.sampled_from(["replace", "insert", "delete"]),
                      st.integers(min_value=0, max_value=10 ** 6),
                      st.one_of(st.integers(min_value=0, max_value=255),
                                st.sampled_from(list(b'[]{}",:-0129.etf')))),
            min_size=1, max_size=4),
        seed=st.sampled_from(["envelope", "single-fact", "batch-key"]))
    @settings(max_examples=500, deadline=None)
    def test_mutated_envelopes_raise_only_network_error(self, items, edits,
                                                        seed):
        registry = RuleRegistry()
        # seeds: the envelope, and the two per-item shapes no decoder reads
        legacy = [{"to": to, "pred": pred,
                   "fact": [encode_value(value, registry) for value in fact]}
                  for to, pred, fact in items]
        blob = bytearray({
            "envelope": encode_batch_message_dict(items, registry, 3),
            "single-fact": json.dumps(legacy[0]).encode("utf-8"),
            "batch-key": encode_batch_message(legacy, 3),
        }[seed])
        for kind, position, byte in edits:
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
        # whatever still decodes is a well-formed block
        for to, pred, fact in batch.items():
            assert isinstance(to, str) and isinstance(pred, str)
            assert isinstance(fact, tuple)
