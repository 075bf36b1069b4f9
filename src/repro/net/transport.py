"""Wire format for inter-principal messages.

Distribution in LBTrust moves *facts of partitioned predicates* between
nodes (paper section 3.5); the interesting payload values are rules
(Binder certificates are rules + signatures).  The codec below is a small
tagged-JSON format:

* rules travel as their registry-canonical source text — the same bytes
  that signatures cover, so a message cannot be re-signed "for free" by
  reserializing;
* that text is also the rule's content address: the receiver hands it to
  :meth:`~repro.meta.registry.RuleRegistry.intern_text`, which answers a
  text its registry already holds from a dict and parses and interns only
  a text it has not seen.  Transfer works across registries (different
  LBTrust systems, other processes) with no digest and no per-link
  state: a receiver parses each distinct rule once and hits from then on.

**One value rule** holds on every wire — a batch dictionary entry, a
served fact or answer, a row on the cluster launcher's result pipe: a
value of exact type ``str``, ``int``, ``float`` or ``bool`` travels as
its bare JSON scalar (JSON keeps ``1``, ``1.0``, ``true`` and ``"1"``
apart), anything else as :func:`encode_value`'s tagged object
(``{"t": "rule", "v": text}`` and so on).  :func:`encode_entry` applies
it to one dictionary entry, :func:`encode_facts` / :func:`decode_facts`
to a list of fact rows; a decoder checks a whole list at once and hands
only tagged objects to :func:`decode_value`, which still reads every
tagged scalar an older peer sends.  A term held as an id is encoded once
per registry (:func:`term_texts`): the batcher's dictionaries and a
served answer (:func:`encode_answers`, rows in the order of their texts)
splice the same cached text.

Facts travel in **one** envelope, the packed batch
(:func:`encode_batch_message_dict` is its canonical encoder,
:class:`Batch` its decoded form); :func:`decode_batch_message` accepts
nothing else::

    magic byte · u32 header length · JSON header · body

The header ``{"round", "names", "dict", "blocks"}`` holds each distinct
to/pred name and each distinct value once (:func:`encode_entry`), and
per block — a run of rows of one ``to``, ``pred`` and arity — four ints
``[to, pred, arity, count]``.  The body is the rows: one little-endian
uint32 per term, its ``dict`` slot, row-major, block after block — one
``array.extend`` to pack, one ``frombytes`` to read, no JSON and no
Python per row.  The decoder vouches for the shape of all it returns, by
whole-array passes: the body is exactly ``4 · Σ arity · count`` bytes,
every slot is below the dictionary's length, block fields are plain
non-negative ints (name indices in range, at least one row), dictionary
entries are scalars or objects :func:`decode_value` accepts; whether a
fact may be *imported* is the receiving workspace's constraints' call.
The envelope is **self-contained** — it carries every name and value its
rows mention — so a link holds no decode state and an envelope injected
on an open network cannot desynchronise the honest traffic beside it (a
dictionary kept per link measured ≈3 ms more off ``fixpoint_sharded``;
it waits for authenticated links).

Byte counts reported by the network statistics are the encoded payload
lengths, giving benchmarks a representation-independent traffic measure.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from itertools import accumulate, chain, filterfalse, repeat
from operator import mul
from typing import Any, Collection, Iterable, Optional

from ..datalog.errors import NetworkError, ReproError
from ..datalog.parser import parse_term
from ..datalog.pretty import format_pattern
from ..datalog.terms import PatternValue, PredPartition, Quote, RuleRef


def encode_value(value: Any, registry) -> Any:
    """Encode one ground value into a JSON-able tagged form."""
    if isinstance(value, bool):
        return {"t": "bool", "v": value}
    if isinstance(value, int):
        return {"t": "int", "v": value}
    if isinstance(value, float):
        return {"t": "float", "v": value}
    if isinstance(value, str):
        return {"t": "str", "v": value}
    if isinstance(value, bytes):
        return {"t": "bytes", "v": value.hex()}
    if isinstance(value, RuleRef):
        return {"t": "rule", "v": registry.canonical_text(value)}
    if isinstance(value, PatternValue):
        return {"t": "pattern", "v": f"[| {format_pattern(value.pattern)} |]"}
    if isinstance(value, PredPartition):
        return {"t": "part", "p": value.pred,
                "k": [encode_value(k, registry) for k in value.keys]}
    if isinstance(value, tuple):
        return {"t": "list", "v": [encode_value(v, registry) for v in value]}
    raise NetworkError(f"cannot serialize value of type {type(value).__name__}")


#: Scalar tags and the JSON types their payload may have.
_SCALAR_TYPES = {"bool": (bool,), "int": (int,), "float": (float, int),
                 "str": (str,)}


def decode_value(encoded: Any, registry) -> Any:
    """The value :func:`encode_value` encoded, or :class:`NetworkError`
    — and nothing else — for any other shape: not a tagged object, a
    missing or ill-typed field, bad hex, a rule text that is not exactly
    one rule, a pattern text that is not a quote."""
    tag = encoded.get("t") if type(encoded) is dict else None
    if type(tag) is not str:
        raise NetworkError("malformed value: not a tagged object")
    if tag == "part":
        pred, keys = encoded.get("p"), encoded.get("k")
        if type(pred) is not str or type(keys) is not list:
            raise NetworkError("malformed part value")
        return PredPartition(pred, tuple(decode_value(k, registry) for k in keys))
    value = encoded.get("v")
    scalar = _SCALAR_TYPES.get(tag)
    if scalar is not None:
        if type(value) not in scalar:
            raise NetworkError(f"malformed {tag} value")
        return float(value) if tag == "float" else value
    if tag not in ("list", "bytes", "rule", "pattern"):
        raise NetworkError(f"unknown value tag {tag!r}")
    if type(value) is not (list if tag == "list" else str):
        raise NetworkError(f"malformed {tag} value")
    if tag == "list":
        return tuple(decode_value(v, registry) for v in value)
    try:
        if tag == "bytes":
            return bytes.fromhex(value)
        if tag == "rule":
            # a text the registry holds is a dict hit, no parse
            return registry.intern_text(value)
        term = parse_term(value)
    except (ReproError, ValueError, RecursionError) as exc:
        raise NetworkError(f"malformed {tag} value: {exc}") from exc
    if not isinstance(term, Quote):
        raise NetworkError("pattern payload is not a quote")
    return PatternValue(term.pattern)


# ---------------------------------------------------------------------------
# Batched messages (one envelope per destination node per round)
# ---------------------------------------------------------------------------

def encode_batch_message(items: list, round_stamp: int = 0) -> bytes:
    """The per-item envelope of JSON-able ``{"to", "pred", "fact"}``
    entries.  No sender emits it and :func:`decode_batch_message` refuses
    it; it and :func:`encode_batch_message_parts` stay only while
    ``e2e_bench/layers.py`` names them.
    """
    payload = {"round": round_stamp, "batch": items}
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def encode_batch_message_parts(encoded_items: list, round_stamp: int = 0) -> bytes:
    """:func:`encode_batch_message` over *already serialized* item
    texts, byte for byte."""
    body = ",".join(encoded_items)
    return f'{{"round":{int(round_stamp)},"batch":[{body}]}}'.encode("utf-8")


#: First byte of a packed batch envelope.  No JSON (no UTF-8) text
#: starts with it, so one byte tells a batch from a serve-plane frame.
BATCH_MAGIC = b"\xb1"

_HEADER_LENGTH = struct.Struct("<I")
_BODY_START = 1 + _HEADER_LENGTH.size
#: Dictionary entries of these exact types travel as bare JSON scalars.
_BARE = frozenset((str, int, float, bool))
_compact = json.JSONEncoder(separators=(",", ":")).encode


def _little_endian(slots: array) -> array:
    """``slots`` in wire byte order (swapped, on a big-endian host)."""
    if sys.byteorder == "big":
        slots = array("I", slots)
        slots.byteswap()
    return slots


def encode_entry(value: Any, registry) -> str:
    """The JSON text of one batch-dictionary entry: a JSON-native scalar
    travels bare (JSON keeps ``1`` / ``1.0`` / ``true`` / ``"1"`` apart),
    anything else as :func:`encode_value`'s tagged object."""
    if type(value) not in _BARE:
        value = encode_value(value, registry)
    return _compact(value)


def term_texts(term_ids: Collection[int], registry) -> list:
    """The :func:`encode_entry` texts of ``term_ids`` (ids of
    ``registry.terms``), from the registry's one id → text cache
    (``registry.term_texts``): a term is encoded the first time any wire
    ships it, a batch or a served answer, and looked up ever after."""
    known = registry.term_texts
    try:
        return list(map(known.__getitem__, term_ids))
    except KeyError:
        values = registry.terms.values
        for term_id in filterfalse(known.__contains__, term_ids):
            known[term_id] = encode_entry(values[term_id], registry)
        return list(map(known.__getitem__, term_ids))


def encode_answers(rows: Collection[tuple], registry) -> str:
    """The JSON text of a served query's reply body, ``{"answers": [...]}``,
    straight from id ``rows`` over ``registry.terms``: no value is
    materialized, each term's text comes from :func:`term_texts`, and the
    rows are in the order of their texts (:func:`encode_facts`'s order).
    Byte for byte the compact ``json.dumps`` of the same body."""
    text_of = registry.term_texts.__getitem__
    try:
        texts = [f"[{','.join(map(text_of, row))}]" for row in rows]
    except KeyError:   # a term no wire has shipped yet
        term_texts(set(chain.from_iterable(rows)), registry)
        return encode_answers(rows, registry)
    texts.sort()
    return f'{{"answers":[{",".join(texts)}]}}'


def encode_facts(facts: Iterable[tuple], registry) -> list:
    """Fact rows for a serve request or the launcher's result pipe, each
    value by :func:`encode_entry`'s rule (a JSON-native scalar bare,
    anything else tagged), in the order of their compact JSON texts — the
    order :func:`encode_answers` gives a served answer."""
    facts = list(facts)
    if set(map(type, chain.from_iterable(facts))) <= _BARE:
        rows = list(map(list, facts))
    else:
        rows = [[value if type(value) in _BARE
                 else encode_value(value, registry) for value in row]
                for row in facts]
    rows.sort(key=_compact)
    return rows


def decode_facts(rows: Any, registry) -> list:
    """The fact tuples :func:`encode_facts` encoded (the all-tagged form
    older peers send decodes too), or :class:`NetworkError` for anything
    but a list of lists of bare scalars and tagged objects.  Checked, like
    a batch dictionary, in whole-list passes: rows of bare scalars only
    are taken as they are; otherwise only tagged objects are decoded."""
    if type(rows) is not list or set(map(type, rows)) - {list}:
        raise NetworkError("malformed facts: not a list of lists")
    kinds = set(map(type, chain.from_iterable(rows)))
    if kinds <= _BARE:
        return list(map(tuple, rows))
    if kinds - _BARE - {dict}:
        raise NetworkError("malformed fact value")
    return [tuple([decode_value(value, registry) if type(value) is dict
                   else value for value in row]) for row in rows]


def encode_batch_message_compressed(name_texts: Iterable[str],
                                    value_texts: Iterable[str],
                                    blocks: list, body: array,
                                    round_stamp: int = 0) -> bytes:
    """Assemble a packed envelope from the parts the batcher keeps per
    link: ``name_texts`` (JSON string literals) and ``value_texts``
    (:func:`encode_entry`) are spliced as they are; ``body`` is the
    ``array("I")`` of slots the ``[to, pred, arity, count]`` describe."""
    header = (f'{{"round":{int(round_stamp)},"names":[{",".join(name_texts)}],'
              f'"dict":[{",".join(value_texts)}],"blocks":'
              f'{_compact(blocks)}}}').encode("utf-8")
    return b"".join((BATCH_MAGIC, _HEADER_LENGTH.pack(len(header)), header,
                     _little_endian(body).tobytes()))


def encode_batch_message_dict(items: list, registry,
                              round_stamp: int = 0) -> bytes:
    """Serialize ``(to, pred, fact)`` triples as one packed envelope.

    The canonical, one item at a time definition of the format in the
    module docstring: names and dictionary entries take their indices in
    first-appearance order, and consecutive items that agree on ``to``,
    ``pred`` and arity share a block.  Byte-identical to what the
    :class:`~repro.net.batch.MessageBatcher` emits for the same items in
    the same order.
    """
    names: dict[str, int] = {}
    values: dict[str, int] = {}       # entry text -> dict slot
    blocks: list[list] = []
    body = array("I")
    for to, pred, fact in items:
        head = [names.setdefault(to, len(names)),
                names.setdefault(pred, len(names)), len(fact)]
        if blocks and blocks[-1][:3] == head:
            blocks[-1][3] += 1
        else:
            blocks.append(head + [1])
        for value in fact:
            body.append(values.setdefault(encode_entry(value, registry),
                                          len(values)))
    return encode_batch_message_compressed(map(json.dumps, names), values,
                                           blocks, body, round_stamp)


class Batch:
    """One decoded batch message in block form.

    ``blocks`` are ``(to, pred, arity, count, slots)``: ``to`` / ``pred``
    index ``names``; ``slots``, the block's share of the body, is an
    ``array("I")`` of ``arity * count`` validated indices into ``values``
    (the batch dictionary, decoded once).  :meth:`rows` is the one way a
    batch becomes facts, on either host kind.
    """

    __slots__ = ("stamp", "names", "values", "blocks")

    def __init__(self, stamp: int, names: list, values: list,
                 blocks: list) -> None:
        self.stamp = stamp
        self.names = names
        self.values = values
        self.blocks = blocks

    def __len__(self) -> int:
        return sum([block[3] for block in self.blocks])

    def rows(self, interner):
        """``(to, pred, id rows)`` per block, in wire order: the
        dictionary interned once, each block's slots mapped straight to
        an iterator of id rows (one ``zip`` over one ``map``)."""
        names = self.names
        id_of = interner.intern_row(self.values).__getitem__
        for to, pred, arity, count, slots in self.blocks:
            rows = zip(*[map(id_of, slots)] * arity) if arity \
                else repeat((), count)
            yield names[to], names[pred], rows


def _decode_packed(blob: bytes, registry) -> Batch:
    (header_length,) = _HEADER_LENGTH.unpack_from(blob, 1)
    body_start = _BODY_START + header_length
    header = json.loads(blob[_BODY_START:body_start].decode("utf-8"))
    round_stamp = header.get("round", 0)
    names, dictionary, blocks = map(header.get, ("names", "dict", "blocks"))
    if type(round_stamp) is not int or type(names) is not list \
            or type(dictionary) is not list or type(blocks) is not list \
            or set(map(type, names)) - {str}:
        raise NetworkError("malformed batch header")
    # Every check is one C-level pass (over the blocks' fields, the body,
    # the dictionary), never Python per row or per slot.  A block is four
    # plain ints: name indices in range, and at least one row (which,
    # with the body's length, bounds its arity).
    fields = list(chain.from_iterable(blocks))
    if set(map(type, fields)) - {int} or set(map(len, blocks)) - {4} \
            or (fields and min(fields) < 0):
        raise NetworkError("malformed batch block")
    to_column, pred_column, arities, counts = zip(*blocks) if blocks \
        else ((), (), (), ())
    if blocks and (max(to_column) >= len(names)
                   or max(pred_column) >= len(names) or min(counts) < 1):
        raise NetworkError("malformed batch block")
    # The body is exactly the rows the blocks claim, and no envelope
    # claims more rows than it has bytes (zero-arity rows take none).
    ends = list(accumulate(map(mul, arities, counts), initial=0))
    if len(blob) - body_start != 4 * ends[-1] or sum(counts) > len(blob):
        raise NetworkError("batch body does not match its blocks")
    body = array("I")
    body.frombytes(blob[body_start:])
    body = _little_endian(body)
    if body and max(body) >= len(dictionary):
        raise NetworkError("batch slot out of range")
    # A bare scalar is its own value; only tagged objects are decoded.
    kinds = set(map(type, dictionary))
    if kinds - _BARE - {dict}:
        raise NetworkError("malformed batch dictionary")
    values = dictionary if dict not in kinds else [
        decode_value(entry, registry) if type(entry) is dict else entry
        for entry in dictionary]
    return Batch(round_stamp, names, values, [
        (*block, body[start:end])
        for block, start, end in zip(blocks, ends, ends[1:])])


def _json_object(blob: bytes, what: str) -> dict:
    """The JSON object a blob without the batch magic must be."""
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise NetworkError(f"undecodable {what}: {exc}") from exc
    if not isinstance(payload, dict):
        raise NetworkError(f"malformed {what} payload")
    return payload


def decode_batch_message(blob: bytes, registry) -> Batch:
    """Decode a batch message into its :class:`Batch` block form.

    A blob without the packed envelope's magic byte is named for what it
    is: a serve-plane frame loudly (a request on a delta-exchange path is
    a routing bug, and decoding it as a corrupt fact would swallow the
    client's call), any other JSON object — the retired all-JSON
    envelopes included — as a malformed batch payload.

    Fails closed: whatever is wrong — the length prefix, the header, a
    block, the body's length, a slot, a dictionary entry — the only
    exception is :class:`NetworkError`, raised before anything returns.
    """
    if blob[:1] != BATCH_MAGIC:
        kind = _json_object(blob, "message").get("kind")
        if kind in (REQUEST_KIND, REPLY_KIND):
            raise NetworkError(f"serve-plane {kind} frame in batch traffic")
        raise NetworkError("malformed batch payload")
    try:
        return _decode_packed(blob, registry)
    except NetworkError:
        raise
    except (ReproError, struct.error, LookupError, TypeError, ValueError,
            AttributeError, RecursionError, OverflowError) as exc:
        # an envelope part of the wrong shape (a dictionary entry fails
        # closed in decode_value by itself)
        raise NetworkError(f"malformed batch: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Request/reply frames (the serve plane, next to the batch frames above)
# ---------------------------------------------------------------------------
#
# The online authorization service (repro.serve) exchanges point requests
# and their replies over the same transports the delta exchange uses —
# length-prefixed TCP frames on SocketNetwork, virtual-clock envelopes on
# SimulatedNetwork — so per-link FIFO ordering covers serve traffic for
# free.  A frame is a JSON object tagged with ``kind`` ("request" or
# "reply"); a batch envelope starts with BATCH_MAGIC, which no JSON text
# does, so the two families can never be confused (frame_kind classifies,
# decode_batch_message rejects).

REQUEST_KIND = "request"
REPLY_KIND = "reply"


def frame_kind(blob: bytes) -> str:
    """Classify a wire frame: ``batch`` (by its magic byte, without a
    parse) / ``request`` / ``reply``.  Raises :class:`NetworkError` for
    any other thing than a JSON object carrying a known ``kind`` tag."""
    if blob[:1] == BATCH_MAGIC:
        return "batch"
    kind = _json_object(blob, "frame").get("kind")
    if kind in (REQUEST_KIND, REPLY_KIND):
        return kind
    raise NetworkError(f"unknown frame kind {kind!r}")


def encode_request_frame(request_id: int, op: str,
                         body: Optional[dict] = None) -> bytes:
    """Serialize one serve-plane request: an operation plus its body.

    ``body`` must already be JSON-safe — fact values travel through
    :func:`encode_facts` at the serve layer, which owns the registry.
    """
    payload = {"kind": REQUEST_KIND, "id": int(request_id), "op": op,
               "body": body if body is not None else {}}
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode_request_frame(blob: bytes) -> tuple[int, str, dict]:
    """Decode a request frame: ``(request_id, op, body)``."""
    payload = _decode_serve_frame(blob, REQUEST_KIND)
    op = payload.get("op")
    body = payload.get("body")
    if not isinstance(op, str) or not isinstance(body, dict):
        raise NetworkError("malformed request frame")
    return payload["id"], op, body


def request_frame_id(blob: bytes) -> Optional[int]:
    """The id of a request frame whose envelope decodes — even when its
    ``op``/``body`` do not — so the failure can be reported to the sender;
    None for anything that is not addressable as a request."""
    try:
        return _decode_serve_frame(blob, REQUEST_KIND)["id"]
    except NetworkError:
        return None


def encode_reply_frame(request_id: int, ok: bool = True,
                       body: dict | str | None = None,
                       error: str = "") -> bytes:
    """Serialize one serve-plane reply, echoing the request's id.

    ``body`` is a JSON-safe dict, or the JSON text of one, which is
    spliced as it is (a served answer, :func:`encode_answers`); either way
    the bytes are the compact ``json.dumps`` of the whole reply."""
    if type(body) is not str:
        body = _compact(body if body is not None else {})
    return (f'{{"kind":"{REPLY_KIND}","id":{int(request_id)},'
            f'"ok":{"true" if ok else "false"},"body":{body},'
            f'"error":{_compact(error)}}}').encode("utf-8")


def decode_reply_frame(blob: bytes) -> tuple[int, bool, dict, str]:
    """Decode a reply frame: ``(request_id, ok, body, error)``."""
    payload = _decode_serve_frame(blob, REPLY_KIND)
    ok = payload.get("ok")
    body = payload.get("body")
    error = payload.get("error", "")
    if not isinstance(ok, bool) or not isinstance(body, dict) \
            or not isinstance(error, str):
        raise NetworkError("malformed reply frame")
    return payload["id"], ok, body, error


def _decode_serve_frame(blob: bytes, expected_kind: str) -> dict:
    payload = _json_object(blob, "frame")
    if payload.get("kind") != expected_kind:
        raise NetworkError(f"expected a {expected_kind} frame")
    request_id = payload.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise NetworkError(f"malformed {expected_kind} frame id")
    return payload
