"""Wire format for inter-principal messages.

Distribution in LBTrust moves *facts of partitioned predicates* between
nodes (paper section 3.5); the interesting payload values are rules
(Binder certificates are rules + signatures).  The codec below is a small
tagged-JSON format:

* rules travel as their registry-canonical source text — the same bytes
  that signatures cover, so a message cannot be re-signed "for free" by
  reserializing;
* the receiver re-parses and re-interns, which makes transfer work even
  across registries (different LBTrust systems), not just within one.

Facts travel in **one** envelope, the dictionary-compressed batch
(:func:`encode_batch_message_dict` defines it, :class:`Batch` is its
decoded block form); :func:`decode_batch_message` accepts nothing else.

Byte counts reported by the network statistics are the encoded payload
lengths, giving benchmarks a representation-independent traffic measure.
"""

from __future__ import annotations

import json
from itertools import chain, islice
from typing import Any, Optional

from ..datalog.errors import NetworkError, ReproError
from ..datalog.parser import parse_statements, parse_term
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
    tag = encoded.get("t")
    scalar = _SCALAR_TYPES.get(tag)
    if scalar is not None:
        value = encoded["v"]
        if type(value) not in scalar:
            raise NetworkError(f"malformed {tag} value")
        return value
    if tag == "bytes":
        return bytes.fromhex(encoded["v"])
    if tag == "rule":
        statements = parse_statements(encoded["v"])
        if len(statements) != 1:
            raise NetworkError("rule payload must contain exactly one statement")
        return registry.intern(statements[0])
    if tag == "pattern":
        term = parse_term(encoded["v"])
        if not isinstance(term, Quote):
            raise NetworkError("pattern payload is not a quote")
        return PatternValue(term.pattern)
    if tag == "part":
        if not isinstance(encoded["p"], str):
            raise NetworkError("malformed part value")
        return PredPartition(encoded["p"],
                             tuple(decode_value(k, registry) for k in encoded["k"]))
    if tag == "list":
        return tuple(decode_value(v, registry) for v in encoded["v"])
    raise NetworkError(f"unknown value tag {tag!r}")


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


def encode_batch_message_compressed(name_texts: list, value_texts: list,
                                    row_texts: list,
                                    round_stamp: int = 0) -> bytes:
    """Assemble a dictionary-compressed envelope from pre-serialized parts.

    The batcher keeps each link's dictionaries as already-serialized JSON
    texts (the same texts it used for size accounting), so flush is pure
    splicing: ``name_texts`` are JSON string literals (to/pred names),
    ``value_texts`` are tagged-value objects, ``row_texts`` are int-array
    literals ``[to_idx,pred_idx,value_idx...]`` indexing into them.
    """
    names = ",".join(name_texts)
    values = ",".join(value_texts)
    rows = ",".join(row_texts)
    return (f'{{"round":{int(round_stamp)},"names":[{names}],'
            f'"dict":[{values}],"rows":[{rows}]}}').encode("utf-8")


def encode_batch_message_dict(items: list, registry,
                              round_stamp: int = 0) -> bytes:
    """Serialize ``(to, pred, fact)`` triples as one compressed envelope.

    The canonical (non-spliced) definition of the dictionary-compressed
    format: every distinct to/pred name and every distinct encoded value
    is stored once, rows reference them by index.  Byte-identical to what
    the :class:`~repro.net.batch.MessageBatcher` emits for the same items
    in the same order.
    """
    names: dict[str, int] = {}
    name_texts: list[str] = []
    values: dict[str, int] = {}
    value_texts: list[str] = []
    row_texts: list[str] = []
    for to, pred, fact in items:
        row = []
        for name in (to, pred):
            idx = names.get(name)
            if idx is None:
                idx = names[name] = len(name_texts)
                name_texts.append(json.dumps(name, separators=(",", ":")))
            row.append(idx)
        for value in fact:
            text = json.dumps(encode_value(value, registry),
                              separators=(",", ":"))
            idx = values.get(text)
            if idx is None:
                idx = values[text] = len(value_texts)
                value_texts.append(text)
            row.append(idx)
        row_texts.append("[" + ",".join(map(str, row)) + "]")
    return encode_batch_message_compressed(name_texts, value_texts,
                                           row_texts, round_stamp)


class Batch:
    """One decoded batch message in block form.

    ``rows`` are the validated wire rows ``[to, pred, value...]``: the
    first two entries index ``names``, the rest index ``values`` (the
    batch dictionary, decoded once).  A shard interns ``values`` once and
    maps the rows straight to id rows; consumers that want facts iterate
    :meth:`items`.
    """

    __slots__ = ("stamp", "names", "values", "rows")

    def __init__(self, stamp: int, names: list, values: list,
                 rows: list) -> None:
        self.stamp = stamp
        self.names = names
        self.values = values
        self.rows = rows

    def __len__(self) -> int:
        return len(self.rows)

    def items(self):
        """The batch as ``(to, pred, fact)`` triples, in wire order."""
        names = self.names
        pick = self.values.__getitem__
        for row in self.rows:
            yield names[row[0]], names[row[1]], tuple(map(pick, row[2:]))


def _decode_compressed(payload: dict, registry) -> Batch:
    round_stamp = payload.get("round", 0)
    names = payload.get("names")
    dictionary = payload.get("dict")
    rows = payload["rows"]
    if not isinstance(round_stamp, int) or not isinstance(names, list) \
            or not isinstance(dictionary, list) or not isinstance(rows, list) \
            or set(map(type, names)) - {str}:
        raise NetworkError("malformed compressed batch payload")
    if set(map(type, dictionary)) - {dict}:
        raise NetworkError("malformed compressed batch dictionary")
    values = [decode_value(entry, registry) for entry in dictionary]
    # Every check below is one C-level pass over the rows (or over their
    # flattened indices), never Python run once per index: each row is a
    # list of at least two entries, each entry a plain non-negative int.
    if set(map(type, rows)) - {list} or (rows and min(map(len, rows)) < 2):
        raise NetworkError("malformed compressed batch row")
    indices = list(chain.from_iterable(rows))
    if set(map(type, indices)) - {int} or (indices and min(indices) < 0):
        raise NetworkError("malformed compressed batch row")
    if rows:
        to_column, pred_column = islice(zip(*rows), 2)
        limit = len(values)
        # The largest index overall is below the dictionary size in any
        # honest batch; only when it is not are the value columns looked
        # at row by row (a name index may exceed a tiny dictionary).
        if max(to_column) >= len(names) or max(pred_column) >= len(names) \
                or (max(indices) >= limit and any(
                    len(row) > 2 and max(row[2:]) >= limit for row in rows)):
            raise NetworkError("compressed batch row index out of range")
    return Batch(round_stamp, names, values, rows)


def decode_batch_message(blob: bytes, registry) -> Batch:
    """Decode a batch message into its :class:`Batch` block form.

    There is one wire format, the dictionary-compressed envelope
    (:func:`encode_batch_message_dict` defines it); a payload without its
    ``rows`` key is malformed.  Serve-plane frames (the request/reply
    kind below) are rejected loudly: a request arriving on a
    delta-exchange path is a routing bug, and decoding it as a corrupt
    fact would silently swallow the client's call.

    Fails closed: whatever is wrong with the payload — envelope shape,
    a dictionary entry, a row index — the only exception is
    :class:`NetworkError`.
    """
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError, RecursionError) as exc:
        raise NetworkError(f"undecodable message: {exc}") from exc
    if not isinstance(payload, dict):
        raise NetworkError("malformed message payload")
    if payload.get("kind") in (REQUEST_KIND, REPLY_KIND):
        raise NetworkError(
            f"serve-plane {payload['kind']} frame in batch traffic")
    if "rows" not in payload:
        raise NetworkError("malformed batch payload")
    try:
        return _decode_compressed(payload, registry)
    except NetworkError:
        raise
    except (ReproError, KeyError, TypeError, ValueError, AttributeError,
            RecursionError) as exc:
        # a value entry whose shape decode_value cannot read, or a rule /
        # pattern payload the parser refuses
        raise NetworkError(f"malformed batch value: {exc!r}") from exc


# ---------------------------------------------------------------------------
# Request/reply frames (the serve plane, next to the batch frames above)
# ---------------------------------------------------------------------------
#
# The online authorization service (repro.serve) exchanges point requests
# and their replies over the same transports the delta exchange uses —
# length-prefixed TCP frames on SocketNetwork, virtual-clock envelopes on
# SimulatedNetwork — so per-link FIFO ordering covers serve traffic for
# free.  A frame is a JSON object tagged with ``kind`` ("request" or
# "reply"); batch envelopes have no ``kind`` key, so the two families can
# never be confused (frame_kind classifies, decode_batch_message rejects).

REQUEST_KIND = "request"
REPLY_KIND = "reply"


def frame_kind(blob: bytes) -> str:
    """Classify a wire frame: ``request`` / ``reply`` / ``batch``.

    Raises :class:`NetworkError` for frames that are not JSON objects,
    that carry an unknown ``kind`` tag, or that carry none and are not a
    batch envelope.
    """
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise NetworkError(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise NetworkError("malformed frame payload")
    kind = payload.get("kind")
    if kind is None and "rows" in payload:
        return "batch"
    if kind in (REQUEST_KIND, REPLY_KIND):
        return kind
    raise NetworkError(f"unknown frame kind {kind!r}")


def encode_request_frame(request_id: int, op: str,
                         body: Optional[dict] = None) -> bytes:
    """Serialize one serve-plane request: an operation plus its body.

    ``body`` must already be JSON-safe — fact values travel through
    :func:`encode_value` at the serve layer, which owns the registry.
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
                       body: Optional[dict] = None, error: str = "") -> bytes:
    """Serialize one serve-plane reply, echoing the request's id."""
    payload = {"kind": REPLY_KIND, "id": int(request_id), "ok": bool(ok),
               "body": body if body is not None else {}, "error": error}
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


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
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise NetworkError(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict) \
            or payload.get("kind") != expected_kind:
        raise NetworkError(f"expected a {expected_kind} frame")
    request_id = payload.get("id")
    if not isinstance(request_id, int) or isinstance(request_id, bool):
        raise NetworkError(f"malformed {expected_kind} frame id")
    return payload
