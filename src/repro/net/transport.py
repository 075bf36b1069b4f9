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

Byte counts reported by the network statistics are the encoded payload
lengths, giving benchmarks a representation-independent traffic measure.
"""

from __future__ import annotations

import json
from typing import Any, Optional

from ..datalog.errors import NetworkError
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


def decode_value(encoded: Any, registry) -> Any:
    tag = encoded.get("t")
    if tag in ("bool", "int", "float", "str"):
        return encoded["v"]
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
        return PredPartition(encoded["p"],
                             tuple(decode_value(k, registry) for k in encoded["k"]))
    if tag == "list":
        return tuple(decode_value(v, registry) for v in encoded["v"])
    raise NetworkError(f"unknown value tag {tag!r}")


def encode_fact_message(pred: str, fact: tuple, registry,
                        to: str = "") -> bytes:
    """Serialize one partitioned-predicate fact as a wire message.

    ``to`` names the destination *principal* (several principals may share
    one physical node, so node addressing alone is not enough).
    """
    payload = {
        "to": to,
        "pred": pred,
        "fact": [encode_value(v, registry) for v in fact],
    }
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def decode_fact_message(blob: bytes, registry) -> tuple[str, str, tuple]:
    """Decode a message: ``(to_principal, pred, fact)``."""
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise NetworkError(f"undecodable message: {exc}") from exc
    return _decode_item(payload, registry)


def _decode_item(payload: Any, registry) -> tuple[str, str, tuple]:
    if not isinstance(payload, dict):
        raise NetworkError("malformed message payload")
    pred = payload.get("pred")
    fact = payload.get("fact")
    to = payload.get("to", "")
    if not isinstance(pred, str) or not isinstance(fact, list) \
            or not isinstance(to, str):
        raise NetworkError("malformed message payload")
    return to, pred, tuple(decode_value(v, registry) for v in fact)


# ---------------------------------------------------------------------------
# Batched messages (one envelope per destination node per round)
# ---------------------------------------------------------------------------

def encode_batch_item(pred: str, fact: tuple, registry,
                      to: str = "") -> dict:
    """One fact as a JSON-able batch entry (same shape as a single
    fact message, minus the envelope)."""
    return {
        "to": to,
        "pred": pred,
        "fact": [encode_value(v, registry) for v in fact],
    }


def encode_batch_message(items: list, round_stamp: int = 0) -> bytes:
    """Serialize pre-encoded batch items into one wire message.

    ``items`` are :func:`encode_batch_item` dicts; ``round_stamp`` is the
    sender's evaluation round, used by the quiescence protocol's ticket
    ledger (see :mod:`repro.cluster.quiescence`).
    """
    payload = {"round": round_stamp, "batch": items}
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def encode_batch_message_parts(encoded_items: list, round_stamp: int = 0) -> bytes:
    """Assemble a batch envelope from *already serialized* item texts.

    Byte-identical to :func:`encode_batch_message` over the decoded
    items (same compact separators), but lets the batcher reuse the
    serialization it already did for size accounting instead of
    re-dumping every fact at flush.
    """
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
    a ``wire_format="dict"`` batcher emits for the same items in the same
    order.
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


def _decode_compressed(payload: Any, registry) -> tuple[int, list]:
    round_stamp = payload.get("round", 0)
    names = payload.get("names")
    dictionary = payload.get("dict")
    rows = payload["rows"]
    if not isinstance(round_stamp, int) or not isinstance(names, list) \
            or not isinstance(dictionary, list) or not isinstance(rows, list) \
            or not all(isinstance(n, str) for n in names):
        raise NetworkError("malformed compressed batch payload")
    if not all(isinstance(e, dict) for e in dictionary):
        raise NetworkError("malformed compressed batch dictionary")
    values = [decode_value(entry, registry) for entry in dictionary]
    items = []
    for row in rows:
        if not isinstance(row, list) or len(row) < 2 or not all(
                isinstance(i, int) and not isinstance(i, bool) and i >= 0
                for i in row):
            raise NetworkError("malformed compressed batch row")
        try:
            to = names[row[0]]
            pred = names[row[1]]
            fact = tuple(values[i] for i in row[2:])
        except IndexError as exc:
            raise NetworkError(
                "compressed batch row index out of range") from exc
        items.append((to, pred, fact))
    return round_stamp, items


def decode_batch_message(blob: bytes, registry) -> tuple[int, list]:
    """Decode a batch message: ``(round_stamp, [(to, pred, fact), ...])``.

    Accepts both wire formats — the dictionary-compressed envelope
    (``rows`` key) and the legacy per-item form (``batch`` key) — so a
    node upgraded to the compressed encoder still reads batches from
    mixed-version peers, and vice versa via the batcher's
    ``wire_format="legacy"`` fallback.  Single-fact messages (neither
    key) decode as a one-item batch with round stamp 0, so mixed traffic
    stays readable.  Serve-plane frames (the request/reply kind below)
    are rejected loudly: a request arriving on a delta-exchange path is
    a routing bug, and decoding it as a corrupt fact would silently
    swallow the client's call.
    """
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise NetworkError(f"undecodable message: {exc}") from exc
    if not isinstance(payload, dict):
        raise NetworkError("malformed message payload")
    if payload.get("kind") in (REQUEST_KIND, REPLY_KIND):
        raise NetworkError(
            f"serve-plane {payload['kind']} frame in batch traffic")
    if "rows" in payload:
        return _decode_compressed(payload, registry)
    batch = payload.get("batch")
    if batch is None:
        return 0, [_decode_item(payload, registry)]
    round_stamp = payload.get("round", 0)
    if not isinstance(batch, list) or not isinstance(round_stamp, int):
        raise NetworkError("malformed batch payload")
    return round_stamp, [_decode_item(item, registry) for item in batch]


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
    """Classify a wire frame: ``request`` / ``reply`` / ``batch`` / ``fact``.

    Raises :class:`NetworkError` for frames that are not JSON objects or
    that carry an unknown ``kind`` tag.
    """
    try:
        payload = json.loads(blob.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise NetworkError(f"undecodable frame: {exc}") from exc
    if not isinstance(payload, dict):
        raise NetworkError("malformed frame payload")
    kind = payload.get("kind")
    if kind is None:
        if "batch" in payload or "rows" in payload:
            return "batch"
        return "fact"
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
