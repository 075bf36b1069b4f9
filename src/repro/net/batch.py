"""Per-destination coalescing of outbound fact blocks into batched messages.

A delta-exchange round used to cost one network message per fact; the
cluster runtime (and the LBTrust system loop) instead accumulate facts
here per ``(src, dst)`` link and flush **one batch message per link per
round** — so the network's message counter measures batches, which is
what a real transport would pay for.  A batch whose encoded size would
exceed ``max_bytes`` is flushed early, capping message size the way an
MTU/frame limit would.

The wire format is the dictionary-compressed envelope
(:func:`~repro.net.transport.encode_batch_message_dict` is its canonical
definition): every distinct to/pred name and every distinct encoded
value is serialized once per batch, rows are int-index arrays into those
dictionaries.  Delta-exchange traffic is dominated by a small working
set of ground terms (vertex ids, principal names), so this cuts payload
bytes per fact substantially — and it is an *id-row* format, which is
what lets a host hand over the id rows it already holds:

The unit of handoff is the **block** — the id rows of one predicate
bound for one link, plus the interner they index
(:meth:`MessageBatcher.add`); a Datalog shard and a node of principal
workspaces hand over the same thing.  The batcher keeps, per interner,
the encoded JSON text of every term it has shipped, and per pending
batch the dictionary slot of every term in it, so a row costs dict
lookups and one ``",".join`` — ``encode_value`` / ``json.dumps`` run
once per (interner, term), not once per shipped fact.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Optional
from weakref import WeakKeyDictionary

from .transport import encode_batch_message_compressed, encode_value

#: Default size cap per batch message, in encoded-payload bytes.  Small
#: enough that a pathological round still produces bounded messages,
#: large enough that typical rounds coalesce into a single envelope.
DEFAULT_MAX_BATCH_BYTES = 16384

#: Envelope overhead assumed per message
#: ({"round":NNN,"names":[],"dict":[],"rows":[]}).
_ENVELOPE_OVERHEAD = 48


def _compact(encoded) -> str:
    return json.dumps(encoded, separators=(",", ":"))


class _LinkBuffer:
    """One link's pending batch: dictionaries + index rows, all as the
    texts the envelope will splice."""

    __slots__ = ("names", "name_texts", "values", "value_texts", "terms",
                 "slots", "rows", "size")

    def __init__(self) -> None:
        self.names: dict[str, str] = {}       # to/pred name -> index text
        self.name_texts: list[str] = []       # JSON string literals
        self.values: dict[str, str] = {}      # encoded value -> index text
        self.value_texts: list[str] = []      # tagged-object texts
        #: the sending interner ``slots`` is keyed against; a block from
        #: a different one (co-located workspaces share a link) resets them
        self.terms: Optional[object] = None
        self.slots: dict[int, str] = {}       # term id -> index text
        self.rows: list[str] = []             # "[to,pred,v...]" texts
        self.size = _ENVELOPE_OVERHEAD


class MessageBatcher:
    """Accumulates fact blocks per link; flushes size-capped messages."""

    def __init__(self, network, registry,
                 max_bytes: int = DEFAULT_MAX_BATCH_BYTES,
                 ledger: Optional[object] = None) -> None:
        self.network = network
        self.registry = registry
        self.max_bytes = max_bytes
        #: optional quiescence :class:`~repro.cluster.quiescence.TicketLedger`;
        #: when set, one ticket is issued per message sent — including
        #: early size-capped flushes, which callers never see.
        self.ledger = ledger
        self.sent_messages = 0
        self.sent_items = 0
        self._links: dict[tuple[str, str], _LinkBuffer] = {}
        #: sending interner -> {term id: encoded JSON text}.  Append-only
        #: like the interner it mirrors and bounded by it; the weak key
        #: lets the table die with its interner.
        self._term_texts: WeakKeyDictionary = WeakKeyDictionary()

    def add(self, src: str, dst: str, pred: str, rows: Iterable[tuple],
            terms, to: str = "", round_stamp: int = 0) -> None:
        """Queue one block — id ``rows`` of ``pred`` over the sender's
        :class:`~repro.datalog.database.TermInterner` ``terms`` — for the
        ``src -> dst`` link.  Nothing is materialized: a term's text is
        encoded on its first shipment from that interner and looked up
        ever after.

        A row that would push the pending batch past ``max_bytes``
        flushes it first (stamped with ``round_stamp``), so no message
        exceeds the cap by more than one item, and the row is laid out
        again against fresh dictionaries.  For the same items in the same
        order the bytes sent equal ``encode_batch_message_dict``'s.
        """
        keys = rows if isinstance(rows, list) else list(rows)
        if keys:
            self._add_keys((src, dst), to, pred, keys, terms, round_stamp)

    def _add_keys(self, link: tuple[str, str], to: str, pred: str,
                  keys: list, terms, round_stamp: int) -> None:
        """Lay a block of id rows out against the link's dictionaries,
        then commit it whole if it fits; nothing is mutated before the
        fit is known.  ``slots`` maps a term id to its dictionary index
        text."""
        buffer = self._links.get(link)
        if buffer is None:
            buffer = self._links[link] = _LinkBuffer()
        values = buffer.values
        if buffer.terms is not terms:
            buffer.terms, buffer.slots = terms, {}
        slots = buffer.slots
        grown = 0

        names = buffer.names
        new_names: dict[str, str] = {}
        new_name_texts = []
        routing = []
        for name in (to, pred):
            index = names.get(name) or new_names.get(name)
            if index is None:
                index = new_names[name] = str(len(names) + len(new_names))
                text = _compact(name)
                new_name_texts.append(text)
                grown += len(text) + 1
            routing.append(index)
        head = f"[{routing[0]},{routing[1]}"

        # Dictionary entries in first-appearance order, as the canonical
        # encoder assigns them (dict.fromkeys keeps it, at C speed).
        missing = [key for key in dict.fromkeys(chain.from_iterable(keys))
                   if key not in slots]
        new_slots: dict = {}
        new_values: dict[str, str] = {}
        lookup = slots
        if missing:
            for key, text in zip(missing, self._texts(terms, missing)):
                index = values.get(text) or new_values.get(text)
                if index is None:
                    index = new_values[text] = \
                        str(len(values) + len(new_values))
                    grown += len(text) + 1
                new_slots[key] = index
            lookup = {**slots, **new_slots}

        row_texts = [
            f"{head},{','.join([lookup[key] for key in row])}]" if row
            else head + "]" for row in keys]
        grown += sum(map(len, row_texts)) + len(row_texts)

        if buffer.size + grown > self.max_bytes \
                and (buffer.rows or len(keys) > 1):
            # Does not fit.  Halve until the piece that crosses the cap
            # is a single row: that row flushes the pending batch and
            # opens the next one — exactly where adding row by row would.
            if len(keys) > 1:
                half = len(keys) // 2
                self._add_keys(link, to, pred, keys[:half], terms,
                               round_stamp)
                self._add_keys(link, to, pred, keys[half:], terms,
                               round_stamp)
            else:
                self._flush_link(link, round_stamp)
                self._add_keys(link, to, pred, keys, terms, round_stamp)
            return

        names.update(new_names)
        buffer.name_texts += new_name_texts
        values.update(new_values)
        buffer.value_texts += new_values
        slots.update(new_slots)
        buffer.rows += row_texts
        buffer.size += grown

    def _texts(self, terms, term_ids: list) -> list:
        """Encoded JSON texts of ``term_ids``, encoding the first time a
        term of this interner is shipped."""
        known = self._term_texts.get(terms)
        if known is None:
            known = self._term_texts[terms] = {}
        term_values = terms.values
        registry = self.registry
        texts = []
        for term_id in term_ids:
            text = known.get(term_id)
            if text is None:
                text = known[term_id] = _compact(
                    encode_value(term_values[term_id], registry))
            texts.append(text)
        return texts

    def pending_items(self) -> int:
        return sum(len(buffer.rows) for buffer in self._links.values())

    def flush(self, round_stamp: int = 0) -> int:
        """Send every pending batch; returns the number of messages sent."""
        sent = 0
        for link in sorted(self._links):
            sent += self._flush_link(link, round_stamp)
        return sent

    def _flush_link(self, link: tuple[str, str], round_stamp: int) -> int:
        buffer = self._links.pop(link, None)
        if buffer is None or not buffer.rows:
            return 0
        blob = encode_batch_message_compressed(
            buffer.name_texts, buffer.value_texts, buffer.rows, round_stamp)
        src, dst = link
        self.network.send(src, dst, blob)
        if self.ledger is not None:
            # Tickets are slotted per (sender, round): the receiver
            # retires against the same slot, keeping the quiescence
            # protocol exact under out-of-order delivery.
            self.ledger.issue(round_stamp, sender=src)
        self.sent_messages += 1
        self.sent_items += len(buffer.rows)
        return 1
