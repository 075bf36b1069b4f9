"""Per-destination coalescing of outbound fact blocks into batched messages.

A delta-exchange round used to cost one network message per fact; the
cluster runtime (and the LBTrust system loop) instead accumulate facts
here per ``(src, dst)`` link and flush **one batch message per link per
round** — so the network's message counter measures batches, which is
what a real transport would pay for.  A batch whose encoded size would
exceed ``max_bytes`` is flushed early, capping message size the way an
MTU/frame limit would.

The wire format is the packed envelope (:mod:`repro.net.transport`
defines it and says who validates what): a small JSON header — every
distinct to/pred name and dictionary entry once, four ints per block —
and a body of uint32 dictionary slots, four bytes a term.  It is an
*id-row* format, which lets a host hand over the id rows it already
holds: the unit of handoff is the **block** — the id rows of one
predicate bound for one link (:meth:`MessageBatcher.add`), over the
registry's ``terms``, the one interner of the system or cluster process;
a shard and a node of principal workspaces hand over the same thing.
The registry keeps the dictionary text of every term any wire has
shipped (:func:`~repro.net.transport.term_texts`), and the batcher keeps
per pending batch the dictionary slot of every term in it, so a block
costs C-level passes over its *distinct* terms, size arithmetic, and one
``array.extend`` over its rows — ``encode_entry`` runs once per term,
and no Python runs per shipped row.  Ids never cross the wire.
"""

from __future__ import annotations

import json
from array import array
from itertools import chain, count, filterfalse, groupby
from typing import Iterable, Optional

from .transport import encode_batch_message_compressed, term_texts

#: Default size cap per batch message, in encoded-payload bytes.  Small
#: enough that a pathological round still produces bounded messages,
#: large enough that typical rounds coalesce into a single envelope.
DEFAULT_MAX_BATCH_BYTES = 16384

#: Envelope overhead assumed per message (magic byte, length prefix,
#: {"round":NNN,"names":[],"dict":[],"blocks":[]}).
_ENVELOPE_OVERHEAD = 64

#: Header bytes assumed per block ("[to,pred,arity,count],").
_BLOCK_OVERHEAD = 24


class _LinkBuffer:
    """One link's pending batch: dictionaries as the texts the header
    will splice, blocks and their packed body."""

    __slots__ = ("names", "values", "slots", "blocks", "body", "rows",
                 "size")

    def __init__(self) -> None:
        self.names: dict[str, int] = {}       # to/pred name -> index
        self.values: dict[str, int] = {}      # entry text -> dict slot
        self.slots: dict[int, int] = {}       # term id -> dict slot
        self.blocks: list[list] = []          # [to, pred, arity, count]
        self.body = array("I")                # dict slots, row-major
        self.rows = 0
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

    def add(self, src: str, dst: str, pred: str, rows: Iterable[tuple],
            to: str = "", round_stamp: int = 0) -> None:
        """Queue one block — id ``rows`` of ``pred`` over the registry's
        interner — for the ``src -> dst`` link.  Nothing is materialized:
        a term's text is encoded on its first shipment by any wire and
        looked up ever after.  Rows of mixed arity go out as one wire
        block per run of equal arity, in order.

        A row that would push the pending batch past ``max_bytes``
        flushes it first (stamped with ``round_stamp``), so no message
        exceeds the cap by more than one item, and the row is laid out
        again against fresh dictionaries.  For the same items in the same
        order the bytes sent equal ``encode_batch_message_dict``'s.
        """
        for _arity, run in groupby(rows, len):
            self._add_keys((src, dst), to, pred, list(run), round_stamp)

    def _add_keys(self, link: tuple[str, str], to: str, pred: str,
                  keys: list, round_stamp: int) -> None:
        """Lay a block of equal-arity id rows out against the link's
        dictionaries and commit it whole if it fits; nothing is mutated
        before the fit is known.  The size is arithmetic — four bytes a
        term, plus the texts of the names and entries the batch lacks —
        and the rows are touched once, by the ``extend`` packing them."""
        buffer = self._links.get(link)
        if buffer is None:
            buffer = self._links[link] = _LinkBuffer()
        names, values, slots = buffer.names, buffer.values, buffer.slots
        arity = len(keys[0])
        grown = 4 * arity * len(keys)

        new_names = [name for name in dict.fromkeys((to, pred))
                     if name not in names]
        # consecutive rows agreeing on (to, pred, arity) are one block
        extends = not new_names and bool(buffer.blocks) and \
            buffer.blocks[-1][:3] == [names[to], names[pred], arity]
        # Dictionary entries in first-appearance order, as the canonical
        # encoder assigns them (dict.fromkeys keeps it, at C speed): the
        # terms this batch has no slot for, and of their texts those it
        # has no entry for (distinct values may print alike, e.g. NaNs).
        missing = list(filterfalse(
            slots.__contains__, dict.fromkeys(chain.from_iterable(keys))))
        texts = term_texts(missing, self.registry)
        new_texts = list(dict.fromkeys(
            filterfalse(values.__contains__, texts)))
        grown += sum(map(len, map(json.dumps, new_names))) + len(new_names) \
            + sum(map(len, new_texts)) + len(new_texts) \
            + (0 if extends else _BLOCK_OVERHEAD)

        if buffer.size + grown > self.max_bytes \
                and (buffer.rows or len(keys) > 1):
            # Does not fit.  Halve until the piece that crosses the cap
            # is a single row: that row flushes the pending batch and
            # opens the next one — exactly where adding row by row would.
            if len(keys) > 1:
                half = len(keys) // 2
                self._add_keys(link, to, pred, keys[:half], round_stamp)
                self._add_keys(link, to, pred, keys[half:], round_stamp)
            else:
                self._flush_link(link, round_stamp)
                self._add_keys(link, to, pred, keys, round_stamp)
            return

        names.update(zip(new_names, count(len(names))))
        values.update(zip(new_texts, count(len(values))))
        slots.update(zip(missing, map(values.__getitem__, texts)))
        if extends:
            buffer.blocks[-1][3] += len(keys)
        else:
            buffer.blocks.append(
                [names[to], names[pred], arity, len(keys)])
        buffer.body.extend(map(slots.__getitem__, chain.from_iterable(keys)))
        buffer.rows += len(keys)
        buffer.size += grown

    def pending_items(self) -> int:
        return sum(buffer.rows for buffer in self._links.values())

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
            map(json.dumps, buffer.names), buffer.values, buffer.blocks,
            buffer.body, round_stamp)
        src, dst = link
        self.network.send(src, dst, blob)
        if self.ledger is not None:
            # Tickets are slotted per (sender, round): the receiver
            # retires against the same slot, keeping the quiescence
            # protocol exact under out-of-order delivery.
            self.ledger.issue(round_stamp, sender=src)
        self.sent_messages += 1
        self.sent_items += buffer.rows
        return 1
