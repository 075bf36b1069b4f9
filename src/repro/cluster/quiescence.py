"""Distributed quiescence: per-sender round-vector ticket counting.

A sharded fixpoint has converged exactly when (a) no node can derive
anything new from what it already holds and (b) no delta batch is still
in flight that could change (a).  The textbook hazard is declaring
convergence while a message is sitting in a link queue; the classic fix
(Mattern-style credit/ticket counting) is to pair every message with a
ticket — issued at send, retired at receive — and only declare
quiescence when every ticket ever issued has been retired.

Since the overlapped (async) scheduler delivers batches out of order,
the ledger keeps a **round vector per sender**: tickets are counted per
``(sender, round_stamp)`` slot rather than in one global pair of
counters.  That keeps the protocol exact under reordering, duplication
and delay — a duplicated or fabricated delivery over-retires *its own*
slot and is detected immediately, even while other senders legitimately
have tickets outstanding (a global counter would have masked it).

The ledger stamps tickets with the sender's evaluation round and records
the virtual clock at which each round closed, so a converged run can
report *when* (in simulated time) the system went quiet, not just that
it did.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Optional

from ..datalog.errors import ClusterError


@dataclass
class RoundRecord:
    """Activity observed while one evaluation round was closing."""

    number: int
    issued: int = 0
    retired: int = 0
    new_facts: int = 0
    clock: float = 0.0


@dataclass
class TicketLedger:
    """Issue/retire message tickets; decide distributed quiescence.

    ``issued``/``retired`` stay as global totals (cheap outstanding
    check); ``_vector`` holds the per-``(sender, round)`` split that
    makes over-retirement detection exact.  ``sender`` is any hashable
    node identity.  A ticket is retired only by the arrival that names
    its slot: a batch whose stamp cannot be read retires nothing, and
    its ticket stays outstanding.
    """

    issued: int = 0
    retired: int = 0
    #: ``(sender, round) -> [issued, retired]``
    _vector: dict = field(default_factory=dict)
    _per_round_issued: dict = field(default_factory=dict)
    #: ``retired`` total already attributed to a closed RoundRecord
    _retired_recorded: int = 0
    rounds: list = field(default_factory=list)

    def issue(self, round_stamp: int, count: int = 1,
              sender: Optional[Hashable] = None) -> None:
        """Register ``count`` messages sent by ``sender`` during
        ``round_stamp``."""
        self.issued += count
        slot = self._vector.setdefault((sender, round_stamp), [0, 0])
        slot[0] += count
        self._per_round_issued[round_stamp] = \
            self._per_round_issued.get(round_stamp, 0) + count

    def retire(self, round_stamp: int, count: int = 1,
               sender: Optional[Hashable] = None) -> None:
        """Register ``count`` messages received (stamped at their send round).

        Retiring more tickets than ``sender`` issued for ``round_stamp``
        means the transport duplicated or fabricated a message — a
        :class:`ClusterError` *per slot*, so the fault is caught even
        while other senders still have tickets legitimately in flight.
        """
        slot = self._vector.get((sender, round_stamp))
        if slot is None or slot[1] + count > slot[0]:
            raise ClusterError(self.overdrawn(round_stamp, count, sender))
        slot[1] += count
        self.retired += count

    def retire_guarded(self, round_stamp: int,
                       sender: Optional[Hashable] = None) -> bool:
        """Retire one ticket iff ``(sender, round_stamp)`` has one in flight.

        The runtime's retire: a duplicated or foreign batch retires
        nothing, and the False it returns is the run's ``unticketed``
        fault.  Returns True when a real ticket was retired.
        """
        slot = self._vector.get((sender, round_stamp))
        if slot is None or slot[1] >= slot[0]:
            return False
        slot[1] += 1
        self.retired += 1
        return True

    def overdrawn(self, round_stamp: int, count: int = 1,
                  sender: Optional[Hashable] = None) -> str:
        """What over-retiring ``(sender, round_stamp)`` is called."""
        issued, retired = self._vector.get((sender, round_stamp), (0, 0))
        return (f"ticket ledger: sender {sender!r} round {round_stamp} "
                f"retired {retired + count} > issued {issued}")

    def compact(self) -> None:
        """Drop per-slot bookkeeping once nothing is in flight.

        Round-vector slots and per-round issue counts exist to match
        future retires and round closes; with zero tickets outstanding
        no retire can ever reference them again (BSP round numbers are
        monotone, async stamps are never closed by number), so a
        long-lived ledger compacts them at each quiescence instead of
        growing with every run.  The ``rounds`` trail is kept — it is
        the run history callers diff — and the global totals carry the
        invariant forward.  A no-op while tickets are outstanding.
        """
        if self.outstanding():
            return
        self._vector.clear()
        self._per_round_issued.clear()

    def outstanding(self) -> int:
        """Tickets issued but not yet retired (messages in flight)."""
        return self.issued - self.retired

    def close_round(self, number: int, new_facts: int, clock: float) -> RoundRecord:
        """Record one completed round's activity and the virtual clock."""
        return self._close(number, self._per_round_issued.get(number, 0),
                           new_facts, clock)

    def close_quiet(self, clock: float) -> RoundRecord:
        """Append a quiet closing record (no facts, no sends): the end of
        an async run, after which :meth:`quiescent` holds iff nothing is
        outstanding.  Depth stamps share the per-round counter space with
        barrier round numbers, so its ``issued`` is 0, not a stamp lookup.
        """
        return self._close(len(self.rounds), 0, 0, clock)

    def _close(self, number: int, issued: int, new_facts: int,
               clock: float) -> RoundRecord:
        record = RoundRecord(number, issued,
                             self.retired - self._retired_recorded,
                             new_facts, clock)
        self._retired_recorded = self.retired
        self.rounds.append(record)
        return record

    def quiet(self) -> bool:
        """True when the last closed round neither derived new facts nor
        issued messages: nothing more can arrive, so a run stops here.
        """
        if not self.rounds:
            return False
        last = self.rounds[-1]
        return last.new_facts == 0 and last.issued == 0

    def quiescent(self) -> bool:
        """True when the system has provably converged: the last round
        was :meth:`quiet` *and* every ticket was retired (nothing is in
        flight), so no node holds work that could restart the exchange.
        """
        return not self.outstanding() and self.quiet()

    def convergence_clock(self) -> float:
        """Virtual time at which the last productive round closed."""
        for record in reversed(self.rounds):
            if record.new_facts or record.issued or record.retired:
                return record.clock
        return self.rounds[0].clock if self.rounds else 0.0
