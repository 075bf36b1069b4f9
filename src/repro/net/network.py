"""A simulated network: nodes, FIFO links, virtual clock, traffic stats.

The paper assumes "principals may reside on different nodes" with
LogicBlox placing predicate partitions via ``predNode`` (section 3.5); its
own evaluation ran on one host.  We go one step further and actually
exercise the distribution machinery over a simulated network:

* messages between a node pair are delivered FIFO, after a per-link
  latency (constant plus optional seeded jitter — deterministic runs);
* a virtual clock advances with deliveries, so experiments can report
  convergence time without wall-clock sleeps;
* per-link and global counters (messages, bytes) feed the SeNDlog
  convergence benchmark (A7) and the examples' traffic reports.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Optional

from ..datalog.errors import NetworkError


def _delay(name: str, value: float) -> float:
    """A latency or jitter: a message never arrives before its send."""
    if not value >= 0.0:
        raise NetworkError(f"{name} must be a number >= 0, got {value!r}")
    return value


@dataclass(order=True)
class _Envelope:
    arrival: float
    seq: int
    src: str = field(compare=False)
    dst: str = field(compare=False)
    payload: bytes = field(compare=False)


@dataclass
class LinkStats:
    messages: int = 0
    bytes: int = 0


class SimulatedNetwork:
    """FIFO links with latency between named nodes."""

    def __init__(self, default_latency: float = 1.0,
                 jitter: float = 0.0, seed: Optional[int] = None) -> None:
        self.default_latency = _delay("latency", default_latency)
        self.jitter = _delay("jitter", jitter)
        self._rng = random.Random(seed)
        self._nodes: set[str] = set()
        self._latency: dict[tuple[str, str], float] = {}
        self._queue: list[_Envelope] = []
        self._seq = itertools.count()
        self._last_sent: dict[tuple[str, str], float] = {}
        self.clock: float = 0.0
        self.stats: dict[tuple[str, str], LinkStats] = {}
        self.total = LinkStats()

    # -- topology -----------------------------------------------------------

    def add_node(self, name: str) -> None:
        self._nodes.add(name)

    def nodes(self) -> set[str]:
        return set(self._nodes)

    def set_latency(self, src: str, dst: str, latency: float,
                    symmetric: bool = True) -> None:
        self._check_node(src)
        self._check_node(dst)
        latency = _delay("latency", latency)
        self._latency[(src, dst)] = latency
        if symmetric:
            self._latency[(dst, src)] = latency

    def latency(self, src: str, dst: str) -> float:
        """The configured base latency of a link — a pure inspection.

        Jitter is drawn from the seeded RNG once per :meth:`send`, not
        here: merely *looking* at a link's latency (or costing the same
        send twice) must not perturb the deterministic jitter stream.
        """
        return self._latency.get((src, dst), self.default_latency)

    def _transit_latency(self, src: str, dst: str) -> float:
        """Base latency plus one jitter draw — consumed only by send()."""
        base = self._latency.get((src, dst), self.default_latency)
        if self.jitter:
            base += self._rng.uniform(0.0, self.jitter)
        return base

    def _check_node(self, name: str) -> None:
        if name not in self._nodes:
            raise NetworkError(f"unknown node {name!r}")

    # -- traffic -------------------------------------------------------------

    def send(self, src: str, dst: str, payload: bytes,
             at: Optional[float] = None) -> None:
        """Queue a message; local (src == dst) delivery has zero latency."""
        self._check_node(src)
        self._check_node(dst)
        when = self.clock if at is None else at
        if src == dst:
            arrival = when
        else:
            arrival = when + self._transit_latency(src, dst)
            # FIFO per link: never deliver before an earlier send on the link.
            previous = self._last_sent.get((src, dst), 0.0)
            arrival = max(arrival, previous)
            self._last_sent[(src, dst)] = arrival
        envelope = _Envelope(arrival, next(self._seq), src, dst, payload)
        heapq.heappush(self._queue, envelope)
        link = self.stats.setdefault((src, dst), LinkStats())
        link.messages += 1
        link.bytes += len(payload)
        self.total.messages += 1
        self.total.bytes += len(payload)

    def pending(self) -> int:
        return len(self._queue)

    def deliver_next(self) -> Optional[tuple[str, str, bytes]]:
        """Pop the earliest message, advancing the virtual clock."""
        if not self._queue:
            return None
        envelope = heapq.heappop(self._queue)
        self.clock = max(self.clock, envelope.arrival)
        return envelope.src, envelope.dst, envelope.payload

    def deliver_all(self) -> list[tuple[str, str, bytes]]:
        """Drain the queue in arrival order (senders may not re-enqueue)."""
        out = []
        while self._queue:
            delivered = self.deliver_next()
            if delivered is not None:
                out.append(delivered)
        return out

    def link_stats(self, src: str, dst: str) -> LinkStats:
        """The *stored* counters of a link (created empty on first use).

        Always returns the entry held in :attr:`stats`, so callers that
        accumulate into the returned object mutate the shared counters
        instead of silently losing counts into a throwaway copy.
        """
        return self.stats.setdefault((src, dst), LinkStats())

    def reset_stats(self) -> None:
        """Zero the traffic counters for a fresh measurement.

        When no message is in flight this also clears the per-link FIFO
        watermarks and rewinds the virtual clock, so a back-to-back run
        starts genuinely fresh instead of inheriting the previous run's
        per-link delivery floor (messages would otherwise never arrive
        before the old watermarks).  With messages still queued the
        timing state is kept — rewinding mid-flight would corrupt their
        arrival ordering.
        """
        self.stats.clear()
        self.total = LinkStats()
        if not self._queue:
            self._last_sent.clear()
            self.clock = 0.0

    def reset(self) -> None:
        """Full reset: drop queued messages, watermarks, clock and stats."""
        self._queue.clear()
        self.reset_stats()
