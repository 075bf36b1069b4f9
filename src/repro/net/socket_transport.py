"""Real socket transport: the simulated network's surface over TCP.

:class:`SocketNetwork` implements the same duck-typed interface the
:class:`~repro.cluster.scheduler.ExecutionRuntime` consumes from
:class:`~repro.net.network.SimulatedNetwork` — ``add_node`` / ``send`` /
``deliver_next`` / ``deliver_all`` / ``pending`` / ``link_stats`` /
``clock`` — but every message actually crosses an OS socket as a
length-prefixed TCP frame.  ``Cluster(mode="bsp"|"async")`` and
:class:`~repro.core.system.LBTrustSystem` therefore run unchanged over
real sockets; wall-clock seconds replace the virtual clock in reports.

Design notes:

* **Framing** — ``!I`` payload-frame length, then ``!H``-prefixed source
  and destination node names (UTF-8), then the raw payload bytes.  TCP
  guarantees per-connection FIFO, and each ``(src, dst)`` link owns one
  connection, so the simulated network's per-link FIFO contract holds on
  the wire for free.  An incoming connection whose framing breaks (EOF
  mid-frame, a length over ``MAX_FRAME_BYTES``, a bad name header) is
  closed and counted in ``connections_dropped``; the receive path never
  raises for it.

* **Local vs remote nodes** — ``add_node`` opens a loopback listener for
  a node hosted *in this process*; ``add_remote`` registers the address
  of a node hosted elsewhere (another OS process — see
  :mod:`repro.cluster.launch`).  A single-process cluster simply adds
  every node locally and the whole exchange rides the loopback.

* **Exact pending/deliver semantics** — a frame written to a loopback
  socket is not instantly readable, so the transport counts its own
  local→local sends in flight and blocks ``deliver_next`` (bounded by
  ``delivery_timeout``) until the frames it *knows* were sent have
  arrived.  That keeps the scheduler's termination conditions
  (``pending() == 0``, ``deliver_next() is None``) exact in-process —
  the same guarantee the virtual-clock queue gave — while frames from
  *remote* processes are waited for explicitly via :meth:`receive`.

* **No latency model** — real links have real latency; ``set_latency``
  raises.  The per-link/total byte counters measure payload bytes (not
  framing overhead), matching the simulated network's accounting so
  traffic reports stay comparable across transports.
"""

from __future__ import annotations

import selectors
import socket
import struct
import time
from collections import deque
from typing import Optional

from ..datalog.errors import NetworkError
from .network import LinkStats

_LEN = struct.Struct("!I")
_NAME = struct.Struct("!H")

#: Hard cap on a single frame's body (names + payload); a peer sending a
#: larger length prefix is treated as corrupt rather than ballooning RAM.
MAX_FRAME_BYTES = 64 * 1024 * 1024


def _pack_frame(src: str, dst: str, payload: bytes) -> bytes:
    src_b = src.encode("utf-8")
    dst_b = dst.encode("utf-8")
    body = b"".join((
        _NAME.pack(len(src_b)), src_b,
        _NAME.pack(len(dst_b)), dst_b,
        payload,
    ))
    return _LEN.pack(len(body)) + body


def _unpack_body(body: bytes) -> tuple[str, str, bytes]:
    offset = 0
    names = []
    for _ in range(2):
        if offset + _NAME.size > len(body):
            raise NetworkError("truncated socket frame header")
        (length,) = _NAME.unpack_from(body, offset)
        offset += _NAME.size
        if offset + length > len(body):
            raise NetworkError("truncated socket frame name")
        try:
            names.append(body[offset:offset + length].decode("utf-8"))
        except UnicodeDecodeError:
            raise NetworkError("socket frame name is not UTF-8") from None
        offset += length
    return names[0], names[1], bytes(body[offset:])


class SocketNetwork:
    """FIFO links between named nodes, over real loopback/LAN TCP.

    ``clock`` is wall-clock seconds since construction (monotonic), so
    reports built against the virtual clock read as real elapsed time.
    """

    def __init__(self, host: str = "127.0.0.1",
                 delivery_timeout: float = 10.0) -> None:
        self.host = host
        #: how long deliver_next()/receive() may wait for a frame known
        #: (or expected) to be in flight before declaring it lost
        self.delivery_timeout = delivery_timeout
        self._selector = selectors.DefaultSelector()
        self._listeners: dict[str, socket.socket] = {}
        #: node -> (host, port) — local listeners and registered remotes
        self._addresses: dict[str, tuple[str, int]] = {}
        self._remote: set[str] = set()
        self._outgoing: dict[tuple[str, str], socket.socket] = {}
        self._buffers: dict[socket.socket, bytearray] = {}
        self._arrived: deque[tuple[str, str, bytes]] = deque()
        #: local→local frames written but not yet parsed out of a buffer
        self._inflight = 0
        self._epoch = time.monotonic()
        self._closed = False
        #: incoming connections closed because their framing broke, and
        #: the last one's reason: a broken peer costs its connection,
        #: never the receive loop
        self.connections_dropped = 0
        self.last_drop_reason: Optional[str] = None
        self.stats: dict[tuple[str, str], LinkStats] = {}
        self.total = LinkStats()

    # -- topology -----------------------------------------------------------

    def add_node(self, name: str) -> None:
        """Host ``name`` in this process: open its loopback listener."""
        if name in self._listeners:
            return
        if name in self._remote:
            raise NetworkError(f"node {name!r} is already remote")
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, 0))
        listener.listen()
        listener.setblocking(False)
        self._listeners[name] = listener
        self._addresses[name] = listener.getsockname()[:2]
        self._selector.register(listener, selectors.EVENT_READ,
                                ("accept", name))

    def add_remote(self, name: str, host: str, port: int) -> None:
        """Register a node hosted by another process at ``host:port``."""
        if name in self._listeners:
            raise NetworkError(f"node {name!r} is already local")
        self._remote.add(name)
        self._addresses[name] = (host, port)

    def nodes(self) -> set[str]:
        return set(self._addresses)

    def port_of(self, name: str) -> int:
        """The listening port of a locally hosted node."""
        if name not in self._listeners:
            raise NetworkError(f"node {name!r} has no local listener")
        return self._addresses[name][1]

    def set_latency(self, src: str, dst: str, latency: float,
                    symmetric: bool = True) -> None:
        raise NetworkError(
            "SocketNetwork links have real latency; set_latency applies "
            "to SimulatedNetwork only")

    def _check_node(self, name: str) -> None:
        if name not in self._addresses:
            raise NetworkError(f"unknown node {name!r}")

    # -- clock --------------------------------------------------------------

    @property
    def clock(self) -> float:
        """Wall-clock seconds since the network came up."""
        return time.monotonic() - self._epoch

    # -- traffic ------------------------------------------------------------

    def send(self, src: str, dst: str, payload: bytes,
             at: Optional[float] = None) -> None:
        """Write one length-prefixed frame on the ``src -> dst`` link.

        ``at`` is accepted for interface parity with the simulated
        network and ignored: a socket cannot send in the past.  A link
        that cannot be opened or written raises :class:`NetworkError`.
        """
        self._check_node(src)
        self._check_node(dst)
        if src in self._remote:
            raise NetworkError(f"cannot send as remote node {src!r}")
        try:
            conn = self._outgoing.get((src, dst))
            if conn is None:
                conn = socket.create_connection(self._addresses[dst],
                                                timeout=self.delivery_timeout)
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn.settimeout(self.delivery_timeout)
                self._outgoing[(src, dst)] = conn
            conn.sendall(_pack_frame(src, dst, payload))
        except OSError as exc:
            raise NetworkError(
                f"send {src!r} -> {dst!r} failed: {exc}") from exc
        if dst in self._listeners:
            self._inflight += 1
        link = self.stats.setdefault((src, dst), LinkStats())
        link.messages += 1
        link.bytes += len(payload)
        self.total.messages += 1
        self.total.bytes += len(payload)

    # -- receive path -------------------------------------------------------

    def _poll(self, timeout: float) -> None:
        """Accept connections and parse every readable frame."""
        for key, _events in self._selector.select(timeout):
            kind, name = key.data
            if kind == "accept":
                try:
                    conn, _addr = key.fileobj.accept()
                except OSError:
                    continue
                conn.setblocking(False)
                self._buffers[conn] = bytearray()
                self._selector.register(conn, selectors.EVENT_READ,
                                        ("read", name))
            else:
                self._read_frames(key.fileobj)

    def _read_frames(self, conn: socket.socket) -> None:
        buffer = self._buffers.get(conn)
        if buffer is None:
            return
        try:
            chunk = conn.recv(1 << 16)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self._hang_up(conn, "peer closed mid-frame" if buffer else None)
            return
        buffer.extend(chunk)
        while True:
            if len(buffer) < _LEN.size:
                break
            (length,) = _LEN.unpack_from(buffer, 0)
            if length > MAX_FRAME_BYTES:
                self._hang_up(conn, f"socket frame of {length} bytes "
                                    f"exceeds the {MAX_FRAME_BYTES} cap")
                return
            if len(buffer) < _LEN.size + length:
                break
            body = bytes(buffer[_LEN.size:_LEN.size + length])
            del buffer[:_LEN.size + length]
            try:
                src, dst, payload = _unpack_body(body)
            except NetworkError as exc:
                self._hang_up(conn, str(exc))
                return
            self._arrived.append((src, dst, payload))
            if src in self._listeners and dst in self._listeners:
                # one of our own local→local frames has landed
                self._inflight = max(0, self._inflight - 1)

    def _hang_up(self, conn: socket.socket, reason: Optional[str]) -> None:
        """Close an incoming connection; a ``reason`` (its framing broke)
        is counted.  Frames parsed before the break stay delivered."""
        self._selector.unregister(conn)
        self._buffers.pop(conn, None)
        conn.close()
        if reason is not None:
            self.connections_dropped += 1
            self.last_drop_reason = reason

    def pending(self) -> int:
        """Frames arrived but undelivered, plus local sends in flight."""
        self._poll(0)
        return len(self._arrived) + self._inflight

    def deliver_next(self) -> Optional[tuple[str, str, bytes]]:
        """Pop the next arrived frame in arrival order.

        Blocks (bounded by ``delivery_timeout``) while local sends are
        known to be in flight, so in-process callers observe the exact
        queue semantics of the simulated network; returns ``None`` only
        when nothing was sent that has not been delivered.
        """
        if not self._arrived:
            deadline = time.monotonic() + self.delivery_timeout
            while self._inflight and not self._arrived:
                if time.monotonic() > deadline:
                    raise NetworkError(
                        f"{self._inflight} local frame(s) in flight but "
                        f"nothing arrived within {self.delivery_timeout}s"
                        f"{self.drop_note()}")
                self._poll(0.05)
        if not self._arrived:
            return None
        return self._arrived.popleft()

    def deliver_all(self) -> list[tuple[str, str, bytes]]:
        """Drain every arrived and in-flight frame, in arrival order."""
        out = []
        while self.pending():
            delivered = self.deliver_next()
            if delivered is None:  # pragma: no cover - pending() raced
                break
            out.append(delivered)
        return out

    def receive(self, timeout: Optional[float] = None
                ) -> Optional[tuple[str, str, bytes]]:
        """Wait up to ``timeout`` seconds for one frame from anywhere.

        Unlike :meth:`deliver_next` this also waits for frames from
        *remote* processes, whose sends this transport cannot count; a
        quiet wire returns ``None`` instead of raising.  This is the
        multiprocess launcher's receive primitive.
        """
        if self._arrived:
            return self._arrived.popleft()
        budget = self.delivery_timeout if timeout is None else timeout
        deadline = time.monotonic() + budget
        # Always poll at least once: receive(0) is a non-blocking check
        # and must still harvest frames already sitting in the kernel.
        self._poll(0)
        while not self._arrived:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return None
            self._poll(min(remaining, 0.05))
        return self._arrived.popleft()

    def drop_note(self) -> str:
        """``"; last dropped connection: <reason>"``, or ``""`` if none
        was: the tail of a lost-frame error."""
        if self.last_drop_reason is None:
            return ""
        return f"; last dropped connection: {self.last_drop_reason}"

    # -- stats / teardown ---------------------------------------------------

    def link_stats(self, src: str, dst: str) -> LinkStats:
        """The stored counters of a link (created empty on first use)."""
        return self.stats.setdefault((src, dst), LinkStats())

    def reset_stats(self) -> None:
        """Zero the traffic counters; wall time cannot be rewound."""
        self.stats.clear()
        self.total = LinkStats()

    def close(self) -> None:
        """Close every socket this network owns."""
        if self._closed:
            return
        self._closed = True
        for conn in list(self._buffers):
            try:
                self._selector.unregister(conn)
            except (KeyError, ValueError):
                pass
            conn.close()
        self._buffers.clear()
        for conn in self._outgoing.values():
            conn.close()
        self._outgoing.clear()
        for listener in self._listeners.values():
            try:
                self._selector.unregister(listener)
            except (KeyError, ValueError):
                pass
            listener.close()
        self._listeners.clear()
        self._selector.close()

    def __enter__(self) -> "SocketNetwork":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SocketNetwork(local={sorted(self._listeners)}, "
                f"remote={sorted(self._remote)})")
