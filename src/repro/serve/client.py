"""Client side of the serve plane: router + synchronous RPC client.

Two wiring shapes, matching the two transports:

* **Shared in-process network** (``SimulatedNetwork``, or one
  ``SocketNetwork`` hosting both ends): a :class:`ServeRouter` owns the
  single delivery queue, feeding server-bound request frames into
  :meth:`TrustServer.handle` and parking replies in per-client inboxes.
  ``deliver_next`` interleaving means a client waiting for *its* reply
  may deliver other clients' traffic first — the router preserves that
  work instead of dropping it.

* **Own network per client** (cross-process sockets): the client listens
  on its own ``SocketNetwork``, announces ``(host, port)`` in its
  ``hello`` (the cluster rendezvous idiom), and blocks on
  ``network.receive`` for replies.

Replies are matched by request id, and per-link FIFO means nothing is
buffered around.  A call that timed out is abandoned, but its reply may
still come: a reply whose id is below the awaited one answers such a
call, so it is dropped (counted in ``stale_replies``) and the wait goes
on.  A reply whose id is above the awaited one answers a request never
sent, a protocol error.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Optional

from ..datalog.errors import ServeError
from ..meta.registry import RuleRegistry
from ..net.transport import (
    decode_facts,
    decode_reply_frame,
    encode_facts,
    encode_request_frame,
    frame_kind,
)


class ServeRouter:
    """Pump a shared in-process network for one server and its clients."""

    def __init__(self, network, server) -> None:
        self.network = network
        self.server = server
        self.inboxes: dict[str, deque] = {}

    def register(self, client_name: str) -> None:
        self.inboxes[client_name] = deque()

    def pump_one(self) -> bool:
        """Deliver one pending frame; ``False`` when the queue is empty."""
        item = self.network.deliver_next()
        if item is None:
            return False
        src, dst, blob = item
        if dst == self.server.node:
            self.server.handle(src, blob)
        elif dst in self.inboxes:
            self.inboxes[dst].append(blob)
        else:
            raise ServeError(f"serve frame for unknown client {dst!r}")
        return True

    def wait_reply(self, client_name: str, timeout: float) -> bytes:
        inbox = self.inboxes[client_name]
        deadline = time.monotonic() + timeout
        while not inbox:
            if self.pump_one():
                continue
            # Nothing queued: on a simulated network that is final; a
            # socket network may still have frames in flight.
            receive = getattr(self.network, "receive", None)
            if receive is None:
                raise ServeError(
                    f"no reply for {client_name!r} and no pending frames")
            if time.monotonic() > deadline:
                raise ServeError(f"timed out waiting for {client_name!r} reply")
            receive(timeout=0.05)  # parks arrivals for deliver_next
        return inbox.popleft()


class ServeClient:
    """Synchronous RPC client for :class:`~repro.serve.server.TrustServer`.

    ``principal`` is the default workspace updates and queries address;
    every call accepts a ``principal=`` override.  Values cross the wire
    by the one value rule (:func:`~repro.net.transport.encode_facts`:
    JSON scalars bare, anything else tagged); the client re-parses rule
    payloads into its own registry, so it works against a foreign system.
    """

    def __init__(self, network, name: str, server: str = "server",
                 principal: str = "srv", router: Optional[ServeRouter] = None,
                 timeout: float = 10.0) -> None:
        self.network = network
        self.name = name
        self.server = server
        self.principal = principal
        self.router = router
        self.timeout = timeout
        self.registry = RuleRegistry()
        self.requests_sent = 0
        #: replies to calls that had timed out, dropped on arrival
        self.stale_replies = 0
        self._next_id = 1
        if name not in network.nodes():
            network.add_node(name)
        if router is not None:
            router.register(name)

    # -- connection --------------------------------------------------------

    def connect(self, server_host: Optional[str] = None,
                server_port: Optional[int] = None,
                advertise_host: str = "127.0.0.1") -> dict:
        """Say hello; over sockets, first learn the server's address and
        advertise our own listener so replies can come back."""
        hello: dict = {"client": self.name}
        if server_host is not None and server_port is not None:
            self.network.add_remote(self.server, server_host, server_port)
            hello["host"] = advertise_host
            hello["port"] = self.network.port_of(self.name)
        return self.call("hello", hello)

    # -- operations --------------------------------------------------------

    def assert_fact(self, pred: str, fact: tuple,
                    principal: Optional[str] = None) -> None:
        self.call("assert", self._update_body(pred, fact, principal))

    def retract_fact(self, pred: str, fact: tuple,
                     principal: Optional[str] = None) -> None:
        self.call("retract", self._update_body(pred, fact, principal))

    def load(self, source: str, principal: Optional[str] = None) -> None:
        self.call("load", {"principal": principal or self.principal,
                           "source": source})

    def query(self, source: str,
              principal: Optional[str] = None) -> list[tuple]:
        body = self.call("query", {"principal": principal or self.principal,
                                   "query": source})
        return decode_facts(body.get("answers"), self.registry)

    def stats(self, principal: Optional[str] = None) -> dict:
        return self.call("stats",
                         {"principal": principal or self.principal})["stats"]

    def sync(self, max_rounds: int = 100) -> dict:
        return self.call("sync", {"max_rounds": max_rounds})

    def ping(self) -> float:
        return self.call("ping")["clock"]

    def shutdown(self) -> None:
        self.call("shutdown")

    def close(self) -> None:
        close = getattr(self.network, "close", None)
        if close is not None and self.router is None:
            close()

    # -- plumbing ----------------------------------------------------------

    def call(self, op: str, body: Optional[dict] = None) -> dict:
        """One request/reply round trip; raises :class:`ServeError` on a
        server-side failure, a timeout or a protocol violation."""
        request_id = self._next_id
        self._next_id += 1
        frame = encode_request_frame(request_id, op, body)
        self.network.send(self.name, self.server, frame)
        self.requests_sent += 1
        deadline = time.monotonic() + self.timeout
        while True:
            blob = self._await_reply(deadline)
            reply_id, ok, reply_body, error = decode_reply_frame(blob)
            if reply_id >= request_id:
                break
            self.stale_replies += 1   # answers an abandoned call
        if reply_id != request_id:
            raise ServeError(
                f"reply id {reply_id} for request {request_id} (FIFO broken?)")
        if not ok:
            raise ServeError(error or "server rejected the request")
        return reply_body

    def _update_body(self, pred: str, fact: tuple,
                     principal: Optional[str]) -> dict:
        return {"principal": principal or self.principal, "pred": pred,
                "fact": encode_facts([fact], self.registry)[0]}

    def _await_reply(self, deadline: Optional[float] = None) -> bytes:
        """The next reply frame, waiting until ``deadline`` (a
        ``time.monotonic`` reading; ``timeout`` from now by default)."""
        if deadline is None:
            deadline = time.monotonic() + self.timeout
        if self.router is not None:
            return self.router.wait_reply(self.name,
                                          deadline - time.monotonic())
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ServeError(f"timed out waiting for {self.server} reply")
            item = self.network.receive(timeout=min(remaining, 0.25))
            if item is None:
                continue
            src, dst, blob = item
            if dst != self.name or frame_kind(blob) != "reply":
                raise ServeError(f"unexpected frame for {dst!r} from {src!r}")
            return blob

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ServeClient(name={self.name!r}, server={self.server!r})"
