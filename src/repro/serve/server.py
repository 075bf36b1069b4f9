"""The online authorization server.

:class:`TrustServer` wraps a long-lived :class:`~repro.core.system.LBTrustSystem`
and answers serve-plane frames (:mod:`repro.net.transport` request/reply
kind) over any transport with the standard duck type:

* **updates** (``assert`` / ``retract`` / ``load``) run through the
  workspace transaction machinery — semi-naive insertion deltas and DRed
  deletions — so each update is incremental maintenance, never a
  from-scratch fixpoint;
* **queries** (``query``) are answered in id space:
  :meth:`Workspace.point_rows` parses the atom and probes the maintained
  fixpoint on its bound columns for id rows, interning nothing, and
  :func:`~repro.net.transport.encode_answers` writes them out from the
  registry's one text per term, rows in the order of their texts, with
  no value materialized; the reply frame splices that text as it is.
  The updates above validated the policy once, and every request is
  answered from that result without deriving anything.  Rows that differ
  only in the type of equal values (``1``, ``1.0``, ``true``) are
  distinct ids, so each is its own answer.

The server is deliberately transport-agnostic: :meth:`handle` consumes one
frame and sends one reply.  For real sockets, :meth:`serve_forever` polls
``network.receive``; for a shared in-process network (simulated or
loopback sockets), a :class:`~repro.serve.client.ServeRouter` pumps
``deliver_next`` and calls :meth:`handle` directly.  The serve plane uses
its own network instance, separate from the system's delta-exchange
network, so request frames can never be misread as batch traffic.
"""

from __future__ import annotations

import traceback
from typing import Optional

from ..datalog.errors import NetworkError, ReproError, ServeError
from ..net.transport import (
    decode_facts,
    decode_request_frame,
    encode_answers,
    encode_reply_frame,
    request_frame_id,
)

#: Operations the server understands, for help texts and tests.
SERVE_OPS = ("hello", "ping", "assert", "retract", "load", "query",
             "sync", "stats", "shutdown")


class TrustServer:
    """Serve point updates and authorization queries for one system.

    ``network`` is the serve-plane transport (NOT ``system.network``, which
    carries the delta exchange).  ``node`` is the server's address on it.
    """

    def __init__(self, system, network, node: str = "server",
                 poll_interval: float = 0.05) -> None:
        self.system = system
        self.network = network
        self.node = node
        self.poll_interval = poll_interval
        self.requests_served = 0
        #: frames with no recoverable request id (not JSON, not a request,
        #: no integer id): nobody to answer, so they are dropped
        self.frames_dropped = 0
        #: traceback of the last failure that was not a :class:`ReproError`
        #: (a malformed field the handlers did not anticipate, a bug)
        self.last_unexpected_error = ""
        self._stopping = False
        if node not in network.nodes():
            network.add_node(node)

    # -- frame entry point -------------------------------------------------

    def handle(self, src: str, blob: bytes) -> Optional[str]:
        """Process one frame from ``src``; fails closed, never raises on it.

        Returns the operation name (used by drivers for accounting), None
        when the frame did not decode that far.  Every failure — decoding
        included — of a frame whose request id can be recovered travels
        back as an ``ok=False`` reply naming the error class; a frame with
        no recoverable id has nobody to answer, and a reply the network
        cannot deliver (a caller advertising a dead address) has nobody
        to reach: both are dropped and counted in ``frames_dropped``.
        One hostile frame must not stop the server.
        """
        op = None
        try:
            request_id, op, body = decode_request_frame(blob)
            reply_body = self._dispatch(src, op, body)
            frame = encode_reply_frame(request_id, True, reply_body)
        except Exception as exc:
            request_id = request_frame_id(blob)
            if request_id is None:
                self.frames_dropped += 1
                return None
            if not isinstance(exc, ReproError):
                self.last_unexpected_error = traceback.format_exc()
            frame = encode_reply_frame(request_id, False, {},
                                       f"{type(exc).__name__}: {exc}")
        try:
            self.network.send(self.node, src, frame)
        except NetworkError:
            self.frames_dropped += 1
        else:
            self.requests_served += 1
        return op

    def serve_forever(self, max_requests: Optional[int] = None) -> int:
        """Blocking receive loop for socket transports.

        Runs until a ``shutdown`` request arrives (or ``max_requests``
        frames were served); returns the number of requests handled.
        """
        served = 0
        while not self._stopping:
            item = self.network.receive(timeout=self.poll_interval)
            if item is None:
                continue
            src, dst, blob = item
            if dst != self.node:  # pragma: no cover - misrouted frame
                continue
            self.handle(src, blob)
            served += 1
            if max_requests is not None and served >= max_requests:
                break
        return served

    def stop(self) -> None:
        self._stopping = True

    @property
    def stopping(self) -> bool:
        return self._stopping

    # -- operations --------------------------------------------------------

    def _dispatch(self, src: str, op: str, body: dict) -> dict | str:
        """The reply body: a dict, or a query's JSON text."""
        if op == "hello":
            return self._op_hello(src, body)
        if op == "ping":
            return {"clock": self.network.clock}
        if op == "assert":
            principal, pred, fact = self._update_args(body)
            principal.assert_fact(pred, fact)
            return {}
        if op == "retract":
            principal, pred, fact = self._update_args(body)
            principal.retract_fact(pred, fact)
            return {}
        if op == "load":
            principal = self._principal(body)
            source = body.get("source")
            if not isinstance(source, str):
                raise ServeError("load needs a source string")
            principal.load(source)
            warnings = [
                d.to_json() for d in principal.workspace.last_check
                if d.severity == "warning"
            ]
            suppressed = [
                d.to_json()
                for d in principal.workspace.last_check_suppressed
            ]
            return {"warnings": warnings, "suppressed": suppressed}
        if op == "query":
            return self._op_query(body)
        if op == "sync":
            max_rounds = body.get("max_rounds", 100)
            if type(max_rounds) is not int or max_rounds < 1:
                raise ServeError("sync needs max_rounds, a positive integer")
            report = self.system.run(max_rounds=max_rounds)
            return {"rounds": report.productive_rounds,
                    "delivered": report.delivered,
                    "rejected": report.rejected,
                    "quiescent": report.quiescent,
                    "outstanding": report.outstanding}
        if op == "stats":
            stats = self._principal(body).workspace.stats
            registry = self.system.registry
            return {"stats": stats.as_dict(), "terms": len(registry.terms),
                    "rules": len(registry)}
        if op == "shutdown":
            self._stopping = True
            return {}
        raise ServeError(f"unknown serve operation {op!r}")

    def _op_hello(self, src: str, body: dict) -> dict:
        """Register the caller; a socket client advertises its listener so
        replies can be routed back (the cluster rendezvous idiom).  A
        ``port`` that is not an integer in 1..65535 is refused before
        anything is registered."""
        host = body.get("host")
        port = body.get("port")
        if port is not None and (type(port) is not int
                                 or not 0 < port < 65536):
            raise ServeError("hello needs port, an integer in 1..65535")
        if isinstance(host, str) and port is not None \
                and hasattr(self.network, "add_remote") \
                and src not in self.network.nodes():
            self.network.add_remote(src, host, port)
        return {"node": self.node,
                "principals": sorted(self.system.principals)}

    def _op_query(self, body: dict) -> str:
        """The reply body's JSON text, encoded from the id rows."""
        workspace = self._principal(body).workspace
        source = body.get("query")
        if not isinstance(source, str):
            raise ServeError("query needs an atom string")
        return encode_answers(workspace.point_rows(source),
                              self.system.registry)

    def _principal(self, body: dict):
        name = body.get("principal")
        if not isinstance(name, str) or not name:
            raise ServeError("request body names no principal")
        return self.system.principal(name)

    def _update_args(self, body: dict) -> tuple:
        principal = self._principal(body)
        pred = body.get("pred")
        fact = body.get("fact")
        if not isinstance(pred, str) or not isinstance(fact, list):
            raise ServeError("update needs a pred and a fact list")
        return principal, pred, decode_facts([fact], self.system.registry)[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"TrustServer(node={self.node!r}, "
                f"served={self.requests_served})")
