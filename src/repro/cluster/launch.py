"""Multiprocess cluster launcher: one OS process per node, real sockets.

The in-process runtimes (``Cluster``, ``LBTrustSystem``) already run
over the :class:`~repro.net.socket_transport.SocketNetwork`; this module
takes the last step to a deployable system — each
:class:`~repro.cluster.node.ClusterNode` or
:class:`~repro.core.system.WorkspaceNode` lives in its **own OS
process**, exchanging delta batches peer-to-peer over TCP while a
coordinator process drives the schedule and proves quiescence.

Topology::

    coordinator ──(control: length-prefixed JSON)── worker[node0]
        │  │                                          │
        │  └─────────────────────────────────────── worker[node1]
        │                                             │
        └─ TicketLedger, rounds, reports     data: SocketNetwork frames
                                             (peer-to-peer, NOT via the
                                              coordinator)

* **Rendezvous** — the coordinator listens on an ephemeral port and
  spawns one worker per node (``multiprocessing`` *spawn* context, so
  each worker is a genuinely fresh interpreter).  Each worker opens its
  node's data listener, reports ``hello {node, port}``, receives the
  serialized job spec plus the full peer address map, rebuilds its share
  of the job **deterministically from the spec** (same seeds, same
  creation order — so e.g. HMAC secrets agree across processes without
  ever crossing the wire), and confirms ``ready``.

* **Data plane** — workers exchange the exact same wire batches the
  in-process runtimes use (:func:`~repro.net.transport.decode_batch_message`
  envelopes via one :class:`~repro.net.batch.MessageBatcher` per worker),
  directly between their :class:`SocketNetwork` endpoints.

* **Control plane** — the coordinator owns the
  :class:`~repro.cluster.quiescence.TicketLedger`: workers report every
  batch sent (ticket issued) and every batch integrated (ticket
  retired), and the ledger's per-``(sender, round)`` vectors prove
  global quiescence over genuinely concurrent delivery.  ``bsp`` runs
  coordinator-numbered barrier rounds (each worker is told exactly how
  many batches to await); ``async`` lets every worker integrate and
  re-flush the moment a batch lands, the coordinator only watching the
  ticket balance (out-of-order reports are deferred until the matching
  issue arrives, so the balance check never declares victory early).

Job kinds: ``cluster`` (Datalog shards; spec carries node names,
placement ops, the rule program and EDB facts) and ``system`` (an
``LBTrustSystem`` of principal workspaces; spec carries principals,
SeNDlog/Datalog sources, asserted facts and ``says`` statements).  For
``system`` jobs every worker rebuilds the *full* system — workspaces of
remotely-hosted principals exist locally but are never driven; placement
must route each principal's imports to its hosting node (the standard
``ld1``/``ld2`` predNode machinery guarantees this; relay-style custom
placements are rejected loudly).

The per-node outcomes merge into one
:class:`~repro.cluster.scheduler.RuntimeReport` plus a
:class:`~repro.cluster.runtime.NodeReport` per worker — the same shapes
the in-process runtimes produce, so reports stay comparable across
transports.
"""

from __future__ import annotations

import json
import multiprocessing
import select
import struct
import socket
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from ..datalog.errors import ClusterError, NetworkError
from ..net.batch import DEFAULT_MAX_BATCH_BYTES, MessageBatcher
from ..net.socket_transport import SocketNetwork
from ..net.transport import decode_batch_message, decode_value, encode_value
from .quiescence import TicketLedger
from .runtime import NodeReport
from .scheduler import MODE_ASYNC, MODE_BSP, SCHEDULER_MODES, RuntimeReport

_LEN = struct.Struct("!I")

#: Default per-control-message timeout; a worker that stays silent this
#: long is presumed dead and the launch aborts.
DEFAULT_TIMEOUT = 60.0


# ---------------------------------------------------------------------------
# Control channel: length-prefixed JSON messages over one TCP socket
# ---------------------------------------------------------------------------

class _Channel:
    """One control connection with buffered message framing."""

    def __init__(self, sock: socket.socket,
                 send_timeout: float = DEFAULT_TIMEOUT) -> None:
        self.sock = sock
        self.sock.setblocking(False)
        self.send_timeout = send_timeout
        self._buffer = bytearray()
        self._inbox: deque = deque()

    def fileno(self) -> int:
        return self.sock.fileno()

    def send(self, message: dict) -> None:
        """Send one message, bounded by ``send_timeout``.

        A peer that stops reading (wedged worker, dead coordinator)
        must not hang the sender forever once the kernel buffer fills —
        a large job spec easily exceeds it.
        """
        blob = json.dumps(message, separators=(",", ":")).encode("utf-8")
        self.sock.settimeout(self.send_timeout)
        try:
            self.sock.sendall(_LEN.pack(len(blob)) + blob)
        except socket.timeout as exc:
            raise NetworkError(
                f"control send timed out after {self.send_timeout}s "
                f"(peer not reading)") from exc
        finally:
            self.sock.setblocking(False)

    def _parse(self) -> None:
        while len(self._buffer) >= _LEN.size:
            (length,) = _LEN.unpack_from(self._buffer, 0)
            if len(self._buffer) < _LEN.size + length:
                break
            blob = bytes(self._buffer[_LEN.size:_LEN.size + length])
            del self._buffer[:_LEN.size + length]
            self._inbox.append(json.loads(blob.decode("utf-8")))

    def _feed(self, timeout: float) -> bool:
        """Read whatever is available within ``timeout``; False on quiet."""
        readable, _, _ = select.select([self.sock], [], [], timeout)
        if not readable:
            return False
        try:
            chunk = self.sock.recv(1 << 16)
        except BlockingIOError:
            return False
        if not chunk:
            raise NetworkError("control channel closed by peer")
        self._buffer.extend(chunk)
        self._parse()
        return True

    def poll(self) -> list:
        """Every complete message already readable, without blocking."""
        while self._feed(0):
            pass
        messages = list(self._inbox)
        self._inbox.clear()
        return messages

    def recv(self, timeout: float) -> dict:
        """The next message, waiting up to ``timeout`` seconds."""
        deadline = time.monotonic() + timeout
        while not self._inbox:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise NetworkError(
                    f"control message timed out after {timeout}s")
            self._feed(min(remaining, 0.1))
        return self._inbox.popleft()

    def close(self) -> None:
        try:
            self.sock.close()
        except OSError:  # pragma: no cover - teardown best effort
            pass


# ---------------------------------------------------------------------------
# Job specs
# ---------------------------------------------------------------------------

def cluster_spec(nodes, placement, program, facts=(),
                 collect=()) -> dict:
    """A serializable ``cluster`` job.

    ``placement`` is a list of ops applied to a fresh
    :class:`~repro.cluster.partition.Partitioner` in order:
    ``["hash", pred, column]``, ``["range", pred, column, boundaries]``,
    ``["replicate", pred]``, ``["place", pred, [key], node]``.
    ``facts`` are ``(pred, values)`` pairs routed by the placement;
    ``collect`` names the predicates whose distributed union the final
    report should carry.
    """
    return {
        "kind": "cluster",
        "nodes": list(nodes),
        "placement": [list(op) for op in placement],
        "program": program,
        "facts": [[pred, list(values)] for pred, values in facts],
        "collect": list(collect),
    }


def system_spec(principals, auth="hmac", seed=7, rsa_bits=512,
                delegation=False, authorization=False, sendlog=None,
                loads=(), facts=(), says=(), collect=()) -> dict:
    """A serializable ``system`` (LBTrustSystem) job.

    ``principals`` are ``(name, node)`` pairs **in creation order** —
    every worker replays the same construction with the same ``seed``,
    which is what makes provisioned keys agree across processes.
    ``loads`` are ``(principal, datalog_source)``, ``facts`` are
    ``(principal, pred, values)``, ``says`` are ``(speaker, listener,
    statement)``; ``collect`` names predicates gathered per principal
    into the final report.
    """
    return {
        "kind": "system",
        "auth": auth,
        "seed": seed,
        "rsa_bits": rsa_bits,
        "delegation": bool(delegation),
        "authorization": bool(authorization),
        "principals": [[name, node] for name, node in principals],
        "sendlog": sendlog,
        "loads": [[name, source] for name, source in loads],
        "facts": [[name, pred, list(values)] for name, pred, values in facts],
        "says": [[speaker, listener, stmt] for speaker, listener, stmt in says],
        "collect": list(collect),
    }


def spec_nodes(spec: dict) -> list:
    """The worker set of a spec: one process per network node."""
    if spec["kind"] == "cluster":
        return list(spec["nodes"])
    seen: dict = {}
    for _name, node in spec["principals"]:
        seen.setdefault(node, None)
    return list(seen)


# ---------------------------------------------------------------------------
# The merged outcome
# ---------------------------------------------------------------------------

@dataclass
class LaunchReport:
    """One multiprocess run: merged runtime totals + per-worker shares.

    ``relations`` is the distributed union per collected predicate
    (``cluster`` jobs); ``principal_relations`` maps principal → pred →
    facts gathered from whichever worker hosted the principal
    (``system`` jobs).  ``runtime`` carries the same fields the
    in-process :class:`~repro.cluster.scheduler.ExecutionRuntime`
    reports, with wall-clock seconds for the time figures.
    """

    kind: str
    procs: int = 0
    runtime: RuntimeReport = field(default_factory=RuntimeReport)
    per_node: list = field(default_factory=list)
    relations: dict = field(default_factory=dict)
    principal_relations: dict = field(default_factory=dict)
    delivered: int = 0
    rejected: int = 0

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "procs": self.procs,
            "runtime": self.runtime.as_dict(),
            "per_node": [n.as_dict() for n in self.per_node],
            "delivered": self.delivered,
            "rejected": self.rejected,
        }


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

class _SendLog:
    """Network adapter counting batch sends per destination per flush."""

    def __init__(self, network: SocketNetwork) -> None:
        self.network = network
        self.sends: list = []

    def send(self, src: str, dst: str, payload: bytes) -> None:
        self.network.send(src, dst, payload)
        self.sends.append(dst)

    @property
    def total(self):
        return self.network.total

    def take(self) -> dict:
        counts: dict = {}
        for dst in self.sends:
            counts[dst] = counts.get(dst, 0) + 1
        self.sends = []
        return counts


class _Job:
    """A worker's share of the job: one protocol node + its codecs."""

    def __init__(self, node, registry, stats_before=None,
                 run_report=None, system=None) -> None:
        self.node = node
        self.registry = registry
        self.stats_before = stats_before
        self.run_report = run_report
        self.system = system

    def collect(self, spec: dict, my_node: str) -> dict:
        out: dict = {}
        if spec["kind"] == "cluster":
            relations = {}
            for pred in spec.get("collect", ()):
                relations[pred] = [
                    [encode_value(v, self.registry) for v in fact]
                    for fact in sorted(self.node.db.tuples(pred), key=repr)
                ]
            out["relations"] = relations
            stats = self.node.stats
            out["node_report"] = {
                "derivations": stats.derivations,
                "new_facts": stats.new_facts,
                "sent_facts": self.node.sent_facts,
                "received_facts": self.node.received_facts,
                "db_facts": self.node.db.total_facts(),
            }
        else:
            principals = {}
            derivations = 0
            db_facts = 0
            for principal in self.node.principals:
                per_pred = {}
                for pred in spec.get("collect", ()):
                    per_pred[pred] = [
                        [encode_value(v, self.registry) for v in fact]
                        for fact in sorted(principal.tuples(pred), key=repr)
                    ]
                principals[principal.name] = per_pred
                stats = principal.workspace.stats
                before = self.stats_before.get(principal.name)
                derivations += (stats.diff(before).derivations
                                if before is not None else stats.derivations)
                db_facts += principal.workspace.db.total_facts()
            out["principals"] = principals
            out["node_report"] = {
                "derivations": derivations,
                "new_facts": 0,
                "sent_facts": 0,
                "received_facts": 0,
                "db_facts": db_facts,
            }
            out["delivered"] = self.run_report.delivered
            out["rejected"] = self.run_report.rejected
        return out


def _build_cluster_job(spec: dict, my_node: str) -> _Job:
    from .partition import Partitioner
    from .runtime import Cluster

    names = list(spec["nodes"])
    partitioner = Partitioner(names)
    for op in spec.get("placement", ()):
        kind = op[0]
        if kind == "hash":
            partitioner.hash_partition(op[1], column=op[2])
        elif kind == "range":
            partitioner.range_partition(op[1], op[2], tuple(op[3]))
        elif kind == "replicate":
            partitioner.replicate(op[1])
        elif kind == "place":
            partitioner.place(op[1], tuple(op[2]), op[3])
        else:
            raise ClusterError(f"unknown placement op {kind!r}")
    # Rebuild the whole cluster object (cheap) so loading, static checks
    # and fact routing behave exactly as in-process; only this worker's
    # node is ever driven.
    cluster = Cluster(names, partitioner=partitioner)
    cluster.load(spec["program"])
    for pred, values in spec.get("facts", ()):
        cluster.assert_fact(pred, tuple(values))
    return _Job(cluster.nodes[my_node], cluster.registry)


def _build_system_job(spec: dict, my_node: str) -> _Job:
    from ..core.system import LBTrustSystem, RunReport, WorkspaceNode
    from ..languages.sendlog import install_sendlog

    system = LBTrustSystem(
        auth=spec.get("auth", "hmac"),
        seed=spec.get("seed", 7),
        rsa_bits=spec.get("rsa_bits", 512),
        delegation=spec.get("delegation", False),
        authorization=spec.get("authorization", False),
    )
    for name, node in spec["principals"]:
        system.create_principal(name, node=node)
    if spec.get("sendlog"):
        install_sendlog(system, spec["sendlog"])
    for name, source in spec.get("loads", ()):
        system.principal(name).load(source)
    for name, pred, values in spec.get("facts", ()):
        system.principal(name).assert_fact(pred, tuple(values))
    for speaker, listener, stmt in spec.get("says", ()):
        system.principal(speaker).says(listener, stmt)
    run_report = RunReport()
    mine = [p for p in system.principals.values() if p.node == my_node]
    node = WorkspaceNode(system, my_node, mine, run_report)
    stats_before = {p.name: p.workspace.stats.copy() for p in mine}
    return _Job(node, system.registry, stats_before=stats_before,
                run_report=run_report, system=system)


def _check_local_imports(job: _Job, my_node: str, batches: list) -> None:
    """Reject relay-routed imports a single worker cannot apply soundly.

    In-process, an import for a principal hosted elsewhere is swept to
    that host's outbox by the scheduler; across processes the canonical
    workspace lives in another worker, so importing into the local
    replica would silently fork its state.
    """
    if job.system is None:
        return
    for batch in batches:
        for to, _pred, _fact in batch.items():
            principal = job.system.principals.get(to)
            if principal is not None and principal.node != my_node:
                raise ClusterError(
                    f"relay-routed import: principal {to!r} is hosted on "
                    f"{principal.node!r}, not {my_node!r}; multiprocess "
                    f"placements must route imports to the hosting node")


def _drain_and_flush(job: _Job, batcher: MessageBatcher, sendlog: _SendLog,
                     my_node: str, stamp: int) -> tuple[int, dict]:
    """Drain the node's outbox under ``stamp``; returns (facts, sends)."""
    drained = job.node.drain_outbox(
        partial(batcher.add, my_node, round_stamp=stamp))
    batcher.flush(stamp)
    return drained, sendlog.take()


def _worker_entry(host: str, port: int, my_node: str) -> None:
    """Worker process main: rendezvous, build, exchange, report."""
    control: Optional[_Channel] = None
    network: Optional[SocketNetwork] = None
    try:
        network = SocketNetwork()
        network.add_node(my_node)
        control = _Channel(socket.create_connection((host, port), timeout=30))
        control.send({"type": "hello", "node": my_node,
                      "host": network.host, "port": network.port_of(my_node)})
        message = control.recv(DEFAULT_TIMEOUT)
        if message.get("type") != "spec":
            raise ClusterError(f"expected spec, got {message.get('type')!r}")
        spec = message["spec"]
        timeout = float(message.get("timeout", DEFAULT_TIMEOUT))
        control.send_timeout = timeout
        for name, (peer_host, peer_port) in message["peers"].items():
            if name != my_node:
                network.add_remote(name, peer_host, peer_port)
        if spec["kind"] == "cluster":
            job = _build_cluster_job(spec, my_node)
        elif spec["kind"] == "system":
            job = _build_system_job(spec, my_node)
        else:
            raise ClusterError(f"unknown job kind {spec['kind']!r}")
        sendlog = _SendLog(network)
        batcher = MessageBatcher(sendlog, job.registry,
                                 max_bytes=message.get(
                                     "max_batch_bytes",
                                     DEFAULT_MAX_BATCH_BYTES))
        control.send({"type": "ready"})
        mode = message.get("mode", MODE_BSP)
        if mode == MODE_ASYNC:
            _worker_async(job, control, network, batcher, sendlog,
                          my_node, timeout)
        else:
            _worker_bsp(job, control, network, batcher, sendlog,
                        my_node, timeout)
        quiesce = getattr(job.node, "quiesce", None)
        if quiesce is not None:
            quiesce()
        report = job.collect(spec, my_node)
        report["type"] = "report"
        report["node"] = my_node
        report["messages"] = network.total.messages
        report["bytes"] = network.total.bytes
        control.send(report)
    except BaseException as exc:  # noqa: BLE001 - forwarded to coordinator
        if control is not None:
            try:
                control.send({"type": "error", "node": my_node,
                              "error": str(exc),
                              "traceback": traceback.format_exc()})
            except Exception:
                pass
        raise SystemExit(1) from exc
    finally:
        if network is not None:
            network.close()
        if control is not None:
            control.close()


def _receive_round(job: _Job, network: SocketNetwork, my_node: str,
                   expect: dict, held: deque,
                   timeout: float) -> tuple[int, int, list]:
    """Await this barrier's batches — ``expect[src]`` many per sender.

    Workers are *not* in lockstep: a fast peer may already have flushed
    its next round while a slow peer's previous-round batch is still in
    flight, so counting frames per **source** is what makes the barrier
    exact — per-link FIFO guarantees the first ``expect[src]`` frames
    from ``src`` are precisely its previous-round flush.  Surplus frames
    (a peer running ahead) are parked in ``held`` for the next barrier.

    Returns ``(new_facts, delivered_facts, retired)`` where ``retired``
    lists one ``[sender, stamp, 1]`` triple per integrated batch.
    """
    needed = {src: count for src, count in expect.items() if count}
    batches: list = []
    retired: list = []

    def _take(frame) -> bool:
        src, _dst, blob = frame
        if needed.get(src, 0) <= 0:
            return False
        needed[src] -= 1
        batch = decode_batch_message(blob, job.registry)
        retired.append([src, batch.stamp, 1])
        batches.append(batch)
        return True

    for frame in list(held):
        if _take(frame):
            held.remove(frame)
    while any(count > 0 for count in needed.values()):
        frame = network.receive(timeout)
        if frame is None:
            missing = {src: count for src, count in needed.items() if count}
            raise ClusterError(
                f"{my_node}: wire went quiet still expecting "
                f"batch(es) {missing}")
        if not _take(frame):
            held.append(frame)
    new_facts = 0
    if batches:
        _check_local_imports(job, my_node, batches)
        new_facts = job.node.integrate(batches)
    return new_facts, sum(map(len, batches)), retired


def _worker_bsp(job: _Job, control: _Channel, network: SocketNetwork,
                batcher: MessageBatcher, sendlog: _SendLog,
                my_node: str, timeout: float) -> None:
    held: deque = deque()
    while True:
        message = control.recv(timeout)
        kind = message.get("type")
        if kind == "stop":
            return
        if kind != "round":
            raise ClusterError(f"unexpected control message {kind!r}")
        number = message["number"]
        expect = message.get("expect", {})
        if number == 0:
            new_facts, delivered, retired = job.node.bootstrap(), 0, []
        else:
            new_facts, delivered, retired = _receive_round(
                job, network, my_node, expect, held, timeout)
        _drained, sent = _drain_and_flush(job, batcher, sendlog,
                                          my_node, number)
        control.send({"type": "flushed", "round": number,
                      "new_facts": new_facts, "delivered": delivered,
                      "sent": sent, "retired": retired})


def _worker_async(job: _Job, control: _Channel, network: SocketNetwork,
                  batcher: MessageBatcher, sendlog: _SendLog,
                  my_node: str, timeout: float) -> None:
    message = control.recv(timeout)
    if message.get("type") != "start":
        raise ClusterError(
            f"unexpected control message {message.get('type')!r}")
    new_facts = job.node.bootstrap()
    next_stamp = 1
    _drained, sent = _drain_and_flush(job, batcher, sendlog, my_node,
                                      next_stamp)
    control.send({"type": "activity", "phase": "bootstrap",
                  "new_facts": new_facts, "delivered": 0,
                  "sent": [[dst, next_stamp, count]
                           for dst, count in sent.items()],
                  "retired": []})
    # No idle watchdog here: a quiet worker is a *healthy* state in a
    # long async run (a pure source node legitimately receives nothing
    # while its peers churn).  Liveness comes from the coordinator — its
    # stall detector aborts a wedged run and closes the control channel,
    # which control.poll() surfaces as NetworkError; and workers are
    # daemon processes, so they can never outlive the coordinator.
    while True:
        for message in control.poll():
            if message.get("type") == "stop":
                return
        frame = network.receive(0.05)
        if frame is None:
            continue
        src, _dst, blob = frame
        batch = decode_batch_message(blob, job.registry)
        stamp = batch.stamp
        _check_local_imports(job, my_node, [batch])
        # The heart of overlap, process-distributed: integrate *now*,
        # flush the consequences immediately, tell the ledger.
        new_facts = job.node.integrate([batch])
        candidate = max(next_stamp, stamp + 1)
        _drained, sent = _drain_and_flush(job, batcher, sendlog,
                                          my_node, candidate)
        if sent:
            next_stamp = candidate
        control.send({"type": "activity", "phase": "exchange",
                      "new_facts": new_facts, "delivered": len(batch),
                      "sent": [[dst, candidate, count]
                               for dst, count in sent.items()],
                      "retired": [[src, stamp, 1]]})


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------

class _Coordinator:
    """Spawns workers, drives the schedule, owns the ticket ledger."""

    def __init__(self, spec: dict, mode: str = MODE_BSP,
                 max_rounds: int = 500, timeout: float = DEFAULT_TIMEOUT,
                 max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
                 host: str = "127.0.0.1") -> None:
        if mode not in SCHEDULER_MODES:
            raise ClusterError(
                f"unknown scheduler mode {mode!r}; pick one of "
                f"{'/'.join(SCHEDULER_MODES)}")
        self.spec = spec
        self.mode = mode
        self.max_rounds = max_rounds
        self.timeout = timeout
        self.max_batch_bytes = max_batch_bytes
        self.host = host
        self.nodes = spec_nodes(spec)
        if len(self.nodes) < 1:
            raise ClusterError("a launch needs at least one node")
        self.ledger = TicketLedger()
        self.channels: dict[str, _Channel] = {}
        self.processes: list = []
        self._epoch = 0.0

    # -- lifecycle -----------------------------------------------------

    def run(self) -> LaunchReport:
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            listener.bind((self.host, 0))
            listener.listen(len(self.nodes))
            port = listener.getsockname()[1]
            context = multiprocessing.get_context("spawn")
            for name in self.nodes:
                process = context.Process(
                    target=_worker_entry, args=(self.host, port, name),
                    name=f"repro-node-{name}", daemon=True)
                process.start()
                self.processes.append(process)
            self._rendezvous(listener)
            self._epoch = time.monotonic()
            report = LaunchReport(kind=self.spec["kind"],
                                  procs=len(self.nodes))
            report.runtime.mode = self.mode
            if self.mode == MODE_ASYNC:
                self._run_async(report.runtime)
            else:
                self._run_bsp(report.runtime)
            self._collect(report)
            report.runtime.virtual_time = self._clock()
            report.runtime.convergence_time = self.ledger.convergence_clock()
            return report
        finally:
            listener.close()
            for channel in self.channels.values():
                channel.close()
            for process in self.processes:
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
                    process.join(timeout=5.0)

    def _clock(self) -> float:
        return time.monotonic() - self._epoch

    def _rendezvous(self, listener: socket.socket) -> None:
        listener.settimeout(self.timeout)
        pending = set(self.nodes)
        addresses: dict[str, tuple] = {}
        try:
            while pending:
                conn, _addr = listener.accept()
                channel = _Channel(conn, send_timeout=self.timeout)
                hello = channel.recv(self.timeout)
                self._check_worker(hello)
                name = hello.get("node")
                if hello.get("type") != "hello" or name not in pending:
                    raise ClusterError(f"bad rendezvous hello: {hello!r}")
                pending.discard(name)
                self.channels[name] = channel
                addresses[name] = (hello["host"], hello["port"])
        except socket.timeout as exc:
            raise ClusterError(
                f"worker(s) {sorted(pending)} never reported within "
                f"{self.timeout}s") from exc
        for name, channel in self.channels.items():
            channel.send({"type": "spec", "spec": self.spec,
                          "mode": self.mode, "timeout": self.timeout,
                          "max_batch_bytes": self.max_batch_bytes,
                          "peers": {peer: list(addr)
                                    for peer, addr in addresses.items()}})
        for name, channel in self.channels.items():
            ready = channel.recv(self.timeout)
            self._check_worker(ready)
            if ready.get("type") != "ready":
                raise ClusterError(f"worker {name} sent {ready!r}")

    def _check_worker(self, message: dict) -> None:
        if message.get("type") == "error":
            raise ClusterError(
                f"worker {message.get('node')} failed: "
                f"{message.get('error')}\n{message.get('traceback', '')}")

    # -- BSP barriers --------------------------------------------------

    def _run_bsp(self, runtime: RuntimeReport) -> None:
        #: dst -> src -> batches the next barrier must await (per-source:
        #: a fast peer's round-N frames can be on the wire before a slow
        #: peer's round-N-1 ones; only per-link FIFO counts are exact)
        expect: dict[str, dict] = {name: {} for name in self.nodes}
        number = 0
        while True:
            for name, channel in self.channels.items():
                channel.send({"type": "round", "number": number,
                              "expect": expect[name]})
            next_expect: dict[str, dict] = {name: {} for name in self.nodes}
            round_new = 0
            round_sent = 0
            delivered_any = False
            for name, channel in self.channels.items():
                reply = channel.recv(self.timeout)
                self._check_worker(reply)
                if reply.get("type") != "flushed":
                    raise ClusterError(f"worker {name} sent {reply!r}")
                round_new += reply["new_facts"]
                runtime.new_facts += reply["new_facts"]
                runtime.delivered_facts += reply.get("delivered", 0)
                if reply.get("delivered"):
                    delivered_any = True
                for sender, stamp, count in reply.get("retired", ()):
                    self.ledger.retire(stamp, count=count, sender=sender)
                for dst, count in reply.get("sent", {}).items():
                    self.ledger.issue(number, count=count, sender=name)
                    per_src = next_expect.setdefault(dst, {})
                    per_src[name] = per_src.get(name, 0) + count
                    round_sent += count
            self.ledger.close_round(number, round_new, self._clock())
            if round_sent:
                runtime.depth += 1
            if delivered_any:
                runtime.productive_rounds += 1
            runtime.rounds = number + 1
            if self.ledger.quiescent():
                break
            number += 1
            if number > self.max_rounds:
                raise ClusterError(
                    f"launch did not quiesce within {self.max_rounds} "
                    f"rounds")
            expect = next_expect

    # -- async overlap -------------------------------------------------

    def _run_async(self, runtime: RuntimeReport) -> None:
        for channel in self.channels.values():
            channel.send({"type": "start"})
        bootstrapped: set = set()
        deferred: list = []
        sockets = {channel.sock: (name, channel)
                   for name, channel in self.channels.items()}
        deadline = time.monotonic() + self.timeout
        while True:
            readable, _, _ = select.select(list(sockets), [], [], 0.05)
            progressed = False
            for sock in readable:
                name, channel = sockets[sock]
                for message in channel.poll():
                    progressed = True
                    self._apply_activity(name, message, runtime,
                                         bootstrapped, deferred)
            if progressed:
                deadline = time.monotonic() + self.timeout
                # Deferred retires: a receiver's report can overtake its
                # sender's on the two control channels; retry now that
                # more issues may have landed.
                still: list = []
                for sender, stamp, count in deferred:
                    for _ in range(count):
                        if not self.ledger.retire_guarded(stamp,
                                                          sender=sender):
                            still.append([sender, stamp, 1])
                deferred = still
            if (len(bootstrapped) == len(self.nodes) and not deferred
                    and not self.ledger.outstanding()):
                break
            if time.monotonic() > deadline:
                raise ClusterError(
                    f"async launch stalled: {self.ledger.outstanding()} "
                    f"ticket(s) outstanding, {len(deferred)} deferred, "
                    f"{len(bootstrapped)}/{len(self.nodes)} bootstrapped")
            # the cap is on what ``rounds`` reports: causal depth, the
            # deepest stamp any worker has sent under
            if runtime.depth > self.max_rounds:
                raise ClusterError(
                    f"async launch did not quiesce within causal depth "
                    f"{self.max_rounds}")
        self.ledger.close_quiet(self._clock())
        runtime.rounds = runtime.depth
        runtime.productive_rounds = runtime.events

    def _apply_activity(self, name: str, message: dict,
                        runtime: RuntimeReport, bootstrapped: set,
                        deferred: list) -> None:
        self._check_worker(message)
        if message.get("type") != "activity":
            raise ClusterError(f"worker {name} sent {message!r}")
        if message.get("phase") == "bootstrap":
            bootstrapped.add(name)
        else:
            runtime.events += 1
        runtime.new_facts += message.get("new_facts", 0)
        runtime.delivered_facts += message.get("delivered", 0)
        # Issues strictly before retires: an activity message is atomic,
        # and its retires may reference its own sends' predecessors.
        for _dst, stamp, count in message.get("sent", ()):
            self.ledger.issue(stamp, count=count, sender=name)
            runtime.depth = max(runtime.depth, stamp)
        for sender, stamp, count in message.get("retired", ()):
            for _ in range(count):
                if not self.ledger.retire_guarded(stamp, sender=sender):
                    deferred.append([sender, stamp, 1])

    # -- final collection ----------------------------------------------

    def _collect(self, report: LaunchReport) -> None:
        from ..meta.registry import RuleRegistry

        registry = RuleRegistry()
        for channel in self.channels.values():
            channel.send({"type": "stop"})
        for name, channel in self.channels.items():
            reply = channel.recv(self.timeout)
            self._check_worker(reply)
            if reply.get("type") != "report":
                raise ClusterError(f"worker {name} sent {reply!r}")
            node_report = reply.get("node_report", {})
            report.per_node.append(NodeReport(
                name=name,
                derivations=node_report.get("derivations", 0),
                new_facts=node_report.get("new_facts", 0),
                sent_facts=node_report.get("sent_facts", 0),
                received_facts=node_report.get("received_facts", 0),
                db_facts=node_report.get("db_facts", 0),
            ))
            report.runtime.messages += reply.get("messages", 0)
            report.runtime.bytes += reply.get("bytes", 0)
            report.delivered += reply.get("delivered", 0)
            report.rejected += reply.get("rejected", 0)
            for pred, facts in reply.get("relations", {}).items():
                bucket = report.relations.setdefault(pred, set())
                for fact in facts:
                    bucket.add(tuple(decode_value(v, registry)
                                     for v in fact))
            for principal, relations in reply.get("principals", {}).items():
                per_pred = report.principal_relations.setdefault(
                    principal, {})
                for pred, facts in relations.items():
                    bucket = per_pred.setdefault(pred, set())
                    for fact in facts:
                        bucket.add(tuple(decode_value(v, registry)
                                         for v in fact))
        report.per_node.sort(key=lambda n: n.name)


def launch(spec: dict, mode: str = MODE_BSP, max_rounds: int = 500,
           timeout: float = DEFAULT_TIMEOUT,
           max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES,
           host: str = "127.0.0.1") -> LaunchReport:
    """Run ``spec`` with one OS process per node; block until quiescent.

    The multiprocess entry point: builds a coordinator, spawns the
    workers, drives ``bsp`` barriers or ``async`` overlap to ticket-
    proved quiescence, and returns the merged :class:`LaunchReport`.
    """
    coordinator = _Coordinator(spec, mode=mode, max_rounds=max_rounds,
                               timeout=timeout,
                               max_batch_bytes=max_batch_bytes, host=host)
    return coordinator.run()
