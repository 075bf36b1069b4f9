"""Multiprocess cluster launcher: one OS process per node, real sockets.

Each :class:`~repro.cluster.node.ClusterNode` or
:class:`~repro.core.system.WorkspaceNode` lives in its **own OS
process** and is driven there by the same
:class:`~repro.cluster.scheduler.ExecutionRuntime` that drives
``Cluster`` and ``LBTrustSystem`` in-process — the barrier loop, the
overlap loop, the causal stamps and the round cap exist once, in
``scheduler.py``.  This module adds only what being apart needs.

Topology::

    coordinator ──(control: multiprocessing Pipe)── worker[node0]
        │  │                                          │  ExecutionRuntime
        │  └─────────────────────────────────────── worker[node1]
        │                                             │  ExecutionRuntime
        └─ TicketLedger, merged report       data: SocketNetwork frames,
                                             peer-to-peer ONLY

* **Spawn and rendezvous** — the coordinator spawns one worker per node
  (*spawn* context: genuinely fresh interpreters) and hands it, as
  process arguments, the job spec, the run parameters (mode, round cap,
  batch cap, timeout) and one end of a ``multiprocessing`` pipe; the
  other end is the coordinator's, and no other process holds either, so
  the spec never crosses a socket and no other process can take a
  worker's place.
  Each worker opens its node's data listener, reports ``hello {port}``,
  receives the peer port map, rebuilds its share of the job
  **deterministically from the spec** (same seeds, same creation order —
  so e.g. HMAC secrets agree across processes without ever crossing the
  wire), and confirms ``ready``.

* **Workers run the shared runtime** — ``ExecutionRuntime({node},
  network=link, ledger=link).run(max_rounds)``, and refuse a faulted run
  as ``Cluster.run`` does; the :class:`_Link` is the worker's end of
  both planes, peer-to-peer frames and its control pipe.

* **The control plane is a ledger service** — the coordinator owns the
  real :class:`~repro.cluster.quiescence.TicketLedger` and applies every
  worker's tally to it (``_apply``): once per barrier in ``bsp``, until
  nothing is outstanding in ``async``.  A retire and the issues it
  caused always travel in **one** tally, so the balance can never reach
  zero while consequences are unreported.  A tally also carries the
  faults its worker's run has named since the last one (``decode``,
  ``unknown node``), and the coordinator fails the launch on the first.

Job kinds: ``cluster`` (Datalog shards: node names, placement ops, the
rule program, EDB facts) and ``system`` (an ``LBTrustSystem``:
principals, SeNDlog/Datalog sources, asserted facts, ``says``
statements).  For ``system`` jobs every worker rebuilds the *full*
system — workspaces of remotely-hosted principals exist locally but are
never driven, and a host exports id rows over its process's one
interner, the system registry's (ids never cross the wire: the envelope's
dictionary carries the terms); placement must route each principal's
imports to its hosting node (the standard ``ld1``/``ld2`` predNode
machinery does; a relay-routed import is a named error, see
:class:`_HostedImports`).

Every failure reaches the caller as a named
:class:`~repro.datalog.errors.ClusterError`: a failing worker forwards
its error before it exits, a dead one is named with its exit code (the
coordinator waits on each pipe together with the process sentinel, and
holds no copy of a worker's pipe end, so a death is an EOF).

**What a worker sends back** is the
:class:`~repro.cluster.scheduler.RunReport` its runtime produced
(``as_dict()``: its node's ``per_node`` row, the imports it refused in
``rejected_detail``) plus the spec's ``collect`` predicates as wire
values.  The coordinator merges them into one ``RunReport`` — sums, the
deepest ``depth``, details and rows concatenated, ``rounds`` off the
ledger in ``bsp``, wall-clock seconds for the times, the collected
facts under ``relations`` — equal to the in-process run's field for
field in ``bsp`` mode.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from collections import deque
from multiprocessing.connection import Connection, wait
from typing import Any, Hashable, Optional

from ..datalog.errors import ClusterError
from ..net.batch import DEFAULT_MAX_BATCH_BYTES
from ..net.socket_transport import SocketNetwork
from ..net.transport import decode_facts, encode_facts
from .quiescence import RoundRecord, TicketLedger
from .scheduler import (MODE_ASYNC, MODE_BSP, SCHEDULER_MODES,
                        ExecutionRuntime, RunReport, refuse_faults)

#: Default per-control-message timeout; a worker that stays silent this
#: long is presumed dead and the launch aborts.
DEFAULT_TIMEOUT = 60.0


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
    report should carry (``report.relations[""][pred]``).
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
    into the final report (``report.relations[principal][pred]``, from
    whichever worker hosted the principal).
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
# Worker side
# ---------------------------------------------------------------------------

def _encode_relations(sources: dict, spec: dict, registry) -> dict:
    """The spec's ``collect`` predicates as wire values, ``owner -> pred
    -> facts`` in a deterministic order; ``sources`` maps an owner (a
    principal, or ``""`` for a whole shard) to its ``tuples`` function."""
    return {owner: {pred: encode_facts(tuples(pred), registry)
                    for pred in spec.get("collect", ())}
            for owner, tuples in sources.items()}


def _build_cluster_job(spec: dict, my_node: str) -> tuple:
    """This worker's shard of a ``cluster`` job: ``(node, registry,
    report, sources)`` — the report its run fills in and what
    :func:`_encode_relations` collects from."""
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
    node = cluster.nodes[my_node]
    return node, cluster.registry, RunReport(), {"": node.db.tuples}


def _build_system_job(spec: dict, my_node: str) -> tuple:
    """This worker's host of a ``system`` job, shaped like
    :func:`_build_cluster_job`'s result."""
    from ..core.system import LBTrustSystem, WorkspaceNode
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
    report = RunReport()
    mine = [p for p in system.principals.values() if p.node == my_node]
    host = WorkspaceNode(system, my_node, mine, report)
    return (_HostedImports(host), system.registry, report,
            {p.name: p.tuples for p in mine})


class _HostedImports:
    """A worker's :class:`~repro.core.system.WorkspaceNode`, refusing
    relay-routed imports a single worker cannot apply soundly.

    In-process, an import for a principal hosted elsewhere is swept to
    that host's outbox by the scheduler; across processes the canonical
    workspace lives in another worker, so importing into the local
    replica would silently fork it.  All but ``integrate`` is the node's.
    """

    def __init__(self, node) -> None:
        self.node = node

    def __getattr__(self, name: str) -> Any:
        return getattr(self.node, name)

    def integrate(self, batches: list) -> int:
        principals = self.node.system.principals
        for batch in batches:
            for to in {batch.names[block[0]] for block in batch.blocks}:
                principal = principals.get(to)
                if principal is not None and principal.node != self.node.name:
                    raise ClusterError(
                        f"relay-routed import: principal {to!r} is hosted "
                        f"on {principal.node!r}, not {self.node.name!r}; "
                        f"multiprocess placements must route imports to "
                        f"the hosting node")
        return self.node.integrate(batches)


def _expect(control: Connection, kind: str, timeout: float) -> dict:
    """The coordinator's next control message, which must be a ``kind``."""
    try:
        if not control.poll(timeout):
            raise ClusterError(
                f"no {kind!r} from the coordinator within {timeout}s")
        message = control.recv()
    except (EOFError, OSError) as exc:
        raise ClusterError("the coordinator closed the control pipe") from exc
    if message.get("type") != kind:
        raise ClusterError(f"unexpected control message {message!r}")
    return message


class _Link(TicketLedger):
    """A worker's end of both planes: the network *and* the ledger its
    :class:`~repro.cluster.scheduler.ExecutionRuntime` runs against.

    As a network it sends on the worker's :class:`SocketNetwork` and
    hands the runtime exactly the frames the schedule is due.  As a
    ledger it only *tallies* — tickets issued per ``(dst, stamp)``,
    batches retired per ``(sender, stamp)`` — and ships each tally to
    the coordinator, whose real :class:`TicketLedger` decides
    quiescence; a retire and the issues it caused always leave in one
    message, with the ``faults`` the run has named since the last.  The
    ``rounds`` trail it keeps is this worker's own share, so whether a
    round was :meth:`quiet` is the coordinator's answer, never its own.
    """

    def __init__(self, network: SocketNetwork, control: Connection,
                 timeout: float, faults: list) -> None:
        super().__init__()
        self.network = network
        self.control = control
        self.timeout = timeout
        self.faults = faults       # the run's RunReport.faults
        self._reported = 0         # how many of them were tallied
        self._dst = ""             # where the send being ticketed went
        self._sent: dict = {}      # (dst, stamp) -> batches since last tally
        self._retired: list = []   # [sender, stamp] per batch since then
        self._expect: dict = {}    # sender -> frames the next barrier takes
        self._parked: deque = deque()  # a peer running ahead: for later
        self._verdict = False      # the coordinator's: quiescent

    # -- network surface ------------------------------------------------

    clock = property(lambda self: self.network.clock)
    total = property(lambda self: self.network.total)

    def send(self, src: str, dst: str, payload: bytes) -> None:
        self.network.send(src, dst, payload)
        self._dst = dst

    def pending(self) -> int:
        return len(self._parked)

    def deliver_all(self) -> list:
        """This barrier's frames — ``expect[src]`` many per sender.

        Workers are *not* in lockstep: a fast peer may already have
        flushed its next round while a slow peer's previous-round batch
        is still in flight, so frames are counted per **source** —
        per-link FIFO makes the first ``expect[src]`` frames from
        ``src`` exactly its previous-round flush.  Surplus is parked.
        """
        needed = dict(self._expect)
        frames: list = []
        waiting, self._parked = self._parked, deque()
        while waiting or any(needed.values()):
            frame = waiting.popleft() if waiting \
                else self.network.receive(self.timeout)
            if frame is None:
                missing = {src: n for src, n in needed.items() if n}
                raise ClusterError(
                    f"wire went quiet still expecting batch(es) {missing}"
                    f"{self.network.drop_note()}")
            if needed.get(frame[0]):
                needed[frame[0]] -= 1
                frames.append(frame)
            else:
                self._parked.append(frame)
        return frames

    def deliver_next(self) -> Optional[tuple]:
        """Report what the last delivery did, then the next frame —
        ``None`` once the coordinator has proved the run quiescent.

        No idle watchdog: a quiet worker is *healthy* in a long run (a
        pure source node receives nothing while its peers churn).  The
        coordinator's stall detector aborts a wedged run and closes its
        pipe ends, which reads here as a closed control pipe.
        """
        self._tally(0)
        while not self.control.poll():
            frame = self.network.receive(0.05)
            if frame is not None:
                return frame
        _expect(self.control, "stop", 0)
        self._verdict = True
        return None

    # -- ledger surface -------------------------------------------------

    def issue(self, round_stamp: int, count: int = 1,
              sender: Optional[Hashable] = None) -> None:
        key = (self._dst, round_stamp)
        self._sent[key] = self._sent.get(key, 0) + count

    def retire(self, round_stamp: int, count: int = 1,
               sender: Optional[Hashable] = None) -> None:
        self._retired += [[sender, round_stamp]] * count

    def retire_guarded(self, round_stamp: int,
                       sender: Optional[Hashable] = None) -> bool:
        """Tally the retire: the coordinator's ledger validates it."""
        self.retire(round_stamp, sender=sender)
        return True

    def _tally(self, new_facts: int) -> None:
        tally = {"type": "tally", "new_facts": new_facts,
                 "sent": [[dst, stamp, count]
                          for (dst, stamp), count in self._sent.items()],
                 "retired": self._retired}
        if len(self.faults) > self._reported:
            tally["faults"] = self.faults[self._reported:]
            self._reported = len(self.faults)
        self.control.send(tally)
        self._sent, self._retired = {}, []

    def close_round(self, number: int, new_facts: int,
                    clock: float) -> RoundRecord:
        """Ship this barrier's tally; block on the coordinator's verdict
        and the frame counts the next barrier must await."""
        record = RoundRecord(number, sum(self._sent.values()),
                             len(self._retired), new_facts, clock)
        self._tally(new_facts)
        reply = _expect(self.control, "round", self.timeout)
        self._verdict = reply["quiescent"]
        self._expect = reply["expect"]
        self.rounds.append(record)
        return record

    def quiet(self) -> bool:
        """The coordinator's verdict: a worker's own quiet round is not
        a global one.  (The link's own ticket balance is always zero, so
        :meth:`quiescent` is this verdict too.)"""
        return self._verdict


def _worker_entry(control: Connection, my_node: str, spec: dict, mode: str,
                  timeout: float, max_rounds: int,
                  max_batch_bytes: int) -> None:
    """Worker process main: rendezvous, build, run the runtime, report."""
    network: Optional[SocketNetwork] = None
    try:
        network = SocketNetwork()
        network.add_node(my_node)
        control.send({"type": "hello", "port": network.port_of(my_node)})
        peers = _expect(control, "peers", timeout)["peers"]
        for name, port in peers.items():
            if name != my_node:
                network.add_remote(name, network.host, port)
        build = {"cluster": _build_cluster_job,
                 "system": _build_system_job}.get(spec["kind"])
        if build is None:
            raise ClusterError(f"unknown job kind {spec['kind']!r}")
        node, registry, report, sources = build(spec, my_node)
        link = _Link(network, control, timeout, report.faults)
        runtime = ExecutionRuntime(
            {my_node: node}, link, registry, mode=mode,
            max_batch_bytes=max_batch_bytes, ledger=link)
        control.send({"type": "ready"})
        report = refuse_faults(runtime.run(max_rounds, report))
        control.send({"type": "report", "report": report.as_dict(),
                      "relations": _encode_relations(sources, spec,
                                                     registry)})
    except BaseException as exc:  # noqa: BLE001 - forwarded to coordinator
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
        control.close()


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------

#: RunReport fields that are the sum of the workers' own
_SUMMED = ("events", "messages", "batched_facts", "bytes", "new_facts",
           "delivered_facts", "delivered", "rejected")


class _Coordinator:
    """Spawns workers, serves them the ticket ledger, merges reports."""

    def __init__(self, spec: dict, mode: str = MODE_BSP,
                 max_rounds: int = 500, timeout: float = DEFAULT_TIMEOUT,
                 max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES) -> None:
        if mode not in SCHEDULER_MODES:
            raise ClusterError(
                f"unknown scheduler mode {mode!r}; pick one of "
                f"{'/'.join(SCHEDULER_MODES)}")
        self.spec = spec
        self.mode = mode
        self.max_rounds = max_rounds
        self.timeout = timeout
        self.max_batch_bytes = max_batch_bytes
        self.nodes = spec_nodes(spec)
        if len(self.nodes) < 1:
            raise ClusterError("a launch needs at least one node")
        self.ledger = TicketLedger()
        #: retires whose issue has not been reported yet: a receiver's
        #: tally can overtake its sender's on the two control pipes
        self.deferred: list = []
        #: worker -> the coordinator's end of its control pipe
        self.conns: dict[str, Connection] = {}
        self.processes: dict = {}
        self._epoch = 0.0

    # -- lifecycle -----------------------------------------------------

    def run(self) -> RunReport:
        context = multiprocessing.get_context("spawn")
        try:
            for name in self.nodes:
                self.conns[name], theirs = context.Pipe()
                process = context.Process(
                    target=_worker_entry,
                    args=(theirs, name, self.spec, self.mode, self.timeout,
                          self.max_rounds, self.max_batch_bytes),
                    name=f"repro-node-{name}", daemon=True)
                try:
                    process.start()
                finally:
                    theirs.close()  # the worker's alone: its exit is our EOF
                self.processes[name] = process
            self._rendezvous()
            self._epoch = time.monotonic()
            if self.mode == MODE_ASYNC:
                self._serve_async()
            else:
                self._serve_bsp()
            report = self._collect()
            report.virtual_time = self._clock()
            report.quiescent = self.ledger.quiescent()
            report.convergence_time = self.ledger.convergence_clock()
            return report
        finally:
            for conn in self.conns.values():
                conn.close()
            for process in self.processes.values():
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - hung worker
                    process.terminate()
                    process.join(timeout=5.0)

    def _clock(self) -> float:
        return time.monotonic() - self._epoch

    def _rendezvous(self) -> None:
        """Gather every worker's data port, hand out the map, await
        ``ready`` from each."""
        ports = {name: self._recv(name, "hello")["port"]
                 for name in self.nodes}
        for name in self.nodes:
            self._send(name, {"type": "peers", "peers": ports})
        for name in self.nodes:
            self._recv(name, "ready")

    # -- control pipes ---------------------------------------------------

    def _send(self, name: str, message: dict) -> None:
        try:
            self.conns[name].send(message)
        except OSError as exc:  # the worker's end is gone
            raise self._lost(name, f"control send failed: {exc}") from exc

    def _recv(self, name: str, kind: str) -> dict:
        """Worker ``name``'s next control message, which must be a
        ``kind``; a dead or silent worker is a named ``ClusterError``."""
        if not wait(self._waitables(name), self.timeout):
            raise self._lost(name, f"no message within {self.timeout}s")
        return self._checked(name, kind, self._read(name))

    def _waitables(self, name: str) -> list:
        """Worker ``name``'s pipe and, once spawned, its process sentinel."""
        process = self.processes.get(name)
        return [self.conns[name]] + ([process.sentinel] if process else [])

    def _read(self, name: str) -> dict:
        """The message worker ``name``'s pipe holds, once :func:`wait`
        found the pipe or the process ready; none (EOF, or an exit that
        left nothing) is the worker's loss."""
        conn = self.conns[name]
        try:
            if conn.poll():
                return conn.recv()
        except (EOFError, OSError):
            pass
        raise self._lost(name, "control pipe closed")

    def _checked(self, name: str, kind: str, message: dict) -> dict:
        if message.get("type") == "error":
            raise ClusterError(
                f"worker {message.get('node')} failed: "
                f"{message.get('error')}\n{message.get('traceback', '')}")
        if message.get("type") != kind:
            raise ClusterError(
                f"worker {name} sent {message!r}, expected {kind!r}")
        return message

    def _lost(self, name: str, reason: str) -> ClusterError:
        process = self.processes.get(name)
        if process is not None:
            process.join(timeout=1.0)  # a dying worker: let it finish
        return ClusterError(f"worker {name} lost: {reason} (process exit "
                            f"code {process and process.exitcode})")

    # -- the ledger service ----------------------------------------------

    def _apply(self, name: str, tally: dict) -> None:
        """Apply one tally to the ledger, issues strictly before retires:
        a tally is atomic, and its retires may reference its own sends'
        predecessors.  Retires still unmatched stay deferred and are
        retried with every later tally.  A tally that names a fault
        fails the launch with the worker's name and the fault's text."""
        faults = tally.get("faults")
        if faults:
            raise ClusterError(f"worker {name} failed: {faults[0][1]}")
        for _dst, stamp, count in tally["sent"]:
            self.ledger.issue(stamp, count=count, sender=name)
        self.deferred = [
            [sender, stamp] for sender, stamp in self.deferred + tally["retired"]
            if not self.ledger.retire_guarded(stamp, sender=sender)]

    def _serve_bsp(self) -> None:
        """One ledger record per barrier: gather every worker's tally,
        close the round, answer each worker with the verdict and the
        frames its next barrier awaits — counted per **source**, since a
        fast peer's round-N frames can be on the wire before a slow
        peer's round-N-1 ones and only per-link FIFO counts are exact.
        The verdict is each worker's ``quiet()``: here a quiet round is
        a quiescent one, since a frame that never lands stops its
        receiver's barrier and an unreadable one fails the launch."""
        while True:
            expect: dict[str, dict] = {name: {} for name in self.nodes}
            new_facts = 0
            for name in self.nodes:
                tally = self._recv(name, "tally")
                new_facts += tally["new_facts"]
                self._apply(name, tally)
                for dst, _stamp, count in tally["sent"]:
                    expect[dst][name] = expect[dst].get(name, 0) + count
            if self.deferred:
                raise ClusterError(
                    f"batch(es) integrated that no worker reported "
                    f"sending: {self.deferred}")
            self.ledger.close_round(len(self.ledger.rounds), new_facts,
                                    self._clock())
            quiescent = self.ledger.quiescent()
            for name in self.nodes:
                self._send(name, {"type": "round", "quiescent": quiescent,
                                  "expect": expect[name]})
            if quiescent:
                return

    def _serve_async(self) -> None:
        """Watch the ticket balance until every worker has bootstrapped
        (sent its first tally), nothing is deferred and nothing is
        outstanding; then tell the workers to stop."""
        reported: set = set()
        owners = {ready: name for name in self.nodes
                  for ready in self._waitables(name)}
        deadline = time.monotonic() + self.timeout
        while (len(reported) < len(self.nodes) or self.deferred
               or self.ledger.outstanding()):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ClusterError(
                    f"async launch stalled: {self.ledger.outstanding()} "
                    f"ticket(s) outstanding, {len(self.deferred)} deferred, "
                    f"{len(reported)}/{len(self.nodes)} bootstrapped")
            for ready in wait(list(owners), remaining):
                name = owners[ready]
                self._apply(name, self._checked(name, "tally",
                                                self._read(name)))
                reported.add(name)
                deadline = time.monotonic() + self.timeout
        self.ledger.close_quiet(self._clock())
        for name in self.nodes:
            self._send(name, {"type": "stop"})

    # -- final collection ----------------------------------------------

    def _collect(self) -> RunReport:
        """Merge each worker's own report into one :class:`RunReport`."""
        from ..meta.registry import RuleRegistry

        registry = RuleRegistry()
        report = RunReport(mode=self.mode)
        for name in sorted(self.nodes):
            reply = self._recv(name, "report")
            share = RunReport(**reply["report"])
            for key in _SUMMED:
                setattr(report, key, getattr(report, key) + getattr(share, key))
            report.depth = max(report.depth, share.depth)
            report.rejected_detail += share.rejected_detail
            report.per_node += share.per_node
            for owner, relations in reply["relations"].items():
                merged = report.relations.setdefault(owner, {})
                for pred, facts in relations.items():
                    merged.setdefault(pred, set()).update(
                        decode_facts(facts, registry))
        if self.mode == MODE_ASYNC:
            # causal depth *is* the round quantity under overlap
            report.rounds = report.depth
            report.productive_rounds = report.events
        else:
            # a worker knows only its own flushes; the ledger saw them all
            records = self.ledger.rounds
            report.rounds = len(records)
            report.depth = sum(1 for record in records if record.issued)
            report.productive_rounds = sum(
                1 for record in records if record.retired)
        return report


def launch(spec: dict, mode: str = MODE_BSP, max_rounds: int = 500,
           timeout: float = DEFAULT_TIMEOUT,
           max_batch_bytes: int = DEFAULT_MAX_BATCH_BYTES) -> RunReport:
    """Run ``spec`` with one OS process per node; block until quiescent.

    Spawns the workers — each an :class:`ExecutionRuntime` over its
    one node — serves their tallies from the ticket ledger until it
    proves quiescence, and returns the merged
    :class:`~repro.cluster.scheduler.RunReport`.
    """
    return _Coordinator(spec, mode=mode, max_rounds=max_rounds,
                        timeout=timeout,
                        max_batch_bytes=max_batch_bytes).run()
