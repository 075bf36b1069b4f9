"""The seven workloads: what each builds in set-up, does in a round, and
how a round's outputs are checked.

Every workload is closed-loop and single-threaded: ``ServeClient`` is a
synchronous RPC and ``TrustServer.handle`` is single-threaded, so one
outstanding request measures service time exactly and there is no queue to
model.  A round is a fixed amount of work; ``Clock`` regions are the only
timed code — input generation and oracle checks run outside them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.apps.filesystem import AccessDenied, DistributedFileSystem
from repro.cluster import Cluster, Partitioner
from repro.core.system import LBTrustSystem
from repro.crypto import rsa
from repro.net import SimulatedNetwork, SocketNetwork
from repro.serve import ServeClient, ServeRouter, TrustServer

from . import gen, oracle
from .layers import EVAL_FIELDS
from .tracer import TIMED, UNTIMED

SERVE_PRINCIPAL = "srv"


@dataclass
class Round:
    """One round's measurements.  ``samples`` maps an operation kind to its
    latencies in ms; ``ops`` counts the operations timed, ``attempted``
    those the oracle checked (``failed`` of them wrongly answered)."""

    samples: dict = field(default_factory=dict)
    ops: int = 0
    attempted: int = 0
    failed: int = 0
    counters: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def sample(self, kind: str, ms: float) -> None:
        self.samples.setdefault(kind, []).append(ms)

    def count(self, **values) -> None:
        for key, value in values.items():
            self.counters[key] = self.counters.get(key, 0) + value

    def count_eval(self, *stats) -> None:
        for stat in stats:
            self.count(**{name: getattr(stat, name) for name in EVAL_FIELDS})


class Clock:
    """Accumulates the wall and CPU time of the timed regions of one round,
    lets the calibrator run between them, and tells the tracer which spans
    fall inside them."""

    def __init__(self, calibrator, tracer=None) -> None:
        self.calibrator = calibrator
        self.tracer = tracer
        self.wall_ms = 0.0
        self.cpu_ms = 0.0

    def start(self) -> tuple:
        self.calibrator.tick()
        if self.tracer is not None:
            self.tracer.scope = TIMED
        return time.process_time(), time.perf_counter()

    def stop(self, started: tuple) -> float:
        wall = (time.perf_counter() - started[1]) * 1e3
        self.cpu_ms += (time.process_time() - started[0]) * 1e3
        self.wall_ms += wall
        if self.tracer is not None:
            self.tracer.scope = UNTIMED
        return wall


class Workload:
    """Base: ``setup()`` once per worker, then ``round()`` repeatedly."""

    #: the operation kind ``op_p50_ms`` reports
    primary = ""
    #: the calibration kernel (``worker.KERNELS``) made of this workload's
    #: kind of work
    kernel = "dict"

    def __init__(self, seed: int, pass_index: int, tiny: bool = False) -> None:
        self.seed = seed
        self.rng = gen.rng_for(seed, type(self).__name__, "pass", pass_index)
        if tiny:  # --selftest sizes
            self.shrink()

    def shrink(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def round(self, clock: Clock) -> Round:
        raise NotImplementedError


# -- fig2_* -------------------------------------------------------------------

class Fig2(Workload):
    """Paper Figure 2: alice and bob each say ``k`` facts to the other; a
    fresh pair per round, so nothing carries over."""

    primary = "msg"
    auth = "hmac"
    k = 200

    def shrink(self) -> None:
        self.k = 6

    def round(self, clock: Clock) -> Round:
        out = Round()
        tokens = gen.message_tokens(self.rng, self.k)
        system = LBTrustSystem(auth=self.auth, seed=self.rng.randrange(1 << 30))
        self.provision(system)
        alice = system.create_principal("alice")
        bob = system.create_principal("bob")
        alice.load("gotB(X) <- pong(X).")
        bob.load("gotA(X) <- ping(X).")

        started = clock.start()
        with alice.workspace.transaction():
            for token in tokens:
                ref = alice.intern(f'ping("{token}").')
                alice.workspace.assert_fact("says", ("alice", "bob", ref))
        with bob.workspace.transaction():
            for token in tokens:
                ref = bob.intern(f'pong("{token}").')
                bob.workspace.assert_fact("says", ("bob", "alice", ref))
        report = system.run()
        out.sample("msg", clock.stop(started) / (2 * self.k))

        out.ops = out.attempted = 2 * self.k
        out.failed = oracle.check_fig2(tokens, bob.tuples("gotA"),
                                       alice.tuples("gotB"), report, out.notes)
        out.count(net_messages=report.batches, net_bytes=report.bytes,
                  net_facts=report.delivered,
                  rules_interned=len(system.registry))
        out.count_eval(alice.workspace.stats, bob.workspace.stats)
        return out

    def provision(self, system) -> None:
        pass


class Fig2Rsa(Fig2):
    """Same exchange under RSA-1024 (the paper's key size); one key set per
    worker, generated in set-up.  The keys are part of the input's shape,
    not drawn from ``--seed``: the prime search takes 0.1 to 1 s depending
    on where it starts, and the private exponent's bit pattern sets the
    cost of every signature."""

    auth = "rsa"
    k = 25
    kernel = "pow"

    def setup(self) -> None:
        key_rng = gen.rng_for(gen.SHAPE_SEED, "rsa-keys")
        self.keys = {name: rsa.generate_keypair(1024, key_rng)
                     for name in ("alice", "bob")}

    def provision(self, system) -> None:
        system.rsa_keys.update(self.keys)


# -- serve_* ------------------------------------------------------------------

class Serve(Workload):
    """One long-lived TrustServer behind a ServeRouter on the in-process
    transport, two connections used round-robin from one thread."""

    primary = "query"
    block = "Q" * 98 + "AR"      # 98% queries, 2% membership updates
    round_requests = 100         # short rounds: the calibrator runs between
    sizes = (gen.USERS, gen.GROUPS, gen.OBJECTS)

    def shrink(self) -> None:
        self.sizes = (60, 10, 30)
        self.round_requests = len(self.block)

    def setup(self) -> None:
        self.policy = gen.rbac_policy(self.seed, *self.sizes)
        self.oracle = oracle.RbacOracle(self.policy)
        self.system = LBTrustSystem(auth="plaintext", seed=self.seed)
        principal = self.system.create_principal(SERVE_PRINCIPAL)
        principal.load(gen.RBAC_POLICY)
        with principal.workspace.transaction():
            for pred, facts in self.policy.facts().items():
                principal.workspace.assert_facts(pred, sorted(facts))
        self.workspace = principal.workspace
        self.network = SimulatedNetwork()
        self.server = TrustServer(self.system, self.network)
        router = ServeRouter(self.network, self.server)
        self.clients = [ServeClient(self.network, f"client{i}", router=router,
                                    principal=SERVE_PRINCIPAL, timeout=30.0)
                        for i in range(2)]
        for client in self.clients:
            client.connect()
        self.stream = gen.RequestStream(self.policy, self.rng, self.block)
        # Warm-up, untimed: the live memberships retracts will draw from,
        # and one query of each shape so the magic rewrites are cached —
        # a long-lived server pays those once, not per request.
        warmup = self.stream.prefill() + self.stream.take(len(self.block))
        answers = [self.issue(i, request)[1]
                   for i, request in enumerate(warmup)]
        notes: list = []
        if self.oracle.check_round(warmup, answers, notes):
            raise RuntimeError(f"serve warm-up disagrees with oracle: {notes}")

    def issue(self, index: int, request: tuple) -> tuple:
        """Send one request; returns (latency ms, answer).  The answer is
        the fact list for a query, ``None`` for an applied update, or the
        error text if the call raised."""
        kind, user, target = request
        client = self.clients[index % len(self.clients)]
        started = time.perf_counter()
        try:
            if kind == "query":
                answer = client.query(gen.query_text(user, target))
            elif kind == "assert":
                answer = client.assert_fact("memberOf", (user, target))
            else:
                answer = client.retract_fact("memberOf", (user, target))
        except Exception as exc:  # counted as a failed operation
            answer = f"{type(exc).__name__}: {exc}"
        return (time.perf_counter() - started) * 1e3, answer

    def round(self, clock: Clock) -> Round:
        out = Round()
        requests = self.stream.take(self.round_requests)
        before = self.workspace.stats.copy()
        sent_before = self.network.total.bytes
        replied_before = self.reply_bytes()
        answers = []
        started = clock.start()
        for index, request in enumerate(requests):
            latency, answer = self.issue(index, request)
            out.sample(request[0], latency)
            answers.append(answer)
        clock.stop(started)
        out.ops = out.attempted = len(requests)
        out.failed = self.oracle.check_round(requests, answers, out.notes)
        out.count_eval(self.workspace.stats.diff(before))
        out.count(reply_bytes=self.reply_bytes() - replied_before,
                  net_bytes=self.network.total.bytes - sent_before,
                  net_messages=2 * len(requests))
        return out

    def reply_bytes(self) -> int:
        return sum(self.network.link_stats(self.server.node, client.name).bytes
                   for client in self.clients)


class ServeWrite(Serve):
    """Same server, policy and data; 80% updates (each retract removes an
    earlier assert), 20% queries."""

    primary = "retract"
    block = "AAQRR"
    round_requests = 10


# -- fixpoint_* ---------------------------------------------------------------

class Fixpoint(Workload):
    """``reach`` transitive closure: load → run() → proven quiescence on a
    fresh cluster per round."""

    primary = "fixpoint"
    nodes = 1
    vertices = gen.GRAPH_VERTICES

    def shrink(self) -> None:
        self.vertices = 24

    def setup(self) -> None:
        self.edges = gen.reach_edges(self.seed, self.vertices)
        self.expected = oracle.closure(self.edges)

    def network(self):
        return SimulatedNetwork()

    def round(self, clock: Clock) -> Round:
        out = Round()
        names = [f"node{i}" for i in range(self.nodes)]
        partitioner = Partitioner(names)
        partitioner.hash_partition("edge", column=0)
        partitioner.hash_partition("reach", column=1)
        network = self.network()
        try:
            started = clock.start()
            cluster = Cluster(names, network=network, partitioner=partitioner)
            cluster.load(gen.REACH_PROGRAM)
            for edge in self.edges:
                cluster.assert_fact("edge", edge)
            report = cluster.run()
            out.sample("fixpoint", clock.stop(started))
            reach = cluster.tuples("reach")
        finally:
            close = getattr(network, "close", None)
            if close is not None:
                close()
        out.ops = out.attempted = 1
        out.failed = oracle.check_closure(self.expected, reach, out.notes)
        derivations = [node.derivations for node in report.per_node]
        out.count(net_messages=report.messages, net_bytes=report.bytes,
                  net_facts=report.batched_facts,
                  cluster_rounds=report.rounds,
                  cluster_new_facts=len(reach),
                  max_node_derivations=max(derivations),
                  mean_node_derivations=sum(derivations) / len(derivations))
        out.count_eval(cluster.total_stats())
        return out


class FixpointSharded(Fixpoint):
    """The same program and EDB on four nodes over loopback TCP, all nodes
    in this process (BSP)."""

    nodes = 4

    def network(self):
        return SocketNetwork()


# -- fs_demo ------------------------------------------------------------------

class FsDemo(Workload):
    """The paper's section 9 file system with delegation and authorization
    meta-constraints on: build, read, reconfigure the scheme, read again."""

    primary = "read"

    def round(self, clock: Clock) -> Round:
        out = Round()
        scenario = gen.fs_scenario(self.rng)

        started = clock.start()
        fs = DistributedFileSystem(auth="hmac",
                                   seed=self.rng.randrange(1 << 30))
        fs.add_store(scenario.store)
        fs.add_owner(scenario.owner, mode="delegated")
        fs.add_manager(scenario.manager)
        for requester in scenario.requesters:
            fs.add_requester(requester)
        fs.owner_trusts_manager(scenario.owner, scenario.manager,
                                delegate=True, depth=0)
        for fname, data in scenario.files.items():
            fs.create_file(fname, scenario.owner, scenario.store, data)
        for requester, fname in sorted(scenario.granted):
            fs.manager_grant(scenario.manager, requester, fname, "read")
        fs.system.run()
        principals = len(fs.system.principals)
        out.sample("load", clock.stop(started) / principals)

        self.read_all(fs, scenario, clock, out, first=True)
        started = clock.start()
        fs.system.reconfigure_auth("plaintext")
        fs.system.run()
        out.sample("reconfig", clock.stop(started))
        # The same requests again: what was granted stays granted and what
        # was refused stays refused under the new scheme.
        self.read_all(fs, scenario, clock, out, first=False)

        out.ops = principals + 2 * len(scenario.reads) + 1
        out.attempted = 2 * len(scenario.reads)
        out.count(rules_interned=len(fs.system.registry),
                  net_messages=fs.system.network.total.messages,
                  net_bytes=fs.system.network.total.bytes)
        out.count_eval(*(p.workspace.stats
                         for p in fs.system.principals.values()))
        return out

    def read_all(self, fs, scenario, clock: Clock, out: Round,
                 first: bool) -> None:
        total = 0.0
        for requester, fname in scenario.reads:
            started = clock.start()
            try:
                outcome = fs.read(requester, fname, scenario.store)
            except AccessDenied:
                outcome = None
            latency = clock.stop(started)
            total += latency
            if first:
                allowed = (requester, fname) in scenario.granted
                out.sample("allow" if allowed else "deny", latency)
            out.failed += oracle.check_fs_read(scenario, requester, fname,
                                               outcome, out.notes)
        # A read's cost depends on its place in the round (the first one
        # evaluates what later ones reuse) and on its outcome, so single
        # reads pool into a many-peaked distribution whose median jumps
        # between peaks; the round's mean read is the same mix every round.
        out.sample("read" if first else "reread",
                   total / len(scenario.reads))


WORKLOADS = {
    "fig2_hmac": Fig2,
    "fig2_rsa": Fig2Rsa,
    "serve_read": Serve,
    "serve_write": ServeWrite,
    "fixpoint_local": Fixpoint,
    "fixpoint_sharded": FixpointSharded,
    "fs_demo": FsDemo,
}
