"""A10 — serve latency: point requests against the online service.

Everything else in this suite measures *batch* throughput: build a
workload, run to fixpoint, stop the clock.  This workload measures the
PR-6 serving plane the way SAFE-style deployments are judged — per-request
latency under a sustained update:query mix:

* N client connections round-robin requests against one long-lived
  :class:`TrustServer` (open-loop pacing to a target QPS on the socket
  transport; the simulated transport runs unpaced — its clock is virtual);
* updates alternate assert/retract so every cycle exercises semi-naive
  insertion *and* DRed deletion maintenance;
* queries are index reads of the maintained fixpoint — nothing is
  derived on the request path (``derivations`` in the watched stats
  moves only with the updates);
* recorded metrics: ``p50_ms`` / ``p99_ms`` per-request latency, achieved
  ``qps``, and the update/query split.  The CI compare gate checks
  ``p99_ms`` in addition to best-of-N wall time, so serve-latency
  regressions fail the build like throughput regressions do.

Client calls are synchronous RPCs driven from one thread — the "N
clients" are N live connections with interleaved traffic, not N OS
threads; that keeps the measurement free of GIL scheduling noise.
"""

import threading
import time

from benchmarks.harness import benchmark
from repro.core.system import LBTrustSystem
from repro.net import SimulatedNetwork, SocketNetwork
from repro.serve import ServeClient, ServeRouter, TrustServer
from repro.serve.cli import POLICY, SERVE_PRINCIPAL
from repro.serve.metrics import latency_summary


def parse_mix(mix: str) -> tuple:
    """``"1:4"`` → one update then four queries per request cycle."""
    updates, queries = (int(part) for part in mix.split(":"))
    return updates, queries


def build_served_system(auth: str = "plaintext") -> LBTrustSystem:
    system = LBTrustSystem(auth=auth, seed=7)
    system.create_principal(SERVE_PRINCIPAL).load(POLICY)
    return system


def drive(clients, requests, mix, qps, paced) -> dict:
    """Round-robin ``requests`` calls over the client connections.

    Per client, updates alternate assert (a fresh subject) and retract
    (the subject just asserted); queries probe the latest live subject
    with a constant binding shape.  Returns the latency summary dict.
    """
    update_slots, query_slots = parse_mix(mix)
    cycle = update_slots + query_slots
    asserted = [0] * len(clients)  # per-client next subject ordinal
    live = [None] * len(clients)   # per-client retractable subject
    latencies = []
    updates = queries = 0
    started = time.monotonic()
    for j in range(requests):
        client = clients[j % len(clients)]
        index = j % len(clients)
        if paced and qps > 0:
            scheduled = started + j / qps
            delay = scheduled - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        begin = time.monotonic()
        if j % cycle < update_slots:
            if live[index] is None:
                subject = f"u{index}_{asserted[index]}"
                asserted[index] += 1
                client.assert_fact("good", (subject,))
                live[index] = subject
            else:
                client.retract_fact("good", (live[index],))
                live[index] = None
            updates += 1
        else:
            subject = live[index] or f"u{index}_{max(asserted[index] - 1, 0)}"
            client.query(f'access("{subject}",O,"read")')
            queries += 1
        latencies.append(time.monotonic() - begin)
    elapsed = time.monotonic() - started
    summary = latency_summary(latencies, elapsed)
    summary["updates"] = updates
    summary["queries"] = queries
    return summary


_QUICK = [
    {"transport": "simulated", "clients": 2, "qps": 0, "mix": "1:3",
     "requests": 120},
    {"transport": "socket", "clients": 2, "qps": 500, "mix": "1:3",
     "requests": 120},
]
_FULL = [
    {"transport": "simulated", "clients": 4, "qps": 0, "mix": "1:3",
     "requests": 600},
    {"transport": "socket", "clients": 4, "qps": 500, "mix": "1:3",
     "requests": 600},
    {"transport": "socket", "clients": 4, "qps": 500, "mix": "3:1",
     "requests": 600},
]


@benchmark("serve_latency", group="serve", quick=_QUICK, full=_FULL)
def serve_latency(case, transport, clients, qps, mix, requests):
    """Per-request p50/p99 latency of the online authorization service."""
    system = build_served_system()
    workspace = system.principal(SERVE_PRINCIPAL).workspace
    case.watch(workspace.stats)
    if transport == "socket":
        server_net = SocketNetwork()
        server = TrustServer(system, server_net, poll_interval=0.005)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        port = server_net.port_of(server.node)
        nets = [SocketNetwork() for _ in range(clients)]
        conns = [ServeClient(net, f"client{i}", timeout=30.0)
                 for i, net in enumerate(nets)]
        try:
            for conn in conns:
                conn.connect(server_host="127.0.0.1", server_port=port)
            with case.measure():
                summary = drive(conns, requests, mix, qps, paced=True)
            conns[0].shutdown()
            thread.join(timeout=30.0)
        finally:
            for net in nets:
                net.close()
            server_net.close()
    else:
        network = SimulatedNetwork()
        server = TrustServer(system, network)
        router = ServeRouter(network, server)
        conns = [ServeClient(network, f"client{i}", router=router,
                             timeout=30.0) for i in range(clients)]
        for conn in conns:
            conn.connect()
        with case.measure():
            summary = drive(conns, requests, mix, qps, paced=False)
        conns[0].shutdown()
    case.record(
        transport=transport,
        clients=clients,
        target_qps=qps,
        mix=mix,
        p50_ms=round(summary["p50_ms"], 4),
        p99_ms=round(summary["p99_ms"], 4),
        qps=round(summary["qps"], 2),
        requests=summary["requests"],
        updates=summary["updates"],
        queries=summary["queries"],
    )
