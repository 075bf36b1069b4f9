"""``repro serve`` — run the online authorization service end to end.

Starts a long-lived :class:`TrustServer` over the chosen transport, drives
a scripted update+query session through :class:`ServeClient` instances,
and verifies four things before reporting latency figures:

* every point query answered exactly the expected fact set (the same
  answers a batch fixpoint read would give);
* an update the policy forbids is refused and leaves no trace;
* retractions went through DRed incremental maintenance — the server's
  ``dred_strata`` counter grew (a workspace has no other way to maintain
  a deletion, so there is nothing else to rule out);
* queries are reads of the maintained fixpoint — a closing sweep of
  queries against the quiescent server moved ``derivations`` by zero.

Exit status 0 means all checks passed and the server shut down cleanly;
1 means a check failed — which is what the CI ``serve-smoke`` job gates
on.  ``--procs N`` runs N client OS processes against a real socket
server (one process per client, spawn context), mirroring the cluster
launcher's deployment shape.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import threading
import time
from typing import Optional, TextIO

from ..core.system import LBTrustSystem
from ..datalog.errors import ServeError
from ..net.network import SimulatedNetwork
from ..net.socket_transport import SocketNetwork
from .client import ServeClient, ServeRouter
from .metrics import latency_summary
from .server import TrustServer

#: The served policy: two objects and one derived authorization rule, so
#: every query exercises a join and every retraction exercises DRed; and
#: one constraint, so a session can have an update refused.
POLICY = """
object("f1"). object("f2"). banned("mallory").
access(P,O,"read") <- good(P), object(O).
good(P) -> !banned(P).
"""

SERVE_PRINCIPAL = "srv"

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Online authorization service: scripted update+query "
                    "session with self-checked answers and latency summary",
    )
    parser.add_argument("--transport", choices=["simulated", "socket"],
                        default="simulated",
                        help="simulated: in-process virtual clock; socket: "
                             "real TCP frames (default simulated)")
    parser.add_argument("--procs", type=int, default=0,
                        help="with --transport socket: run N client OS "
                             "processes, one per client (0 = in-process)")
    parser.add_argument("--clients", type=int, default=2,
                        help="number of scripted clients (default 2; "
                             "--procs overrides)")
    parser.add_argument("--steps", type=int, default=6,
                        help="scripted steps per client; each step is an "
                             "assert + query, every 4th (and the last) "
                             "also retract + re-query (default 6)")
    parser.add_argument("--auth", default="plaintext",
                        choices=["plaintext", "hmac", "rsa", "mixed"],
                        help="authentication scheme for the served system")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="per-call client timeout in seconds")
    return parser


def run_session(client: ServeClient, index: int, steps: int) -> dict:
    """One client's scripted session: assert, query, periodically retract
    (and once, untimed, an assert the policy must refuse).

    Subjects are namespaced by client index, so concurrent sessions never
    touch each other's facts and every expectation is exact.
    """
    latencies: list = []
    failures: list = []
    updates = queries = refused = 0

    def timed(call):
        start = time.monotonic()
        result = call()
        latencies.append(time.monotonic() - start)
        return result

    for k in range(steps):
        subject = f"u{index}_{k}"
        timed(lambda: client.assert_fact("good", (subject,)))
        updates += 1
        want = {(subject, "f1", "read"), (subject, "f2", "read")}
        got = set(timed(lambda: client.query(f'access("{subject}",O,"read")')))
        queries += 1
        if got != want:
            failures.append(f"client {index} step {k}: got {sorted(got)!r}")
        if k == 0:
            try:
                client.assert_fact("good", ("mallory",))
            except ServeError as exc:
                refused = int("ConstraintViolation" in str(exc))
            if not refused or set(client.query(
                    f'access("{subject}",O,"read")')) != got:
                failures.append(f"client {index}: a banned subject was not "
                                f"refused, or the refusal left a trace")
        if k % 4 == 3 or k == steps - 1:  # always exercise DRed at least once
            timed(lambda: client.retract_fact("good", (subject,)))
            updates += 1
            got = set(timed(
                lambda: client.query(f'access("{subject}",O,"read")')))
            queries += 1
            if got:
                failures.append(f"client {index} step {k}: "
                                f"{sorted(got)!r} after retract")
    return {"index": index, "ok": not failures, "failures": failures,
            "latencies": latencies, "updates": updates, "queries": queries,
            "refused": refused}


def _client_worker(index: int, host: str, port: int, steps: int,
                   timeout: float, queue) -> None:
    """One OS process = one scripted client (spawn-context entry point)."""
    network = SocketNetwork()
    try:
        client = ServeClient(network, f"client{index}", timeout=timeout)
        client.connect(server_host=host, server_port=port)
        result = run_session(client, index, steps)
    except Exception as exc:  # surface, don't hang the coordinator
        result = {"index": index, "ok": False,
                  "failures": [f"{type(exc).__name__}: {exc}"],
                  "latencies": [], "updates": 0, "queries": 0, "refused": 0}
    finally:
        network.close()
    queue.put(result)


def _build_system(auth: str) -> LBTrustSystem:
    system = LBTrustSystem(auth=auth, seed=7)
    system.create_principal(SERVE_PRINCIPAL).load(POLICY)
    return system


def _closing_stats(control: ServeClient, clients: int) -> tuple:
    """The session's closing stats, then one query per client and one
    unbound query against the now-quiescent server: returns the stats and
    the number of derivations those queries caused (zero, for a server
    that answers from the maintained fixpoint)."""
    after = control.stats()
    for index in range(clients):
        control.query(f'access("u{index}_0",O,"read")')
    control.query("access(P,O,M)")
    return after, control.stats()["derivations"] - after["derivations"]


def main(argv: Optional[list] = None, out: Optional[TextIO] = None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)

    def emit(line: str = "") -> None:
        print(line, file=out)

    if args.procs and args.transport != "socket":
        emit("error: --procs requires --transport socket")
        return 2
    if args.clients < 1 or args.steps < 1 or args.procs < 0:
        emit("error: --clients and --steps must be positive")
        return 2
    clients = args.procs if args.procs else args.clients

    system = _build_system(args.auth)
    results: list = []
    started = time.monotonic()

    if args.transport == "simulated":
        network = SimulatedNetwork()
        server = TrustServer(system, network)
        router = ServeRouter(network, server)
        control = ServeClient(network, "control", router=router,
                              timeout=args.timeout)
        control.connect()
        before = control.stats()
        for index in range(clients):
            client = ServeClient(network, f"client{index}", router=router,
                                 timeout=args.timeout)
            client.connect()
            results.append(run_session(client, index, args.steps))
        elapsed = time.monotonic() - started
        after, query_derivations = _closing_stats(control, clients)
        control.shutdown()
    else:
        server_net = SocketNetwork()
        server = TrustServer(system, server_net, poll_interval=0.01)
        port = server_net.port_of(server.node)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        control_net = SocketNetwork()
        control = ServeClient(control_net, "control", timeout=args.timeout)
        control.connect(server_host="127.0.0.1", server_port=port)
        before = control.stats()
        started = time.monotonic()
        if args.procs:
            context = multiprocessing.get_context("spawn")
            queue = context.Queue()
            workers = [context.Process(
                target=_client_worker,
                args=(index, "127.0.0.1", port, args.steps,
                      args.timeout, queue))
                for index in range(clients)]
            for worker in workers:
                worker.start()
            for _ in workers:
                results.append(queue.get(timeout=args.timeout * clients))
            for worker in workers:
                worker.join(timeout=args.timeout)
        else:
            for index in range(clients):
                client_net = SocketNetwork()
                client = ServeClient(client_net, f"client{index}",
                                     timeout=args.timeout)
                client.connect(server_host="127.0.0.1", server_port=port)
                results.append(run_session(client, index, args.steps))
                client_net.close()
        elapsed = time.monotonic() - started
        after, query_derivations = _closing_stats(control, clients)
        control.shutdown()
        thread.join(timeout=args.timeout)
        control_net.close()
        server_net.close()
        if thread.is_alive():
            emit("error: server did not shut down cleanly")
            return 1

    dred_strata = after.get("dred_strata", 0) - before.get("dred_strata", 0)
    latencies = [value for result in results
                 for value in result["latencies"]]
    summary = latency_summary(latencies, elapsed)
    updates = sum(result["updates"] for result in results)
    queries = sum(result["queries"] for result in results)
    refused = sum(result["refused"] for result in results)

    emit(f"serve session: transport={args.transport} clients={clients} "
         f"steps={args.steps} procs={args.procs or 'in-process'}")
    emit(f"requests={summary['requests']} updates={updates} "
         f"refused={refused} queries={queries} elapsed={elapsed:.3f}s qps={summary['qps']:.1f}")
    emit(f"latency p50={summary['p50_ms']:.3f}ms "
         f"p99={summary['p99_ms']:.3f}ms max={summary['max_ms']:.3f}ms")
    emit(f"maintenance: dred_strata=+{dred_strata} "
         f"query_derivations=+{query_derivations}")

    ok = all(result["ok"] for result in results)
    for result in results:
        for failure in result["failures"]:
            emit(f"FAIL: {failure}")
    if dred_strata <= 0:
        emit("FAIL: retractions bypassed DRed maintenance")
        ok = False
    if query_derivations != 0:
        emit("FAIL: queries derived facts instead of reading the fixpoint")
        ok = False
    emit("session checks: OK" if ok else "session checks: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
