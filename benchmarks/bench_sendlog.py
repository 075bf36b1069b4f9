"""A7 — SeNDlog convergence: messages and virtual time vs network size.

The section 5.2 reachability protocol on rings of growing size; the
``sendlog_convergence`` workload records wall time and the
rounds/messages/bytes/virtual-time scaling.
"""

from benchmarks.harness import benchmark
from repro import LBTrustSystem
from repro.languages.sendlog import install_sendlog

REACHABILITY = """
At S:
s1: reachable(S,D) :- neighbor(S,D).
s1b: reachable(S,D)@S :- neighbor(S,D).
s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).
"""


def build_ring(size, auth="hmac"):
    system = LBTrustSystem(auth=auth, seed=11)
    names = [f"n{i}" for i in range(size)]
    principals = {n: system.create_principal(n) for n in names}
    install_sendlog(system, REACHABILITY)
    for i in range(size):
        a, b = names[i], names[(i + 1) % size]
        principals[a].assert_fact("neighbor", (a, b))
        principals[b].assert_fact("neighbor", (b, a))
    return system, principals


def converge(system, principals):
    system.run(max_rounds=80)
    size = len(principals)
    for name, principal in principals.items():
        reached = {d for (s, d) in principal.tuples("reachable") if s == name}
        assert len(reached | {name}) == size


@benchmark("sendlog_ring", group="sendlog",
           quick=[{"size": 4}],
           full=[{"size": 4}, {"size": 6}, {"size": 8}])
def sendlog_ring(case, size):
    """SeNDlog reachability to convergence on an hmac-authenticated ring."""
    system, principals = build_ring(size)
    for principal in principals.values():
        case.watch(principal.workspace.stats)
    with case.measure():
        converge(system, principals)
    case.record(messages=system.network.total.messages,
                bytes=system.network.total.bytes)


@benchmark("sendlog_convergence", group="sendlog", repeats=2,
           quick=[{"size": 4}, {"size": 6}],
           full=[{"size": size} for size in range(3, 11)])
def sendlog_convergence(case, size):
    """Rounds/messages/bytes/virtual-time to converge a reachability ring."""
    system, principals = build_ring(size)
    for principal in principals.values():
        case.watch(principal.workspace.stats)
    with case.measure():
        report = system.run(max_rounds=100)
    for name, principal in principals.items():
        reached = {d for (s, d) in principal.tuples("reachable") if s == name}
        assert len(reached | {name}) == size, (name, reached)
    case.record(rounds=report.productive_rounds,
                messages=system.network.total.messages,
                bytes=system.network.total.bytes,
                virtual_time=report.virtual_time)
