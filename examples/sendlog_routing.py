#!/usr/bin/env python
"""SeNDlog (section 5.2): secure declarative networking.

Runs two authenticated protocols over the simulated network:

* the paper's s1/s2 reachability program (with the self-announcement
  bootstrap), on a small ring-with-chord topology;
* an authenticated path-vector protocol — the "more complex secure
  networking protocol" the paper says is easy to construct — with
  loop-freedom via path membership checks.

Prints per-node routing state plus network traffic statistics, and shows
location transparency: re-placing two principals onto one physical host
changes traffic, not results.

Run:  python examples/sendlog_routing.py
"""

from repro import LBTrustSystem
from repro.languages.sendlog import install_sendlog

REACHABILITY = """
At S:
s1: reachable(S,D) :- neighbor(S,D).
s1b: reachable(S,D)@S :- neighbor(S,D).
s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).
"""

PATH_VECTOR = """
At S:
p1: path(S,D,P) :- neighbor(S,D), list_nil(E), list_cons(D,E,P0),
    list_cons(S,P0,P).
p1b: path(S,D,P)@S :- path(S,D,P).
p2: path(Z,D,P2)@Z :- neighbor(S,Z), W says path(S,D,P),
    list_not_member(Z,P), list_cons(Z,P,P2).
"""

TOPOLOGY = [("n0", "n1"), ("n1", "n2"), ("n2", "n3"), ("n3", "n0"),
            ("n0", "n2")]  # ring + one chord


def build(program: str, colocate: bool = False) -> tuple:
    system = LBTrustSystem(auth="hmac", seed=11)
    names = sorted({n for edge in TOPOLOGY for n in edge})
    principals = {}
    for name in names:
        node = "host0" if colocate and name in ("n0", "n1") else name
        principals[name] = system.create_principal(name, node=node)
    install_sendlog(system, program)
    for source, target in TOPOLOGY:
        principals[source].assert_fact("neighbor", (source, target))
        principals[target].assert_fact("neighbor", (target, source))
    report = system.run(max_rounds=60)
    return system, principals, report


def main() -> None:
    print("=== authenticated reachability (paper s1/s2) ===")
    system, principals, report = build(REACHABILITY)
    for name in sorted(principals):
        reached = sorted(d for (s, d) in principals[name].tuples("reachable")
                         if s == name and d != name)
        print(f"  {name} reaches {reached}")
    print(f"  convergence: {report.productive_rounds} rounds, "
          f"{system.network.total.messages} messages, "
          f"{system.network.total.bytes} bytes, "
          f"virtual time {report.virtual_time:.1f}")

    print("\n=== authenticated path-vector ===")
    system, principals, report = build(PATH_VECTOR)
    n3_paths = sorted(
        (d, p) for (s, d, p) in principals["n3"].tuples("path") if s == "n3"
    )
    for destination, path in n3_paths:
        print(f"  n3 -> {destination} via {'-'.join(path)}")
    print(f"  convergence: {report.productive_rounds} rounds, "
          f"{system.network.total.messages} messages")

    print("\n=== location transparency: n0,n1 colocated on host0 ===")
    system, principals, report = build(REACHABILITY, colocate=True)
    reached = sorted(d for (s, d) in principals["n0"].tuples("reachable")
                     if s == "n0" and d != "n0")
    local_link = system.network.link_stats("host0", "host0")
    print(f"  n0 reaches {reached} (same answer)")
    print(f"  host0-local messages (zero latency): {local_link.messages}")


if __name__ == "__main__":
    main()
