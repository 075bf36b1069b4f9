"""SeNDlog on a multi-node cluster: location transparency at scale.

The PR-3 acceptance bar: existing SeNDlog programs must produce
*identical* results whether every principal has its own physical node
(the default) or principals are packed onto a small cluster via the
``loc`` table — and traffic between a node pair must travel as batched
messages, not one message per fact.
"""

from repro import LBTrustSystem
from repro.languages.sendlog import install_sendlog

REACHABILITY = """
At S:
s1: reachable(S,D) :- neighbor(S,D).
s1b: reachable(S,D)@S :- neighbor(S,D).
s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).
"""


def build_ring(size, hosts=None, auth="hmac", mode="bsp"):
    """A reachability ring; ``hosts`` maps principal index -> node name."""
    system = LBTrustSystem(auth=auth, seed=11, mode=mode)
    names = [f"n{i}" for i in range(size)]
    principals = {}
    for i, name in enumerate(names):
        node = hosts[i] if hosts is not None else None
        principals[name] = system.create_principal(name, node=node)
    install_sendlog(system, REACHABILITY)
    for i in range(size):
        a, b = names[i], names[(i + 1) % size]
        principals[a].assert_fact("neighbor", (a, b))
        principals[b].assert_fact("neighbor", (b, a))
    return system, principals


def reachability_of(principals):
    return {
        name: principal.tuples("reachable")
        for name, principal in principals.items()
    }


class TestSendlogOnCluster:
    def test_identical_results_on_three_node_cluster(self):
        size = 6
        reference_system, reference = build_ring(size)
        reference_system.run(max_rounds=80)
        expected = reachability_of(reference)
        # every principal learned the full ring
        for name, reached in expected.items():
            assert {d for (s, d) in reached if s == name} | {name} == \
                set(reference)

        hosts = [f"host{i % 3}" for i in range(size)]
        cluster_system, clustered = build_ring(size, hosts=hosts)
        report = cluster_system.run(max_rounds=80)
        assert reachability_of(clustered) == expected
        assert report.rejected == 0
        # three physical nodes, not six
        assert {p.node for p in clustered.values()} == set(hosts)

    def test_clustered_ring_batches_traffic(self):
        size = 6
        hosts = [f"host{i % 3}" for i in range(size)]
        system, _ = build_ring(size, hosts=hosts, auth="plaintext")
        report = system.run(max_rounds=80)
        # more facts moved than wire messages: coalescing happened
        assert report.delivered > report.messages > 0
        assert system.network.total.messages == report.messages

    def test_bit_identical_under_every_scheduler_and_packing(self):
        """The PR-4 acceptance bar: a 6-principal ring fixpoints
        bit-identically under single-node hosting, BSP clustering onto
        3 and 6 hosts, and async overlapped scheduling — the program
        never changes, only where and how it runs (predNode's promise,
        machine-executed)."""
        size = 6
        reference_system, reference = build_ring(size, hosts=["solo"] * size)
        reference_system.run(max_rounds=80)
        expected = reachability_of(reference)
        three_hosts = [f"host{i % 3}" for i in range(size)]
        six_hosts = [f"host{i}" for i in range(size)]
        for hosts, mode in [
            (three_hosts, "bsp"),
            (six_hosts, "bsp"),
            (three_hosts, "async"),
            (six_hosts, "async"),
            (["solo"] * size, "async"),
        ]:
            system, principals = build_ring(size, hosts=hosts, mode=mode)
            report = system.run(max_rounds=80)
            assert reachability_of(principals) == expected, (hosts, mode)
            assert report.rejected == 0

    def test_async_says_attribution_survives_the_exchange(self):
        """Authenticated import is mode-independent: under the
        overlapped scheduler every principal still hears its neighbors
        through the says machinery (heard facts name real speakers)."""
        size = 4
        hosts = [f"host{i % 2}" for i in range(size)]
        system, principals = build_ring(size, hosts=hosts, mode="async")
        system.run(max_rounds=80)
        names = set(principals)
        for name, principal in principals.items():
            speakers = {speaker for speaker, _ref
                        in principal.tuples("heard")}
            assert speakers  # it heard someone
            assert speakers <= names - {name}

    def test_single_host_cluster_stays_silent_on_the_wire(self):
        # all principals colocated: everything is local delivery with
        # zero latency, but still batched envelopes
        size = 4
        hosts = ["hub"] * size
        system, principals = build_ring(size, hosts=hosts, auth="plaintext")
        report = system.run(max_rounds=80)
        assert report.virtual_time == 0.0
        for name, principal in principals.items():
            reached = {d for (s, d) in principal.tuples("reachable")
                       if s == name}
            assert reached | {name} == set(principals)
