"""SeNDlog over real sockets: the transport is invisible to the program.

The PR-5 acceptance bar: a 6-principal reachability ring fixpoints
**bit-identically** whether the exchange runs over the single-process
virtual-clock network or over real TCP — in-process loopback
(``LBTrustSystem(network=SocketNetwork())``) and genuinely distributed
(three OS processes via the :mod:`repro.cluster.launch` coordinator) —
in both ``bsp`` and ``async`` scheduling modes.  Authenticated ``says``
import must survive the hop across process boundaries: every worker
rebuilds the system deterministically from the spec, so HMAC secrets
agree without ever crossing the wire, and signature verification runs at
the receiving process.
"""

import pytest

from repro import LBTrustSystem
from repro.cluster.launch import launch, spec_nodes, system_spec
from repro.languages.sendlog import install_sendlog
from repro.net import SocketNetwork

REACHABILITY = """
At S:
s1: reachable(S,D) :- neighbor(S,D).
s1b: reachable(S,D)@S :- neighbor(S,D).
s2: reachable(Z,D)@Z :- neighbor(S,Z), W says reachable(S,D).
"""

SIZE = 6
NAMES = [f"n{i}" for i in range(SIZE)]
HOSTS = [f"host{i % 3}" for i in range(SIZE)]


def ring_facts():
    facts = []
    for i in range(SIZE):
        a, b = NAMES[i], NAMES[(i + 1) % SIZE]
        facts.append((a, "neighbor", (a, b)))
        facts.append((b, "neighbor", (b, a)))
    return facts


def build_system(network=None, mode="bsp"):
    system = LBTrustSystem(auth="hmac", seed=11, mode=mode, network=network)
    for name, node in zip(NAMES, HOSTS):
        system.create_principal(name, node=node)
    install_sendlog(system, REACHABILITY)
    for pname, pred, values in ring_facts():
        system.principal(pname).assert_fact(pred, values)
    return system


def reachability_of(system):
    return {name: system.principal(name).tuples("reachable")
            for name in NAMES}


@pytest.fixture(scope="module")
def expected():
    system = build_system()
    system.run(max_rounds=80)
    fixpoint = reachability_of(system)
    # sanity: the full ring was learned
    for name, reached in fixpoint.items():
        assert {d for (s, d) in reached if s == name} | {name} == set(NAMES)
    return fixpoint


class TestInProcessSocketSystem:
    @pytest.mark.parametrize("mode", ["bsp", "async"])
    def test_ring_bit_identical_over_loopback(self, mode, expected):
        with SocketNetwork() as network:
            system = build_system(network=network, mode=mode)
            report = system.run(max_rounds=80)
            assert reachability_of(system) == expected
            assert report.rejected == 0
            assert report.messages == network.total.messages > 0


class TestThreeProcessRing:
    @pytest.mark.parametrize("mode", ["bsp", "async"])
    def test_ring_bit_identical_across_three_processes(self, mode, expected):
        spec = system_spec(
            principals=list(zip(NAMES, HOSTS)),
            auth="hmac", seed=11,
            sendlog=REACHABILITY,
            facts=ring_facts(),
            collect=["reachable", "heard"],
        )
        assert spec_nodes(spec) == ["host0", "host1", "host2"]
        report = launch(spec, mode=mode, timeout=60)
        assert len(report.per_node) == 3
        got = {name: report.relations[name]["reachable"]
               for name in NAMES}
        assert got == expected
        # authenticated import succeeded across process boundaries
        assert report.rejected == 0
        assert report.delivered > 0
        assert report.messages > 0
        # says-attribution survived: every principal heard real speakers
        for name in NAMES:
            speakers = {speaker for speaker, _ref
                        in report.relations[name]["heard"]}
            assert speakers
            assert speakers <= set(NAMES) - {name}

    def test_ring_report_matches_in_process_run(self):
        spec = system_spec(
            principals=list(zip(NAMES, HOSTS)), auth="hmac", seed=11,
            sendlog=REACHABILITY, facts=ring_facts(), collect=["reachable"])
        launched = launch(spec, mode="bsp", timeout=60)
        local = build_system().run(max_rounds=80)
        assert (launched.delivered, launched.rejected) \
            == (local.delivered, local.rejected)
        assert launched.messages == local.messages
        assert launched.batched_facts == local.delivered
        # per-host rows say what each worker shipped, took in and imported
        rows = launched.per_node
        assert [row.name for row in rows] == ["host0", "host1", "host2"]
        assert sum(row.sent_facts for row in rows) == local.delivered
        assert sum(row.received_facts for row in rows) == local.delivered
        assert sum(row.new_facts for row in rows) == local.delivered
        assert all(row.sent_facts and row.received_facts for row in rows)
