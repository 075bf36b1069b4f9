"""Shared benchmark workloads.

The headline workload is the paper's Figure 2 micro-benchmark: two Binder
principals, alice and bob, each exporting and importing k authenticated
facts from the other's context, every message signed on export and
verified on import under the configured scheme.

Environment knobs:

* ``LBTRUST_BENCH_MESSAGES`` — messages per direction for the full
  ``fig2_auth_overhead`` points (default 100);
* ``LBTRUST_BENCH_RSA_BITS`` — RSA modulus size (default 1024, the
  paper's).
"""

from __future__ import annotations

import os

from benchmarks.harness import benchmark
from repro import LBTrustSystem

BENCH_MESSAGES = int(os.environ.get("LBTRUST_BENCH_MESSAGES", "100"))
BENCH_RSA_BITS = int(os.environ.get("LBTRUST_BENCH_RSA_BITS", "1024"))


def make_fig2_system(auth: str, rsa_bits: int = None):
    """An alice/bob pair with Binder consumer rules (untimed setup)."""
    system = LBTrustSystem(auth=auth,
                           rsa_bits=rsa_bits or BENCH_RSA_BITS, seed=7)
    alice = system.create_principal("alice")
    bob = system.create_principal("bob")
    alice.load("gotB(X) <- pong(X).")   # Binder rule consuming imports
    bob.load("gotA(X) <- ping(X).")
    return system, alice, bob


def run_fig2_exchange(system, alice, bob, k: int) -> None:
    """The timed region: sign, export, transfer, import, verify, activate."""
    with alice.workspace.transaction():
        for i in range(k):
            ref = alice.intern(f'ping("m{i}").')
            alice.workspace.assert_fact("says", ("alice", "bob", ref))
    with bob.workspace.transaction():
        for i in range(k):
            ref = bob.intern(f'pong("m{i}").')
            bob.workspace.assert_fact("says", ("bob", "alice", ref))
    system.run()
    assert len(bob.tuples("gotA")) == k
    assert len(alice.tuples("gotB")) == k


def fig2_point(auth: str, k: int, rsa_bits: int = None) -> None:
    system, alice, bob = make_fig2_system(auth, rsa_bits)
    run_fig2_exchange(system, alice, bob, k)


@benchmark("fig2_single_message", group="fig2-auth-overhead",
           quick=[{"auth": "plaintext"}, {"auth": "hmac"}],
           full=[{"auth": "plaintext"}, {"auth": "hmac"},
                 {"auth": "rsa", "rsa_bits": 512}])
def fig2_single_message(case, auth, rsa_bits=None):
    """Constant per-exchange overhead: one authenticated message each way."""
    system, alice, bob = make_fig2_system(auth, rsa_bits or 512)
    case.watch(alice.workspace.stats)
    case.watch(bob.workspace.stats)
    with case.measure():
        run_fig2_exchange(system, alice, bob, 1)
    case.record(messages=2)
