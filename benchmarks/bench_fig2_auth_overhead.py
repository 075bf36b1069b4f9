"""E1 — the paper's Figure 2: execution time vs authentication scheme.

Paper setup: two principals export and import authenticated facts from
each other's context; each message costs one signature generation and one
verification.  The paper reports (at 10k messages, on 2009 hardware)
roughly 300s for RSA, with HMAC a slight increase over Plaintext.

The full ``fig2_auth_overhead`` points fix k = LBTRUST_BENCH_MESSAGES
(default 100) per direction and compare schemes; the ``fig2_sweep``
workload is the series over k.  The *shape* claims under test:

* RSA ≫ HMAC > Plaintext per message,
* HMAC is only a slight increase over Plaintext,
* time grows linearly in the number of messages.
"""

from benchmarks.harness import benchmark as bench_workload
from benchmarks.workloads import (
    BENCH_MESSAGES,
    make_fig2_system,
    run_fig2_exchange,
)


@bench_workload("fig2_auth_overhead", group="fig2-auth-overhead",
                quick=[{"auth": "plaintext", "k": 25},
                       {"auth": "hmac", "k": 25},
                       {"auth": "rsa", "k": 10, "rsa_bits": 512}],
                full=[{"auth": "plaintext", "k": BENCH_MESSAGES},
                      {"auth": "hmac", "k": BENCH_MESSAGES},
                      {"auth": "rsa", "k": BENCH_MESSAGES}])
def fig2_auth_overhead(case, auth, k, rsa_bits=None):
    """The paper's Figure 2 point: k signed+verified messages per direction."""
    system, alice, bob = make_fig2_system(auth, rsa_bits)
    case.watch(alice.workspace.stats)
    case.watch(bob.workspace.stats)
    with case.measure():
        run_fig2_exchange(system, alice, bob, k)
    case.record(messages=2 * k, per_message_us=case.elapsed / (2 * k) * 1e6)


@bench_workload("fig2_sweep", group="fig2-auth-overhead", repeats=2,
                quick=[{"auth": "plaintext", "k": 250},
                       {"auth": "hmac", "k": 250}],
                full=[{"auth": auth, "k": k}
                      for auth in ("plaintext", "hmac", "rsa")
                      for k in (250, 1000, 2000)])
def fig2_sweep(case, auth, k):
    """One point of the Figure 2 series: time vs number of messages."""
    fig2_auth_overhead(case, auth, k, rsa_bits=512)
