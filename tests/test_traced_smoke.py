"""Traced end-to-end runs whose per-round results are pinned exactly.

Each test runs one ``e2e_bench`` workload as a user would, from the repo
root — ``python3 -m e2e_bench --workload W --seed 1 --seconds 3 --trace 1``
— and reads the JSON result on its last stdout line.  Every round of a
seed repeats the same work, so these counts are compared, not bounded:
a change that moves one has changed what the system does, and the test's
docstring says what moved it before.  The traced pass also looks up every
callable ``e2e_bench/layers.py`` names in ``TARGETS``, so a rename that
breaks a lookup fails here.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_run(workload: str) -> dict:
    """The result line of one traced ``e2e_bench`` run of ``workload``."""
    completed = subprocess.run(
        [sys.executable, "-m", "e2e_bench", "--workload", workload,
         "--seed", "1", "--seconds", "3", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr[-2000:]
    return json.loads(completed.stdout.strip().splitlines()[-1])


def assert_pinned(workload: str, pinned: dict) -> dict:
    result = traced_run(workload)
    assert result["failed"] == 0, result["failed"]
    seen = {name: result["metrics"][name]["value"] for name in pinned}
    assert seen == pinned, seen
    return result


def traced_rounds(workload: str, label: str) -> int:
    """How many timed rounds the last traced run of ``workload`` made:
    its spans of ``label``, a target the workload calls once a round, in
    the span file the run writes."""
    path = ROOT / "e2e_bench" / "out" / f"spans-{workload}-seed1.tsv"
    with open(path, encoding="utf-8") as spans:
        recorded, written = re.match(r"# (\d+) spans recorded, (\d+) written",
                                     spans.readline()).groups()
        assert recorded == written, "span file cut short: rounds unknown"
        return sum(line.rstrip("\n").endswith("\t" + label)
                   for line in spans)


def test_fs_demo():
    """fs_demo is where planning is timed, and the one workload that
    deactivates rules.  A planner change may move time, never results.

    * ``datalog.full_recomputes`` 0: a deactivation is a deletion (it was
      6 per round).
    * ``datalog.dred_strata`` 11: the one maintenance loop (DRed, then
      drop what left ``active``, then DRed what the dropped rules
      derived) runs DRed over the same strata when reconfiguration drops
      rules.
    * ``net.bytes`` 9771 (10868 before the packed envelope, whose
      dictionary scalars travel bare and rows as uint32 slots); the 39
      envelopes a round (``net.messages``) and everything derived did
      not move with it.
    * ``datalog.index_builds`` pins the join kernel: a plan's constants
      are ids from compile time on, so every literal keyed on a constant
      builds its index, also for a constant no row carries.  An index
      built or lost moves it.
    * ``datalog.derivations`` 614 -> 615 and ``index_builds`` 407 -> 402
      when ``Principal.delegate`` began asserting ``delegates`` and its
      ``delDepth`` in one transaction: dd3 sees both deltas in one pass
      and fires once more, and the owner's round builds five indexes
      fewer.  Reflection on demand moved none of these.
    * ``derivations`` 615 -> 453 and ``index_builds`` 402 -> 314 when a
      quoted pattern began firing from the literal that carries its rule
      (``says(U,me,R)``, ``active(R)``): its Figure 1 literals are no
      longer semi-naive delta positions, so they stop re-finding the
      carrier's solutions, and stop being planned.  Rounds 12, 24 and 28
      (from 0) of seed 1 build one index fewer, before and after, so
      over N rounds ``index_builds`` is exactly (314·N − those among the
      first N)/N; N is the run's count of ``reconfigure_auth`` spans,
      one a round (pinning 314 held only on a host fitting ≤12 rounds).
    * ``datalog.new_facts`` 236 -> 293 when a newly activated rule's
      first, full application began counting the rows it adds, as a
      stratum pass always has; nothing else moved.
    * ``crypto.verify_calls`` 28 since a commit checks its constraints
      over what it changed: exp3' verifies a credential at the commit
      that imports it and never again (it drifted around 122 while every
      commit re-verified every held credential).  A held credential
      verified again moves it.
    * ``derivations`` 453 -> 378 and ``new_facts`` 293 -> 243 since a
      ground said fact is held as a supported base row, not applied as a
      rule: a round's 50 activated credentials no longer count one
      derivation and one new fact each, and the 25 the scheme swap drops
      no longer count the one derivation of their drop.  Nothing else
      moved.
    """
    result = assert_pinned("fs_demo", {
        "datalog.derivations": 378, "datalog.new_facts": 243,
        "net.bytes": 9771, "net.messages": 39,
        "datalog.full_recomputes": 0, "datalog.dred_strata": 11,
        "crypto.verify_calls": 28})
    rounds = traced_rounds("fs_demo",
                           "core.reconfigure:LBTrustSystem.reconfigure_auth")
    fewer = len({12, 24, 28} & set(range(rounds)))
    assert result["metrics"]["datalog.index_builds"]["value"] == \
        (314 * rounds - fewer) / rounds, rounds


def test_fixpoint_sharded():
    """fixpoint_sharded is the block exchange end to end: the net and
    cluster ``TARGETS`` lookups (``MessageBatcher.add``,
    ``decode_batch_message``, ``ClusterNode.integrate`` /
    ``drain_outbox``, the ledger) and the closure oracle over 4 nodes on
    loopback TCP.

    Every round ships the same rows in the same 120 envelopes over the
    same 13 barriers, so what crosses the wire is compared, not bounded:
    a wire-format change moves ``net.bytes`` (299913 as all-JSON rows,
    144970 packed) and must move nothing else.  ``datalog.index_builds``
    is the join kernel's share (see :func:`test_fs_demo`): 4 a round.
    """
    assert_pinned("fixpoint_sharded", {
        "net.bytes": 144970, "net.messages": 120, "cluster.rounds": 13,
        "datalog.derivations": 20260, "datalog.index_builds": 4})


def test_fixpoint_local():
    """fixpoint_local is the same closure on one node: the join and merge
    kernel alone, no exchange.  Every round loads the same EDB and
    derives the same fixpoint in the same two barrier rounds through the
    same one index."""
    assert_pinned("fixpoint_local", {
        "datalog.derivations": 20600, "datalog.new_facts": 10000,
        "cluster.rounds": 2, "datalog.index_builds": 1})


def test_fig2_hmac():
    """fig2_hmac is the Workspace half of the id-row currency: asserted
    rows -> the says pipeline -> id-row export blocks -> import, checked
    by the Figure 2 oracle, with the ``workspace.*`` / ``core.*``
    ``TARGETS`` lookups.  Every round exchanges the same 200 messages
    each way, so an export that re-ships or drops a row moves these.

    * ``net.bytes`` 46380 -> 39550 with the packed envelope; most of what
      is left is rule text and HMAC tags, one dictionary entry each.
    * ``datalog.calls`` counts the parser's and the engine's spans: 3660
      while every received rule value was re-parsed, 2860 once the
      registry answered a canonical text it holds from a dict (400
      receipts x the ``parse_statements`` + ``parse_program`` spans), 2858
      since strata are kept across activations: the two imports'
      activations call ``extend_strata``, which is not a tracer target,
      instead of the full ``stratify()``.  A parse brought back on the
      receiving side moves it.  1658 since a ground said fact is
      activated as its head row: each of the 400 received credentials
      no longer makes a ``check_rule_safety``, a ``build_plan`` or an
      ``EngineRule.plan`` span (1200 fewer).  A received fact planned
      again moves it.  858 since a ground said fact is held as a
      supported base row: the 400 credentials no longer make a
      ``normalize_rules`` or an ``apply_rule`` span (800 fewer).  458
      since ``parse_statements`` reads its text itself, not through
      ``parse_program``: each of the sender's 400 parses is one parser
      span, not two (400 fewer).
    * ``datalog.derivations`` 2004 -> 1604 then too: a received
      credential's row is a base row, not a derivation.
    * ``datalog.index_builds`` is the join kernel's share (see
      :func:`test_fs_demo`): 14 a round.
    * ``datalog.plan_cache_hit_ratio`` guards the counter route: the
      engine counts into its context's stats and nowhere else, so a
      planner count that lands in a throwaway sink moves it.  It was
      0.0625 until constraints were checked over each commit's delta and
      is 1/31 since: the builds did not move, but a commit no longer
      looks up the plans of a constraint whose relations it did not
      change.  It is 7/17 since a ground said fact is never planned:
      the received credentials' 400 plan builds are gone (14 hits over
      434 lookups became 14 over 34).  It is 11/31 since a join writes
      each workspace in one transaction: bob's creation commits twice
      fewer, so his commits look up cached plans three times fewer (the
      20 plan builds did not move).  fs_demo's ratio is not pinned: it
      drifts in the fourth decimal with run length.
    * ``crypto.verify_calls`` is one verify per delivered credential.
    """
    assert_pinned("fig2_hmac", {
        "net.bytes": 39550, "net.messages": 4,
        "core.delivered": 400, "core.rejected": 0,
        "datalog.derivations": 1604, "datalog.calls": 458,
        "datalog.index_builds": 14,
        "datalog.plan_cache_hit_ratio": 0.3548387096774194,
        "crypto.verify_calls": 400})


def test_fig2_rsa():
    """fig2_rsa is the same exchange under RSA-1024, 50 messages a round:
    one ``crypto.rsa.sign`` per said fact at the sender and one
    ``crypto.rsa.verify`` per credential at the receiver.

    * ``crypto.sign_calls`` / ``crypto.verify_calls`` 50 / 50 since
      signing went through the CRT: ``sign`` checks each signature with
      an inline power of the public exponent before it releases it, not
      through ``verify``, so the check is no verify call.  A check routed
      through ``verify`` moves ``verify_calls`` to 100.
    * ``core.delivered`` 50 over ``net.messages`` 2 (one block each way),
      ``datalog.derivations`` 204 and ``datalog.calls`` 108: the shape
      of the exchange, which a crypto change must not move.  ``net.bytes``
      is not pinned: signatures vary in length, so it is a mean over a
      time-bounded number of rounds, not an integer.
    """
    assert_pinned("fig2_rsa", {
        "crypto.sign_calls": 50, "crypto.verify_calls": 50,
        "core.delivered": 50, "net.messages": 2,
        "datalog.derivations": 204, "datalog.calls": 108})
