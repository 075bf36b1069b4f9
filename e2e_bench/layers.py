"""Which ``repro`` callables the traced run wraps, and how spans and public
counters turn into the per-layer metrics named in ``BENCHMARK.json``.

Layers are the ``src/repro/`` packages.  Every ``*_ms`` metric is *self*
time (see :mod:`e2e_bench.tracer`), so the metrics of one run add up to the
span-covered wall time instead of double-counting nested calls: crypto
called from a rule body is ``crypto`` time, not ``datalog.eval_ms``.
Wrappers stay off per-tuple functions (``Relation.lookup``, ``intern_row``,
``encode_value``) to keep ``harness.trace_overhead_ratio`` small.
"""

from __future__ import annotations

from .stats import host_factor, percentile
from .tracer import Target

LAYERS = ("datalog", "workspace", "meta", "analysis", "crypto", "core",
          "net", "cluster", "serve", "apps")

#: EvalStats fields the workloads sum into their per-round counters.
EVAL_FIELDS = ("derivations", "new_facts", "index_builds", "plans_built",
               "plan_cache_hits", "dred_strata", "full_recomputes",
               "magic_programs_built", "magic_cache_hits")


def _tally_diagnostics(counts: dict, report) -> None:
    counts["diagnostics"] = counts.get("diagnostics", 0) + len(report)


def _tally_run_report(counts: dict, report) -> None:
    counts["delivered"] = counts.get("delivered", 0) + report.delivered
    counts["rejected"] = counts.get("rejected", 0) + report.rejected


def _targets(layer: str, group: str, module: str, *names: str, **options):
    return [Target(layer, group, f"repro.{module}", name, **options)
            for name in names]


TARGETS = [
    *_targets("datalog", "parse", "datalog.parser", "parse_program",
              "parse_statements", "parse_rule", "parse_constraint",
              "parse_atom", "parse_term"),
    *_targets("datalog", "stratify", "datalog.stratify", "stratify"),
    *_targets("datalog", "plan", "datalog.runtime", "build_plan"),
    *_targets("datalog", "plan", "datalog.engine", "EngineRule.plan"),
    *_targets("datalog", "compile", "datalog.engine", "normalize_rules"),
    *_targets("datalog", "compile", "datalog.runtime", "check_rule_safety"),
    *_targets("datalog", "eval", "datalog.engine", "evaluate", "eval_stratum",
              "propagate_insertions", "apply_rule", "apply_aggregate_rule",
              "recompute_stratum"),
    *_targets("datalog", "dred", "datalog.incremental",
              "propagate_deletions", "propagate_deletions_from"),
    *_targets("datalog", "magic", "datalog.magic", "query_magic",
              "magic_transform"),
    *_targets("datalog", "constraint", "datalog.constraints",
              "check_constraints"),
    *_targets("workspace", "load", "workspace.workspace", "Workspace.load"),
    *_targets("workspace", "txn", "workspace.workspace",
              "Workspace.transaction", context=True),
    *_targets("workspace", "point_query", "workspace.workspace",
              "Workspace.point_query"),
    *_targets("workspace", "api", "workspace.workspace",
              "Workspace.add_rule", "Workspace.add_constraint",
              "Workspace.assert_fact", "Workspace.assert_facts",
              "Workspace.assert_atom", "Workspace.retract_fact",
              "Workspace.retract_facts", "Workspace.deactivate_rule",
              "Workspace.remove_constraints", "Workspace.tuples",
              "Workspace.query"),
    *_targets("meta", "intern", "meta.registry", "RuleRegistry.intern"),
    *_targets("meta", "compile", "meta.quote", "compile_rule",
              "compile_constraint"),
    *_targets("meta", "api", "meta.registry", "RuleRegistry.meta_facts",
              "RuleRegistry.canonical_text",
              "RuleRegistry.instantiate_template"),
    *_targets("meta", "api", "meta.quote", "resolve_me_rule"),
    *_targets("analysis", "check", "analysis.pipeline", "analyze_statements",
              tally=_tally_diagnostics),
    *_targets("analysis", "check", "analysis.pipeline", "analyze_source",
              "run_passes", "raise_for_errors"),
    *_targets("crypto", "sign", "crypto.rsa", "sign"),
    *_targets("crypto", "sign", "crypto.hmac_sha1", "hmac_sha1_hex"),
    *_targets("crypto", "verify", "crypto.rsa", "verify"),
    *_targets("crypto", "verify", "crypto.hmac_sha1", "verify_hmac_sha1"),
    *_targets("crypto", "keygen", "crypto.rsa", "generate_keypair"),
    *_targets("crypto", "keygen", "crypto.keystore",
              "generate_shared_secret"),
    *_targets("core", "run", "core.system", "LBTrustSystem.run",
              tally=_tally_run_report),
    *_targets("core", "reconfigure", "core.system",
              "LBTrustSystem.reconfigure_auth"),
    *_targets("core", "export", "core.system", "WorkspaceNode.drain_outbox"),
    *_targets("core", "import", "core.system", "WorkspaceNode.integrate"),
    *_targets("core", "api", "core.system", "LBTrustSystem.create_principal"),
    *_targets("core", "api", "core.principal", "Principal.load",
              "Principal.says", "Principal.intern", "Principal.assert_fact",
              "Principal.assert_facts", "Principal.retract_fact",
              "Principal.tuples", "Principal.delegate",
              "Principal.grant_write"),
    *_targets("core", "api", "core.says", "install_says_machinery"),
    *_targets("core", "api", "core.delegation", "install_delegation",
              "install_depth_restriction"),
    *_targets("core", "api", "core.authorization",
              "install_says_authorization"),
    *_targets("net", "encode", "net.transport", "encode_batch_message",
              "encode_batch_message_parts", "encode_batch_message_compressed",
              "encode_batch_message_dict"),
    *_targets("net", "decode", "net.transport", "decode_batch_message"),
    *_targets("net", "frame", "net.transport", "encode_request_frame",
              "decode_request_frame", "encode_reply_frame",
              "decode_reply_frame", "frame_kind"),
    *_targets("net", "batch", "net.batch", "MessageBatcher.add",
              "MessageBatcher.flush"),
    *_targets("net", "transport", "net.network", "SimulatedNetwork.send",
              "SimulatedNetwork.deliver_next", "SimulatedNetwork.deliver_all"),
    *_targets("net", "transport", "net.socket_transport",
              "SocketNetwork.send", "SocketNetwork.deliver_next",
              "SocketNetwork.deliver_all", "SocketNetwork.receive"),
    *_targets("cluster", "bootstrap", "cluster.node", "ClusterNode.bootstrap"),
    *_targets("cluster", "integrate", "cluster.node", "ClusterNode.integrate"),
    *_targets("cluster", "drain", "cluster.node", "ClusterNode.drain_outbox"),
    *_targets("cluster", "ledger", "cluster.quiescence", "TicketLedger.issue",
              "TicketLedger.retire", "TicketLedger.retire_guarded",
              "TicketLedger.close_round", "TicketLedger.close_quiet",
              "TicketLedger.quiescent", "TicketLedger.compact"),
    *_targets("cluster", "api", "cluster.node", "ClusterNode.quiesce"),
    *_targets("cluster", "api", "cluster.runtime", "Cluster.load",
              "Cluster.assert_fact", "Cluster.run", "Cluster.tuples"),
    *_targets("cluster", "api", "cluster.scheduler", "ExecutionRuntime.run"),
    *_targets("cluster", "api", "cluster.placement_check",
              "check_join_compatibility"),
    *_targets("serve", "handle", "serve.server", "TrustServer.handle"),
    *_targets("serve", "client", "serve.client", "ServeClient.call",
              "ServeClient.query", "ServeClient.assert_fact",
              "ServeClient.retract_fact", "ServeClient.connect",
              "ServeRouter.pump_one", "ServeRouter.wait_reply"),
    *_targets("apps", "api", "apps.filesystem",
              "DistributedFileSystem.add_store",
              "DistributedFileSystem.add_owner",
              "DistributedFileSystem.add_requester",
              "DistributedFileSystem.add_manager",
              "DistributedFileSystem.owner_trusts_manager",
              "DistributedFileSystem.create_file",
              "DistributedFileSystem.manager_grant",
              "DistributedFileSystem.read"),
]

#: Fine-grained self-time metrics: name -> (layer, group).
SPAN_MS = {
    "datalog.parse_ms": ("datalog", "parse"),
    "datalog.stratify_ms": ("datalog", "stratify"),
    "datalog.plan_ms": ("datalog", "plan"),
    "datalog.eval_ms": ("datalog", "eval"),
    "datalog.dred_ms": ("datalog", "dred"),
    "datalog.magic_ms": ("datalog", "magic"),
    "datalog.constraint_ms": ("datalog", "constraint"),
    "analysis.check_ms": ("analysis", "check"),
    "meta.intern_ms": ("meta", "intern"),
    "meta.compile_ms": ("meta", "compile"),
    "workspace.load_ms": ("workspace", "load"),
    "workspace.txn_ms": ("workspace", "txn"),
    "workspace.point_query_ms": ("workspace", "point_query"),
    "serve.handle_ms": ("serve", "handle"),
    # the serve frame codec lives in net/transport.py, so its time also
    # counts in net.self_ms; it is named for the path it serves
    "serve.codec_ms": ("net", "frame"),
    "core.run_ms": ("core", "run"),
    "core.export_ms": ("core", "export"),
    "core.import_ms": ("core", "import"),
    "core.reconfigure_ms": ("core", "reconfigure"),
    "crypto.sign_ms": ("crypto", "sign"),
    "crypto.verify_ms": ("crypto", "verify"),
    "net.encode_ms": ("net", "encode"),
    "net.decode_ms": ("net", "decode"),
    "net.batch_ms": ("net", "batch"),
    "net.transport_ms": ("net", "transport"),
    "cluster.bootstrap_ms": ("cluster", "bootstrap"),
    "cluster.integrate_ms": ("cluster", "integrate"),
    "cluster.drain_ms": ("cluster", "drain"),
    "cluster.ledger_ms": ("cluster", "ledger"),
}

#: Call-count metrics: name -> (layer, group).
SPAN_CALLS = {
    "analysis.check_calls": ("analysis", "check"),
    "workspace.txn_calls": ("workspace", "txn"),
    "crypto.sign_calls": ("crypto", "sign"),
    "crypto.verify_calls": ("crypto", "verify"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Every per-layer metric of one traced pass.

    ``traced``/``untraced`` are the two passes' worker results; the traced
    one carries ``spans`` (:meth:`Tracer.self_times`) and ``tallies``.  Times
    (as measured, not host-normalised) and counts are per timed round;
    ``setup.*`` and ``crypto.keygen_ms`` cover the set-up phase once.
    """
    spans, tallies = traced["spans"], traced["tallies"]
    rounds = max(traced["rounds"], 1)
    timed = spans.get("timed", {"spans": {}, "root_s": 0.0})
    setup = spans.get("setup", {"spans": {}, "root_s": 0.0})
    counters = traced["counters"]

    def per_round(value: float) -> float:
        return value / rounds

    def cells(scope: dict, layer: str, group: str = None) -> list:
        """Span cells of one ``layer.group``, or of the whole layer."""
        if group is not None:
            cell = scope["spans"].get(f"{layer}.{group}")
            return [cell] if cell else []
        return [cell for key, cell in scope["spans"].items()
                if key.startswith(layer + ".")]

    def self_ms(scope: dict, layer: str, group: str = None) -> float:
        return 1e3 * sum(cell[0] for cell in cells(scope, layer, group))

    def calls(layer: str, group: str = None) -> int:
        return sum(cell[1] for cell in cells(timed, layer, group))

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = per_round(self_ms(timed, layer))
        out[f"{layer}.calls"] = per_round(calls(layer))
        out[f"setup.{layer}_ms"] = self_ms(setup, layer)
    for name, (layer, group) in SPAN_MS.items():
        out[name] = per_round(self_ms(timed, layer, group))
    for name, (layer, group) in SPAN_CALLS.items():
        out[name] = per_round(calls(layer, group))
    out["crypto.keygen_ms"] = self_ms(setup, "crypto", "keygen")

    for name in ("derivations", "new_facts", "index_builds", "dred_strata",
                 "full_recomputes"):
        out[f"datalog.{name}"] = per_round(counters.get(name, 0))
    out["datalog.derivations_per_new_fact"] = _ratio(
        counters.get("derivations", 0), counters.get("new_facts", 0))
    out["datalog.plan_cache_hit_ratio"] = _ratio(
        counters.get("plan_cache_hits", 0),
        counters.get("plan_cache_hits", 0) + counters.get("plans_built", 0))
    out["datalog.magic_cache_hit_ratio"] = _ratio(
        counters.get("magic_cache_hits", 0),
        counters.get("magic_cache_hits", 0)
        + counters.get("magic_programs_built", 0))
    out["analysis.diagnostics"] = per_round(tallies.get("diagnostics", 0))
    out["meta.rules_interned"] = per_round(counters.get("rules_interned", 0))
    out["core.delivered"] = per_round(tallies.get("delivered", 0))
    out["core.rejected"] = per_round(tallies.get("rejected", 0))
    out["serve.reply_bytes"] = per_round(counters.get("reply_bytes", 0))
    retracts = traced["samples"].get("retract", [])
    out["serve.retract_p90_ms"] = percentile(retracts, 0.90) \
        if retracts else 0.0
    out["net.messages"] = per_round(counters.get("net_messages", 0))
    out["net.bytes"] = per_round(counters.get("net_bytes", 0))
    out["net.facts_per_message"] = _ratio(counters.get("net_facts", 0),
                                          counters.get("net_messages", 0))
    out["cluster.rounds"] = per_round(counters.get("cluster_rounds", 0))
    out["cluster.max_node_derivations"] = per_round(
        counters.get("max_node_derivations", 0))
    out["cluster.load_imbalance"] = _ratio(
        counters.get("max_node_derivations", 0),
        counters.get("mean_node_derivations", 0))
    out["cluster.shipped_per_new_fact"] = _ratio(
        counters.get("net_facts", 0), counters.get("cluster_new_facts", 0))

    timed_s = traced["timed_ms"] / 1e3
    out["harness.outside_span_ratio"] = \
        1.0 - _ratio(timed["root_s"], timed_s)
    # the two passes run one after the other, so each is first scaled by
    # its own host factor: the ratio is tracing cost, not host drift
    out["harness.trace_overhead_ratio"] = _ratio(
        percentile(traced["round_ms"], 0.5)
        * host_factor(traced["host_speed_ms"]),
        percentile(untraced["round_ms"], 0.5)
        * host_factor(untraced["host_speed_ms"]))
    out["harness.host_speed_index"] = percentile(
        traced["host_speed_ms"] + untraced["host_speed_ms"], 0.5)
    return out
