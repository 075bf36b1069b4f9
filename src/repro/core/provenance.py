"""Derivation provenance (paper section 7, built here).

*"We are currently adding provenance support to LBTrust.  In addition to
reasoning about delegation and chains of trust, provenance is useful for
analyzing derivations of security policies, runtime verification, and
dynamic type checking."*

With ``enable_provenance=True`` (workspace or system flag) every
derivation is recorded: ``(rule label, supporting facts)`` per derived
fact.  This module turns that store into:

* :func:`explain` — a derivation tree for any fact, down to EDB leaves;
* :func:`format_explanation` — a human-readable proof rendering;
* :func:`trust_chain` — the says-hops behind a fact: which principal said
  which rule, in order — the "chains of trust" reading.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..datalog.terms import RuleRef
from ..workspace.workspace import Workspace


@dataclass
class Explanation:
    """One node of a derivation tree."""

    pred: str
    fact: tuple
    rule: str                      # rule label, or "$edb"
    children: list = field(default_factory=list)

    @property
    def is_edb(self) -> bool:
        return self.rule == "$edb"


def explain(workspace: Workspace, pred: str, fact: tuple,
            max_depth: int = 32) -> Optional[Explanation]:
    """A derivation tree for ``fact``, or None if it has no provenance.

    One derivation is chosen per node (the store may hold several): one
    that starts a shortest well-founded proof, an asserted row first.
    A derivation that needs a fact with no such proof — one that holds
    only through itself — is passed over, so no fact repeats on a
    root-to-leaf path and every leaf is an asserted row or a stated
    ground fact, unless ``max_depth`` cuts the walk first.
    """
    store = workspace.provenance
    if store is None:
        raise ValueError(
            "provenance is not enabled on this workspace; construct it "
            "with enable_provenance=True"
        )
    # a read: a Figure 1 relation nothing read yet has no proofs stored
    workspace.relation(pred)
    chosen = _shortest_proofs(store, (pred, fact))

    def build(p: str, f: tuple, depth: int) -> Explanation:
        rule_label, supports = chosen[(p, f)]
        if depth <= 0:
            return Explanation(p, f, rule_label)
        return Explanation(p, f, rule_label, [
            build(child_pred, child_fact, depth - 1)
            for child_pred, child_fact in supports])

    return build(pred, fact, max_depth) if (pred, fact) in chosen else None


def _shortest_proofs(store, root: tuple) -> dict:
    """``(pred, fact) -> (rule label, supports)`` for every fact reachable
    from ``root`` through the store that has a well-founded proof.

    Round k picks the facts whose shortest proof has height k, so each
    chosen derivation's supports were all chosen in an earlier round.
    """
    derivations: dict = {}
    pending = [root]
    while pending:
        key = pending.pop()
        if key in derivations:
            continue
        derivations[key] = sorted(store.of(*key),
                                  key=lambda d: (d[0] != "$edb", d[0]))
        for _label, supports in derivations[key]:
            pending.extend(supports)
    chosen: dict = {}
    while True:
        fresh = {}
        for key, options in derivations.items():
            if key in chosen:
                continue
            for rule_label, supports in options:
                if all(support in chosen for support in supports):
                    fresh[key] = (rule_label, supports)
                    break
        if not fresh:
            return chosen
        chosen.update(fresh)


def format_explanation(node: Explanation, indent: int = 0) -> str:
    """Render a derivation tree as an indented proof."""
    pad = "  " * indent
    label = "asserted" if node.is_edb else f"by rule {node.rule}"
    lines = [f"{pad}{node.pred}{node.fact!r}  [{label}]"]
    for child in node.children:
        lines.append(format_explanation(child, indent + 1))
    return "\n".join(lines)


def trust_chain(workspace: Workspace, pred: str, fact: tuple) -> list:
    """The says-hops supporting a fact: ``[(speaker, listener, rule), …]``.

    Walks the derivation tree collecting every ``says`` support.  A fact
    derived by an *activated* rule (one that arrived via communication) is
    additionally supported by its ``active(R)`` fact, whose own derivation
    (says1) contains the says hop — so the chain crosses activation
    boundaries, which is exactly the "chains of trust" reading the paper
    wants provenance to expose.
    """
    hops: list = []
    seen_hops: set = set()
    visited_nodes: set = set()

    def add_hop(speaker, listener, ref) -> None:
        key = (speaker, listener, ref)
        if key not in seen_hops and isinstance(ref, RuleRef):
            seen_hops.add(key)
            hops.append((speaker, listener,
                         workspace.registry.canonical_text(ref)))

    def ref_of_label(label: str) -> Optional[RuleRef]:
        if not label.startswith("r"):
            return None
        try:
            candidate = RuleRef(int(label[1:]))
        except ValueError:
            return None
        return candidate if candidate in workspace._activated else None

    def walk(node: Optional[Explanation]) -> None:
        if node is None or (node.pred, node.fact, node.rule) in visited_nodes:
            return
        visited_nodes.add((node.pred, node.fact, node.rule))
        if node.pred == "says" and len(node.fact) == 3:
            add_hop(*node.fact)
        ref = ref_of_label(node.rule)
        if ref is not None:
            walk(explain(workspace, "active", (ref,)))
        for child in node.children:
            walk(child)

    walk(explain(workspace, pred, fact))
    return hops
