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

    One derivation is chosen per node (the store may hold several); cycles
    through recursive rules are cut by ``max_depth`` and by never
    revisiting a fact on the current path.
    """
    store = workspace.provenance
    if store is None:
        raise ValueError(
            "provenance is not enabled on this workspace; construct it "
            "with enable_provenance=True"
        )
    # a read: a Figure 1 relation nothing read yet has no proofs stored
    workspace.relation(pred)

    def build(p: str, f: tuple, depth: int, path: frozenset) -> Optional[Explanation]:
        derivations = store.of(p, f)
        if not derivations:
            return None
        if depth <= 0 or (p, f) in path:
            rule_label, _ = next(iter(derivations))
            return Explanation(p, f, rule_label)
        # Prefer an EDB justification (shortest proof) when available.
        chosen = None
        for rule_label, supports in sorted(derivations, key=lambda d: (d[0] != "$edb", d[0])):
            children = []
            ok = True
            for child_pred, child_fact in supports:
                child = build(child_pred, child_fact, depth - 1,
                              path | {(p, f)})
                if child is None:
                    ok = False
                    break
                children.append(child)
            if ok:
                chosen = Explanation(p, f, rule_label, children)
                break
        return chosen

    return build(pred, fact, max_depth, frozenset())


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
