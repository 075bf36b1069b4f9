"""Static join-compatibility checking of rule bodies against a placement.

The PR-3 sharded runtime's correctness contract was *"union-of-shards
equals the single-node fixpoint iff the placement is join-compatible —
the programmer's responsibility, exactly as ``predNode`` placement is in
the paper"*.  This module turns that contract into a machine check at
``load()`` time.

A rule is **join-compatible** with a placement when every pair of facts
its body must join is guaranteed co-located on some node.  Facts of
*replicated* predicates are everywhere; facts of *local* predicates are
wherever they were derived (their distribution is part of the program's
meaning, as in the paper's ``predNode``); so the constraint falls on the
**partitioned** body predicates: if a rule reads two or more of them,
their partition-key columns must be bound to the *same* term (the same
variable, or equal constants) **and** their placement schemes must route
equal key values to the same node — same hash function over the same
node list, identical range boundaries, identical explicit pins.

When a rule fails the check the loader **rejects** it with a diagnostic
naming the rule and the mismatched columns.  The checks only read the
placement: changing it — repartitioning onto a shared key column, or
replicating a predicate — is its declarer's decision, never the loader's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from ..datalog.errors import ClusterError
from ..datalog.stratify import stratify
from ..datalog.terms import Constant, Literal, Term, Variable
from .partition import Partitioner


@dataclass
class PlacementIssue:
    """One rule whose partitioned body literals cannot be co-located."""

    rule_label: str
    detail: str
    #: partitioned predicates involved, with their key columns
    preds: tuple

    def __str__(self) -> str:
        return f"rule {self.rule_label!r}: {self.detail}"


def _key_term(literal: Literal, column: int) -> Optional[Term]:
    args = literal.atom.all_args
    if column >= len(args):
        return None
    return args[column]


def _terms_colocate(left: Term, right: Term) -> bool:
    """True when two partition-key terms always carry equal values."""
    if isinstance(left, Variable) and isinstance(right, Variable):
        return left.name == right.name
    if isinstance(left, Constant) and isinstance(right, Constant):
        return left.value == right.value
    return False


def exchanged_rule_preds(rule, partitioner: Partitioner) -> set:
    """Predicates of one rule (surface or engine form) whose facts the
    placement exchanges — partitioned or replicated heads and positive
    body reads.  Consumed by the analyzer's static cost pass: a rule
    over exchanged predicates pays network per derived row, so its
    cardinality estimate is a shard-traffic estimate."""
    touched: set = set()
    heads = getattr(rule, "heads", None)
    if heads is None:  # engine rules carry a single head
        heads = (rule.head,)
    for head in heads:
        if partitioner.is_exchanged(head.pred):
            touched.add(head.pred)
    for item in rule.body:
        if isinstance(item, Literal) and not item.negated \
                and partitioner.is_exchanged(item.atom.pred):
            touched.add(item.atom.pred)
    return touched


def analyze_join_compatibility(rules: Iterable,
                               partitioner: Partitioner) -> list[PlacementIssue]:
    """Every rule whose body joins are not co-located under the placement.

    ``rules`` are engine rules (single-head, normalized).  Negated
    literals are ignored — negation over exchanged predicates is already
    rejected outright by the distributability check.
    """
    issues: list[PlacementIssue] = []
    if len(partitioner.nodes) <= 1:
        return issues  # one node: everything is trivially co-located
    for rule in rules:
        partitioned: list[tuple[Literal, str, int]] = []
        for item in rule.body:
            if not isinstance(item, Literal) or item.negated:
                continue
            pred = item.atom.pred
            column = partitioner.key_column(pred)
            if column is None:
                continue
            partitioned.append((item, pred, column))
        if len(partitioned) <= 1:
            continue
        label = rule.label or rule.head.pred
        anchor_literal, anchor_pred, anchor_column = partitioned[0]
        anchor_term = _key_term(anchor_literal, anchor_column)
        anchor_scheme = partitioner.scheme_signature(anchor_pred)
        for literal, pred, column in partitioned[1:]:
            term = _key_term(literal, column)
            if anchor_term is None or term is None:
                issues.append(PlacementIssue(
                    rule_label=label,
                    detail=(f"partition column {column} of {pred!r} is out "
                            f"of range for {literal.atom!r}"),
                    preds=((anchor_pred, anchor_column), (pred, column)),
                ))
                continue
            if not _terms_colocate(anchor_term, term):
                issues.append(PlacementIssue(
                    rule_label=label,
                    detail=(
                        f"{anchor_pred!r} is partitioned on column "
                        f"{anchor_column} (bound to {anchor_term!r}) but "
                        f"{pred!r} is partitioned on column {column} "
                        f"(bound to {term!r}); the join is only "
                        f"co-located when both partition keys bind the "
                        f"same term"
                    ),
                    preds=((anchor_pred, anchor_column), (pred, column)),
                ))
            elif (pred != anchor_pred
                  and partitioner.scheme_signature(pred) != anchor_scheme):
                issues.append(PlacementIssue(
                    rule_label=label,
                    detail=(
                        f"{anchor_pred!r} (column {anchor_column}) and "
                        f"{pred!r} (column {column}) agree on the join key "
                        f"but use different placement schemes, so equal "
                        f"keys may live on different nodes"
                    ),
                    preds=((anchor_pred, anchor_column), (pred, column)),
                ))
    return issues


def nonmonotone_exchanges(rules: Iterable,
                          partitioner: Partitioner) -> list[tuple[list, str]]:
    """Nonmonotonicity over exchanged predicates (N > 1): per offending
    stratum, the predicates (sorted) and the refusal text.

    A shard evaluating ``!p(...)`` or an aggregate over an exchanged
    predicate could commit to absence while a delta batch for ``p`` is
    still in flight; there is no sound local evaluation order, so the
    combination is refused up front — by ``Cluster.load`` as a
    :class:`ClusterError`, by the analyzer as diagnostic R502.
    """
    found: list[tuple[list, str]] = []
    exchanged = set(partitioner.exchanged_preds())
    if len(partitioner.nodes) <= 1 or not exchanged:
        return found
    for stratum in stratify(list(rules)):
        if not stratum.nonmonotone:
            continue
        touched = sorted((stratum.reads | stratum.preds) & exchanged)
        if touched:
            found.append((touched, (
                f"negation/aggregation over exchanged predicate(s) "
                f"{touched} cannot be evaluated on a "
                f"{len(partitioner.nodes)}-node cluster")))
    return found


def check_join_compatibility(rules: Iterable,
                             partitioner: Partitioner) -> None:
    """Raise :class:`ClusterError` naming every rule whose body joins are
    not co-located under the placement, with its mismatched columns."""
    issues = analyze_join_compatibility(rules, partitioner)
    if issues:
        raise ClusterError(
            "join-incompatible placement: "
            + "; ".join(str(issue) for issue in issues)
            + " — repartition the predicates onto a shared key column, "
              "or replicate one of them"
        )
