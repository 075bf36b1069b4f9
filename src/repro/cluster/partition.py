"""Fact placement: who owns which shard of a partitioned predicate.

The paper's section 3.5 places predicate partitions on nodes through the
``predNode`` relation (the ld1/ld2 listing pins ``export[P]`` to P's
node).  This module generalizes that into a :class:`Partitioner` with
three placement modes per predicate:

* **partitioned** — facts are hash- or range-partitioned on one key
  column; each fact has exactly one owner node;
* **replicated** — every node keeps a copy (broadcast on derivation);
* **local** (the default for undeclared predicates) — facts stay where
  they are derived and are never exchanged.

Explicit ``predNode``-style pins (:meth:`Partitioner.place`) override the
hash/range rule for individual key values, which is exactly how the
paper's ``predNode(export[P],N) <- loc(P,N)`` placement behaves: the
``loc`` table, not a hash function, decides where P's exports live.
A principal reads its own ``predNode`` relation as it sends
(:meth:`repro.core.principal.Principal.owner`): a key with several rows
is owned by the smallest node name, not the first a set yields.

A placement is what its caller declared, fixed once data lands: after
its :class:`~repro.cluster.runtime.Cluster` routes a fact or commits a
load, the partitioner is ``frozen`` and every declaring method raises.

Hashing is **deterministic across processes** (CRC32 over a value's own
spelling, see :func:`stable_hash`) so a cluster's shard assignment is
stable run-to-run — Python's own ``hash()`` is salted per process and
must not leak into placement.  A spelling is what the interner keys a
fact by, so every shard routes one fact to one owner.
"""

from __future__ import annotations

import zlib
from bisect import bisect_left
from typing import Iterable, Optional

from ..datalog.errors import ClusterError

MODE_LOCAL = "local"
MODE_PARTITIONED = "partitioned"
MODE_REPLICATED = "replicated"


def stable_hash(value) -> int:
    """A process-independent 32-bit hash of a ground value.

    CRC32 over the value's own spelling (``repr``; a string or bytes
    carries a prefix), so values the interner keeps apart may land apart
    and one interned id always lands on one shard: ``1``, ``1.0``,
    ``True`` and ``-0.0`` are four facts, hashed as written.
    """
    if isinstance(value, bytes):
        blob = b"b:" + value
    elif isinstance(value, str):
        blob = b"s:" + value.encode("utf-8")
    else:
        blob = repr(value).encode("utf-8")
    return zlib.crc32(blob)


class _Rule:
    """One predicate's placement rule."""

    __slots__ = ("mode", "column", "boundaries")

    def __init__(self, mode: str, column: int = 0,
                 boundaries: Optional[tuple] = None) -> None:
        self.mode = mode
        self.column = column
        self.boundaries = boundaries


class Partitioner:
    """Maps ``(pred, fact)`` to an owner node over a fixed node list."""

    def __init__(self, nodes: Iterable[str]) -> None:
        self.nodes: tuple[str, ...] = tuple(nodes)
        if not self.nodes:
            raise ClusterError("a partitioner needs at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ClusterError("duplicate node names in partitioner")
        self._rules: dict[str, _Rule] = {}
        #: explicit pins, ``(pred, (key,)) -> node``
        self.pins: dict[tuple[str, tuple], str] = {}
        #: set by the cluster once data lands; no declaration after it
        self.frozen = False

    # -- declaring placements ------------------------------------------------

    def hash_partition(self, pred: str, column: int = 0) -> None:
        """Shard ``pred`` by a deterministic hash of one column."""
        self._declare(pred, _Rule(MODE_PARTITIONED, column))

    def range_partition(self, pred: str, column: int,
                        boundaries: Iterable) -> None:
        """Shard ``pred`` by column ranges.

        ``boundaries`` are ``len(nodes) - 1`` sorted split points; a fact
        goes to node ``i`` where ``i`` counts boundaries strictly below
        its column value.
        """
        splits = tuple(boundaries)
        if len(splits) != len(self.nodes) - 1:
            raise ClusterError(
                f"range partition of {pred!r} needs {len(self.nodes) - 1} "
                f"boundaries for {len(self.nodes)} nodes, got {len(splits)}"
            )
        if list(splits) != sorted(splits):
            raise ClusterError(f"range boundaries for {pred!r} not sorted")
        self._declare(pred, _Rule(MODE_PARTITIONED, column, splits))

    def replicate(self, pred: str) -> None:
        """Broadcast ``pred``'s facts to every node."""
        self._declare(pred, _Rule(MODE_REPLICATED))

    def place(self, pred: str, key: tuple, node: str) -> None:
        """Pin one partition explicitly (``predNode``-style override)."""
        if node not in self.nodes:
            raise ClusterError(f"unknown node {node!r}")
        key = tuple(key)
        if len(key) != 1:
            # owner() probes pins with the single partition-column value;
            # a wider key could never match and would be silently ignored
            # (multi-column pins belong to the workspace predNode path,
            # which looks up full key_arity prefixes at send time).
            raise ClusterError(
                f"partitioner pins take a single-column key, got {key!r}")
        rule = self._rules.get(pred) or _Rule(MODE_PARTITIONED, 0)
        if rule.mode == MODE_REPLICATED:
            raise ClusterError(
                f"cannot pin {pred!r}: it is replicated to every node")
        self._declare(pred, rule)
        self.pins[(pred, key)] = node

    def _declare(self, pred: str, rule: _Rule) -> None:
        if self.frozen:
            raise ClusterError(
                f"cannot change the placement of {pred!r}: the cluster "
                f"already holds data placed by it")
        existing = self._rules.get(pred)
        if existing is not None and (existing.mode != rule.mode
                                     or existing.column != rule.column
                                     or existing.boundaries != rule.boundaries):
            raise ClusterError(f"conflicting placement for {pred!r}")
        self._rules[pred] = rule

    # -- lookups -------------------------------------------------------------

    def mode(self, pred: str) -> str:
        rule = self._rules.get(pred)
        return rule.mode if rule is not None else MODE_LOCAL

    def key_column(self, pred: str) -> Optional[int]:
        """The partition-key column of ``pred``, or None when not
        partitioned."""
        rule = self._rules.get(pred)
        if rule is None or rule.mode != MODE_PARTITIONED:
            return None
        return rule.column

    def scheme_signature(self, pred: str) -> tuple:
        """A comparable rendering of how ``pred``'s key values map to nodes.

        Two predicates with equal signatures send equal key values to
        the same node: same strategy (hash over the shared node list, or
        ranges with identical boundaries) and identical explicit pins.
        Consumed by the static join-compatibility checker.
        """
        rule = self._rules.get(pred)
        boundaries = rule.boundaries if rule is not None else None
        pins = tuple(sorted((key, node) for (pinned, key), node
                            in self.pins.items() if pinned == pred))
        strategy = "range" if boundaries is not None else "hash"
        return (strategy, boundaries, pins)

    def is_exchanged(self, pred: str) -> bool:
        return self.mode(pred) != MODE_LOCAL

    def owner(self, pred: str, fact: tuple) -> Optional[str]:
        """The owner node of a fact, or None for local/replicated preds."""
        rule = self._rules.get(pred)
        if rule is None or rule.mode != MODE_PARTITIONED:
            return None
        if len(self.nodes) == 1:
            return self.nodes[0]
        column = rule.column
        if column >= len(fact):
            raise ClusterError(
                f"fact {fact!r} of {pred!r} has no column {column} "
                f"to partition on"
            )
        return self._owner_of_value(rule, pred, fact[column])

    def split_rows(self, pred: str, rows: Iterable[tuple], values: list,
                   memo: dict) -> dict[str, set]:
        """Id rows of partitioned ``pred``, grouped by owner node.

        ``values`` materializes an id of the rows' interner and ``memo``
        (key id -> owner) belongs to that interner: placement reads only
        the key column, so each key id is placed once.
        """
        rule = self._rules[pred]
        column = rule.column
        by_owner: dict[str, set] = {}
        for row in rows:
            try:
                key = row[column]
            except IndexError:
                raise ClusterError(
                    f"fact {tuple(values[i] for i in row)!r} of {pred!r} "
                    f"has no column {column} to partition on") from None
            owner = memo.get(key)
            if owner is None:
                owner = memo[key] = self._owner_of_value(rule, pred,
                                                         values[key])
            bound = by_owner.get(owner)
            if bound is None:
                bound = by_owner[owner] = set()
            bound.add(row)
        return by_owner

    def _owner_of_value(self, rule, pred: str, value) -> str:
        pinned = self.pins.get((pred, (value,)))
        if pinned is not None:
            return pinned
        if rule.boundaries is not None:
            try:
                return self.nodes[bisect_left(rule.boundaries, value)]
            except TypeError:
                raise ClusterError(
                    f"key {value!r} of {pred!r} cannot be compared with "
                    f"its range boundaries {list(rule.boundaries)!r}"
                ) from None
        return self.nodes[stable_hash(value) % len(self.nodes)]

    def exchanged_preds(self) -> list[str]:
        return sorted(p for p in self._rules
                      if self._rules[p].mode != MODE_LOCAL)

    def describe(self) -> dict:
        """JSON-safe summary (used by the CLI demo and benchmarks)."""
        out = {}
        for pred, rule in sorted(self._rules.items()):
            if rule.mode == MODE_REPLICATED:
                out[pred] = {"mode": rule.mode}
            else:
                out[pred] = {
                    "mode": rule.mode,
                    "column": rule.column,
                    "strategy": "hash" if rule.boundaries is None else "range",
                }
        return out
