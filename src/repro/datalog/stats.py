"""Engine counters, apart from :mod:`repro.datalog.engine` so that
:mod:`repro.datalog.runtime`'s ``EvalContext`` can make one."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import ClassVar, Iterator

from .database import set_index_stats


@dataclass
class StratumStats:
    """One :func:`eval_stratum` pass, as seen by the benchmark harness.

    ``delta_sizes[i]`` is the number of delta facts consumed by semi-naive
    iteration ``i`` (the initial seed delta included — on the incremental
    path the seed is drained by the initial pass, which counts as the
    first iteration here), so the shape of the fixpoint — how fast the
    frontier drains — is visible, not just its total cost.  ``rounds``
    always equals ``len(delta_sizes)``.
    """

    number: int
    rounds: int = 0
    new_facts: int = 0
    elapsed: float = 0.0
    delta_sizes: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "stratum": self.number,
            "rounds": self.rounds,
            "new_facts": self.new_facts,
            "elapsed": self.elapsed,
            "delta_sizes": list(self.delta_sizes),
        }


@dataclass
class EvalStats:
    """Counters describing evaluation work (recorded by benchmarks).

    The engine counts into ``EvalContext.stats`` and nowhere else: one
    context collects all of a call's work (a host's ``stats`` is its
    context's).

    Beyond the aggregate counters, an instance carries:

    * ``rule_firings`` — head tuples produced per rule, keyed by the rule's
      label (falling back to the head predicate for unlabeled rules);
    * ``strata`` — a bounded trail of :class:`StratumStats` records, one
      per :func:`eval_stratum` pass (oldest dropped beyond ``MAX_STRATA``
      so long-lived accumulators like ``Workspace.stats`` stay small);
      ``strata_recorded`` counts every record ever appended, which is how
      :meth:`diff` finds a region's records in a full trail;
    * ``index_builds`` / ``index_hits`` — :meth:`Relation.index_for` activity
      while this instance is installed via :meth:`capture_indexes` (the
      engine installs it for the duration of each stratum pass);
    * ``terms_interned`` / ``intern_hits`` — :class:`TermInterner` traffic
      while installed: new ids allocated vs values already interned;
    * ``id_joins`` — indexed id-space probes issued by the join walker
      (:func:`repro.datalog.runtime.run_flat`), i.e. joins that never
      touched a boxed value.  Every body evaluation runs on that walker,
      so this covers constraint LHS/RHS probes, DRed over-deletion,
      aggregate bodies, ``Workspace.query`` and provenance-recording
      runs too, not only plain rule application;
    * ``value_materializations`` — id rows (or whole relations' worth of
      rows, counted per row) converted back to boxed value tuples at an
      output boundary: ``Relation.tuples`` reads;
    * ``literal_scans`` / ``full_scans`` — positive-literal matches issued
      by the join core, and how many of those had no bound column and had
      to scan the whole relation;
    * ``plans_built`` / ``plan_cache_hits`` — plan requests that had to
      order the body (a band signature seen for the first time) vs
      served from a band-keyed plan cache (a rule's, or a workspace's
      constraint plans — resolved once per constraint alternative per
      check, not once per witness).  A rule application that cannot fire
      (an empty positive body relation) requests no plan and counts as
      neither;
    * ``plans_compiled`` — the orderings among ``plans_built`` that also
      compiled a register program; the rest re-derived an order whose
      plan was still cached and serve that;
    * ``reorder_wins`` — built plans where the cardinality cost model
      chose a different positive-literal order than the boundness-greedy
      baseline would have;
    * ``column_stats_built`` — per-column distinct-count computations that
      had to scan (:meth:`Relation.distinct_count` cache misses without a
      usable single-column index);
    * ``remote_emissions`` — derived facts diverted to a remote owner by a
      cluster delta-exchange hook instead of being asserted locally;
    * ``plans_evicted`` — cached plans dropped by a cache's FIFO bound
      (:data:`repro.datalog.runtime.MAX_CACHED_PLANS`, applied in
      :func:`repro.datalog.runtime.banded_plan`);
    * ``sent_dedup_evictions`` — cluster-node outbox dedup markers
      cleared by the generation-tagged reset at quiescence (bounding a
      long-running node's memory by one run's traffic);
    * ``magic_programs_built`` / ``magic_cache_hits`` — magic-sets
      rewrites normalized into engine rules vs served from
      :mod:`repro.datalog.magic`'s program cache (a cache hit reuses the
      rewrite's :class:`EngineRule` objects, so their band-keyed join
      plans survive across ``query_magic`` calls instead of being rebuilt);
    * ``dred_strata`` / ``strata_recomputed`` — deletion-propagation
      strata maintained by DRed over-delete/re-derive vs recomputed from
      their EDB (non-monotone strata take the recompute path).  The
      online serving tests pin these: a served update must maintain
      incrementally.  A rule leaving ``active`` is a deletion too;
    * ``full_recomputes`` — always 0, nothing resets a workspace any
      more: the field stays only because ``e2e_bench`` reads it.
    """

    MAX_STRATA: ClassVar[int] = 256

    rounds: int = 0
    derivations: int = 0
    new_facts: int = 0
    index_builds: int = 0
    index_hits: int = 0
    terms_interned: int = 0
    intern_hits: int = 0
    id_joins: int = 0
    value_materializations: int = 0
    literal_scans: int = 0
    full_scans: int = 0
    plans_built: int = 0
    plan_cache_hits: int = 0
    reorder_wins: int = 0
    plans_compiled: int = 0
    column_stats_built: int = 0
    remote_emissions: int = 0
    plans_evicted: int = 0
    sent_dedup_evictions: int = 0
    magic_programs_built: int = 0
    magic_cache_hits: int = 0
    dred_strata: int = 0
    strata_recomputed: int = 0
    full_recomputes: int = 0
    rule_firings: dict = field(default_factory=dict)
    strata: list = field(default_factory=list)
    strata_recorded: int = 0

    def fire(self, key: str, count: int = 1) -> None:
        self.rule_firings[key] = self.rule_firings.get(key, 0) + count

    def record_stratum(self, record: StratumStats) -> None:
        self.strata.append(record)
        self.strata_recorded += 1
        del self.strata[: -self.MAX_STRATA]

    @contextmanager
    def capture_indexes(self) -> Iterator["EvalStats"]:
        """Route :meth:`Relation.index_for` counters here while the block runs."""
        previous = set_index_stats(self)
        try:
            yield self
        finally:
            set_index_stats(previous)

    @classmethod
    def counters(cls) -> list:
        """The integer counter fields, in declaration order — the one list
        :meth:`diff`, :meth:`merge` and :meth:`as_dict` derive from."""
        return [f.name for f in fields(cls)
                if f.name not in ("rule_firings", "strata", "strata_recorded")]

    def copy(self) -> "EvalStats":
        """A snapshot of the counters (used to diff around a region)."""
        return replace(self, rule_firings=dict(self.rule_firings),
                       strata=list(self.strata))

    def diff(self, before: "EvalStats") -> "EvalStats":
        """The work done since ``before`` (a prior :meth:`copy` of this).

        Lets a benchmark attribute a long-lived accumulator's counters
        (e.g. ``Workspace.stats``) to just its measured region.  The
        region's ``strata`` records are the trail's last
        ``strata_recorded - before.strata_recorded`` (as many as
        ``MAX_STRATA`` kept).
        """
        delta = EvalStats(**{name: getattr(self, name) - getattr(before, name)
                             for name in self.counters()})
        for key, count in self.rule_firings.items():
            fired = count - before.rule_firings.get(key, 0)
            if fired:
                delta.rule_firings[key] = fired
        delta.strata_recorded = self.strata_recorded - before.strata_recorded
        kept = min(delta.strata_recorded, len(self.strata))
        delta.strata = self.strata[len(self.strata) - kept:]
        return delta

    def merge(self, other: "EvalStats") -> None:
        for name in self.counters():
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for key, count in other.rule_firings.items():
            self.fire(key, count)
        self.strata.extend(other.strata)
        self.strata_recorded += other.strata_recorded
        del self.strata[: -self.MAX_STRATA]

    def as_dict(self) -> dict:
        """A JSON-safe summary (recorded into benchmark artifacts)."""
        summary = {name: getattr(self, name) for name in self.counters()}
        summary["rule_firings"] = dict(sorted(self.rule_firings.items()))
        summary["strata"] = [record.as_dict() for record in self.strata]
        return summary
