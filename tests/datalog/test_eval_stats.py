"""EvalStats instrumentation: exact structural counts on fixed workloads.

These pin the engine's *shape* — rule firings, semi-naive delta drain,
index traffic — so an evaluation-strategy regression (e.g. re-deriving
old facts, losing an index) fails structurally even when wall-clock
noise would hide it.

The workload: transitive closure of the chain 0→1→2→3→4→5.

* ``base`` fires once per edge (5).
* The initial pass runs ``base`` (5 length-1 paths) then ``step`` over
  them (4 length-2 paths) — a seed delta of 9.
* Semi-naive rounds then derive paths of length 3, 4, 5 from deltas of
  size 9, 3, 2, then drain the final delta of 1 deriving nothing:
  4 rounds, ``step`` firing 4+3+2+1 = 10 more times (14 total).
"""

from repro.datalog.database import Database
from repro.datalog.engine import EvalStats, StratumStats, evaluate
from repro.datalog.parser import parse_statements
from repro.datalog.runtime import EvalContext
from repro.datalog.terms import Rule

TC = "base: r(X,Y) <- e(X,Y). step: r(X,Z) <- r(X,Y), e(Y,Z)."


def run_chain(n=5):
    rules = [s for s in parse_statements(TC) if isinstance(s, Rule)]
    db = Database()
    for i in range(n):
        db.add("e", (i, i + 1))
    stats = EvalStats()
    evaluate(rules, db, EvalContext(stats=stats))
    return db, stats


class TestExactCounts:
    def test_rule_firings(self):
        _, stats = run_chain()
        assert stats.rule_firings == {"base": 5, "step": 14}

    def test_totals(self):
        db, stats = run_chain()
        assert len(db.tuples("r")) == 15          # C(6,2) pairs
        assert stats.new_facts == 15
        assert stats.derivations == 19            # 5 + 14
        assert stats.rounds == 4

    def test_stratum_trail(self):
        _, stats = run_chain()
        assert len(stats.strata) == 1
        record = stats.strata[0]
        assert record.number == 0
        assert record.rounds == 4
        assert record.new_facts == 15
        assert record.delta_sizes == [9, 3, 2, 1]
        assert record.elapsed > 0.0

    def test_index_counters(self):
        _, stats = run_chain()
        # e is indexed on its first column once, during ``step``'s
        # initial pass.  The flat join core prefetches the index once per
        # rule application (probes are then plain dict lookups), so the
        # four semi-naive delta applications of ``step`` count one hit
        # each; per-probe traffic shows up in ``id_joins`` instead.
        assert stats.index_builds == 1
        assert stats.index_hits == 4
        assert stats.id_joins == 20           # 5 initial + 9 + 3 + 2 + 1

    def test_scan_counters(self):
        _, stats = run_chain()
        # full scans: e (base, initial pass), r (step, initial pass), and
        # one unbound delta scan per semi-naive round.
        assert stats.full_scans == 6
        assert stats.literal_scans == 26

    def test_edb_load_interner_counters(self):
        db = Database()
        stats = EvalStats()
        with stats.capture_indexes():
            for i in range(5):
                db.add("e", (i, i + 1))
        # terms 0..5 allocate six dense ids; each chain fact after the
        # first re-sees its predecessor's endpoint.
        assert stats.terms_interned == 6
        assert stats.intern_hits == 4
        assert len(db.interner) == 6

    def test_evaluation_stays_in_id_space(self):
        _, stats = run_chain()
        # The tentpole invariant: a constant-free program touches the
        # interner zero times during evaluation — derivation, dedup,
        # delta exchange and merge all run over id rows, and what
        # evaluate() returns is id rows too: no value is produced until
        # somebody reads one.
        assert stats.terms_interned == 0
        assert stats.intern_hits == 0
        assert stats.value_materializations == 0

    def test_head_constants_intern_once_per_plan(self):
        rules = [s for s in parse_statements(
            'base: r(X,Y,"hop") <- e(X,Y). '
            'step: r(X,Z,"hop") <- r(X,Y,T), e(Y,Z).') if isinstance(s, Rule)]
        for n in (6, 10):
            db = Database()
            for i in range(n):
                db.add("e", (i, i + 1))
            stats = EvalStats()
            evaluate(rules, db, EvalContext(stats=stats))
            # "hop" is interned when each of the two plans compiles
            # (base's; step's, which its delta position reuses — same
            # order): one fresh term and one hit however many rounds
            # apply ``step`` (it was one hit per application, n in all,
            # while the head's id template was built per call)
            assert stats.rounds == n - 1
            assert (stats.terms_interned, stats.intern_hits) == (1, 1)
            assert stats.value_materializations == 0
            assert db.tuples("r") == {(i, j, "hop") for i in range(n + 1)
                                      for j in range(i + 1, n + 1)}


class TestPlannerCounters:
    """Exact counts for the cost-based planner instrumentation.

    The chain workload builds three plans — one full-pass plan per rule
    plus ``step``'s delta plan — and serves the remaining three semi-naive
    rounds from the band-keyed cache.  All relations are tiny, so the
    cost model stays out of the way and nothing reorders.
    """

    def test_chain_plan_counts(self):
        _, stats = run_chain()
        assert stats.plans_built == 3
        assert stats.plan_cache_hits == 3
        assert stats.reorder_wins == 0

    def test_cost_model_reorders_skewed_join(self):
        # big is large enough (>= 64) to engage the cost model; greedy
        # order would scan all of big first, the cost model starts from
        # small and probes big twice instead.
        rules = [s for s in parse_statements("sel: h(X) <- big(X), small(X).")
                 if isinstance(s, Rule)]
        db = Database()
        for i in range(80):
            db.add("big", (i,))
        db.add("small", (1,))
        db.add("small", (2,))
        stats = EvalStats()
        evaluate(rules, db, EvalContext(stats=stats))
        assert db.tuples("h") == {(1,), (2,)}
        assert stats.plans_built == 1
        assert stats.reorder_wins == 1
        # one full scan of small, then one indexed probe of big per row
        assert stats.full_scans == 1
        assert stats.literal_scans == 3
        assert stats.rule_firings == {"sel": 2}

    def test_margin_keeps_greedy_order_on_near_ties(self):
        # 100 vs 30: cheaper, but not 4x cheaper once a column is bound —
        # the greedy (source-order) plan stands and nothing reorders.
        rules = [s for s in parse_statements("h(X) <- p(X), q(X).")
                 if isinstance(s, Rule)]
        db = Database()
        for i in range(100):
            db.add("p", (i,))
        for i in range(30):
            db.add("q", (i,))
        stats = EvalStats()
        evaluate(rules, db, EvalContext(stats=stats))
        assert db.tuples("h") == {(i,) for i in range(30)}
        assert stats.reorder_wins == 0

    def test_distinct_counts_beat_fixed_selectivity(self):
        # Both dup and uniq have 100 facts and one bound column, so the
        # fixed-0.1 model scores them identically and the greedy source
        # order (dup first) would stand.  Real distinct counts see that
        # X selects 50 dup rows but only 1 uniq row, and reorder.
        rules = [s for s in parse_statements(
            "sel: h(Y) <- a(X), dup(X,Y), uniq(X,Y).")
            if isinstance(s, Rule)]
        db = Database()
        db.add("a", (0,))
        db.add("a", (1,))
        for i in range(100):
            db.add("dup", (i % 2, i))     # col 0 distinct: 2
            db.add("uniq", (i, i))        # col 0 distinct: 100
        stats = EvalStats()
        evaluate(rules, db, EvalContext(stats=stats))
        assert db.tuples("h") == {(0,), (1,)}
        assert stats.plans_built == 1
        assert stats.reorder_wins == 1
        # one full scan of a, then per a-row one uniq probe and one fully
        # bound dup membership probe — not 50 dup rows per a-row.
        assert stats.full_scans == 1
        assert stats.literal_scans == 5
        # the planner computed distinct counts for dup/uniq column 0 once
        # each (cached on the relation afterwards).
        assert stats.column_stats_built == 2
        assert stats.rule_firings == {"sel": 2}

    def test_magic_overlay_feeds_live_distinct_counts(self):
        """The magic-sets overlay plans with *live* distinct counts.

        The skewed dup/uniq join from the planner test, behind a magic
        rewrite: the adorned rule must still reorder on real distinct
        counts (not the 0.1 fallback), the planner work must be
        attributed to the caller's stats, and — because overlay views
        share their column statistics with the donor relations — a
        second query must *not* re-scan the EDB columns.
        """
        from repro.datalog.magic import query_magic
        from repro.datalog.terms import Atom, Variable

        rules = [s for s in parse_statements(
            "sel: h(Y) <- a(X), dup(X,Y), uniq(X,Y).")
            if isinstance(s, Rule)]
        db = Database()
        db.add("a", (0,))
        db.add("a", (1,))
        for i in range(100):
            db.add("dup", (i % 2, i))     # col 0 distinct: 2
            db.add("uniq", (i, i))        # col 0 distinct: 100
        stats = EvalStats()
        context = EvalContext(stats=stats)
        query = Atom("h", (Variable("Y"),))

        first = query_magic(rules, db, query, context)
        assert first == {(0,), (1,)}
        # dup[0] and uniq[0] were each scanned exactly once, and the
        # cost model used them to reorder the adorned join.
        assert stats.column_stats_built == 2
        assert stats.plans_built == 1
        assert stats.reorder_wins == 1
        assert stats.magic_programs_built == 1
        assert stats.magic_cache_hits == 0

        second = query_magic(rules, db, query, context)
        assert second == first
        # fresh overlay, but the rewrite AND its join plan are served
        # from the magic program cache (the EngineRule objects persist,
        # so their band-keyed plans do too) and the distinct counts from
        # the stats shared with the donor relations: a repeat point
        # query neither re-scans EDB columns nor replans.
        assert stats.column_stats_built == 2
        assert stats.plans_built == 1
        assert stats.reorder_wins == 1
        assert stats.magic_programs_built == 1
        assert stats.magic_cache_hits == 1
        assert stats.plan_cache_hits >= 1

    def test_counters_survive_merge_diff_and_as_dict(self):
        _, stats = run_chain()
        merged = EvalStats()
        merged.merge(stats)
        merged.merge(stats)
        assert merged.plans_built == 6
        assert merged.plan_cache_hits == 6
        before = merged.copy()
        merged.merge(stats)
        delta = merged.diff(before)
        assert delta.plans_built == 3
        rendered = merged.as_dict()
        assert rendered["plans_built"] == 9
        assert rendered["plan_cache_hits"] == 9
        assert rendered["reorder_wins"] == 0


class TestPlanningCostsWhatItDecides:
    """Planning has three lifetimes: a body is analysed once per rule,
    ordered once per band signature, compiled once per distinct order —
    and a rule that cannot fire is not planned at all.  ``plans_built``
    counts orderings, ``plans_compiled`` those that compiled steps."""

    SEL = "sel: h(X) <- p(X), q(X)."

    def sel(self):
        from repro.datalog.engine import normalize_rules

        (rule,) = normalize_rules(
            s for s in parse_statements(self.SEL) if isinstance(s, Rule))
        return rule, Database(), EvalStats()

    def test_a_rule_over_an_empty_relation_is_not_planned(self):
        from repro.datalog.engine import propagate_insertions
        from repro.datalog.stratify import stratify

        rule, db, stats = self.sel()
        for i in range(5):
            db.add("p", (i,))
        context = EvalContext(stats=stats)
        evaluate([rule], db, context)   # q: no relation yet
        db.rel("q")
        evaluate([rule], db, context)   # q: empty
        assert (stats.plans_built, stats.plan_cache_hits) == (0, 0)
        assert stats.literal_scans == 0
        assert not rule._plans
        # ... and fires on the assert that fills the relation
        db.add("q", (3,))
        inserted = {"q": {db.interner.intern_row((3,))}}
        propagate_insertions(stratify([rule]), db, context, inserted)
        assert db.tuples("h") == {(3,)}
        assert (stats.plans_built, stats.plans_compiled) == (1, 1)
        assert stats.rule_firings == {"sel": 1}

    def test_a_band_change_orders_again_and_compiles_only_a_new_order(self):
        rule, db, stats = self.sel()
        context = EvalContext(stats=stats)

        def grow(pred, upto):
            for i in range(len(db.tuples(pred)), upto):
                db.add(pred, (i,))

        def served():
            quiet = EvalContext(stats=EvalStats())
            return rule.plan(quiet, None, db)

        grow("p", 10), grow("q", 10)
        evaluate([rule], db, context)
        small = served()
        assert (stats.plans_built, stats.plans_compiled) == (1, 1)
        # Both relations cross the cost model's floor together: a new
        # band signature, so the body is ordered again — equal costs, the
        # greedy order stands, and its compiled plan is served as it is.
        grow("p", 100), grow("q", 100)
        evaluate([rule], db, context)
        sized = served()
        assert (stats.plans_built, stats.plans_compiled) == (2, 1)
        assert sized is small
        assert stats.reorder_wins == 0
        # p grows until the cost model flips the order: that compiles.
        grow("p", 1000)
        evaluate([rule], db, context)
        flipped = served()
        assert (stats.plans_built, stats.plans_compiled) == (3, 2)
        assert stats.reorder_wins == 1
        assert flipped.order == (1, 0)
        assert flipped is not small
        assert db.tuples("h") == {(i,) for i in range(100)}

    RULES = ["r1: d1(X) <- b(X).", "r2: d2(X) <- d1(X), c(X).",
             "r3: d3(X) <- d2(X)."]

    def three_rules(self, rules=RULES):
        from repro.workspace.workspace import Workspace

        workspace = Workspace("w")
        for i in range(4):
            workspace.assert_fact("b", (i,))
            workspace.assert_fact("c", (i + 2,))
        return workspace, [workspace.add_rule(rule) for rule in rules]

    def test_deactivation_keeps_the_surviving_rules_compiled(self):
        workspace, (r1, r2, r3) = self.three_rules()
        before = {ref: list(rules)
                  for ref, rules in workspace._activated.items()}
        plans = {id(rule): dict(rule._plans)
                 for rules in before.values() for rule in rules}
        compiled_refs = []
        compile_ref = workspace._compile_ref
        workspace._compile_ref = lambda ref: (compiled_refs.append(ref),
                                              compile_ref(ref))[1]
        workspace.deactivate_rule(r3)
        assert workspace.stats.full_recomputes == 0
        assert set(workspace._activated) == {r1, r2}
        for ref in (r1, r2):
            assert all(now is was for now, was in zip(
                workspace._activated[ref], before[ref], strict=True))
        # nothing was compiled again, and the survivors' plans are warm
        assert compiled_refs == []
        for ref in (r1, r2):
            for rule in workspace._activated[ref]:
                for key, plan in plans[id(rule)].items():
                    assert rule._plans[key] is plan
        # the program's relations are those of a workspace that never
        # had r3 (whose reified meta-facts, asserted, rightly stay)
        fresh, _ = self.three_rules(self.RULES[:2])
        for pred in ("b", "c", "d1", "d2", "d3"):
            assert workspace.tuples(pred) == fresh.tuples(pred), pred
        assert workspace.tuples("d2") == {(2,), (3,)}
        assert workspace.tuples("d3") == set()

    def test_an_aborted_deactivation_restores_every_rule(self):
        import pytest

        from repro.workspace.workspace import ConstraintViolation

        workspace, refs = self.three_rules()
        before = {ref: list(rules)
                  for ref, rules in workspace._activated.items()}
        workspace.add_constraint("d2(X) -> d3(X).")
        with pytest.raises(ConstraintViolation):
            workspace.deactivate_rule(refs[2])
        assert workspace.stats.full_recomputes == 0
        assert set(workspace._activated) == set(refs)
        for ref in refs:
            assert all(now is was for now, was in zip(
                workspace._activated[ref], before[ref], strict=True))
        assert workspace.tuples("d3") == {(2,), (3,)}
        workspace.assert_fact("b", (9,))
        workspace.assert_fact("c", (9,))
        assert workspace.tuples("d3") == {(2,), (3,), (9,)}

    def test_section9_compiles_a_third_of_what_it_used_to_build(self):
        # The paper's section 9 script (build, two reads, reconfigure,
        # read), summed over its five principals.  Before planning had
        # lifetimes every ordering compiled: plans_built was 781.  Now
        # 289 orderings run and 248 of them compile steps.
        from test_one_executor import section9_file_system

        stats = [principal.workspace.stats
                 for principal in section9_file_system().principals.values()]
        built = sum(s.plans_built for s in stats)
        compiled = sum(s.plans_compiled for s in stats)
        assert compiled <= built <= 781
        assert compiled * 3 <= 781


class TestStatsPlumbing:
    def test_merge_accumulates_everything(self):
        _, one = run_chain()
        _, two = run_chain()
        merged = EvalStats()
        merged.merge(one)
        merged.merge(two)
        assert merged.rule_firings == {"base": 10, "step": 28}
        assert merged.derivations == 38
        assert merged.index_builds == 2
        assert len(merged.strata) == 2
        assert merged.as_dict()["rule_firings"] == {"base": 10, "step": 28}

    def test_stratum_trail_is_bounded(self):
        stats = EvalStats()
        for i in range(EvalStats.MAX_STRATA + 10):
            stats.record_stratum(StratumStats(number=i))
        assert len(stats.strata) == EvalStats.MAX_STRATA
        assert stats.strata[0].number == 10     # oldest dropped

    def test_as_dict_is_json_safe(self):
        import json

        _, stats = run_chain()
        rendered = json.dumps(stats.as_dict())
        assert '"delta_sizes": [9, 3, 2, 1]' in rendered

    def test_capture_indexes_restores_previous_sink(self):
        from repro.datalog import database

        outer, inner = EvalStats(), EvalStats()
        relation = database.Relation("e", {(1, 2), (3, 4)})
        with outer.capture_indexes():
            with inner.capture_indexes():
                relation.index_for((0,))
            relation.index_for((0,))
        relation.index_for((0,))  # no sink installed: uncounted
        assert (inner.index_builds, inner.index_hits) == (1, 0)
        assert (outer.index_builds, outer.index_hits) == (0, 1)


class TestCopyDiff:
    def test_diff_isolates_a_region(self):
        _, stats = run_chain()
        before = stats.copy()
        _, more = run_chain(3)
        stats.merge(more)
        delta = stats.diff(before)
        assert delta.rule_firings == more.rule_firings
        assert delta.derivations == more.derivations
        assert delta.new_facts == more.new_facts
        assert len(delta.strata) == 1
        # the original keeps accumulating; the snapshot is untouched
        assert before.rule_firings == {"base": 5, "step": 14}

    def test_diff_finds_a_regions_records_in_a_full_trail(self):
        stats = EvalStats()
        for i in range(EvalStats.MAX_STRATA + 44):
            stats.record_stratum(StratumStats(number=i))
        before = stats.copy()
        stats.record_stratum(StratumStats(number=-1))
        stats.record_stratum(StratumStats(number=-2))
        delta = stats.diff(before)
        assert [record.number for record in delta.strata] == [-1, -2]
        assert delta.strata_recorded == 2
        # a merge carries the count, so a diff around it sees its records
        merged = stats.copy()
        merged.merge(delta)
        assert [record.number for record in
                merged.diff(stats).strata] == [-1, -2]
        assert "strata_recorded" not in stats.as_dict()

    def test_a_long_lived_workspace_diff_keeps_its_records(self):
        from repro.workspace.workspace import Workspace

        workspace = Workspace("w")
        workspace.load(TC)
        for i in range(300):
            workspace.assert_fact("e", (i, -i))
        assert len(workspace.stats.strata) == EvalStats.MAX_STRATA
        before = workspace.stats.copy()
        workspace.assert_fact("e", (300, -300))
        delta = workspace.stats.diff(before)
        assert (delta.new_facts, delta.rounds) == (1, 1)
        assert sum(record.new_facts for record in delta.strata) == 1

    def test_incremental_pass_records_seed_delta(self):
        from repro.datalog.engine import (
            normalize_rules, propagate_insertions,
        )
        from repro.datalog.stratify import stratify

        rules = normalize_rules(
            [s for s in parse_statements(TC) if isinstance(s, Rule)])
        db = Database()
        for i in range(5):
            db.add("e", (i, i + 1))
        evaluate(rules, db, EvalContext())
        strata = stratify(rules)
        stats = EvalStats()
        db.add("e", (5, 6))
        seed = {db.interner.intern_row((5, 6))}
        propagate_insertions(strata, db, EvalContext(stats=stats),
                             {"e": seed}, edb_facts=lambda p: set())
        record = stats.strata[-1]
        assert record.delta_sizes[0] == 1        # the seed edge itself
        assert record.rounds == len(record.delta_sizes)
        assert stats.new_facts == 6              # r(i,6) for i in 0..5


    def test_seed_delta_counts_only_what_the_stratum_reads(self):
        from repro.datalog.engine import (
            normalize_rules, propagate_insertions,
        )
        from repro.datalog.stratify import stratify

        rules = normalize_rules(
            [s for s in parse_statements("a(X) <- e(X).")
             if isinstance(s, Rule)])
        db = Database()
        db.add("e", (1,))
        db.add("z", (2,))            # read by no rule
        inserted = {pred: set(db.rel(pred).rows) for pred in ("e", "z")}
        stats = EvalStats()
        propagate_insertions(stratify(rules), db, EvalContext(stats=stats),
                             inserted, edb_facts=lambda p: set())
        assert db.tuples("a") == {(1,)}
        # the e row seeds the stratum; the z row does not (it was [2, 1])
        assert stats.strata[-1].delta_sizes == [1, 1]


class TestMaintenanceStaysInIdSpace:
    """Maintenance takes and returns id rows: between a host's assert and
    somebody's read, no term is interned again and no value is built."""

    def test_propagate_insertions_touches_no_value(self):
        from repro.datalog.engine import (
            normalize_rules, propagate_insertions,
        )
        from repro.datalog.stratify import stratify

        rules = normalize_rules(
            [s for s in parse_statements(TC) if isinstance(s, Rule)])
        db = Database()
        for i in range(5):
            db.add("e", (i, i + 1))
        evaluate(rules, db, EvalContext())
        db.add("e", (5, 6))
        seed = {db.interner.intern_row((5, 6))}
        stats = EvalStats()
        with stats.capture_indexes():
            added = propagate_insertions(
                stratify(rules), db, EvalContext(stats=stats), {"e": seed},
                edb_facts=lambda p: set())
        assert {pred: len(rows) for pred, rows in added.items()} == {"r": 6}
        assert stats.terms_interned == 0
        assert stats.intern_hits == 0
        assert stats.value_materializations == 0

    def test_sharded_fixpoint_materializes_nothing_until_read(self):
        import random

        from repro.cluster import Cluster, Partitioner

        names = [f"node{i}" for i in range(4)]
        partitioner = Partitioner(names)
        partitioner.hash_partition("edge", column=0)
        partitioner.hash_partition("reach", column=1)
        cluster = Cluster(names, partitioner=partitioner)
        cluster.load("tc0: reach(X,Y) <- edge(X,Y). "
                     "tc1: reach(X,Z) <- reach(X,Y), edge(Y,Z).")
        rng = random.Random(11)
        for v in range(24):
            for t in rng.sample(range(24), 2):
                if t != v:
                    cluster.assert_fact("edge", (v, t))
        report = cluster.run()
        assert report.messages > 0
        assert sum(node.stats.new_facts
                   for node in cluster.nodes.values()) > 0
        assert sum(node.stats.value_materializations
                   for node in cluster.nodes.values()) == 0
        assert cluster.tuples("reach")

    def test_workspace_assert_and_retract_materialize_nothing(self):
        from repro.workspace.workspace import Workspace

        workspace = Workspace("w")
        workspace.load(TestRetractCostIsBounded.POLICY)
        workspace.assert_facts("memberOf", [("u0", "g0"), ("u0", "g1")])
        workspace.assert_fact("subgroup", ("g0", "g1"))
        workspace.assert_facts("grant", [("g0", "o0", "read"),
                                         ("g1", "o1", "read")])
        before = workspace.stats.copy()
        workspace.assert_fact("memberOf", ("u1", "g0"))
        workspace.retract_fact("memberOf", ("u0", "g0"))
        spent = workspace.stats.diff(before)
        assert spent.new_facts > 0 and spent.dred_strata > 0
        assert spent.value_materializations == 0
        assert workspace.tuples("access") == {
            ("u0", "o1", "read"), ("u1", "o0", "read"), ("u1", "o1", "read")}


class TestRetractCostIsBounded:
    """One retract costs what it deletes, not what the stratum holds.

    A fixed RBAC policy; ``u0`` is in ``g0`` and ``g1``, and ``g0`` is a
    subgroup of ``g1``.  Retracting ``memberOf(u0,g0)``:

    * over-deletes ``member(u0,g0)``, then ``member(u0,g1)`` (via ``rb2``)
      and ``access(u0,o0,read)``, then ``access(u0,o1,read)`` — 4;
    * head-bound re-derivation finds one derivation among the four
      candidates: ``member(u0,g1)`` from its own ``memberOf`` — 1, and
      1 fact back;
    * the closure from that survivor re-derives ``access(u0,o1,read)``
      through ``rb3`` — 1, and 1 fact back.

    The same retract against ten times as many unrelated users and
    objects must count exactly the same: a full pass over the stratum
    would scale with them, and wall time at test sizes would not show it.
    """

    POLICY = """
        rb1: member(U,G) <- memberOf(U,G).
        rb2: member(U,G) <- member(U,H), subgroup(H,G).
        rb3: access(U,O,P) <- member(U,G), grant(G,O,P).
        rb4: access(U,O,P) <- owner(U,O), perm(P).
    """

    def retract_counts(self, unrelated):
        from repro.datalog.engine import normalize_rules
        from repro.datalog.incremental import propagate_deletions
        from repro.datalog.stratify import stratify

        edb = {
            "memberOf": {("u0", "g0"), ("u0", "g1")},
            "subgroup": {("g0", "g1")},
            "grant": {("g0", "o0", "read"), ("g1", "o1", "read")},
            "owner": {("u1", "o0")},
            "perm": {("read",), ("write",)},
        }
        for i in range(unrelated):
            edb["memberOf"].add((f"x{i}", f"h{i % 3}"))
            edb["grant"].add((f"h{i % 3}", f"p{i}", "read"))
            edb["owner"].add((f"x{i}", f"p{i}"))
        rules = normalize_rules(
            [s for s in parse_statements(self.POLICY) if isinstance(s, Rule)])
        db = Database()
        for pred, facts in edb.items():
            for fact in facts:
                db.add(pred, fact)
        evaluate(rules, db, EvalContext())
        size_before = len(db.tuples("access"))

        # the maintenance API speaks id rows over db.interner
        intern_row = db.interner.intern_row
        materialize = db.interner.materialize_row
        victim = ("u0", "g0")
        edb["memberOf"].discard(victim)
        db.discard("memberOf", victim)
        asserted = {pred: {intern_row(fact) for fact in facts}
                    for pred, facts in edb.items()}
        stats = EvalStats()
        removed = propagate_deletions(
            stratify(rules), db, EvalContext(stats=stats),
            {"memberOf": {intern_row(victim)}},
            edb_facts=lambda p: asserted.get(p, set()))
        assert {pred: {materialize(row) for row in rows}
                for pred, rows in removed.items()} == {
                    "memberOf": {victim},
                    "member": {("u0", "g0")},
                    "access": {("u0", "o0", "read")}}
        assert db.tuples("member") >= {("u0", "g1")}
        assert len(db.tuples("access")) == size_before - 1
        return stats

    def test_one_retract_exact_counts(self):
        stats = self.retract_counts(unrelated=0)
        assert stats.derivations == 6             # 4 + 1 + 1
        assert stats.new_facts == 2
        assert stats.rule_firings == {"rb1": 1, "rb3": 1}
        assert stats.dred_strata == 1
        assert stats.strata_recomputed == 0

    def test_counts_do_not_depend_on_unrelated_facts(self):
        small = self.retract_counts(unrelated=3)
        large = self.retract_counts(unrelated=30)
        pinned = self.retract_counts(unrelated=0)
        for stats in (small, large):
            assert stats.derivations == pinned.derivations
            assert stats.new_facts == pinned.new_facts
            assert stats.rule_firings == pinned.rule_firings
            assert stats.literal_scans == pinned.literal_scans
            assert stats.value_materializations == \
                pinned.value_materializations


class TestDeactivationCostsWhatItTouches:
    """Deactivating a rule costs what the rule fed, not what the
    workspace holds.

    ``tag`` derived ``tagged(0..2)`` from three ``pick`` facts, beside an
    unrelated ``path`` closure over an N-edge chain.  Deactivating it:

    * applies ``tag`` once over the fixpoint to find its rows — 3;
    * takes them out and DReds them over the rules that remain:
      ``seen`` over-deletes its three rows — 3; head-bound re-derivation
      finds ``tagged(0)`` through ``also`` — 1, and 1 fact back; the
      closure re-derives ``seen(0)`` — 1, and 1 fact back.

    Eight derivations at any N.  A rebuild (what a deactivation was until
    PR 19) re-derives the closure — 102 derivations at N = 10, 1017 at
    N = 40 — and replaces every ``Relation``.
    """

    PROGRAM = """
        base: path(X,Y) <- edge(X,Y).
        step: path(X,Z) <- path(X,Y), edge(Y,Z).
        also: tagged(X) <- other(X).
        seen: seen(X) <- tagged(X).
    """

    def deactivate(self, chain):
        from repro.workspace.workspace import Workspace

        workspace = Workspace("w")
        workspace.load(self.PROGRAM)
        tag = workspace.add_rule("tag: tagged(X) <- pick(X).")
        with workspace.transaction():
            for i in range(chain):
                workspace.assert_fact("edge", (i, i + 1))
            for i in range(3):
                workspace.assert_fact("pick", (i,))
            workspace.assert_fact("other", (0,))
        assert len(workspace.tuples("path")) == chain * (chain + 1) // 2
        assert workspace.tuples("seen") == {(0,), (1,), (2,)}
        held = {pred: (relation, dict(relation._indexes))
                for pred, relation in workspace.db.relations.items()}
        before = workspace.stats.copy()
        workspace.deactivate_rule(tag)
        assert workspace.tuples("tagged") == {(0,)}
        assert workspace.tuples("seen") == {(0,)}
        return workspace, workspace.stats.diff(before), held

    def test_exact_counts_at_two_sizes(self):
        for chain in (10, 40):
            _, spent, _ = self.deactivate(chain)
            assert spent.derivations == 8          # 3 + 3 + 1 + 1
            assert spent.new_facts == 2
            assert spent.rule_firings == {"tag": 3, "also": 1, "seen": 1}
            assert spent.index_builds == 0
            assert spent.rounds == 1
            assert spent.full_recomputes == 0

    def test_what_the_rule_never_fed_is_the_object_it_was(self):
        workspace, _, held = self.deactivate(10)
        assert set(workspace.db.relations) == set(held)
        for pred, (relation, indexes) in held.items():
            assert workspace.db.relations[pred] is relation, pred
            if pred in ("active", "tagged", "seen"):
                continue    # written: copied on write off the snapshot
            # (``other`` gains the index re-derivation probes it by)
            for positions, index in indexes.items():
                assert relation._indexes[positions] is index, pred


class TestOneRoute:
    """``EvalContext.stats`` is the one route engine counters take: a
    single context handed to an entry point collects all of its work."""

    CHAIN = "r(X,Y) <- e(X,Y). r(X,Z) <- r(X,Y), e(Y,Z)."

    def rules(self):
        return [s for s in parse_statements(self.CHAIN) if isinstance(s, Rule)]

    @staticmethod
    def chain(extra=()):
        db = Database()
        for i in range(30):
            db.add("e", (i, i + 1))
        for edge in extra:
            db.add("e", edge)
        return db

    @staticmethod
    def assert_counted(stats, names):
        assert [name for name in names.split() if not getattr(stats, name)] \
            == [], stats.as_dict()

    def test_evaluate_counts_engine_planner_walker_and_storage(self):
        stats = EvalStats()
        evaluate(self.rules(), self.chain(), EvalContext(stats=stats))
        assert (stats.derivations, stats.rounds, stats.new_facts,
                stats.plans_built, stats.literal_scans, stats.id_joins,
                stats.index_builds) == (494, 29, 465, 5, 526, 495, 1)

    def test_evaluate_naive(self):
        from benchmarks.oracles import evaluate_naive

        stats = EvalStats()
        evaluate_naive(self.rules(), self.chain(), EvalContext(stats=stats))
        self.assert_counted(stats, "derivations rounds new_facts plans_built "
                                   "literal_scans id_joins")

    def test_propagate_insertions(self):
        from repro.datalog.engine import normalize_rules, propagate_insertions
        from repro.datalog.stratify import stratify

        db = self.chain()
        stats = EvalStats()
        propagate_insertions(stratify(normalize_rules(self.rules())), db,
                             EvalContext(stats=stats),
                             {"e": set(db.rel("e").rows)})
        self.assert_counted(stats, "derivations rounds new_facts plans_built "
                                   "literal_scans id_joins index_builds")

    def test_propagate_deletions(self):
        from repro.datalog.engine import normalize_rules
        from repro.datalog.incremental import propagate_deletions
        from repro.datalog.stratify import stratify

        rules = normalize_rules(self.rules())
        db = self.chain(extra=[(0, 2)])     # r(0,Z) survives e(1,2)
        evaluate(rules, db)
        row = db.interner.intern_row((1, 2))
        db.rel("e").discard_row(row)
        asserted = set(db.rel("e").rows)
        stats = EvalStats()
        propagate_deletions(stratify(rules), db, EvalContext(stats=stats),
                            {"e": {row}}, edb_facts=lambda p: asserted)
        self.assert_counted(stats, "derivations rounds new_facts plans_built "
                                   "literal_scans id_joins dred_strata")

    def test_check_constraints(self):
        from repro.datalog.constraints import check_constraints
        from repro.datalog.terms import Constraint

        db = self.chain()
        evaluate(self.rules(), db)
        constraints = [s for s in parse_statements("r(X,Y) -> e(X,Y).")
                       if isinstance(s, Constraint)]
        stats = EvalStats()
        assert check_constraints(constraints, db, EvalContext(stats=stats))
        self.assert_counted(stats, "plans_built literal_scans id_joins")

    def test_solve(self):
        from repro.datalog.runtime import solve

        (rule,) = [s for s in parse_statements("q(X,Z) <- e(X,Y), e(Y,Z).")
                   if isinstance(s, Rule)]
        stats = EvalStats()
        assert len(list(solve(rule.body, self.chain(),
                              EvalContext(stats=stats)))) == 29
        self.assert_counted(stats, "plans_built literal_scans id_joins")

    def test_query_magic(self):
        from repro.datalog.magic import query_magic
        from repro.datalog.parser import parse_atom

        stats = EvalStats()
        answers = query_magic(self.rules(), self.chain(), parse_atom("r(3,X)"),
                              EvalContext(stats=stats))
        assert len(answers) == 27
        self.assert_counted(stats, "magic_programs_built derivations rounds "
                                   "new_facts plans_built literal_scans "
                                   "id_joins index_builds")
