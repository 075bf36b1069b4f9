"""A3 — ablation: incremental maintenance vs recompute-from-scratch.

"When predicate data is modified, the active rules are incrementally
recomputed" (section 3.1).  Workload: maintain transitive closure while a
stream of edges arrives; the incremental path pays per-delta, the
recompute path pays the whole fixpoint on every change.

The ``retract`` mode is the deletion-side axis: the same ``stream`` edges
are retracted from the chain's tail while ``unrelated`` disjoint edges
(and their closure facts) sit in the same relations and the same
stratum.  DRed is bounded by what a deletion touches, so the points must
time alike however many unrelated facts there are; a pass over the whole
stratum would scale with them.
"""

from benchmarks.harness import benchmark
from repro.datalog.database import Database
from repro.datalog.engine import evaluate, normalize_rules, propagate_insertions
from repro.datalog.incremental import propagate_deletions
from repro.datalog.parser import parse_statements
from repro.datalog.runtime import EvalContext
from repro.datalog.stratify import stratify
from repro.datalog.terms import Rule

TC = "r(X,Y) <- e(X,Y). r(X,Z) <- r(X,Y), e(Y,Z)."
RULES = normalize_rules([s for s in parse_statements(TC) if isinstance(s, Rule)])

BASE = 40       # pre-existing chain length
STREAM = 15     # edges arriving one at a time


def base_edges(base=None):
    return [(i, i + 1) for i in range(base if base is not None else BASE)]


def stream_edges(base=None, stream=None):
    base = base if base is not None else BASE
    stream = stream if stream is not None else STREAM
    return [(base + i, base + i + 1) for i in range(stream)]


def unrelated_edges(count):
    """``count`` disjoint one-edge components, far from the chain's nodes."""
    return [(1_000_000 + 2 * i, 1_000_001 + 2 * i) for i in range(count)]


def seeded(edges):
    db = Database()
    for edge in edges:
        db.add("e", edge)
    return db


def edge_row(db, edge):
    """The maintenance API speaks id rows over ``db.interner`` — and an
    int-valued edge *is* a well-typed id row, so handing one in raw runs
    to completion and maintains garbage."""
    return db.interner.intern_row(edge)


def check_against_scratch(db, edges):
    """The maintained closure equals a from-scratch fixpoint of ``edges``."""
    scratch = seeded(edges)
    evaluate(RULES, scratch, EvalContext())
    assert db.tuples("e") == scratch.tuples("e") == set(edges)
    assert db.tuples("r") == scratch.tuples("r"), "maintenance diverged"


@benchmark("incremental_maintenance", group="engine",
           quick=[{"mode": "incremental", "base": 30, "stream": 10},
                  {"mode": "recompute", "base": 30, "stream": 10},
                  {"mode": "retract", "base": 30, "stream": 10,
                   "unrelated": 1_000},
                  {"mode": "retract", "base": 30, "stream": 10,
                   "unrelated": 10_000}],
           full=[{"mode": "incremental", "base": BASE, "stream": STREAM},
                 {"mode": "recompute", "base": BASE, "stream": STREAM},
                 {"mode": "retract", "base": BASE, "stream": STREAM,
                  "unrelated": 1_000},
                 {"mode": "retract", "base": BASE, "stream": STREAM,
                  "unrelated": 10_000},
                 {"mode": "retract", "base": BASE, "stream": STREAM,
                  "unrelated": 100_000}])
def incremental_maintenance(case, mode, base, stream, unrelated=0):
    """Per-delta maintenance vs whole-fixpoint recompute on an edge stream."""
    if mode == "retract":
        chain = base_edges(base + stream + 1)
        # Unrelated edges first: chain ids then differ from chain values,
        # so a raw edge handed in as a row cannot be right by accident.
        db = seeded(unrelated_edges(unrelated) + chain)
        edb = {"e": set(db.rel("e").rows)}
        evaluate(RULES, db, EvalContext())
        context = EvalContext(stats=case.stats)
        strata = stratify(RULES)

        def retract(edge):
            row = edge_row(db, edge)
            edb["e"].discard(row)
            db.rel("e").discard_row(row)
            propagate_deletions(strata, db, context, {"e": {row}},
                                edb_facts=edb.get)

        # Untimed: the first retract builds the deletion plans and the
        # indexes they probe, which a long-lived workspace pays once.
        retract(chain.pop())
        with case.measure():
            for _ in range(stream):
                retract(chain.pop())
        case.record(closure_size=len(db.rel("r")))
        check_against_scratch(db, chain + unrelated_edges(unrelated))
    elif mode == "incremental":
        db = seeded(base_edges(base))
        # Setup fixpoint runs on its own context so the recorded
        # counters cover only the measured propagation below.
        evaluate(RULES, db, EvalContext())
        context = EvalContext(stats=case.stats)
        strata = stratify(RULES)
        with case.measure():
            for edge in stream_edges(base, stream):
                db.add("e", edge)
                propagate_insertions(strata, db, context,
                                     {"e": {edge_row(db, edge)}},
                                     edb_facts=lambda p: set())
        case.record(closure_size=len(db.tuples("r")))
        check_against_scratch(db, base_edges(base) + stream_edges(base, stream))
    else:
        edges = list(base_edges(base))
        context = EvalContext(stats=case.stats)
        with case.measure():
            for edge in stream_edges(base, stream):
                edges.append(edge)
                db = seeded(edges)
                evaluate(RULES, db, context)
        case.record(closure_size=len(db.tuples("r")))
        check_against_scratch(db, edges)
