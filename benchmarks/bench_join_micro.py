"""Join microbenchmark: interned id-space joins vs value-tuple joins.

The storage layer interns every ground term to a dense int id at the
relation boundary, so the hot join path hashes and compares small ints
instead of heterogeneous value tuples (clorm's join benchmarks make the
same comparison for its indexed ASP fact bases).  This workload isolates
that effect on a single equijoin

    out(K, X, Y) <- left(K, X), right(K, Y).

sweeping fact count x key selectivity x join machinery.  The first three
modes run the *same* kernel — build/fetch a hash index on the join
column, probe it per outer row, emit with a novelty check — so the only
variable is the storage representation and index availability:

* ``id_indexed``   — the engine's actual structures: interned id rows
  (:class:`Relation`) probed through ``Relation.index_for`` id buckets;
* ``value_hash``   — the identical kernel over raw value tuples with a
  dict-of-lists index (what the join cost before interning);
* ``value_scan``   — the no-index straw man: nested-loop over value
  tuples, what every join degrades to without an index.

``engine`` runs the full evaluator end-to-end (parse-time plan, flat
join core, relation store-back, value materialization at the boundary)
for pipeline context; it pays the id<->value boundary once, which a
single non-recursive join cannot amortize — the fixpoint workloads
(``eval_strategies``) show where that trade wins.

``selectivity`` is the distinct-key fraction: ``keys = max(1, n *
selectivity)``, so small values mean fat buckets (many matches per
probe) and large values mean selective probes that mostly miss.
"""

import random

from benchmarks.harness import benchmark
from repro.datalog.database import Database
from repro.datalog.engine import evaluate
from repro.datalog.parser import parse_statements
from repro.datalog.runtime import EvalContext
from repro.datalog.terms import Rule

JOIN = "out(K,X,Y) <- left(K,X), right(K,Y)."
RULES = [s for s in parse_statements(JOIN) if isinstance(s, Rule)]

SEED = 11


def build_sides(n: int, selectivity: float) -> tuple[list, list]:
    """Two n-fact relations joined on a key column drawn from a domain
    of ``n * selectivity`` distinct values.

    Join keys are compound principal-style terms (the shape LBTrust
    predicates actually carry), built fresh per row the way parsed or
    wire-decoded facts arrive: value-tuple joins hash and compare the
    whole structure on every probe, while interned storage collapses
    each distinct key to one dense int at load time.
    """
    keys = max(1, int(n * selectivity))
    rng = random.Random(SEED)

    def key(i: int) -> tuple:
        return ("principal", f"p{i}.example.org")

    left = [(key(rng.randrange(keys)), f"l{i}") for i in range(n)]
    right = [(key(rng.randrange(keys)), f"r{i}") for i in range(n)]
    return left, right


def loaded_db(left: list, right: list) -> Database:
    db = Database()
    for fact in left:
        db.add("left", fact)
    for fact in right:
        db.add("right", fact)
    return db


def join_kernel(rows0, bucket_get, existing: set) -> set:
    """The shared probe-and-emit loop: one index probe per outer row,
    novelty check per solution — the flat join core's inner shape,
    representation-agnostic (rows may hold interned ids or raw values)."""
    produced = set()
    for row0 in rows0:
        bucket = bucket_get(row0[0])
        if bucket is None:
            continue
        key, left_term = row0
        for row1 in bucket:
            out = (key, left_term, row1[1])
            if out not in existing:
                produced.add(out)
    return produced


_SWEEP = [(n, selectivity)
          for n in (1000, 4000) for selectivity in (0.01, 0.1, 0.5)]


# value_scan is O(n^2) whatever the selectivity, so it sweeps smaller
# fact counts than the indexed modes — its axis is index availability,
# not scale.
@benchmark("join_micro", group="engine", warmup=2, repeats=7,
           quick=[{"mode": "id_indexed", "n": 2000, "selectivity": 0.1},
                  {"mode": "value_hash", "n": 2000, "selectivity": 0.1},
                  {"mode": "value_scan", "n": 1000, "selectivity": 0.1},
                  {"mode": "engine", "n": 2000, "selectivity": 0.1}],
           full=[{"mode": mode, "n": n, "selectivity": selectivity}
                 for mode in ("id_indexed", "value_hash")
                 for n, selectivity in _SWEEP]
                + [{"mode": "value_scan", "n": n, "selectivity": 0.1}
                   for n in (1000, 2000)]
                + [{"mode": "engine", "n": 4000, "selectivity": 0.1}])
def join_micro(case, mode, n, selectivity):
    """Single equijoin: id-space indexed vs value-tuple hash/scan joins."""
    left, right = build_sides(n, selectivity)
    if mode == "id_indexed":
        db = loaded_db(left, right)          # interning is load-time work
        rows0 = db.rel("left").rows
        relation1 = db.rel("right")
        with case.measure():                 # index built on first use
            produced = join_kernel(rows0, relation1.index_for((0,)).get,
                                   set())
        out_size = len(produced)
    elif mode == "value_hash":
        rows0, rows1 = set(left), set(right)
        with case.measure():
            index: dict = {}
            for row in rows1:
                bucket = index.get(row[0])
                if bucket is None:
                    index[row[0]] = [row]
                else:
                    bucket.append(row)
            produced = join_kernel(rows0, index.get, set())
        out_size = len(produced)
    elif mode == "value_scan":
        rows0, rows1 = set(left), set(right)
        with case.measure():
            produced = set()
            for k, x in rows0:
                for k2, y in rows1:
                    if k == k2:
                        produced.add((k, x, y))
        out_size = len(produced)
    elif mode == "engine":
        db = loaded_db(left, right)
        context = EvalContext(stats=case.stats)
        with case.measure():
            evaluate(RULES, db, context)
        out_size = len(db.tuples("out"))
    else:  # pragma: no cover - registry passes only the params above
        raise ValueError(f"unknown mode {mode!r}")
    case.record(result_size=out_size,
                distinct_keys=max(1, int(n * selectivity)))
