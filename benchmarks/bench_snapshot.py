"""A8 — transaction rollback cost vs database size.

The workspace's transactional constraint enforcement logs what a
transaction changes to an undo journal and, on rollback, puts exactly
that back; the cost tracks the delta, not the database, so transaction
overhead stays flat as the fact base grows.  Two modes:

* ``database`` — raw ``journal.begin()`` / ten adds / ``rollback()``
  cycles over a wide database where each transaction touches a single
  relation;
* ``workspace`` — full transaction rollbacks (constraint violation) on a
  workspace carrying a large EDB, at two sizes a decade apart, the
  paper's section 3.2 admission scenario: a big policy base rejecting a
  bad batch should pay for the batch, not for the base.
"""

from benchmarks.harness import benchmark
from repro.datalog.database import Database
from repro.datalog.errors import ConstraintViolation
from repro.workspace.workspace import Workspace

RELATIONS = 50    # relations in the wide database
FACTS = 200       # facts per relation
TXNS = 40         # begin/mutate/rollback cycles measured


def wide_database(relations: int, facts: int) -> Database:
    db = Database()
    for r in range(relations):
        name = f"rel{r}"
        for i in range(facts):
            db.add(name, (i, i + 1))
        db.rel(name).index_for((0,))  # a maintained index per relation
    return db


def loaded_workspace(facts: int) -> Workspace:
    ws = Workspace("bench", "bench")
    ws.load('edge(X,Y) -> .  bad(X) -> .  bad(X) -> nosuch(X).')
    ws.assert_facts("edge", [(i, i + 1) for i in range(facts)])
    return ws


@benchmark("snapshot_rollback", group="engine",
           quick=[{"mode": "database", "relations": 30, "facts": 100,
                   "txns": 20},
                  {"mode": "workspace", "facts": 300, "txns": 10},
                  {"mode": "workspace", "facts": 3000, "txns": 10}],
           full=[{"mode": "database", "relations": RELATIONS, "facts": FACTS,
                  "txns": TXNS},
                 {"mode": "workspace", "facts": 2000, "txns": TXNS},
                 {"mode": "workspace", "facts": 20000, "txns": TXNS}])
def snapshot_rollback(case, mode, facts, txns, relations=None):
    """Journal begin/rollback cycles: cost tracks the delta, not the database."""
    if mode == "database":
        db = wide_database(relations, facts)
        with case.measure():
            for t in range(txns):
                db.journal.begin()
                hot = f"rel{t % relations}"
                for i in range(10):
                    db.add(hot, ("txn", t, i))
                db.journal.rollback()
        assert db.total_facts() == relations * facts
        case.record(total_facts=db.total_facts())
    else:
        ws = loaded_workspace(facts)
        case.watch(ws.stats)
        rejected = 0
        with case.measure():
            for t in range(txns):
                try:
                    with ws.transaction():
                        ws.assert_fact("edge", (facts + t, facts + t + 1))
                        ws.assert_fact("bad", (t,))
                except ConstraintViolation:
                    rejected += 1
        edb_facts = len(ws.edb["edge"])
        assert rejected == txns and edb_facts == facts
        case.record(rejected=rejected, edb_facts=edb_facts)
