"""A1 — ablation: naive vs semi-naive evaluation (section 3.1).

LogicBlox "utilizes a bottom-up semi-naive fixpoint execution model"; this
bench quantifies why, on transitive closure over chain and grid graphs.
Semi-naive avoids re-deriving old facts each round, turning the quadratic
re-derivation blowup into work linear in the output.
"""

from benchmarks.harness import benchmark
from benchmarks.oracles import evaluate_naive
from repro.datalog.database import Database
from repro.datalog.engine import evaluate
from repro.datalog.parser import parse_statements
from repro.datalog.runtime import EvalContext
from repro.datalog.terms import Rule

TC = "r(X,Y) <- e(X,Y). r(X,Z) <- r(X,Y), e(Y,Z)."
RULES = [s for s in parse_statements(TC) if isinstance(s, Rule)]

CHAIN = 60
GRID = 8


def chain_db(size: int = None) -> Database:
    db = Database()
    for i in range(size if size is not None else CHAIN):
        db.add("e", (i, i + 1))
    return db


def grid_db(size: int = None) -> Database:
    size = size if size is not None else GRID
    db = Database()
    for x in range(size):
        for y in range(size):
            if x + 1 < size:
                db.add("e", ((x, y), (x + 1, y)))
            if y + 1 < size:
                db.add("e", ((x, y), (x, y + 1)))
    return db


@benchmark("eval_strategies", group="engine",
           quick=[{"strategy": "seminaive", "graph": "chain", "size": 40},
                  {"strategy": "naive", "graph": "chain", "size": 40}],
           full=[{"strategy": "seminaive", "graph": "chain", "size": CHAIN},
                 {"strategy": "naive", "graph": "chain", "size": CHAIN},
                 {"strategy": "seminaive", "graph": "grid", "size": GRID},
                 {"strategy": "naive", "graph": "grid", "size": GRID}])
def eval_strategies(case, strategy, graph, size):
    """Naive vs semi-naive transitive closure (section 3.1 ablation)."""
    evaluator = evaluate if strategy == "seminaive" else evaluate_naive
    db = chain_db(size) if graph == "chain" else grid_db(size)
    context = EvalContext(stats=case.stats)
    with case.measure():
        evaluator(RULES, db, context)
    case.record(closure_size=len(db.tuples("r")))
