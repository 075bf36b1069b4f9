"""A2 — ablation: the section 7 optimizer conjecture.

"Magic-sets can potentially bridge the top-down evaluation approach used
in access control, versus the typical bottom-up continuous evaluation."

Workload: a selective point query reach("n0", X) over a random graph with
a large component irrelevant to the query.  Full bottom-up computes
everything; magic-sets and tabled top-down only touch what the query
needs.
"""

import random

from benchmarks.harness import benchmark
from benchmarks.oracles import query_topdown
from repro.datalog.database import Database
from repro.datalog.engine import evaluate
from repro.datalog.magic import query_magic
from repro.datalog.parser import parse_atom, parse_statements
from repro.datalog.runtime import EvalContext
from repro.datalog.terms import Rule

TC = "r(X,Y) <- e(X,Y). r(X,Z) <- e(X,Y), r(Y,Z)."
RULES = [s for s in parse_statements(TC) if isinstance(s, Rule)]
QUERY = parse_atom('r("q0",X)')

RELEVANT = 30      # nodes reachable from the query source
IRRELEVANT = 400   # nodes in a component the query never touches


def make_db(relevant=None, irrelevant=None) -> Database:
    relevant = relevant if relevant is not None else RELEVANT
    irrelevant = irrelevant if irrelevant is not None else IRRELEVANT
    rng = random.Random(5)
    db = Database()
    for i in range(relevant - 1):
        db.add("e", (f"q{i}", f"q{i + 1}"))
    nodes = [f"x{i}" for i in range(irrelevant)]
    for _ in range(irrelevant * 3):
        db.add("e", (rng.choice(nodes), rng.choice(nodes)))
    return db


@benchmark("magic_point_query", group="engine",
           quick=[{"strategy": "bottomup", "relevant": 20, "irrelevant": 150},
                  {"strategy": "magic", "relevant": 20, "irrelevant": 150},
                  {"strategy": "topdown", "relevant": 20, "irrelevant": 150}],
           full=[{"strategy": "bottomup", "relevant": RELEVANT,
                  "irrelevant": IRRELEVANT},
                 {"strategy": "magic", "relevant": RELEVANT,
                  "irrelevant": IRRELEVANT},
                 {"strategy": "topdown", "relevant": RELEVANT,
                  "irrelevant": IRRELEVANT}])
def magic_point_query(case, strategy, relevant, irrelevant):
    """Selective point query: full bottom-up vs magic-sets vs tabled top-down."""
    db = make_db(relevant, irrelevant)
    with case.measure():
        if strategy == "bottomup":
            evaluate(RULES, db, EvalContext(stats=case.stats))
            answers = {t for t in db.tuples("r") if t[0] == "q0"}
        elif strategy == "magic":
            answers = query_magic(RULES, db, QUERY)
        else:
            answers = query_topdown(RULES, db, QUERY)
    case.record(answers=len(answers))
