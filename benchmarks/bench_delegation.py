"""A4 — ablation: delegation machinery cost vs chain depth.

Measures setting up a delegation chain of length N with depth budgets:
every hop triggers del1 code generation, dd2b budget inference, and a
says-propagated budget message — the full meta-programming path.
"""

from benchmarks.harness import benchmark
from repro import LBTrustSystem

CHAIN = 6


def build_chain(length):
    system = LBTrustSystem(auth="plaintext", seed=9, delegation=True)
    principals = [system.create_principal(f"p{i}") for i in range(length + 1)]
    for principal in principals:
        principal.load("perm(A) -> string(A).")
    return system, principals


def run_chain(system, principals):
    for i in range(len(principals) - 1):
        principals[i].delegate(principals[i + 1].name, "perm",
                               depth=len(principals) - 2 - i)
        system.run()
    # the last link's budget must be 0
    last = principals[-1]
    assert any(row[3] == 0 for row in last.tuples("inferredDelDepth"))


@benchmark("delegation_chain", group="delegation",
           quick=[{"length": 3}],
           full=[{"length": 3}, {"length": CHAIN}])
def delegation_chain(case, length):
    """Full meta-programming path: delegate hop-by-hop with depth budgets."""
    system, principals = build_chain(length)
    for principal in principals:
        case.watch(principal.workspace.stats)
    with case.measure():
        run_chain(system, principals)
    case.record(hops=length)
