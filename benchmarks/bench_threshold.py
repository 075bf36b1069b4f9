"""A5 — ablation: threshold (k-of-n) aggregation scaling (section 4.2.2).

Cost of the wd2 count as the bureau group grows: n bureaus each vouch for
m subjects; the bank's aggregate recomputes per batch.
"""

from benchmarks.harness import benchmark
from repro.core.delegation import install_threshold
from repro.datalog.parser import parse_rule
from repro.meta.registry import RuleRegistry
from repro.workspace.workspace import Workspace

SUBJECTS = 20
K = 3


def make_bank(bureaus):
    registry = RuleRegistry()
    workspace = Workspace("bank", registry=registry)
    install_threshold(workspace, "creditOK", "creditBureau", K,
                      result="approved")
    with workspace.transaction():
        for i in range(bureaus):
            workspace.assert_fact("pringroup", (f"b{i}", "creditBureau"))
    refs = [registry.intern(parse_rule(f'creditOK("c{j}").'))
            for j in range(SUBJECTS)]
    return workspace, refs, bureaus


def vote_all(workspace, refs, bureaus):
    with workspace.transaction():
        for i in range(bureaus):
            for ref in refs:
                workspace.assert_fact("says", (f"b{i}", "bank", ref))
    assert len(workspace.tuples("approved")) == SUBJECTS


@benchmark("threshold_scaling", group="threshold",
           quick=[{"bureaus": 4}],
           full=[{"bureaus": 4}, {"bureaus": 8}, {"bureaus": 16}])
def threshold_scaling(case, bureaus):
    """k-of-n aggregate recompute cost as the vouching group grows."""
    workspace, refs, n = make_bank(bureaus)
    case.watch(workspace.stats)
    with case.measure():
        vote_all(workspace, refs, n)
    case.record(subjects=SUBJECTS)
