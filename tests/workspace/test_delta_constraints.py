"""A commit checks its constraints over what it changed, and decides as
the full sweep would.

``Workspace._commit`` hands ``check_constraints`` the transaction's delta
(``datalog/constraints.py``): a constraint whose relations did not change
is not visited, and one whose relations did is solved with a positive
literal pinned to the inserted rows — or swept in full, at its first
check and wherever deletions could make a new witness or unmake an old
extension.  The oracle is ``check_constraints`` with no delta over the
same database, run at the same moment of every commit: the two must
accept and refuse the same commits, and every violation the delta check
reports must be one the sweep finds.
"""

from contextlib import contextmanager

import pytest
from hypothesis import find, given, settings

from repro.datalog import constraints
from repro.datalog.errors import ConstraintViolation
from repro.workspace import workspace as workspace_module
from repro.workspace.workspace import Workspace

from strategies import CONSTRAINTS, transaction_streams


class Abort(Exception):
    """Raised inside a transaction the stream rolls back."""


def witnessed(violations):
    return {(id(v.constraint), frozenset(v.bindings.items()))
            for v in violations}


@contextmanager
def oracle():
    """Every commit's delta check, compared with the full sweep made at
    the same moment; yields the counts of commits compared and refused."""
    compared = {"commits": 0, "refused": 0}
    check = constraints.check_constraints

    def checked(constraint_list, db, context, **caches):
        found = check(constraint_list, db, context, **caches)
        swept = check(constraint_list, db, context)
        assert bool(found) == bool(swept), (found, swept)
        assert witnessed(found) <= witnessed(swept), (found, swept)
        compared["commits"] += 1
        compared["refused"] += bool(found)
        return found

    workspace_module.check_constraints = checked
    try:
        yield compared
    finally:
        workspace_module.check_constraints = check


def stream_workspace(stream):
    workspace = Workspace("w")
    workspace.builtins.register(
        "rsize", "o", lambda ws: [(len(ws.db.get("r") or ()),)],
        needs_context=True, volatile=True)
    if stream.rules:
        workspace.load(stream.rules)
    for label in stream.constraints:
        try:
            workspace.add_constraint(CONSTRAINTS[label])
        except ConstraintViolation:
            pass
    return workspace


def apply(workspace, op):
    """One op of a :class:`strategies.TransactionStream`; a retract of
    a fact not asserted is skipped."""
    kind = op[0]
    if kind in ("install", "remove", "reinstall"):
        label = op[1]
        if kind != "install":
            workspace.remove_constraints(CONSTRAINTS[label].split(":")[0])
        if kind != "remove":
            workspace.add_constraint(CONSTRAINTS[label])
        return
    if kind in ("say", "unsay"):
        pred = "says"
        fact = (op[1], workspace.me, workspace.registry.intern_text(op[2]))
    else:
        pred, fact = op[1], op[2]
    row = workspace.db.interner.row_of(fact)
    held = "$edb" in workspace._base.get(pred, {}).get(row, ())
    if kind in ("say", "assert"):
        workspace.assert_fact(pred, fact)
    elif held:
        workspace.retract_fact(pred, fact)


def run(stream):
    workspace = stream_workspace(stream)
    for ops, abort in stream.transactions:
        try:
            with workspace.transaction():
                for op in ops:
                    apply(workspace, op)
                if abort:
                    raise Abort
        except (Abort, ConstraintViolation):
            pass
    return workspace


@settings(max_examples=300, deadline=None)
@given(transaction_streams())
def test_every_commit_decides_as_the_full_sweep(stream):
    with oracle():
        run(stream)


def test_the_streams_commit_and_refuse():
    """The property is not vacuous: its streams reach commits that are
    accepted and commits that are refused."""
    def accepts_and_refuses(stream):
        with oracle() as compared:
            run(stream)
        return compared["commits"] - compared["refused"] >= 4 \
            and compared["refused"] >= 2

    find(transaction_streams(), accepts_and_refuses,
         settings=settings(max_examples=500, deadline=None, database=None))


class TestFullSweeps:
    """The cases a delta cannot argue for are swept in full."""

    @staticmethod
    def planned(monkeypatch):
        seen = []
        plan = constraints._plan

        def recording(plan_cache, analyses, alternative, shape, db, context,
                      first=None):
            seen.append((alternative, first))
            return plan(plan_cache, analyses, alternative, shape, db,
                        context, first)

        monkeypatch.setattr(constraints, "_plan", recording)
        return seen

    def test_a_reinstalled_constraint_is_checked_again(self):
        text = "c: p(X) -> q(X) ; X > 5."
        workspace = Workspace("w")
        workspace.load(f"q(1). p(1). {text}")
        workspace.remove_constraints("c")
        workspace.retract_fact("q", (1,))   # allowed while c is out
        # back in, its first check sweeps what its absence let in ...
        with pytest.raises(ConstraintViolation):
            workspace.add_constraint(text)
        # ... and that install was rolled back, so the next one sweeps too
        with pytest.raises(ConstraintViolation):
            workspace.add_constraint(text)
        with pytest.raises(ConstraintViolation):
            with workspace.transaction():
                workspace.remove_constraints("c")
                workspace.add_constraint(text)
        workspace.assert_fact("q", (1,))
        with workspace.transaction():        # out and in, in one commit
            workspace.remove_constraints("c")
            workspace.add_constraint(text)
        assert len(workspace.constraints) == 1

    def test_a_rhs_deletion_sweeps_and_an_insertion_pins(self, monkeypatch):
        workspace = Workspace("w")
        workspace.load("c: p(X) -> q(X).")
        workspace.assert_facts("q", [(1,), (2,), (3,)])
        workspace.assert_facts("p", [(1,), (2,)])
        seen = self.planned(monkeypatch)
        workspace.assert_fact("p", (3,))      # pinned to the one new row
        assert seen and len(workspace.tuples("p")) == 3
        seen.clear()
        workspace.assert_fact("unrelated", (1,))
        assert seen == []                     # not visited
        with pytest.raises(ConstraintViolation):
            workspace.retract_fact("q", (3,))  # p(3) lost its extension

    def test_a_volatile_constraint_is_swept_every_time_it_is_read(self):
        workspace = Workspace("w")
        workspace.builtins.register(
            "rsize", "o", lambda ws: [(len(ws.db.get("r") or ()),)],
            needs_context=True, volatile=True)
        workspace.load("c: p(X), rsize(N) -> N < 2.")
        workspace.assert_fact("p", (1,))
        workspace.assert_fact("r", (1,))
        with pytest.raises(ConstraintViolation):
            workspace.assert_fact("r", (2,))
