"""Partitioning by currying (paper section 3.4).

``p(X1,…,Xn)`` partitioned on its first attribute becomes the
higher-order ``p'[X1](X2,…,Xn)``: same data, grouped into per-key subsets
that the ``predNode`` placement relation can then distribute (section
3.5).  The paper initializes partitions with the regular rule
``p'[X1](X2,…,Xn) <- p(X1,…,Xn)`` — this module generates exactly that
rule (and its declaration) for any predicate and key width, plus small
query helpers for inspecting one partition.
"""

from __future__ import annotations

from ..datalog.errors import WorkspaceError
from .workspace import Workspace


def curried_name(pred: str) -> str:
    """The conventional name for the curried version of ``pred``."""
    return pred + "'"


def currying_rule(pred: str, arity: int, key_arity: int = 1,
                  curried: str | None = None) -> str:
    """Source text of the partition-initialization rule.

    >>> currying_rule("p", 3)
    "p'[X1](X2,X3) <- p(X1,X2,X3)."
    """
    if not 0 < key_arity < arity:
        raise WorkspaceError(
            f"key arity must be between 1 and {arity - 1}, got {key_arity}"
        )
    curried = curried or curried_name(pred)
    variables = [f"X{i + 1}" for i in range(arity)]
    keys = ",".join(variables[:key_arity])
    values = ",".join(variables[key_arity:])
    all_vars = ",".join(variables)
    return f"{curried}[{keys}]({values}) <- {pred}({all_vars})."


def install_partition(workspace: Workspace, pred: str, arity: int,
                      key_arity: int = 1, curried: str | None = None) -> str:
    """Declare and populate a curried partition of ``pred``.

    Returns the curried predicate name.  The currying rule declares it,
    as any rule does, and maintains it: it is an active rule like any
    other.
    """
    curried = curried or curried_name(pred)
    workspace.add_rule(currying_rule(pred, arity, key_arity, curried))
    return curried


def partition_contents(workspace: Workspace, curried: str, key: tuple) -> set:
    """The value tuples stored under one partition key."""
    info = workspace.catalog.get(curried)
    if info is None:
        raise WorkspaceError(f"unknown partitioned predicate {curried!r}")
    width = info.key_arity
    if width != len(key):
        raise WorkspaceError(
            f"{curried!r} has {width} key columns, got key {key!r}"
        )
    return {
        fact[width:] for fact in workspace.tuples(curried)
        if fact[:width] == tuple(key)
    }


def partition_keys(workspace: Workspace, curried: str) -> set:
    """All partition keys currently populated."""
    info = workspace.catalog.get(curried)
    if info is None:
        raise WorkspaceError(f"unknown partitioned predicate {curried!r}")
    width = info.key_arity
    return {fact[:width] for fact in workspace.tuples(curried)}
