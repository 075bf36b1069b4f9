"""One schema per host, as a property over generated programs.

Declarations and rules split across loads must type-check the same as
the whole text checked at once: the load gate reads the workspace's
catalog, which every earlier load declared into, and
:meth:`Workspace.typecheck` reads that same catalog.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.pipeline import analyze_source
from repro.datalog.errors import WorkspaceError
from repro.workspace.workspace import Workspace
from strategies import arity_clashes, schema_programs

_R202 = re.compile(r"variable (\S+) is used at positions typed (.*)")


def r202(diagnostics) -> set:
    """``(rule label, variable, types)`` per R202, as typecheck() lists it."""
    found = set()
    for diagnostic in diagnostics:
        if diagnostic.code == "R202":
            variable, types = _R202.fullmatch(diagnostic.message).groups()
            found.add((diagnostic.rule_label or "<unlabeled>", variable,
                       tuple(types.split(", "))))
    return found


@settings(max_examples=80, deadline=None)
@given(program=schema_programs(), data=st.data())
def test_split_loads_type_check_as_the_whole_text(program, data):
    expected = r202(analyze_source(program.text))
    workspace = Workspace("w")
    gated = set()
    for source in program.loads:
        workspace.load(source)
        gated |= r202(workspace.last_check)
    assert gated == expected
    assert set(workspace.typecheck()) == expected

    clash = data.draw(arity_clashes(program.arities))
    names = workspace.catalog.names()
    with pytest.raises(WorkspaceError, match=r"<input>:1:\d+: \[R201\]"):
        workspace.load(clash)
    assert workspace.catalog.names() == names
    assert set(workspace.typecheck()) == expected
