"""A base row is its supporters: one store for asserted and stated rows.

A workspace keeps each base row once, with the labels of what holds it:
``"$edb"`` if the row is asserted, and ``r<rid>`` once per head of each
active ground fact that states it.  The oracle here knows nothing of the
store: it replays an activation stream's committed asserts, retracts,
activations and deactivations into a model of the asserted facts, reads
the ground facts among the ``active`` rows, and after every step —
refused and rolled-back ones included — the store must hold exactly the
label multiset each row earns from those two.
"""

from collections import Counter

from hypothesis import example, given, settings

from repro.datalog.errors import ConstraintViolation, StratificationError
from repro.workspace.workspace import Workspace

from strategies import ACTIVATION_CONSTRAINT, ActivationStream, activation_streams


def held_labels(ws):
    """``(pred, id row) -> Counter`` of its labels, read from the store."""
    return {(pred, row): Counter(labels)
            for pred, rows in ws._base.items() for row, labels in rows.items()}


def earned_labels(ws, asserted):
    """What each row should hold: ``"$edb"`` per fact of ``asserted``,
    plus ``r<rid>`` per head of every ground fact among ``ws``'s
    ``active`` rows."""
    row_of = ws.db.interner.row_of
    earned: dict = {}
    for pred, fact in asserted:
        earned.setdefault((pred, row_of(fact)), Counter())["$edb"] += 1
    for (ref,) in ws.tuples("active"):
        rule = ws.registry.rule_of(ref)
        if not rule.is_ground_fact():
            continue
        for head in rule.heads:
            key = (head.pred, row_of(tuple(term.value
                                           for term in head.all_args)))
            earned.setdefault(key, Counter())[f"r{ref.rid}"] += 1
    return earned


def run(stream):
    ws = Workspace("w", enable_provenance=True)
    ws.add_constraint(ACTIVATION_CONSTRAINT)
    asserted: set = set()   # (pred, fact) committed as asserted
    added = []
    for step in stream.steps:
        kind = step[0]
        try:
            if kind == "add":
                ref = ws.add_rule(step[1])
                added.append(ref)
                asserted.add(("active", (ref,)))
            elif kind == "deactivate":
                live = [ref for ref in added if ("active", (ref,)) in asserted]
                if live:
                    ref = live[step[1] % len(live)]
                    ws.deactivate_rule(ref)
                    asserted.discard(("active", (ref,)))
            elif kind == "assert":
                ws.assert_fact(step[1], step[2])
                asserted.add((step[1], step[2]))
            elif kind == "retract":
                if (step[1], step[2]) in asserted:
                    ws.retract_fact(step[1], step[2])
                    asserted.discard((step[1], step[2]))
            else:   # activated at the commit, then refused by ``small``
                with ws.transaction():
                    ws.add_rule(step[1])
                    ws.assert_fact("s", (99,))
        except (ConstraintViolation, StratificationError):
            pass
        assert held_labels(ws) == earned_labels(ws, asserted), step


@given(activation_streams())
# asserted and stated at once, then either goes
@example(ActivationStream((
    ("assert", "s", (1,)),
    ("add", "s(1), s(1), a(2)."),
    ("retract", "s", (1,)),
    ("deactivate", 0))))
# two facts state one row; a refused commit states nothing
@example(ActivationStream((
    ("add", "a(1), b(1)."),
    ("add", "a(1)."),
    ("violate", "a(1)."),
    ("deactivate", 0))))
@settings(max_examples=150, deadline=None)
def test_property_a_base_row_holds_what_it_earns(stream):
    run(stream)
