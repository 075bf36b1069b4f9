"""Each pass family over seeded bad programs: exact codes and spans.

The fixtures here are the acceptance contract of ISSUE 7: every family
(R0 safety, R1 stratification, R2 catalog/types, R3 dead code, R4
attribution, R5 placement) must fire with a stable code and a precise
``file:line:col`` span on a program seeded with exactly that defect.
"""

import pytest

from repro.analysis import analyze_source
from repro.cluster.partition import Partitioner


def check(source, **kwargs):
    return analyze_source(source, file="t.dl", **kwargs)


def by_code(diags, code):
    return [d for d in diags if d.code == code]


def only(diags, code):
    found = by_code(diags, code)
    assert len(found) == 1, f"expected one {code}, got {diags}"
    return found[0]


# -- R0: safety -------------------------------------------------------------

def test_r001_unbound_head_variable():
    d = only(check("p(X,Y) <- q(X)."), "R001")
    assert d.severity == "error"
    assert "Y" in d.message and "range-restricted" in d.message
    assert d.location() == "t.dl:1:1"


def test_r002_negated_unbound_is_a_warning():
    d = only(check("r(X) <- s(X), !t(X,Y)."), "R002")
    assert d.severity == "warning"
    assert "Y" in d.message
    assert d.location() == "t.dl:1:16"  # the negated atom itself


def test_r003_unschedulable_comparison():
    d = only(check("p(X) <- q(X), X > Y, r(X)."), "R003")
    assert d.severity == "error"
    assert "unbound variable(s) Y" in d.message


def test_r003_builtin_inputs_unbound():
    d = only(check("p(S) <- q(X), rsasign(R,S,K)."), "R003")
    assert "rsasign" in d.message and "input positions" in d.message


@pytest.mark.parametrize("source, side, item", [
    ("p(X) -> X < Y.", "right", "X < Y"),
    ("p(X), X < Y -> q(X).", "left", "X < Y"),
    ("p(X) -> q(X), Y > 1.", "right", "Y > 1"),
    ("p(X) -> q(X) ; (r(X), Z != X).", "right", "Z != X"),
])
def test_r003_unschedulable_constraint_side(source, side, item):
    """An LHS alternative must schedule from nothing, an RHS one from
    what its LHS binds: refused at load, whatever the database holds."""
    d = only(check(source), "R003")
    assert d.severity == "error"
    assert f"unsafe {side}-hand side" in d.message and item in d.message
    assert d.location() == "t.dl:1:1"


def test_safe_constraints_have_no_r0xx():
    source = ("p(X) -> X > 1.\n!p(_) -> q(_).\n"
              "p(X), q(Y) -> X != Y ; r(X,Z), Z > X.\n"
              "p(X) -> !q(X), !r(X,_).\n")
    assert not [d for d in check(source) if d.code.startswith("R0")]


def test_safe_program_has_no_r0xx():
    diags = check('p(X) <- q(X), X > 1.\nq(1). q(2).')
    assert not [d for d in diags if d.code.startswith("R0")]


# -- R1: stratification -----------------------------------------------------

def test_r101_negative_cycle_spelled_out():
    d = only(check("p(X) <- q(X), !r(X).\nr(X) <- p(X).\nq(1)."), "R101")
    assert d.severity == "error"
    # the offending cycle is rendered in the message
    assert "p" in d.message and "r" in d.message
    assert "->" in d.message
    assert "not stratifiable" in d.message


def test_r102_aggregation_cycle():
    source = "t(X,N) <- agg<<N = count(Y)>> e(X,Y), t(X,_).\ne(1,2)."
    d = only(check(source), "R102")
    assert d.severity == "error"


def test_stratified_negation_is_fine():
    diags = check("p(X) <- q(X), !r(X).\nr(1). q(1). q(2).")
    assert not [d for d in diags if d.code.startswith("R1")]


# -- R2: catalog and types --------------------------------------------------

def test_r201_arity_clash():
    d = only(check("f(1).\nf(1,2)."), "R201")
    assert d.severity == "error"
    assert d.pred == "f"
    assert d.location() == "t.dl:2:1"


def test_r202_incompatible_declared_types():
    source = ("p(X) -> int(X).\n"
              "q(X) -> string(X).\n"
              "r(X) <- p(X), q(X).")
    d = only(check(source), "R202")
    assert d.severity == "warning"
    assert "X" in d.message
    assert "int" in d.message and "string" in d.message
    assert d.location() == "t.dl:3:1"


def test_r202_number_abstracts_int():
    source = ("p(X) -> int(X).\n"
              "q(X) -> number(X).\n"
              "r(X) <- p(X), q(X).")
    assert not by_code(check(source), "R202")


# -- R3: dead code ----------------------------------------------------------

def test_r301_underivable_body_predicate():
    d = only(check("p(X) <- q(X), r(X).\nr(1)."), "R301")
    assert d.severity == "info"
    assert d.pred == "q"
    assert d.location() == "t.dl:1:9"


def test_r301_respects_declarations():
    # a declared predicate is a legitimate EDB input
    diags = check("q(X) -> int(X).\np(X) <- q(X).")
    assert not by_code(diags, "R301")


def test_r302_singleton_variable():
    d = only(check("p(X) <- q(X,Y).\nq(1,2)."), "R302")
    assert d.severity == "info"
    assert "Y" in d.message
    # anonymous _ does not count
    assert not by_code(check("p(X) <- q(X,_).\nq(1,2)."), "R302")


def test_r303_contradictory_body():
    d = only(check("p(X) <- q(X), !q(X).\nq(1)."), "R303")
    assert d.severity == "info"
    diags = check("p(X) <- q(X), X < X.\nq(1).")
    assert by_code(diags, "R303")


# -- R4: attribution --------------------------------------------------------

def test_r401_imported_predicate_read_plainly():
    source = ("ok(U,C) <- says(U,me,[| cred(C). |]).\n"
              "grant(C) <- cred(C).")
    d = only(check(source), "R401")
    assert d.severity == "warning"
    assert d.pred == "cred"
    assert "says" in d.message
    assert d.location() == "t.dl:2:13"


def test_r401_not_raised_when_derived_locally():
    source = ("ok(U,C) <- says(U,me,[| cred(C). |]).\n"
              "cred(C) <- localfact(C).\n"
              "grant(C) <- cred(C).\nlocalfact(1).")
    assert not by_code(check(source), "R401")


# -- R5: placement ----------------------------------------------------------

def placement(nodes=2):
    return Partitioner([f"n{i}" for i in range(nodes)])


def test_r501_join_not_colocated():
    part = placement()
    part.hash_partition("a", 0)
    part.hash_partition("b", 0)
    d = only(check("j(X,Y) <- a(X,K), b(Y,Z).", placement=part), "R501")
    assert d.severity == "error"
    assert "co-located" in d.message
    assert d.location() == "t.dl:1:1"


def test_r501_colocated_join_is_clean():
    part = placement()
    part.hash_partition("a", 0)
    part.hash_partition("b", 0)
    diags = check("j(X) <- a(X,K), b(X,Z), K < Z.", placement=part)
    assert not by_code(diags, "R501")


def test_r502_negation_over_exchanged_pred():
    part = placement()
    part.hash_partition("a", 0)
    d = only(check("p(X) <- b(X), !a(X).", placement=part), "R502")
    assert d.severity == "error"
    assert d.pred == "a"
    assert "2-node" in d.message


def test_placement_pass_skipped_without_placement():
    diags = check("p(X) <- b(X), !a(X).")
    assert not [d for d in diags if d.code.startswith("R5")]


def test_single_node_placement_is_trivially_fine():
    part = placement(nodes=1)
    part.hash_partition("a", 0)
    diags = check("p(X) <- b(X), !a(X).", placement=part)
    assert not [d for d in diags if d.code.startswith("R5")]
