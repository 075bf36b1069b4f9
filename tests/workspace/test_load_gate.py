"""The static-check gate on ``Workspace.load``.

The gate's contract: error diagnostics reject a load by raising the same
exception type the engine would raise (never a new analysis-specific
type), the rejection happens *before* anything is installed, and warning
diagnostics survive in ``last_check`` plus the audit log.
"""

import pytest

from repro.datalog.errors import (
    SafetyError,
    StratificationError,
    WorkspaceError,
)
from repro.workspace.workspace import Workspace


class TestRejectPaths:
    def test_unsafe_rule_raises_safety_error(self):
        workspace = Workspace("w")
        with pytest.raises(SafetyError, match="static check rejected"):
            workspace.load("p(X,Y) <- q(X).")
        # nothing was installed: the reject happened before the transaction
        assert not workspace.active_refs()
        assert workspace.tuples("p") == set()

    def test_unstratifiable_raises_stratification_error(self):
        workspace = Workspace("w")
        with pytest.raises(StratificationError, match=r"\[R101\]"):
            workspace.load("p(X) <- q(X), !r(X).\nr(X) <- p(X).\nq(1).")
        assert not workspace.active_refs()

    def test_arity_clash_raises_workspace_error(self):
        workspace = Workspace("w")
        with pytest.raises(WorkspaceError, match=r"\[R201\]"):
            workspace.load("f(1).\nf(1,2).")
        assert workspace.tuples("f") == set()

    def test_all_errors_reported_at_once(self):
        workspace = Workspace("w")
        with pytest.raises(SafetyError) as exc:
            workspace.load("p(X,Y) <- q(X).\nf(1).\nf(1,2).")
        message = str(exc.value)
        assert "[R001]" in message and "[R201]" in message

    @pytest.mark.parametrize("route", ["load", "add_constraint"])
    @pytest.mark.parametrize("source", [
        "p(X) -> X < Y.", "p(X), X < Y -> q(X).", "p(X) -> q(X), Y > 1."])
    def test_unsafe_constraint_is_refused_at_install(self, route, source):
        """Refused on the way in, by both routes — not at the first
        commit that puts a row in ``p``, and not only once ``q`` has one."""
        workspace = Workspace("w")
        with pytest.raises(SafetyError, match="unsafe (left|right)-hand side"):
            getattr(workspace, route)(source)
        assert workspace.constraints == []
        workspace.assert_facts("p", [(1,), (2,)])
        workspace.assert_fact("q", (1,))
        assert workspace.tuples("p") == {(1,), (2,)}

    def test_rejected_load_keeps_prior_state(self):
        workspace = Workspace("w")
        workspace.load("good(1).")
        with pytest.raises(SafetyError):
            workspace.load("good(2).\np(X,Y) <- q(X).")
        assert workspace.tuples("good") == {(1,)}


class TestWarnPath:
    WARN_PROGRAM = "r(X) <- s(X), !t(X,Y).\ns(1). t(1,2)."

    def test_warning_program_still_loads(self):
        workspace = Workspace("w")
        workspace.load(self.WARN_PROGRAM)
        assert workspace.tuples("r") == set()  # t(1,2) blocks nothing: !t(1,Y)
        assert workspace.tuples("s") == {(1,)}

    def test_warnings_land_in_last_check_and_audit(self):
        workspace = Workspace("w")
        workspace.load(self.WARN_PROGRAM)
        codes = [d.code for d in workspace.last_check]
        assert "R002" in codes
        events = [e for e in workspace.audit
                  if e.kind == "static_check_warnings"]
        assert len(events) == 1
        assert any("[R002]" in w for w in events[0].detail["warnings"])

    def test_clean_load_resets_last_check_and_skips_audit(self):
        workspace = Workspace("w")
        workspace.load(self.WARN_PROGRAM)
        assert workspace.last_check
        workspace.load("clean(1).")
        assert workspace.last_check == []
        events = [e for e in workspace.audit
                  if e.kind == "static_check_warnings"]
        assert len(events) == 1  # only the warning load was logged


class TestGateEngineAgreement:
    """The gate must never reject a program the engine accepts."""

    ACCEPTED = [
        "p(X) <- q(X), X > 1.\nq(1). q(2).",
        "p(X) <- q(X), !r(X).\nr(1). q(1).",          # stratified negation
        "t(X,N) <- agg<<N = count(Y)>> e(X,Y).\ne(1,2).",
        'says0: says(U1,U2,R) -> prin(U1), prin(U2), rule(R).',
    ]

    @pytest.mark.parametrize("source", ACCEPTED)
    def test_engine_accepted_programs_still_load(self, source):
        workspace = Workspace("w")
        workspace.load(source)


class TestOneSchema:
    """A load is checked against its workspace's catalog, which every
    fact, rule and constraint declares through: the gate and
    :meth:`Workspace.typecheck` read one schema, across loads."""

    DECLARATIONS = ("age(P,N) -> string(P), int(N).\n"
                    "name(P,S) -> string(P), string(S).\n")
    RULE = "bad(X) <- age(P,X), name(P,X).\n"
    CLASH = ("<unlabeled>", "X", ("int", "string"))

    @staticmethod
    def r202(workspace):
        return [d.message for d in workspace.last_check if d.code == "R202"]

    @pytest.mark.parametrize("loads", [
        [DECLARATIONS + RULE], [DECLARATIONS, RULE]], ids=["one", "two"])
    def test_gate_and_typecheck_agree_in_one_load_or_two(self, loads):
        # `int(N)` is a builtin call once compiled; its type used to be
        # dropped from the workspace's catalog, so typecheck() saw no
        # clash, and a second load's gate saw no declarations at all.
        workspace = Workspace("w")
        for source in loads:
            workspace.load(source)
        assert self.r202(workspace) == [
            "variable X is used at positions typed int, string"]
        assert workspace.typecheck() == [self.CLASH]

    def test_a_nominal_clash_split_across_loads_is_reported(self):
        workspace = Workspace("w")
        workspace.load("cat(C) -> feline(C).\ndog(D) -> canine(D).")
        workspace.load("both(X) <- cat(X), dog(X).")
        assert self.r202(workspace) == [
            "variable X is used at positions typed canine, feline"]
        assert workspace.typecheck() == [
            ("<unlabeled>", "X", ("canine", "feline"))]

    def test_a_cross_load_arity_clash_is_refused_with_a_location(self):
        workspace = Workspace("w")
        workspace.load("p(1,2).")
        with pytest.raises(WorkspaceError,
                           match=r"<input>:1:9: \[R201\] arity clash for 'p'"):
            workspace.load("q(X) <- p(X).")
        assert not workspace.active_refs()
        assert workspace.catalog.get("q") is None

    def test_a_fact_before_a_curried_rule_leaves_the_key_open(self):
        workspace = Workspace("w")
        workspace.load("p(1,2).\nsrc(3,4).")
        workspace.load("p[K](V) <- src(K,V).")
        assert workspace.catalog.info("p").key_arity == 1
        assert workspace.tuples("p") == {(1, 2), (3, 4)}

    def test_a_fact_of_another_arity_is_refused(self):
        workspace = Workspace("w")
        workspace.assert_fact("zz", (1,))
        with pytest.raises(WorkspaceError, match="arity 1"):
            workspace.assert_fact("zz", (1, 2))
        assert workspace.tuples("zz") == {(1,)}

    def test_a_read_declares_nothing(self):
        workspace = Workspace("w")
        assert workspace.point_query("nothing(X)") == set()
        assert workspace.catalog.get("nothing") is None
