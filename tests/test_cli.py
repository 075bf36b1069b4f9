"""The interactive shell, driven end-to-end through its dispatch loop."""

import io
import subprocess
import sys

import pytest

from repro.cli import Shell


def run_script(script: str, auth: str = "plaintext") -> str:
    out = io.StringIO()
    shell = Shell(auth=auth, rsa_bits=256, out=out)
    shell.run(io.StringIO(script))
    return out.getvalue()


class TestShell:
    def test_full_session(self):
        output = run_script("""
            :principal alice
            :principal bob
            :as bob
            object("f1"). access(P,O,"read") <- good(P), object(O).
            :as alice
            :says bob good("carol").
            :run
            :as bob
            :query access(P,O,M)
        """)
        assert "created alice" in output
        assert "delivered=1" in output
        assert "'carol'" in output and "'f1'" in output

    def test_tuples_and_rules(self):
        output = run_script("""
            :principal w
            base("x").
            d(X) <- base(X).
            :tuples d
            :rules
        """)
        assert "('x',)" in output
        assert "d(V0) <- base(V0)." in output

    def test_error_handling_keeps_session_alive(self):
        output = run_script("""
            :query oops(X)
            :principal w
            this is not datalog
            :tuples nothing
        """)
        assert "error: no current principal" in output
        assert "error:" in output  # the parse error too

    def test_reconfigure(self):
        output = run_script("""
            :principal a
            :principal b
            :as a
            :says b note("1").
            :run
            :reconfigure hmac
            :says b note("2").
            :run
            :as b
            :tuples note
        """)
        assert "auth scheme is now hmac" in output
        assert "('1',)" in output and "('2',)" in output

    def test_audit_of_rejection(self):
        output = run_script("""
            :principal a
            :principal b
            :as b
            :audit
        """, auth="hmac")
        # no rejections yet: audit section prints nothing but must not crash
        assert "error" not in output.lower()

    def test_quit_stops(self):
        output = run_script(":principal w\n:quit\n:principal never\n")
        assert "created w" in output
        assert "never" not in output

    def test_help(self):
        assert ":says" in run_script(":help")


def test_module_entrypoint_runs():
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--auth", "plaintext"],
        input=":principal solo\nfact(\"1\").\n:tuples fact\n:quit\n",
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert "('1',)" in result.stdout


def test_typed_terms_q_true_is_a_bool():
    """A lone principal's ``true`` is a bool: the interner keys values by
    type, so ``q(true)`` is not ``q(1)``, even though the machinery
    interns the int 1 first.  Keyed by value equality it read back as
    ``(1,)`` and ``isbool`` stayed empty."""
    result = subprocess.run(
        [sys.executable, "-m", "repro", "--auth", "plaintext"],
        input=":principal alice\nq(true).\nisbool(X) <- q(X), bool(X).\n"
              ":tuples isbool\n",
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "(True,)" in result.stdout.splitlines(), result.stdout


def test_workspace_typecheck_api():
    from repro.workspace.workspace import Workspace

    workspace = Workspace("w")
    workspace.load("""
        good(P) -> principal(P).
        size(O,N) -> object(O), int(N).
        bad: oops(X) <- good(X), size(X,N).
    """)
    assert workspace.typecheck() == [("bad", "X", ("object", "principal"))]


class TestClusterSubcommand:
    def run_demo(self, *argv):
        import io

        from repro.cluster.demo import main

        out = io.StringIO()
        code = main(list(argv), out=out)
        return code, out.getvalue()

    def test_demo_runs_and_reports(self):
        code, output = self.run_demo("--nodes", "3", "--vertices", "20")
        assert code == 0
        assert "3 node(s)" in output
        assert "fixpoint:" in output
        assert "batch message(s)" in output
        # per-node rows for every node
        for name in ("node0", "node1", "node2"):
            assert name in output

    def test_single_node_demo_has_no_traffic(self):
        code, output = self.run_demo("--nodes", "1", "--vertices", "12")
        assert code == 0
        assert "0 batch message(s)" in output

    def test_bad_arguments_rejected(self):
        code, _output = self.run_demo("--nodes", "0")
        assert code == 2

    def test_nonpositive_timeout_rejected(self):
        for timeout in ("-1", "0"):
            code, output = self.run_demo("--transport", "socket",
                                         "--timeout", timeout)
            assert code == 2
            assert output.splitlines()[-1] == "error: need --timeout > 0"

    def test_negative_latency_rejected(self):
        code, output = self.run_demo("--latency", "-1")
        assert code == 1
        assert output.splitlines()[-1].startswith("error: latency must be")
        assert "converged" not in output

    def test_socket_transport_in_process(self):
        code, output = self.run_demo("--transport", "socket",
                                     "--nodes", "3", "--vertices", "20")
        assert code == 0
        assert "socket transport" in output
        assert "fixpoint:" in output
        assert "wall time" in output

    def test_socket_transport_multiprocess(self):
        code, output = self.run_demo("--transport", "socket",
                                     "--procs", "3", "--vertices", "20")
        assert code == 0
        assert "3 worker process(es)" in output
        assert "fixpoint:" in output

    def test_socket_and_simulated_fixpoints_agree(self):
        """One print path over one report: simulated, TCP and three OS
        processes print the same per-node table and ``fixpoint:`` line."""
        _, simulated = self.run_demo("--nodes", "3", "--vertices", "20")
        _, in_proc = self.run_demo("--transport", "socket",
                                   "--nodes", "3", "--vertices", "20")
        _, multi = self.run_demo("--transport", "socket",
                                 "--procs", "3", "--vertices", "20")
        def table_through_fixpoint(output):
            lines = output.splitlines()
            start = next(i for i, line in enumerate(lines)
                         if line.startswith("node "))
            stop = next(i for i, line in enumerate(lines)
                        if line.startswith("fixpoint:"))
            return lines[start:stop + 1]
        table = table_through_fixpoint(simulated)
        assert len(table) == 6 and table[-1].split()[1].isdigit()
        assert table == table_through_fixpoint(in_proc) \
            == table_through_fixpoint(multi)

    def test_procs_requires_socket_transport(self):
        code, output = self.run_demo("--procs", "3")
        assert code == 2
        assert "--transport socket" in output

    def test_dispatch_from_main(self):
        # `repro cluster ...` routes through the top-level entry point
        import subprocess
        import sys as _sys

        result = subprocess.run(
            [_sys.executable, "-m", "repro", "cluster", "--nodes", "2",
             "--vertices", "12"],
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "fixpoint:" in result.stdout
