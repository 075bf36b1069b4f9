"""``repro serve`` CLI: scripted sessions, self-checks, exit codes."""

import io

from repro.cli import main as repro_main
from repro.serve.cli import (
    _closing_stats,
    build_parser,
    main as serve_main,
    run_session,
)


class TestServeCommand:
    def run(self, *argv):
        out = io.StringIO()
        status = serve_main(list(argv), out=out)
        return status, out.getvalue()

    def test_simulated_session_passes(self):
        status, text = self.run("--steps", "4")
        assert status == 0
        assert "session checks: OK" in text
        assert "transport=simulated" in text
        assert "p50=" in text and "p99=" in text
        assert "dred_strata=+" in text and "dred_strata=+0" not in text
        assert "query_derivations=+0" in text

    def test_each_client_has_one_update_refused(self):
        status, text = self.run("--steps", "2", "--clients", "3")
        assert status == 0
        assert "updates=9 refused=3 queries=9" in text

    def test_socket_session_passes(self):
        status, text = self.run("--transport", "socket", "--steps", "4",
                                "--clients", "1")
        assert status == 0
        assert "session checks: OK" in text
        assert "transport=socket" in text

    def test_procs_requires_socket(self):
        status, text = self.run("--procs", "2")
        assert status == 2
        assert "--procs requires --transport socket" in text

    def test_bad_counts_rejected(self):
        status, _ = self.run("--steps", "0")
        assert status == 2

    def test_routed_from_top_level_cli(self, capsys):
        assert repro_main(["serve", "--steps", "2", "--clients", "1"]) == 0
        assert "session checks: OK" in capsys.readouterr().out

    def test_parser_defaults(self):
        args = build_parser().parse_args([])
        assert args.transport == "simulated"
        assert args.procs == 0
        assert args.auth == "plaintext"


class TestRunSession:
    def test_session_reports_a_mismatch(self):
        class LyingClient:
            def assert_fact(self, pred, fact):
                pass

            def retract_fact(self, pred, fact):
                pass

            def query(self, source):
                return []  # never the expected answers

        result = run_session(LyingClient(), 0, steps=2)
        assert not result["ok"]
        assert result["failures"]
        # 2 asserts + 2 queries + the final step's retract + re-query
        assert result["updates"] == 3 and result["queries"] == 3
        assert len(result["latencies"]) == 6

    def test_a_server_that_admits_the_banned_subject_fails_the_session(self):
        class PermissiveClient:
            def __init__(self):
                self.good = set()

            def assert_fact(self, pred, fact):
                self.good.add(fact[0])      # "mallory" too: no constraint

            def retract_fact(self, pred, fact):
                self.good.discard(fact[0])

            def query(self, source):
                subject = source.split('"')[1]
                return [(subject, obj, "read") for obj in ("f1", "f2")
                        if subject in self.good]

        result = run_session(PermissiveClient(), 0, steps=2)
        assert result["refused"] == 0
        assert len(result["failures"]) == 1
        assert "not refused" in result["failures"][0]

    def test_closing_sweep_reports_what_queries_derived(self):
        class DerivingClient:
            derivations = 10

            def stats(self):
                return {"derivations": self.derivations}

            def query(self, source):
                self.derivations += 2  # a server that evaluates per query

        after, derived = _closing_stats(DerivingClient(), clients=2)
        assert after == {"derivations": 10}
        assert derived == 6  # one query per client + the unbound one
