"""An interactive LBTrust shell (``python -m repro``).

A small REPL over a multi-principal system, in the spirit of the paper's
demonstration UI ("a visualization tool … to display a table of the values
of various predicates and rules stored at each principal"):

.. code-block:: text

    $ python -m repro --auth hmac
    lbtrust> :principal alice
    lbtrust> :principal bob
    lbtrust> :as bob
    bob> object("f1"). access(P,O,"read") <- good(P), object(O).
    bob> :as alice
    alice> :says bob good("carol").
    alice> :run
    alice> :as bob
    bob> :query access(P,O,M)
    P='carol' O='f1' M='read'

Commands start with ``:``; anything else is Datalog source loaded into the
current principal's context.  Designed to be scriptable (reads stdin), so
the test-suite drives it end-to-end.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, TextIO

from . import LBTrustSystem, ReproError

HELP = """\
commands:
  :principal NAME [NODE]   create a principal (and switch to it)
  :as NAME                 switch the current context
  :says LISTENER STMT      say a rule/fact to another principal
  :run                     run the system to quiescence (deliver messages)
  :query BODY              solve a query in the current context
  :tuples PRED             dump a relation
  :rules                   list active rules in the current context
  :audit                   show the audit log
  :reconfigure SCHEME      swap the authentication scheme (rsa/hmac/...)
  :help                    this text
  :quit                    exit
anything else              Datalog loaded into the current context
"""


class Shell:
    """The REPL engine; I/O injected for testability."""

    def __init__(self, auth: str = "hmac", rsa_bits: int = 512,
                 out: Optional[TextIO] = None) -> None:
        self.system = LBTrustSystem(auth=auth, rsa_bits=rsa_bits, seed=7,
                                    delegation=True)
        self.current: Optional[str] = None
        self.out = out if out is not None else sys.stdout

    def emit(self, text: str = "") -> None:
        print(text, file=self.out)

    @property
    def prompt(self) -> str:
        return f"{self.current or 'lbtrust'}> "

    def run(self, stream: TextIO) -> None:
        for raw in stream:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not self.dispatch(line):
                break

    def dispatch(self, line: str) -> bool:
        """Execute one line; returns False to exit."""
        try:
            return self._dispatch(line)
        except ReproError as exc:
            self.emit(f"error: {exc}")
            return True

    def _dispatch(self, line: str) -> bool:
        if not line.startswith(":"):
            self._need_context().load(line)
            return True
        parts = line.split(None, 2)
        command = parts[0]
        if command == ":quit":
            return False
        if command == ":help":
            self.emit(HELP)
        elif command == ":principal":
            name = parts[1]
            node = parts[2] if len(parts) > 2 else None
            self.system.create_principal(name, node=node)
            self.current = name
            self.emit(f"created {name}")
        elif command == ":as":
            name = parts[1]
            self.system.principal(name)  # raises if unknown
            self.current = name
        elif command == ":says":
            listener = parts[1]
            statement = parts[2]
            self._need_context().says(listener, statement)
            self.emit(f"{self.current} says to {listener}: {statement}")
        elif command == ":run":
            report = self.system.run()
            self.emit(f"delivered={report.delivered} "
                      f"rejected={report.rejected} "
                      f"rounds={report.productive_rounds}")
        elif command == ":query":
            rows = self._need_context().query(parts[1] if len(parts) == 2
                                              else f"{parts[1]} {parts[2]}")
            if not rows:
                self.emit("(no results)")
            for row in rows:
                rendered = " ".join(f"{k}={v!r}" for k, v in sorted(row.items()))
                self.emit(rendered or "yes")
        elif command == ":tuples":
            for fact in sorted(self._need_context().tuples(parts[1]),
                               key=repr):
                self.emit(repr(fact))
        elif command == ":rules":
            workspace = self._need_context().workspace
            for ref in sorted(workspace.active_refs(), key=lambda r: r.rid):
                self.emit(f"{ref!r}: {workspace.rule_text(ref)}")
        elif command == ":audit":
            for event in self.system.audit_trail():
                self.emit(repr(event))
        elif command == ":reconfigure":
            self.system.reconfigure_auth(parts[1])
            self.emit(f"auth scheme is now {parts[1]}")
        else:
            self.emit(f"unknown command {command}; try :help")
        return True

    def _need_context(self):
        if self.current is None:
            raise ReproError("no current principal; use :principal NAME")
        return self.system.principal(self.current)


def main(argv: Optional[list] = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "cluster":
        # `repro cluster ...` — the sharded-evaluation demo (simulated
        # network, in-process sockets, or one OS process per node).
        from .cluster.demo import main as cluster_main
        return cluster_main(argv[1:])
    if argv and argv[0] == "serve":
        # `repro serve ...` — the online authorization service: scripted
        # update+query session, self-checked answers, latency summary.
        from .serve.cli import main as serve_main
        return serve_main(argv[1:])
    if argv and argv[0] == "check":
        # `repro check ...` — the static program analyzer: safety,
        # stratification, types, dead code, attribution, placement.
        from .analysis.cli import main as check_main
        return check_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Interactive LBTrust shell (CIDR 2009 reproduction); "
                    "use `repro cluster --help` for the sharded-evaluation demo "
                    "(--transport socket --procs N deploys one OS process "
                    "per node), `repro serve --help` for the online "
                    "authorization service, `repro check --help` for the "
                    "static program analyzer (micro benchmarks run as "
                    "`python -m benchmarks` from a source checkout)",
    )
    parser.add_argument("--auth", default="hmac",
                        choices=["plaintext", "hmac", "rsa", "mixed"])
    parser.add_argument("--rsa-bits", type=int, default=512)
    args = parser.parse_args(argv)
    shell = Shell(auth=args.auth, rsa_bits=args.rsa_bits)
    interactive = sys.stdin.isatty()
    if interactive:
        shell.emit("LBTrust shell — :help for commands")
    try:
        while True:
            if interactive:
                shell.out.write(shell.prompt)
                shell.out.flush()
            line = sys.stdin.readline()
            if not line:
                break
            if not shell.dispatch(line.strip()):
                break
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
