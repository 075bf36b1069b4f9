"""Exception hierarchy for the Datalog substrate and the LBTrust layers.

Every error raised by this package derives from :class:`ReproError`, so
applications can catch one base class.  The evaluation-facing errors carry
structured payloads (the offending rule, bindings, …) because trust
management treats constraint violations as *data*: a rejected import is an
auditable event, not just a stack trace.
"""

from __future__ import annotations

from typing import Any


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ParseError(ReproError):
    """A syntax error in a Datalog / LBTrust source text.

    Carries the source position so front-ends can point at the offending
    token, and — when the parsing entry point knows the full source text —
    the offending source line itself, rendered with a caret marker::

        expected '.', '<-' or '->' after formula (at line 2, column 14)
          p(X) <- q(X) r(X).
                       ^
    """

    def __init__(self, message: str, line: int = 0, column: int = 0,
                 source_line: str | None = None) -> None:
        self.base_message = message
        self.line = line
        self.column = column
        self.source_line = source_line
        if line:
            message = f"{message} (at line {line}, column {column})"
        if source_line is not None and line:
            caret = " " * max(self.column - 1, 0) + "^"
            message = f"{message}\n  {source_line}\n  {caret}"
        super().__init__(message)

    def with_source(self, source: str) -> "ParseError":
        """Return a copy enriched with the offending source line (no-op if
        the position is unknown or an excerpt is already attached)."""
        if not self.line or self.source_line is not None:
            return self
        lines = source.splitlines()
        if not 1 <= self.line <= len(lines):
            return self
        return ParseError(self.base_message, self.line, self.column,
                          lines[self.line - 1])


class SafetyError(ReproError):
    """A rule violates Datalog safety (unbound head/negated variables)."""


class StratificationError(ReproError):
    """The program has negation or aggregation inside a recursive cycle."""


class IndexIntegrityError(ReproError):
    """A relation's hash index disagrees with its tuple set.

    Raised by :meth:`repro.datalog.database.Relation.discard` when index
    maintenance is found to have diverged — always a bug in the engine,
    never a user error, so it surfaces loudly instead of being swallowed
    (a silently stale index returns *wrong join results*, which in a trust
    engine means wrong authorization decisions)."""


class TransactionError(ReproError):
    """The undo journal's contract was broken: a transaction opened inside
    another, or a write to a read-only delta relation."""


class BuiltinError(ReproError):
    """A builtin predicate was called with an unsupported binding pattern."""


class ConstraintViolation(ReproError):
    """A schema constraint or meta-constraint derived ``fail()``.

    Attributes:
        constraint: the source-level constraint (or fail-rule) that fired.
        bindings: one witness assignment of values that violated it.
    """

    def __init__(self, constraint: Any, bindings: dict[str, Any] | None = None,
                 message: str | None = None) -> None:
        self.constraint = constraint
        self.bindings = dict(bindings or {})
        if message is None:
            message = f"constraint violated: {constraint}"
            if self.bindings:
                rendered = ", ".join(
                    f"{name}={value!r}" for name, value in sorted(self.bindings.items())
                )
                message = f"{message} [{rendered}]"
        super().__init__(message)


class ActivationLimitError(ReproError):
    """Meta-programmed code generation did not quiesce within the cap."""


class CryptoError(ReproError):
    """Signature/MAC verification failed or key material is missing."""


class WorkspaceError(ReproError):
    """Misuse of the workspace API (unknown predicate, arity clash, …)."""


class NetworkError(ReproError):
    """Simulated-network misuse (unknown node, undeliverable message)."""


class ClusterError(ReproError):
    """Misuse of the sharded evaluation runtime (unknown node, placement
    conflict, or a program shape distributed evaluation cannot run)."""


class ServeError(ReproError):
    """Online-serving failure: a request the server rejected, a reply
    that never arrived, or a protocol violation on the serve plane."""
