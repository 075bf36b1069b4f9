"""Analysis pipeline: context, pass runner, and the load-time gate.

The pipeline has three entry points:

* :func:`analyze_statements` — the core: run passes over already-parsed
  statements (what the :meth:`Workspace.load` / :meth:`Cluster.load`
  gates call, so the gate and the CLI share one implementation);
* :func:`analyze_source` — parse first (auto-detecting the surface
  dialect: core Datalog, Binder, or SeNDlog), turning parse failures into
  ``R000`` diagnostics instead of exceptions;
* :func:`raise_for_errors` — translate error diagnostics back into the
  exception types the runtime would have raised (``SafetyError``,
  ``StratificationError``, ``WorkspaceError``, ``ClusterError``), so
  gating a ``load()`` changes *when* a bad program is rejected, never
  *how*.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional

from ..datalog.errors import (
    ClusterError,
    ParseError,
    ReproError,
    SafetyError,
    StratificationError,
    WorkspaceError,
)
from ..datalog.terms import Constraint, Rule
from ..workspace.catalog import Catalog, rule_atoms
from .dataflow import harvest_shape
from .diagnostics import (
    ERROR,
    Diagnostic,
    partition_suppressed,
    scan_suppressions,
    sort_key,
)
from .passes import DEFAULT_PASSES, GATE_PASSES, PASSES

__all__ = [
    "AnalysisContext",
    "DEFAULT_PASSES",
    "GATE_PASSES",
    "analyze_source",
    "analyze_statements",
    "detect_dialect",
    "raise_for_errors",
    "run_passes",
]


def default_builtins():
    """The registry the CLI analyzes against: standard + crypto schemes."""
    from ..crypto.datalog_builtins import register_crypto_builtins
    from ..datalog.builtins import standard_registry

    registry = standard_registry()
    register_crypto_builtins(registry)
    return registry


@dataclass
class AnalysisContext:
    """Everything a pass may consult, with compilation cached."""

    statements: list
    file: Optional[str] = None
    source: Optional[str] = None
    builtins: Optional[object] = None
    placement: Optional[object] = None  # cluster.partition.Partitioner
    #: the schema the program is checked against: a copy of its host's
    #: catalog (a workspace's, a cluster's), or an empty one
    catalog: Optional[Catalog] = None
    _compiled: Optional[list] = field(default=None, repr=False)
    _shape: Optional[object] = field(default=None, repr=False)
    _clashes: Optional[list] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.builtins is None:
            self.builtins = default_builtins()
        if self.catalog is None:
            self.catalog = Catalog(builtins=self.builtins)

    def schema(self) -> list:
        """Observe the program into :attr:`catalog`, once, as its host
        will; ``(statement, atom | None, WorkspaceError)`` per clash or
        refused write (the types pass's R201 / R203), everything else
        observed."""
        if self._clashes is None:
            self._clashes = []
            catalog = self.catalog
            for statement in self.statements:
                if isinstance(statement, Rule):
                    fact = statement.is_fact()
                    heads = len(statement.heads)
                    for index, atom in enumerate(rule_atoms(statement)):
                        try:
                            catalog.observe_atom(atom, fact=fact,
                                                 head=index < heads)
                        except WorkspaceError as exc:
                            self._clashes.append((statement, atom, exc))
                elif isinstance(statement, Constraint):
                    try:
                        catalog.observe_constraint(statement)
                    except WorkspaceError as exc:
                        self._clashes.append((statement, None, exc))
        return self._clashes

    def shape(self):
        """Who derives, declares, ships and reads what — one walk over
        the statements, shared by the authority, delegation and cost
        passes."""
        if self._shape is None:
            self._shape = harvest_shape(self.statements)
        return self._shape

    def compiled_rules(self) -> list:
        """``(rule, compiled | None, error | None)`` per non-fact rule.

        Compilation (me-resolution, quote → meta-join rewriting, builtin
        call extraction) is exactly what the workspace does before
        activating a rule, so every downstream pass sees the program the
        engine would evaluate.
        """
        if self._compiled is None:
            from ..meta.quote import compile_rule

            compiled: list = []
            for statement in self.statements:
                if not isinstance(statement, Rule) or statement.is_fact():
                    continue
                try:
                    result = compile_rule(statement, principal=None,
                                          builtins=self.builtins)
                    compiled.append((statement, result, None))
                except ReproError as exc:
                    compiled.append((statement, None, exc))
            self._compiled = compiled
        return self._compiled


def run_passes(ctx: AnalysisContext,
               passes: Optional[Iterable[str]] = None) -> list[Diagnostic]:
    """Run the named passes (default: all) and return sorted diagnostics."""
    names = tuple(passes) if passes is not None else DEFAULT_PASSES
    diagnostics: list[Diagnostic] = []
    for name in names:
        try:
            pass_fn = PASSES[name]
        except KeyError:
            raise ValueError(
                f"unknown analysis pass {name!r}; "
                f"known: {', '.join(PASSES)}") from None
        diagnostics.extend(pass_fn(ctx))
    return sorted(diagnostics, key=sort_key)


def analyze_statements(statements: Iterable, *, file: Optional[str] = None,
                       source: Optional[str] = None, builtins=None,
                       placement=None, catalog: Optional[Catalog] = None,
                       passes: Optional[Iterable[str]] = None,
                       collect_suppressed: Optional[list] = None
                       ) -> list[Diagnostic]:
    """Analyze parsed statements; the shared core behind gate and CLI.

    When ``source`` is given, inline ``%# check: ignore[...]`` pragmas
    suppress matching diagnostics on their line; suppressed findings are
    appended to ``collect_suppressed`` (when supplied) so callers can
    report them — they are removed from the return value but never lost.
    ``catalog`` is the host's schema to check against (default: empty);
    the analysis observes the program into it, as the host will.
    """
    ctx = AnalysisContext(statements=list(statements), file=file,
                          source=source, builtins=builtins,
                          placement=placement, catalog=catalog)
    diagnostics = run_passes(ctx, passes)
    if source is not None:
        suppressions = scan_suppressions(source)
        if suppressions:
            diagnostics, suppressed = partition_suppressed(
                diagnostics, suppressions)
            if collect_suppressed is not None:
                collect_suppressed.extend(suppressed)
    return diagnostics


# ---------------------------------------------------------------------------
# Source-level entry (dialect detection, R000 on parse errors)
# ---------------------------------------------------------------------------

_SENDLOG_BLOCK = re.compile(r"(?m)^\s*At\s+[A-Za-z_][A-Za-z0-9_']*\s*:")
_BINDER_SAYS = re.compile(r"\b[A-Za-z_][\w']*\s+says\s+[A-Za-z_][\w']*\s*\(")

DIALECTS = ("auto", "core", "binder", "sendlog")


def detect_dialect(source: str) -> str:
    """Guess the surface syntax of a program text.

    ``At X:`` block headers mean SeNDlog; a ``P says p(...)`` literal or a
    ``:-`` arrow means Binder; anything else is core Datalog.
    """
    if _SENDLOG_BLOCK.search(source):
        return "sendlog"
    if _BINDER_SAYS.search(source) or ":-" in source:
        return "binder"
    return "core"


def parse_dialect(source: str, dialect: str = "auto") -> list:
    """Parse ``source`` in the given (or detected) dialect to statements."""
    if dialect == "auto":
        dialect = detect_dialect(source)
    if dialect == "core":
        from ..datalog.parser import parse_statements
        return list(parse_statements(source))
    if dialect == "binder":
        from ..languages.binder import parse_binder
        return list(parse_binder(source))
    if dialect == "sendlog":
        from ..languages.sendlog import parse_sendlog
        statements: list = []
        for block in parse_sendlog(source):
            statements.extend(block.statements)
        return statements
    raise ValueError(f"unknown dialect {dialect!r}; known: "
                     f"{', '.join(DIALECTS)}")


def analyze_source(source: str, *, file: Optional[str] = None,
                   dialect: str = "auto", builtins=None, placement=None,
                   passes: Optional[Iterable[str]] = None,
                   collect_suppressed: Optional[list] = None
                   ) -> list[Diagnostic]:
    """Parse (auto-detecting the dialect) and analyze one program text.

    A parse failure yields a single ``R000`` diagnostic carrying the
    parser's span instead of propagating :class:`ParseError`.
    ``collect_suppressed`` receives pragma-suppressed findings (see
    :func:`analyze_statements`).
    """
    from ..datalog.terms import Span

    try:
        statements = parse_dialect(source, dialect)
    except ParseError as exc:
        span = None
        line = getattr(exc, "line", 0)
        column = getattr(exc, "column", 0)
        if line:
            span = Span(line, max(column, 1))
        message = getattr(exc, "base_message", None) or str(exc)
        return [Diagnostic("R000", message, file=file, span=span)]
    return analyze_statements(statements, file=file, source=source,
                              builtins=builtins, placement=placement,
                              passes=passes,
                              collect_suppressed=collect_suppressed)


# ---------------------------------------------------------------------------
# The gate: diagnostics → the runtime's own exception types
# ---------------------------------------------------------------------------

#: code family prefix → exception the runtime raises for that family.
_GATE_EXCEPTIONS = (
    ("R0", SafetyError),
    ("R1", StratificationError),
    ("R2", WorkspaceError),
    ("R5", ClusterError),
)


def gate_exception(code: str) -> type:
    for prefix, exc_type in _GATE_EXCEPTIONS:
        if code.startswith(prefix):
            return exc_type
    return WorkspaceError  # pragma: no cover - every code maps above


def raise_for_errors(diagnostics: Iterable[Diagnostic],
                     source: Optional[str] = None) -> None:
    """Raise the runtime's exception type for the first error family.

    All error diagnostics are folded into one message (so a rejected load
    reports every problem at once), but the exception *type* is chosen
    from the most severe family ordering R0 < R1 < R2 < R5 — i.e. the
    first family in the code table that has an error — matching what the
    engine itself would have raised first.
    """
    errors = [d for d in diagnostics if d.severity == ERROR]
    if not errors:
        return
    errors.sort(key=lambda d: (d.code, sort_key(d)))
    exc_type = gate_exception(errors[0].code)
    lines = []
    for diagnostic in errors:
        lines.append(f"{diagnostic.location()}: [{diagnostic.code}] "
                     f"{diagnostic.message}")
    raise exc_type("static check rejected the program:\n  "
                   + "\n  ".join(lines))
