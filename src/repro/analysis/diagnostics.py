"""Diagnostics: stable codes, severities, spans, and two renderings.

Every static finding the analyzer produces is a :class:`Diagnostic` with a
stable code (``R201``), a severity, and — when the parser attached a
:class:`~repro.datalog.terms.Span` — a precise ``file:line:col`` location.
Codes are grouped in families of one hundred:

========  =========  ==================================================
family    severity   meaning
========  =========  ==================================================
R0xx      error      parse / safety (range restriction, schedulability)
R1xx      error      stratification (negation/aggregation in a cycle)
R2xx      mixed      catalog: arity clashes, meta writes (error), types (warn)
R3xx      info       dead code: underivable preds, singletons, dead rules
R4xx      warning    attribution: says-shipped predicates read plainly
R5xx      error      placement: join co-location, distributability
R6xx      mixed      dataflow: authority taint (warn), delegation depth
R7xx      mixed      static cost: Cartesian/shard explosions (warn/info)
========  =========  ==================================================

Severity drives exit codes and the load-time gates: *errors* always
reject, *warnings* reject only under ``--strict``, *info* findings never
reject (the paper's own listings contain benign singletons).

A diagnostic can be suppressed in place with an inline pragma on the
offending line — ``%# check: ignore[R302]`` in program syntax (``%``
starts a comment in every dialect), ``# check: ignore[R302]`` in a
``.py`` embedding, ``ignore[]`` for every code.  Suppressed findings are
never silently dropped: they are partitioned out
(:func:`partition_suppressed`) and counted in the JSON report under
``suppressed``.

The JSON rendering is schema-versioned (``repro-check/v1``) following the
``repro-bench/v1`` convention, so CI jobs and external tooling can consume
reports without sniffing shapes.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from ..datalog.terms import Span

#: JSON report schema identifier (bump on incompatible changes).
SCHEMA = "repro-check/v1"

ERROR = "error"
WARNING = "warning"
INFO = "info"

#: Rendering / sorting order of severities, most severe first.
SEVERITIES = (ERROR, WARNING, INFO)

#: code → (severity, short title).  The table is the contract: codes are
#: append-only and never change meaning across versions.
CODES: dict[str, tuple[str, str]] = {
    "R000": (ERROR, "parse error"),
    "R001": (ERROR, "head variable not bound by the body"),
    "R002": (WARNING, "unbound variable in negated literal"),
    "R003": (ERROR, "unschedulable comparison or builtin call"),
    "R101": (ERROR, "negation inside a recursive cycle"),
    "R102": (ERROR, "aggregation inside a recursive cycle"),
    "R201": (ERROR, "predicate arity clash"),
    "R202": (WARNING, "variable pinned to incompatible declared types"),
    "R203": (ERROR, "fact or rule head over a Figure 1 meta-model relation"),
    "R301": (INFO, "body predicate has no derivation or declaration"),
    "R302": (INFO, "singleton variable"),
    "R303": (INFO, "rule body is unsatisfiable"),
    "R401": (WARNING, "says-shipped predicate read without attribution"),
    "R501": (ERROR, "join is not co-located under the placement"),
    "R502": (ERROR, "nonmonotone stratum over exchanged predicates"),
    "R601": (WARNING, "authorization decision reachable from "
                      "unattributed input"),
    "R602": (WARNING, "says-exported predicate derived from "
                      "unattributed input"),
    "R603": (INFO, "authorization decision ignores attributed input"),
    "R611": (WARNING, "unbounded delegation recursion"),
    "R612": (WARNING, "delegation depth guard never decreases"),
    "R613": (WARNING, "unbounded delegation cycle crosses the says "
                      "boundary"),
    "R701": (WARNING, "estimated Cartesian join explosion"),
    "R702": (WARNING, "estimated cross-shard exchange volume"),
    "R703": (INFO, "body literals joined without a shared variable"),
    "R704": (INFO, "recursive cardinality estimate does not stabilize"),
}


def severity_of(code: str) -> str:
    return CODES[code][0]


@dataclass(frozen=True)
class Diagnostic:
    """One static finding, locatable and machine-readable."""

    code: str
    message: str
    file: Optional[str] = None
    span: Optional[Span] = field(default=None)
    rule_label: Optional[str] = None
    pred: Optional[str] = None

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown diagnostic code {self.code!r}")

    @property
    def severity(self) -> str:
        return severity_of(self.code)

    @property
    def title(self) -> str:
        return CODES[self.code][1]

    def location(self) -> str:
        """``file:line:col`` (best effort — parts may be unknown)."""
        name = self.file or "<input>"
        if self.span is None:
            return name
        return f"{name}:{self.span.line}:{self.span.column}"

    def shifted(self, line_offset: int, file: Optional[str] = None
                ) -> "Diagnostic":
        """Relocate into an embedding file (programs inside ``.py`` files)."""
        span = self.span
        if span is not None and line_offset:
            span = Span(span.line + line_offset, span.column)
        return replace(self, span=span,
                       file=file if file is not None else self.file)

    def to_json(self) -> dict:
        data: dict = {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.file is not None:
            data["file"] = self.file
        if self.span is not None:
            data["line"] = self.span.line
            data["column"] = self.span.column
        if self.rule_label is not None:
            data["rule"] = self.rule_label
        if self.pred is not None:
            data["pred"] = self.pred
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Diagnostic":
        span = None
        if "line" in data:
            span = Span(int(data["line"]), int(data.get("column", 1)))
        return cls(
            code=data["code"],
            message=data["message"],
            file=data.get("file"),
            span=span,
            rule_label=data.get("rule"),
            pred=data.get("pred"),
        )


def sort_key(diagnostic: Diagnostic):
    span = diagnostic.span
    return (
        diagnostic.file or "",
        span.line if span else 0,
        span.column if span else 0,
        diagnostic.code,
        diagnostic.message,
    )


def summarize(diagnostics: Iterable[Diagnostic]) -> dict:
    counts = {severity: 0 for severity in SEVERITIES}
    for diagnostic in diagnostics:
        counts[diagnostic.severity] += 1
    return {"errors": counts[ERROR], "warnings": counts[WARNING],
            "infos": counts[INFO]}


# ---------------------------------------------------------------------------
# Inline suppression pragmas
# ---------------------------------------------------------------------------

#: ``%# check: ignore[R302]`` (program text), ``//# ...`` (C-style
#: comments), or ``# ...`` (.py embeddings).  An empty bracket
#: suppresses every code on that line.
_PRAGMA = re.compile(
    r"(?:%|//)?#\s*check:\s*ignore\[([A-Za-z0-9_\s,]*)\]")


def scan_suppressions(source: str) -> dict[int, frozenset]:
    """Line number → codes suppressed there (empty set = all codes)."""
    suppressions: dict[int, frozenset] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _PRAGMA.search(line)
        if match is not None:
            codes = frozenset(code.strip()
                              for code in match.group(1).split(",")
                              if code.strip())
            suppressions[lineno] = codes
    return suppressions


def partition_suppressed(diagnostics: Iterable[Diagnostic],
                         suppressions: dict
                         ) -> tuple[list[Diagnostic], list[Diagnostic]]:
    """Split diagnostics into (kept, suppressed) against a pragma map.

    A diagnostic is suppressed when a pragma sits on its span's line and
    either names its code or names no code at all.  Span-less
    diagnostics are never suppressed — there is no line to anchor the
    pragma to.
    """
    kept: list[Diagnostic] = []
    suppressed: list[Diagnostic] = []
    for diagnostic in diagnostics:
        codes = (suppressions.get(diagnostic.span.line)
                 if diagnostic.span is not None else None)
        if codes is not None and (not codes or diagnostic.code in codes):
            suppressed.append(diagnostic)
        else:
            kept.append(diagnostic)
    return kept, suppressed


def failed(diagnostics: Iterable[Diagnostic], strict: bool = False) -> bool:
    """True when the report should reject: errors, or warnings + strict."""
    for diagnostic in diagnostics:
        if diagnostic.severity == ERROR:
            return True
        if strict and diagnostic.severity == WARNING:
            return True
    return False


# ---------------------------------------------------------------------------
# Text rendering
# ---------------------------------------------------------------------------

def excerpt(source: str, span: Span) -> Optional[str]:
    """The offending source line with a caret under the span's column."""
    lines = source.splitlines()
    if not 1 <= span.line <= len(lines):
        return None
    line = lines[span.line - 1]
    caret = " " * max(span.column - 1, 0) + "^"
    return f"  {line}\n  {caret}"


def render_text(diagnostics: Iterable[Diagnostic],
                sources: Optional[dict] = None,
                suppressed: Iterable[Diagnostic] = ()) -> str:
    """Human-readable report; ``sources`` maps file name → program text."""
    out: list[str] = []
    ordered = sorted(diagnostics, key=sort_key)
    for diagnostic in ordered:
        out.append(f"{diagnostic.location()}: {diagnostic.severity} "
                   f"[{diagnostic.code}] {diagnostic.message}")
        if sources and diagnostic.span is not None:
            source = sources.get(diagnostic.file or "<input>")
            if source is not None:
                snippet = excerpt(source, diagnostic.span)
                if snippet is not None:
                    out.append(snippet)
    summary = summarize(ordered)
    line = (f"{summary['errors']} error(s), {summary['warnings']} "
            f"warning(s), {summary['infos']} info(s)")
    suppressed = list(suppressed)
    if suppressed:
        line += f", {len(suppressed)} suppressed"
    out.append(line)
    return "\n".join(out)


# ---------------------------------------------------------------------------
# JSON rendering (schema repro-check/v1)
# ---------------------------------------------------------------------------

def report_to_json(diagnostics: Iterable[Diagnostic],
                   strict: bool = False,
                   suppressed: Iterable[Diagnostic] = ()) -> dict:
    ordered = sorted(diagnostics, key=sort_key)
    hidden = sorted(suppressed, key=sort_key)
    summary = summarize(ordered)
    summary["suppressed"] = len(hidden)
    return {
        "schema": SCHEMA,
        "strict": strict,
        "ok": not failed(ordered, strict),
        "summary": summary,
        "diagnostics": [d.to_json() for d in ordered],
        # Pragma-suppressed findings are reported, never dropped.
        "suppressed": [d.to_json() for d in hidden],
    }


def report_from_json(data: dict) -> list[Diagnostic]:
    """Parse a report back into diagnostics; validates the schema tag."""
    if data.get("schema") != SCHEMA:
        raise ValueError(
            f"unsupported report schema {data.get('schema')!r}; "
            f"expected {SCHEMA!r}")
    return [Diagnostic.from_json(item) for item in data["diagnostics"]]


def dumps_report(diagnostics: Iterable[Diagnostic],
                 strict: bool = False,
                 suppressed: Iterable[Diagnostic] = ()) -> str:
    return json.dumps(report_to_json(diagnostics, strict, suppressed),
                      indent=2, sort_keys=True)
