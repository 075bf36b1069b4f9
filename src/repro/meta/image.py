"""Program images: what a system keeps of one program text.

Every principal of an LBTrust system installs the same machinery — says1
and exp2, the ld1/ld2 placement rules, delegation, the scheme's exp1/exp3
— so the same few texts arrive at every workspace.  A
:class:`ProgramImage` is one text's parse and the gate's last verdict on
it, made once and shared by every workspace that installs the text.

**Key and lifetime.**  Images are owned by the system's
:class:`~repro.meta.registry.RuleRegistry` (one per ``LBTrustSystem``,
one per ``Cluster``) and keyed by the source text itself.
:meth:`RuleRegistry.image` hands out the kept image of a text, or parses
a new one; :meth:`RuleRegistry.keep` keeps it once its install has
succeeded, so a text the parser, the gate or a constraint refuses leaves
nothing behind.  At most :data:`MAX_IMAGES` are kept, the oldest going
first, so a long-lived server fed distinct texts holds a bounded table.
There is no process-global memo: two systems parse a text once each.

**Parse once.**  :attr:`ProgramImage.statements` is the parse, a tuple of
frozen statements every installer reads.

**Gate once per catalog.**  The analyzer gate's report is a pure function
of the statements, the builtins and the catalog the text is checked
against.  An image keeps the report of its last gate run together with
the builtins signature
(:meth:`~repro.datalog.builtins.BuiltinRegistry.signature`) and the
catalog entries it was checked under, and :meth:`ProgramImage.report`
serves it only to a workspace whose signature and catalog entries both
equal those; any other catalog runs the gate as before, and its report
takes the slot.  The installing workspace still takes the verdict as its
own: its ``last_check``, its suppressed findings and its audit entry for
warnings.

What an image does not hold is compiled code: a rule compiles to
different code for each speaker its ``me`` resolves to, so it is
compiled per rule ref (:meth:`RuleRegistry.compiled`), once for every
workspace that activates the ref.
"""

from __future__ import annotations

from typing import Optional

#: images a registry keeps (the largest measured table, ``fs_demo``'s,
#: is 14 per system): a bound on memory, not a hit-rate knob
MAX_IMAGES = 64


class ProgramImage:
    """One source text's statements and its last gate report."""

    __slots__ = ("source", "statements", "_report")

    def __init__(self, source: str, statements) -> None:
        self.source = source
        self.statements = tuple(statements)
        #: ``(builtins signature, catalog entries, report, suppressed)``
        #: of the last gate run, or None
        self._report: Optional[tuple] = None

    def report(self, builtins, catalog) -> Optional[tuple]:
        """``(report, suppressed)`` as checked under ``builtins`` against
        entries equal to ``catalog``'s — or None: the gate has not seen
        this catalog last."""
        kept = self._report
        if kept is not None and kept[0] == builtins.signature() \
                and catalog.matches(kept[1]):
            return kept[2:]
        return None

    def keep_report(self, builtins, catalog, report,
                    suppressed) -> tuple:
        """Keep a report just checked against ``catalog`` (its entries as
        they were: the gate checks a copy) in place of the last one, and
        return it as :meth:`report` will."""
        self._report = (builtins.signature(), catalog.entries(),
                        tuple(report), tuple(suppressed))
        return self._report[2:]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProgramImage({len(self.statements)} statements)"
