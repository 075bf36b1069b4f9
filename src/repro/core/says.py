"""The ``says`` machinery (paper section 4.1).

``says(U1,U2,R)`` associates a rule R with the principal U1 who said it
and the principal U2 it was said to.  Two rules are common to every
authentication scheme and every principal:

* **says1** — any rule said to the local principal is activated
  (``active(R) <- says(_,me,R)``);
* **exp2** — received exports turn into says facts
  (``says(U,me,R) <- export[me](U,R,S)``).

What varies per scheme is how exports are *produced* (exp1: signature
generation) and what the import must *satisfy* (exp3: a verification
constraint).  Those live in :mod:`repro.core.schemes` — swapping them, and
nothing else, is the paper's reconfigurability claim, demonstrated by
``tests/core/test_schemes.py`` and benchmark E1.
"""

from __future__ import annotations

from ..workspace.workspace import Workspace

#: Rule says1 (paper listing, section 4.1).
SAYS1 = "says1: active(R) <- says(_,me,R)."

#: Rule exp2 (paper listing, section 4.1.1).
EXP2 = "exp2: says(U,me,R) <- export[me](U,R,S)."

#: ``heard(U,R)`` — receipt metadata, asserted by the runtime when an
#: export is imported (a mail log).  It carries the same (speaker, rule)
#: information as ``says`` but is pure EDB, which matters for aggregation:
#: a threshold like wd2 that counts incoming messages *and* feeds rules
#: that derive outgoing ``says`` would make ``says`` unstratifiable at the
#: predicate level.  Counting ``heard`` instead breaks the false cycle
#: while preserving the paper's semantics (see
#: :func:`repro.core.delegation.install_threshold` and DESIGN.md §6).
HEARD_DECLARATION = "heard(U,R) -> prin(U), rule(R)."

#: Type declarations says0 / exp0 (paper listings).  ``prin`` and ``rule``
#: are satisfied dynamically; the declarations primarily record shapes in
#: the catalog and document intent.
DECLARATIONS = """
says0: says(U1,U2,R) -> prin(U1), prin(U2), rule(R).
exp0: export[U1](U2,R,S) -> prin(U1), prin(U2), rule(R), string(S).
"""


def install_says_machinery(workspace: Workspace) -> None:
    """Install the scheme-independent half of the says machinery."""
    workspace.load(SAYS1)
    workspace.load(EXP2)
