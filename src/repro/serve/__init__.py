"""Online authorization serving (ROADMAP item 1).

A long-lived :class:`~repro.core.system.LBTrustSystem` behind a
request/reply protocol: credential updates apply through DRed incremental
maintenance, point queries read the fixpoint that maintenance keeps.
See :mod:`repro.serve.server` for the protocol and
:mod:`repro.serve.cli` for the ``repro serve`` command.
"""

from .client import ServeClient, ServeRouter
from .server import SERVE_OPS, TrustServer

__all__ = ["ServeClient", "ServeRouter", "TrustServer", "SERVE_OPS"]
