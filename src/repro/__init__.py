"""LBTrust: declarative reconfigurable trust management (CIDR 2009).

A from-scratch reproduction of Marczak et al., *Declarative Reconfigurable
Trust Management*: a LogicBlox-style Datalog engine (semi-naive fixpoint,
constraints, meta-programming with quoted code, meta-constraints,
partitioning, distribution) and, on top of it, the LBTrust security
machinery — ``says`` authentication with swappable schemes, authorization
meta-constraints, delegation with depth/width/threshold restrictions — and
the paper's case studies (Binder, SeNDlog, the file-system demo).

Quickstart::

    from repro import LBTrustSystem

    system = LBTrustSystem(auth="rsa")
    alice = system.create_principal("alice")
    bob = system.create_principal("bob")
    bob.load('object("f1"). access(P,O,"read") <- good(P), object(O).')
    alice.says(bob, 'good("carol").')
    system.run()
    assert ("carol", "f1", "read") in bob.tuples("access")

See ``DESIGN.md`` for the architecture and ``EXPERIMENTS.md`` for the
paper-versus-measured results.
"""

from .cluster import Cluster, Partitioner, RunReport
from .core.principal import Principal
from .core.system import LBTrustSystem
from .datalog.errors import (
    ActivationLimitError,
    ClusterError,
    ConstraintViolation,
    CryptoError,
    ParseError,
    ReproError,
    SafetyError,
    StratificationError,
    WorkspaceError,
)
from .workspace.workspace import Workspace

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "LBTrustSystem",
    "Partitioner",
    "Principal",
    "RunReport",
    "Workspace",
    "ReproError",
    "ParseError",
    "SafetyError",
    "StratificationError",
    "ClusterError",
    "ConstraintViolation",
    "ActivationLimitError",
    "CryptoError",
    "WorkspaceError",
    "__version__",
]
