"""The multi-user distributed file system (paper section 9, Figure 3).

The paper's demonstration: a file system whose access control combines
Binder authentication with D1LP delegation, entirely in declarative rules.
Four roles (one principal can hold several):

* **requester** — asks a store to read or write a file;
* **store** — holds files, forwards permission queries to owners, answers
  authorized requests (workflow ①②③④ of Figure 3a);
* **owner** — decides permission from its local ``permission`` table, or
  defers to access managers (Figure 3b);
* **access manager** — trusted decision maker holding ``mgrpermission``.

Owner decision modes (:meth:`DistributedFileSystem.set_owner_mode`):

``direct``
    the owner's own ``permission(me,U,F,M)`` table decides;
``delegated``
    managers answer ``permitted`` verdicts which the owner relays —
    combined with a del1 delegation and a depth restriction, the manager
    cannot re-delegate (the demonstration's depth restriction);
``threshold``
    managers answer ``mgrverdict`` facts; a wd2-style count over the
    receipt log derives ``permitted`` only when at least k managers
    concur (the demonstration's "more than three AccessManagers").

With ``secure=True`` (default) the system runs with the section 4.1
authorization meta-constraints: every message flow below is backed by an
explicit ``mayWrite`` grant, so an unsolicited verdict — say, a requester
vouching for itself — is rejected at import and audited.
"""

from __future__ import annotations

from typing import Optional

from ..core.delegation import install_threshold
from ..core.principal import Principal
from ..core.system import LBTrustSystem
from ..datalog.errors import ReproError


class AccessDenied(ReproError):
    """A request completed without an authorized response."""


#: File metadata declarations (paper rules f1-f6, with string file ids).
FILE_DECLARATIONS = """
f2: filename(F,S) -> string(F), string(S).
f3: filedata(F,S) -> string(F), string(S).
f4: fileowner(F,O) -> string(F), prin(O).
f5: filestore(F,P) -> string(F), prin(P).
f6: file(F) -> filename(F,_), filedata(F,_), fileowner(F,_), filestore(F,_).
dfs1: permission(P,X,F,M) -> prin(P), prin(X), string(F), mode(M).
mode("read"). mode("write").
"""

#: Store-side workflow rules (Figure 3: ① request, ② owner query,
#: ③ owner verdict, ④ response).
STORE_RULES = """
st1: says(me,O,[| permquery(U,F,"read"). |]) <-
     says(U,me,[| readreq(F). |]), filestore(F,me), fileowner(F,O).
st2: says(me,U,[| response(F,D). |]) <-
     says(U,me,[| readreq(F). |]), filestore(F,me), filedata(F,D),
     fileowner(F,O), says(O,me,[| permitted(U,F,"read"). |]).
st3: says(me,O,[| permquery(U,F,"write"). |]) <-
     says(U,me,[| writereq(F,D). |]), filestore(F,me), fileowner(F,O).
st4: pendingwrite(F,D,U) <-
     says(U,me,[| writereq(F,D). |]), filestore(F,me), fileowner(F,O),
     says(O,me,[| permitted(U,F,"write"). |]).
st5: says(me,U,[| writeok(F,D). |]) <- pendingwrite(F,D,U).
"""

#: Owner-side: answer stores from the local permission table (direct mode).
OWNER_DIRECT_RULES = """
ow1: says(me,ST,[| permitted(U,F,M). |]) <-
     says(ST,me,[| permquery(U,F,M). |]), filestore(F,ST), fileowner(F,me),
     permission(me,U,F,M).
"""

#: Owner-side, delegated mode: forward queries to managers; a manager's
#: `permitted` verdicts activate locally (says1/del1) and ow3 relays them.
OWNER_DELEGATED_RULES = """
ow2: says(me,MGR,[| permquery2(U,F,M). |]) <-
     says(ST,me,[| permquery(U,F,M). |]), fileowner(F,me),
     accessmanager(MGR).
ow3: says(me,ST,[| permitted(U,F,M). |]) <-
     says(ST,me,[| permquery(U,F,M). |]), filestore(F,ST), fileowner(F,me),
     permitted(U,F,M).
"""

#: Owner-side, threshold mode: ask with permquery3; ``permitted`` is then
#: derived by the wd2-style count over received mgrverdict facts.
OWNER_THRESHOLD_RULES = """
ow2t: says(me,MGR,[| permquery3(U,F,M). |]) <-
      says(ST,me,[| permquery(U,F,M). |]), fileowner(F,me),
      accessmanager(MGR).
ow3: says(me,ST,[| permitted(U,F,M). |]) <-
     says(ST,me,[| permquery(U,F,M). |]), filestore(F,ST), fileowner(F,me),
     permitted(U,F,M).
"""

#: Manager-side: answer owner queries from the manager's own table.
MANAGER_RULES = """
mg1: says(me,O,[| permitted(U,F,M). |]) <-
     says(O,me,[| permquery2(U,F,M). |]), mgrpermission(U,F,M).
mg2: says(me,O,[| mgrverdict(U,F,M). |]) <-
     says(O,me,[| permquery3(U,F,M). |]), mgrpermission(U,F,M).
"""


class DistributedFileSystem:
    """Orchestrates the section 9 demonstration on an LBTrust system."""

    def __init__(self, system: Optional[LBTrustSystem] = None,
                 auth: str = "hmac", seed: Optional[int] = 13,
                 secure: bool = True) -> None:
        self.secure = secure
        self.system = system if system is not None else LBTrustSystem(
            auth=auth, seed=seed, delegation=True, authorization=secure)
        if not self.system.delegation:
            raise ReproError("the file system needs delegation machinery "
                             "(LBTrustSystem(delegation=True))")
        self.stores: dict[str, Principal] = {}
        self.owners: dict[str, Principal] = {}
        self.requesters: dict[str, Principal] = {}
        self.managers: dict[str, Principal] = {}
        self.owner_modes: dict[str, str] = {}

    # ------------------------------------------------------------------
    # Roles
    # ------------------------------------------------------------------

    def _principal(self, name: str) -> Principal:
        if name not in self.system.principals:
            principal = self.system.create_principal(name)
            principal.load(FILE_DECLARATIONS)
        return self.system.principals[name]

    def add_store(self, name: str) -> Principal:
        principal = self._principal(name)
        if name not in self.stores:
            principal.load(STORE_RULES)
            self.stores[name] = principal
            self._wire_grants()
        return principal

    def add_owner(self, name: str, mode: str = "direct",
                  threshold: int = 3) -> Principal:
        principal = self._principal(name)
        self.owners[name] = principal
        self.set_owner_mode(name, mode, threshold)
        self._wire_grants()
        return principal

    def add_requester(self, name: str) -> Principal:
        principal = self._principal(name)
        self.requesters[name] = principal
        self._wire_grants()
        return principal

    def add_manager(self, name: str) -> Principal:
        principal = self._principal(name)
        if name not in self.managers:
            principal.load(MANAGER_RULES)
            self.managers[name] = principal
            self._wire_grants()
        return principal

    def set_owner_mode(self, owner: str, mode: str, threshold: int = 3) -> None:
        """Configure how an owner decides permissions (see module doc)."""
        principal = self.owners[owner]
        if mode == "direct":
            principal.load(OWNER_DIRECT_RULES)
        elif mode == "delegated":
            principal.load(OWNER_DELEGATED_RULES)
        elif mode == "threshold":
            principal.load(OWNER_THRESHOLD_RULES)
            install_threshold(principal.workspace, "mgrverdict",
                              "accessManager", threshold,
                              result="permitted", arity=3, channel="heard")
        else:
            raise ReproError(f"unknown owner mode {mode!r}")
        self.owner_modes[owner] = mode

    def owner_trusts_manager(self, owner: str, manager: str,
                             delegate: bool = True,
                             depth: Optional[int] = 0) -> None:
        """Register a manager with an owner.

        ``delegate=True`` additionally issues the del1 delegation of the
        ``permitted`` predicate (Figure 3b); ``depth=0`` forbids the
        manager from re-delegating (the demonstration's depth
        restriction).
        """
        principal = self.owners[owner]
        principal.assert_fact("accessmanager", (manager,))
        principal.workspace.assert_fact("pringroup", (manager, "accessManager"))
        if delegate:
            principal.delegate(manager, "permitted", depth=depth)
        self._wire_grants()

    # ------------------------------------------------------------------
    # Authorization wiring (section 4.1 meta-constraints)
    # ------------------------------------------------------------------

    def _wire_grants(self) -> None:
        """Issue the mayWrite grants backing every legitimate flow.

        Grants are per (speaker, predicate) at the listener; anything not
        listed here is rejected at import when ``secure=True``.
        """
        if not self.secure:
            return
        for store in self.stores.values():
            for requester in self.requesters.values():
                store.grant_write(requester, "readreq")
                store.grant_write(requester, "writereq")
                requester.grant_write(store, "response")
                requester.grant_write(store, "writeok")
            for owner in self.owners.values():
                owner.grant_write(store, "permquery")
                store.grant_write(owner, "permitted")
        for owner_name, owner in self.owners.items():
            mode = self.owner_modes.get(owner_name, "direct")
            for manager in self.managers.values():
                manager.grant_write(owner, "permquery2")
                manager.grant_write(owner, "permquery3")
                manager.grant_write(owner, "inferredDelDepth")
                if mode == "delegated":
                    owner.grant_write(manager, "permitted")
                elif mode == "threshold":
                    owner.grant_write(manager, "mgrverdict")

    # ------------------------------------------------------------------
    # Files and permissions
    # ------------------------------------------------------------------

    def create_file(self, fname: str, owner: str, store: str,
                    data: str) -> None:
        """Install a file's metadata at its store and its owner."""
        store_principal = self.stores[store]
        owner_principal = self.owners[owner]
        with store_principal.workspace.transaction():
            store_principal.assert_fact("filename", (fname, fname))
            store_principal.assert_fact("filedata", (fname, data))
            store_principal.assert_fact("fileowner", (fname, owner))
            store_principal.assert_fact("filestore", (fname, store))
            store_principal.assert_fact("file", (fname,))
        with owner_principal.workspace.transaction():
            owner_principal.assert_fact("fileowner", (fname, owner))
            owner_principal.assert_fact("filestore", (fname, store))

    def grant(self, owner: str, requester: str, fname: str,
              mode: str = "read") -> None:
        """The owner grants a permission in its local table."""
        self.owners[owner].assert_fact(
            "permission", (owner, requester, fname, mode))

    def manager_grant(self, manager: str, requester: str, fname: str,
                      mode: str = "read") -> None:
        """An access manager records a permission decision."""
        self.managers[manager].assert_fact(
            "mgrpermission", (requester, fname, mode))

    # ------------------------------------------------------------------
    # Requests (Figure 3 workflows)
    # ------------------------------------------------------------------

    def read(self, requester: str, fname: str, store: str) -> str:
        """Read a file; raises :class:`AccessDenied` without authorization."""
        principal = self.requesters[requester]
        principal.says(store, f'readreq("{fname}").')
        self.system.run()
        responses = {
            data for (f, data) in principal.tuples("response") if f == fname
        }
        if not responses:
            raise AccessDenied(
                f"{requester} was not authorized to read {fname!r}"
            )
        current = {
            data for (f, data) in self.stores[store].tuples("filedata")
            if f == fname
        }
        live = responses & current
        return next(iter(live or responses))

    def write(self, requester: str, fname: str, store: str,
              data: str) -> None:
        """Write a file; authorized writes are applied to the store's EDB."""
        principal = self.requesters[requester]
        principal.says(store, f'writereq("{fname}","{data}").')
        self.system.run()
        store_principal = self.stores[store]
        pending = {
            (f, d) for (f, d, u) in store_principal.tuples("pendingwrite")
            if f == fname and d == data and u == requester
        }
        if not pending:
            raise AccessDenied(
                f"{requester} was not authorized to write {fname!r}"
            )
        # Apply the write: retract the old contents, assert the new
        # (exercising DRed maintenance at the store).
        old = {
            (f, d)
            for (f, d) in store_principal.workspace.edb.get("filedata", ())
            if f == fname
        }
        with store_principal.workspace.transaction():
            for fact in old:
                if fact != (fname, data):
                    store_principal.workspace.retract_fact("filedata", fact)
            store_principal.assert_fact("filedata", (fname, data))
        self.system.run()
