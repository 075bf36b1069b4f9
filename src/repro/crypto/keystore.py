"""Key material storage, referenced from Datalog by opaque key ids.

Key *facts* (``rsaprivkey(me,K)``, ``rsapubkey(U,K)``,
``sharedsecret(me,U2,K)``) live in the workspace like any other relation —
that is what makes the paper's schemes ordinary Datalog.  The actual key
*material* never enters the database: facts carry string ids, and the
cryptographic builtins resolve ids through this store.

A key id is bound **once**: installing other material under an id already
bound raises :class:`CryptoError`, installing the same material again
does nothing, and a transaction that rolls back unbinds what it bound.
``hmacverify`` / ``rsaverify`` read this store, not a relation, so a
credential that verified when it entered verifies for as
long as it is held — which is what lets a commit check the ``says`` it
imports and never re-verify the ones it holds
(:mod:`repro.datalog.constraints`).  Key rotation is a scheme change
(``reconfigure_auth``): it installs fresh constraints, which are swept in
full.
"""

from __future__ import annotations

import random
from typing import Optional

from ..datalog.database import Journal
from ..datalog.errors import CryptoError
from . import rsa


class KeyStore:
    """Per-principal key material, addressed by string key ids."""

    def __init__(self, journal: Optional[Journal] = None) -> None:
        self._rsa_private: dict[str, rsa.RSAPrivateKey] = {}
        self._rsa_public: dict[str, rsa.RSAPublicKey] = {}
        self._secrets: dict[str, bytes] = {}
        #: logs the undo of each new binding (a principal's: the system's)
        self.journal = journal

    # -- RSA -----------------------------------------------------------------

    def install_rsa_private(self, key_id: str, key: rsa.RSAPrivateKey) -> None:
        self._bind(self._rsa_private, key_id, key, "RSA private key")

    def install_rsa_public(self, key_id: str, key: rsa.RSAPublicKey) -> None:
        self._bind(self._rsa_public, key_id, key, "RSA public key")

    def rsa_private(self, key_id: str) -> rsa.RSAPrivateKey:
        key = self._rsa_private.get(key_id)
        if key is None:
            raise CryptoError(f"no RSA private key under id {key_id!r}")
        return key

    def rsa_public(self, key_id: str) -> rsa.RSAPublicKey:
        key = self._rsa_public.get(key_id)
        if key is None:
            raise CryptoError(f"no RSA public key under id {key_id!r}")
        return key

    # -- shared secrets ---------------------------------------------------------

    def install_secret(self, key_id: str, secret: bytes) -> None:
        self._bind(self._secrets, key_id, secret, "shared secret")

    def secret(self, key_id: str) -> bytes:
        secret = self._secrets.get(key_id)
        if secret is None:
            raise CryptoError(f"no shared secret under id {key_id!r}")
        return secret

    def has_secret(self, key_id: str) -> bool:
        return key_id in self._secrets

    def _bind(self, table: dict, key_id: str, material, kind: str) -> None:
        """Bind ``key_id`` to ``material`` in ``table``, once."""
        if self.journal is not None and key_id not in table:
            self.journal.log(table.pop, key_id)
        if table.setdefault(key_id, material) != material:
            raise CryptoError(f"{kind} id {key_id!r} is already bound to "
                              f"other material")


# -- conventional key-id naming -------------------------------------------------

def rsa_private_id(owner: str) -> str:
    return f"rsa-priv:{owner}"


def rsa_public_id(owner: str) -> str:
    return f"rsa-pub:{owner}"


def shared_secret_id(a: str, b: str) -> str:
    """Symmetric id for the pair — both ends compute the same name."""
    first, second = sorted((a, b))
    return f"hmac:{first}:{second}"


def generate_shared_secret(a: str, b: str,
                           rng: Optional[random.Random] = None) -> bytes:
    rng = rng or random.Random()
    return bytes(rng.getrandbits(8) for _ in range(32))
