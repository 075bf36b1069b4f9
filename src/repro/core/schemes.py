"""Authentication schemes: the reconfigurable exp1/exp3 pairs.

The paper's central demonstration (section 4.1.2): replacing the RSA
scheme with HMAC changes **exactly two rules** — signature generation
(exp1 → exp1') and the import verification constraint (exp3 → exp3') —
"while the trust policies that utilize the says predicate remain
unchanged".  Each :class:`SchemeDef` below carries those two pieces of
source text plus a provisioning function that installs key material.

Schemes:

``rsa``
    1024-bit (configurable) RSA signatures — paper exp1/exp3.
``hmac``
    HMAC-SHA1 over pairwise shared secrets — paper exp1'/exp3'.
``plaintext``
    Cleartext principal headers, no signature — the paper's "more benign
    world" configuration.
``mixed``
    Per-peer policy (section 2.2: signatures "only … when communicating
    with specific principals"): an ``authpolicy(Peer,Scheme)`` relation
    selects rsa/hmac/plaintext per destination; the import constraint
    checks whatever the local policy demands of each sender.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Optional

from ..crypto import rsa
from ..crypto.keystore import (
    KeyStore,
    generate_shared_secret,
    rsa_private_id,
    rsa_public_id,
    shared_secret_id,
)

# --------------------------------------------------------------------------
# Scheme rule texts (paper listings)
# --------------------------------------------------------------------------

RSA_EXP1 = """
exp1: export[U2](me,R,S) <- says(me,U2,R), rsasign(R,S,K), rsaprivkey(me,K).
"""
RSA_EXP3 = """
exp3: says(U,me,R) -> U = me ;
      (export[me](U,R,S), rsapubkey(U,K), rsaverify(R,S,K)).
"""

HMAC_EXP1 = """
exp1': export[U2](me,R,S) <- says(me,U2,R), hmacsign(R,K,S),
       sharedsecret(me,U2,K).
"""
HMAC_EXP3 = """
exp3': says(U,me,R) -> U = me ;
       (export[me](U,R,S), sharedsecret(me,U,K), hmacverify(R,S,K)).
"""

PLAINTEXT_EXP1 = """
exp1p: export[U2](me,R,"cleartext") <- says(me,U2,R).
"""

MIXED_EXP1 = """
exp1mr: export[U2](me,R,S) <- says(me,U2,R), authpolicy(U2,"rsa"),
        rsasign(R,S,K), rsaprivkey(me,K).
exp1mh: export[U2](me,R,S) <- says(me,U2,R), authpolicy(U2,"hmac"),
        hmacsign(R,K,S), sharedsecret(me,U2,K).
exp1mp: export[U2](me,R,"cleartext") <- says(me,U2,R),
        authpolicy(U2,"plaintext").
"""
MIXED_EXP3 = """
exp3m: says(U,me,R) -> U = me ;
       (authpolicy(U,"plaintext"), export[me](U,R,S)) ;
       (authpolicy(U,"rsa"), export[me](U,R,S), rsapubkey(U,K), rsaverify(R,S,K)) ;
       (authpolicy(U,"hmac"), export[me](U,R,S), sharedsecret(me,U,K), hmacverify(R,S,K)).
"""

#: Note: the paper's exp3 lacks the ``U = me`` escape because its listing
#: only considers remote says facts; locally a principal trivially trusts
#: itself (self-says never crosses the network, so there is no export
#: tuple to verify unless exp1 derived one).


@dataclass
class SchemeDef:
    """One pluggable authentication scheme."""

    name: str
    exp1_text: str
    exp3_text: Optional[str]
    provision: Callable[["object", "object", random.Random], None]


# --------------------------------------------------------------------------
# Provisioning
# --------------------------------------------------------------------------

def _provision_rsa(system, principal, rng: random.Random) -> None:
    """Own keypair; everyone's public key + pubkey facts (certificates)."""
    name = principal.name
    if name not in system.rsa_keys:
        system.rsa_keys[name] = rsa.generate_keypair(system.rsa_bits, rng)
    # Distribute: every principal learns every public key.
    for other in system.principals.values():
        other_key = system.rsa_keys.get(other.name)
        if other_key is None:
            system.rsa_keys[other.name] = rsa.generate_keypair(system.rsa_bits, rng)
            other_key = system.rsa_keys[other.name]
        principal.keystore.install_rsa_public(
            rsa_public_id(other.name), other_key.public())
        principal.workspace.assert_fact(
            "rsapubkey", (other.name, rsa_public_id(other.name)))
        other.keystore.install_rsa_public(
            rsa_public_id(name), system.rsa_keys[name].public())
        other.workspace.assert_fact(
            "rsapubkey", (name, rsa_public_id(name)))
    principal.keystore.install_rsa_private(
        rsa_private_id(name), system.rsa_keys[name])
    principal.workspace.assert_fact(
        "rsaprivkey", (name, rsa_private_id(name)))


def _provision_hmac(system, principal, rng: random.Random) -> None:
    """Pairwise shared secrets with every other principal (and itself)."""
    name = principal.name
    for other in system.principals.values():
        key_id = shared_secret_id(name, other.name)
        secret = system.shared_secrets.get(key_id)
        if secret is None:
            secret = generate_shared_secret(name, other.name, rng)
            system.shared_secrets[key_id] = secret
        for side in (principal, other):
            if not side.keystore.has_secret(key_id):
                side.keystore.install_secret(key_id, secret)
        principal.workspace.assert_fact("sharedsecret", (name, other.name, key_id))
        other.workspace.assert_fact("sharedsecret", (other.name, name, key_id))


def _provision_plaintext(system, principal, rng: random.Random) -> None:
    """Nothing to provision — that is the point."""


def _provision_mixed(system, principal, rng: random.Random) -> None:
    _provision_rsa(system, principal, rng)
    _provision_hmac(system, principal, rng)


SCHEMES: dict[str, SchemeDef] = {
    "rsa": SchemeDef(
        name="rsa",
        exp1_text=RSA_EXP1,
        exp3_text=RSA_EXP3,
        provision=_provision_rsa,
    ),
    "hmac": SchemeDef(
        name="hmac",
        exp1_text=HMAC_EXP1,
        exp3_text=HMAC_EXP3,
        provision=_provision_hmac,
    ),
    "plaintext": SchemeDef(
        name="plaintext",
        exp1_text=PLAINTEXT_EXP1,
        exp3_text=None,
        provision=_provision_plaintext,
    ),
    "mixed": SchemeDef(
        name="mixed",
        exp1_text=MIXED_EXP1,
        exp3_text=MIXED_EXP3,
        provision=_provision_mixed,
    ),
}


def scheme(name: str) -> SchemeDef:
    definition = SCHEMES.get(name)
    if definition is None:
        raise KeyError(
            f"unknown auth scheme {name!r}; available: {sorted(SCHEMES)}"
        )
    return definition
