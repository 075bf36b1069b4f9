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
    """One pluggable authentication scheme.  ``provision(system, holder,
    rng, peers=None)`` writes ``holder``'s keystore and workspace and no
    other: its own keys and its key rows about every principal or, given
    ``peers`` (a join), about those."""

    name: str
    exp1_text: str
    exp3_text: Optional[str]
    provision: Callable[..., None]


# --------------------------------------------------------------------------
# Provisioning
# --------------------------------------------------------------------------

def _provision_rsa(system, holder, rng: random.Random, peers=None) -> None:
    """The holder's keypair, and each peer's public key (certificates)."""
    keys, everyone = system.rsa_keys, peers is None
    peers = list(system.principals.values()) if everyone else peers
    for name in [holder.name] + [peer.name for peer in peers]:
        if name not in keys:
            keys[name] = rsa.generate_keypair(system.rsa_bits, rng)
            system.journal.log(keys.pop, name)
    if everyone:
        private_id = rsa_private_id(holder.name)
        holder.keystore.install_rsa_private(private_id, keys[holder.name])
        holder.workspace.assert_fact("rsaprivkey", (holder.name, private_id))
    for peer in peers:
        public_id = rsa_public_id(peer.name)
        holder.keystore.install_rsa_public(public_id, keys[peer.name].public())
        holder.workspace.assert_fact("rsapubkey", (peer.name, public_id))


def _provision_hmac(system, holder, rng: random.Random, peers=None) -> None:
    """A shared secret with each peer."""
    name = holder.name
    for peer in system.principals.values() if peers is None else peers:
        key_id = shared_secret_id(name, peer.name)
        secret = system.shared_secrets.get(key_id)
        if secret is None:
            secret = system.shared_secrets[key_id] = generate_shared_secret(
                name, peer.name, rng)
            system.journal.log(system.shared_secrets.pop, key_id)
        holder.keystore.install_secret(key_id, secret)
        holder.workspace.assert_fact("sharedsecret", (name, peer.name, key_id))


def _provision_plaintext(system, holder, rng, peers=None) -> None:
    """Nothing to provision — that is the point."""


def _provision_mixed(system, holder, rng: random.Random, peers=None) -> None:
    _provision_rsa(system, holder, rng, peers)
    _provision_hmac(system, holder, rng, peers)


SCHEMES: dict[str, SchemeDef] = {definition.name: definition for definition in (
    SchemeDef("rsa", RSA_EXP1, RSA_EXP3, _provision_rsa),
    SchemeDef("hmac", HMAC_EXP1, HMAC_EXP3, _provision_hmac),
    SchemeDef("plaintext", PLAINTEXT_EXP1, None, _provision_plaintext),
    SchemeDef("mixed", MIXED_EXP1, MIXED_EXP3, _provision_mixed),
)}


def scheme(name: str) -> SchemeDef:
    definition = SCHEMES.get(name)
    if definition is None:
        raise KeyError(
            f"unknown auth scheme {name!r}; available: {sorted(SCHEMES)}"
        )
    return definition
