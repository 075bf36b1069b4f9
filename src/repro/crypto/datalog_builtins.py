"""Cryptographic builtin predicates for the Datalog engine.

Paper section 3: *"LogicBlox further allows application-defined libraries
of custom predicates to be imported, such as the cryptographic functions
required for implementing certain security constructs."*  This module is
that library.  Signatures follow the paper's rule listings exactly:

====================  ======  =====================================
builtin               mode    meaning
====================  ======  =====================================
``rsasign(R,S,K)``    i o i   S := RSA signature of rule R under private key K
``rsaverify(R,S,K)``  i i i   test: S verifies R under public key K
``hmacsign(R,K,S)``   i i o   S := HMAC-SHA1 tag of R under shared key K
``hmacverify(R,S,K)`` i i i   test: tag S matches R under shared key K
``encryptrule(R,K,C)`` i i o  C := stream-encrypted canonical text of R
``decryptrule(C,K,R)`` i i o  R := rule parsed+interned from decrypted C
``sha256hash(X,H)``   i o     H := SHA-256 hex of X's canonical form
``checksum(X,C)``     i o     C := CRC-32 of X's canonical form
====================  ======  =====================================

Rules are signed over their registry-canonical text (alpha-renamed,
deterministic), so a signature made at one principal verifies anywhere the
same logical rule arrives, independent of variable names — the property
Binder certificates rely on.

The builtins need the calling workspace (for its registry and keystore);
they receive it as the evaluation-context payload.
"""

from __future__ import annotations

from typing import Any

from ..datalog.builtins import BuiltinRegistry
from ..datalog.errors import CryptoError, ReproError
from ..datalog.pretty import format_value
from ..datalog.terms import RuleRef
from . import rsa, stream
from .checksums import crc32, sha256_hex
from .hmac_sha1 import hmac_sha1_hex, verify_hmac_sha1


def _covered_bytes(workspace: Any, value: Any) -> bytes:
    """The byte string that signatures/MACs/hashes cover."""
    if isinstance(value, RuleRef):
        return workspace.registry.canonical_text(value).encode("utf-8")
    return format_value(value).encode("utf-8")


def _keystore(workspace: Any):
    keystore = getattr(workspace, "keystore", None)
    if keystore is None:
        raise CryptoError(
            "workspace has no keystore attached; provision an auth scheme first"
        )
    return keystore


def register_crypto_builtins(registry: BuiltinRegistry) -> None:
    """Install the cryptographic library into a builtin registry."""

    def bi_rsasign(workspace, rule_value, key_id):
        key = _keystore(workspace).rsa_private(key_id)
        signature = rsa.sign(_covered_bytes(workspace, rule_value), key)
        return [(format(signature, "x"),)]

    def bi_rsaverify(workspace, rule_value, signature_hex, key_id):
        try:
            key = _keystore(workspace).rsa_public(key_id)
            signature = int(signature_hex, 16)
        except (CryptoError, ValueError):
            return False
        return rsa.verify(_covered_bytes(workspace, rule_value), signature, key)

    def bi_hmacsign(workspace, rule_value, key_id):
        secret = _keystore(workspace).secret(key_id)
        return [(hmac_sha1_hex(secret, _covered_bytes(workspace, rule_value)),)]

    def bi_hmacverify(workspace, rule_value, tag_hex, key_id):
        keystore = _keystore(workspace)
        if not keystore.has_secret(key_id):
            return False
        try:
            tag = bytes.fromhex(tag_hex)
        except ValueError:
            return False
        secret = keystore.secret(key_id)
        return verify_hmac_sha1(secret, _covered_bytes(workspace, rule_value), tag)

    def bi_encryptrule(workspace, rule_value, key_id):
        secret = _keystore(workspace).secret(key_id)
        blob = stream.encrypt(secret, _covered_bytes(workspace, rule_value))
        return [(blob.hex(),)]

    def bi_decryptrule(workspace, blob_hex, key_id):
        keystore = _keystore(workspace)
        if not keystore.has_secret(key_id):
            return []
        try:
            blob = bytes.fromhex(blob_hex)
        except ValueError:
            return []
        text = stream.decrypt(keystore.secret(key_id), blob).decode(
            "utf-8", errors="replace")
        try:
            return [(workspace.registry.intern_text(text),)]
        except ReproError:  # not exactly one me-free rule
            return []

    def bi_sha256hash(workspace, value):
        return [(sha256_hex(_covered_bytes(workspace, value)),)]

    def bi_checksum(workspace, value):
        return [(crc32(_covered_bytes(workspace, value)),)]

    registry.register("rsasign", "ioi", bi_rsasign, needs_context=True)
    registry.register("rsaverify", "iii", bi_rsaverify, needs_context=True)
    registry.register("hmacsign", "iio", bi_hmacsign, needs_context=True)
    registry.register("hmacverify", "iii", bi_hmacverify, needs_context=True)
    registry.register("encryptrule", "iio", bi_encryptrule, needs_context=True)
    registry.register("decryptrule", "iio", bi_decryptrule, needs_context=True)
    registry.register("sha256hash", "io", bi_sha256hash, needs_context=True)
    registry.register("checksum", "io", bi_checksum, needs_context=True)
