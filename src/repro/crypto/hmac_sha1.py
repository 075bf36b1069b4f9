"""HMAC-SHA1 (RFC 2104) over the standard library.

The paper's alternative `says` scheme signs each message with "a 160-bit
SHA-1 cryptographic hash of the message data and a secret key shared
between the two communicating principals".  That is HMAC-SHA1: the tag
comes from :mod:`hmac` over :mod:`hashlib`'s SHA-1, and verification
compares tags with :func:`hmac.compare_digest` (no early exit).  RFC 2202
test vectors are checked in the test-suite.
"""

from __future__ import annotations

import hashlib
import hmac


def hmac_sha1(key: bytes, message: bytes) -> bytes:
    """The 20-byte HMAC-SHA1 tag of ``message`` under ``key``."""
    return hmac.new(key, message, hashlib.sha1).digest()


def hmac_sha1_hex(key: bytes, message: bytes) -> str:
    return hmac.new(key, message, hashlib.sha1).hexdigest()


def verify_hmac_sha1(key: bytes, message: bytes, tag: bytes) -> bool:
    return hmac.compare_digest(
        hmac.new(key, message, hashlib.sha1).digest(), tag)
