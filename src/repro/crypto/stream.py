"""A SHA-256 counter-mode stream cipher for confidentiality (section 4.1.3).

``keystream(key, nonce)`` yields ``SHA256(key || nonce || counter)``
blocks; XOR with the plaintext gives the ciphertext.  Paired with RSA
session-key wrapping (:func:`repro.crypto.rsa.encrypt_int`) this provides
the "encrypted facts" capability LBTrust needs for rules that only
authorized principals may interpret.  Same caveat as the rest of the
substrate: faithful behaviour, not audited cryptography.
"""

from __future__ import annotations

import hashlib
import os

from ..datalog.errors import CryptoError

_BLOCK = 32  # SHA-256 digest size


def _keystream(key: bytes, nonce: bytes, length: int) -> bytes:
    blocks = []
    counter = 0
    while sum(len(b) for b in blocks) < length:
        blocks.append(hashlib.sha256(
            key + nonce + counter.to_bytes(8, "big")
        ).digest())
        counter += 1
    return b"".join(blocks)[:length]


def encrypt(key: bytes, plaintext: bytes, nonce: bytes | None = None) -> bytes:
    """``nonce || ciphertext``; a fresh random nonce unless provided."""
    if nonce is None:
        nonce = os.urandom(16)
    if len(nonce) != 16:
        raise CryptoError("nonce must be 16 bytes")
    stream = _keystream(key, nonce, len(plaintext))
    return nonce + bytes(p ^ s for p, s in zip(plaintext, stream))


def decrypt(key: bytes, blob: bytes) -> bytes:
    if len(blob) < 16:
        raise CryptoError("ciphertext too short to contain a nonce")
    nonce, ciphertext = blob[:16], blob[16:]
    stream = _keystream(key, nonce, len(ciphertext))
    return bytes(c ^ s for c, s in zip(ciphertext, stream))
