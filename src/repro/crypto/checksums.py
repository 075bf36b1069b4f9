"""Integrity primitives: CRC-32 and SHA-256 over the standard library.

The paper mentions integrity support "such as checksums and cryptographic
hashes" (section 4.1.3): the ``checksum`` and ``sha256hash`` builtins.
:func:`crc32` is :func:`zlib.crc32` (IEEE 802.3, the one the
partitioner hashes with).
"""

from __future__ import annotations

import hashlib
from zlib import crc32

__all__ = ["crc32", "sha256_hex"]


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()
