"""Cryptographic substrate: textbook RSA, a SHA-256 counter-mode stream
cipher, and HMAC-SHA1 / CRC-32 / SHA-256 from the standard library."""

from .keystore import KeyStore
from .rsa import RSAPrivateKey, RSAPublicKey, generate_keypair, sign, verify

__all__ = ["KeyStore", "RSAPrivateKey", "RSAPublicKey", "generate_keypair",
           "sign", "verify"]
