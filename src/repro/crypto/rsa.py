"""Textbook RSA, implemented from scratch (keygen, sign/verify, encrypt).

The paper's Figure 2 workload signs every exported Binder fact with a
1024-bit RSA signature.  OpenSSL is not available offline, so we implement
RSA directly:

* key generation: random odd candidates filtered by small-prime trial
  division, then Miller-Rabin (deterministic witness set below 3.3e24,
  40 random rounds above — error probability < 2^-80);
* signatures: hash-then-modexp (SHA-256 digest as the message
  representative), i.e. ``s = H(m)^d mod n``, computed through the
  Chinese remainder theorem (RFC 8017 §5.2.1, RSASP1 with Garner's
  formula): two half-size powers with ``d mod (p-1)`` and ``d mod (q-1)``,
  joined with ``q^-1 mod p``, all three derived once per key.  The result
  is the same integer, at about a third of the cost.  Each signature is
  checked with the public exponent before it is returned: a fault in one
  half of a CRT signature would otherwise leak a factor of ``n`` (Boneh,
  DeMillo & Lipton, EUROCRYPT 1997), so ``sign`` raises instead;
* encryption: hybrid — RSA encrypts a random session key; the payload is
  XORed with a SHA-256 counter-mode keystream (see
  :mod:`repro.crypto.stream`).

Security caveat, stated plainly: this is a *reproduction substrate*, not
audited cryptography.  It preserves what the experiment measures — the
cost asymmetry between public-key signatures, MACs and plaintext — and the
functional behaviour (verification fails on any tampered bit), which the
security tests exercise.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Optional

from ..datalog.errors import CryptoError

_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
    149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223,
    227, 229, 233, 239, 241, 251,
]

#: Deterministic Miller-Rabin witnesses: correct for all n < 3.3e24.
_DETERMINISTIC_WITNESSES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]
_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981


def is_probable_prime(candidate: int, rng: Optional[random.Random] = None,
                      rounds: int = 40) -> bool:
    """Miller-Rabin primality test."""
    if candidate < 2:
        return False
    for prime in _SMALL_PRIMES:
        if candidate == prime:
            return True
        if candidate % prime == 0:
            return False
    # write candidate-1 as 2^r * d with d odd
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    if candidate < _DETERMINISTIC_LIMIT:
        witnesses = [w for w in _DETERMINISTIC_WITNESSES if w < candidate - 1]
    else:
        rng = rng or random.Random()
        witnesses = [rng.randrange(2, candidate - 1) for _ in range(rounds)]
    for witness in witnesses:
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """A random probable prime with exactly ``bits`` bits."""
    if bits < 8:
        raise CryptoError(f"prime size {bits} too small")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # top bit set, odd
        if is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RSAPublicKey:
    n: int
    e: int

    @property
    def bits(self) -> int:
        return self.n.bit_length()

    def fingerprint(self) -> str:
        digest = hashlib.sha256(f"{self.n}:{self.e}".encode()).hexdigest()
        return f"rsa:{self.bits}:{digest[:12]}"


@dataclass(frozen=True)
class RSAPrivateKey:
    n: int
    e: int
    d: int
    p: int
    q: int
    # RFC 8017's CRT exponents and coefficient, derived from the five above.
    dp: int = field(init=False, repr=False, compare=False)
    dq: int = field(init=False, repr=False, compare=False)
    qinv: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "dp", self.d % (self.p - 1))
        object.__setattr__(self, "dq", self.d % (self.q - 1))
        object.__setattr__(self, "qinv", pow(self.q, -1, self.p))

    def public(self) -> RSAPublicKey:
        return RSAPublicKey(self.n, self.e)


def generate_keypair(bits: int = 1024,
                     rng: Optional[random.Random] = None,
                     seed: Optional[int] = None) -> RSAPrivateKey:
    """Generate an RSA key pair (``bits`` is the modulus size)."""
    if rng is None:
        rng = random.Random(seed)
    e = 65537
    half = bits // 2
    while True:
        p = generate_prime(half, rng)
        q = generate_prime(bits - half, rng)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        return RSAPrivateKey(n, e, d, p, q)


def _digest_int(message: bytes, n: int) -> int:
    return int.from_bytes(hashlib.sha256(message).digest(), "big") % n


def _private_power(x: int, key: RSAPrivateKey) -> int:
    """``x^d mod n`` through the CRT (Garner's formula)."""
    low = pow(x, key.dq, key.q)
    return low + key.q * ((pow(x, key.dp, key.p) - low) * key.qinv % key.p)


def sign(message: bytes, key: RSAPrivateKey) -> int:
    """Hash-then-modexp signature ``H(m)^d mod n``, checked before release."""
    digest = _digest_int(message, key.n)
    signature = _private_power(digest, key)
    if pow(signature, key.e, key.n) != digest:
        raise CryptoError("RSA signature failed its check; not released")
    return signature


def verify(message: bytes, signature: int, key: RSAPublicKey) -> bool:
    """True iff ``signature`` matches ``message`` under ``key``."""
    if not 0 <= signature < key.n:
        return False
    return pow(signature, key.e, key.n) == _digest_int(message, key.n)


def encrypt_int(plaintext: int, key: RSAPublicKey) -> int:
    """Raw RSA on an integer < n (used for session-key wrapping)."""
    if not 0 <= plaintext < key.n:
        raise CryptoError("plaintext out of range for modulus")
    return pow(plaintext, key.e, key.n)


def decrypt_int(ciphertext: int, key: RSAPrivateKey) -> int:
    if not 0 <= ciphertext < key.n:
        raise CryptoError("ciphertext out of range for modulus")
    return _private_power(ciphertext, key)
