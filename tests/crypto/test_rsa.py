"""From-scratch RSA: primality, keygen, signatures, encryption."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto import rsa
from repro.datalog.errors import CryptoError


class TestMillerRabin:
    KNOWN_PRIMES = [2, 3, 5, 7, 97, 7919, 104729, 2 ** 61 - 1]
    KNOWN_COMPOSITES = [1, 4, 9, 100, 7917, 561, 41041, 2 ** 61 - 3]
    # 561 and 41041 are Carmichael numbers — Fermat-test liars.

    @pytest.mark.parametrize("prime", KNOWN_PRIMES)
    def test_primes_accepted(self, prime):
        assert rsa.is_probable_prime(prime)

    @pytest.mark.parametrize("composite", KNOWN_COMPOSITES)
    def test_composites_rejected(self, composite):
        assert not rsa.is_probable_prime(composite)

    @given(st.integers(2, 10 ** 6))
    @settings(max_examples=200, deadline=None)
    def test_property_matches_trial_division(self, candidate):
        by_trial = all(candidate % d for d in range(2, int(candidate ** 0.5) + 1))
        assert rsa.is_probable_prime(candidate) == (by_trial and candidate >= 2)

    def test_generated_primes_have_exact_size(self):
        rng = random.Random(5)
        for bits in (64, 128):
            prime = rsa.generate_prime(bits, rng)
            assert prime.bit_length() == bits
            assert rsa.is_probable_prime(prime)


class TestKeyGeneration:
    def test_key_consistency(self):
        key = rsa.generate_keypair(bits=256, seed=1)
        assert key.n == key.p * key.q
        assert key.n.bit_length() == 256
        # e*d ≡ 1 (mod φ(n))
        phi = (key.p - 1) * (key.q - 1)
        assert (key.e * key.d) % phi == 1

    def test_deterministic_with_seed(self):
        assert rsa.generate_keypair(256, seed=9) == rsa.generate_keypair(256, seed=9)
        assert rsa.generate_keypair(256, seed=9) != rsa.generate_keypair(256, seed=10)

    def test_fingerprint_format(self):
        key = rsa.generate_keypair(256, seed=2).public()
        assert key.fingerprint().startswith("rsa:256:")


class TestSignatures:
    KEY = rsa.generate_keypair(bits=256, seed=3)

    def test_round_trip(self):
        signature = rsa.sign(b"hello", self.KEY)
        assert rsa.verify(b"hello", signature, self.KEY.public())

    def test_tampered_message_rejected(self):
        signature = rsa.sign(b"hello", self.KEY)
        assert not rsa.verify(b"hellp", signature, self.KEY.public())

    def test_tampered_signature_rejected(self):
        signature = rsa.sign(b"hello", self.KEY)
        assert not rsa.verify(b"hello", signature ^ 1, self.KEY.public())

    def test_wrong_key_rejected(self):
        other = rsa.generate_keypair(bits=256, seed=4)
        signature = rsa.sign(b"hello", self.KEY)
        assert not rsa.verify(b"hello", signature, other.public())

    def test_out_of_range_signature_rejected(self):
        assert not rsa.verify(b"hello", self.KEY.n + 5, self.KEY.public())
        assert not rsa.verify(b"hello", -1, self.KEY.public())

    @given(st.binary(min_size=0, max_size=64))
    @settings(max_examples=50, deadline=None)
    def test_property_sign_verify(self, message):
        signature = rsa.sign(message, self.KEY)
        assert rsa.verify(message, signature, self.KEY.public())


class TestEncryption:
    KEY = rsa.generate_keypair(bits=256, seed=6)

    def test_int_round_trip(self):
        plaintext = 123456789
        ciphertext = rsa.encrypt_int(plaintext, self.KEY.public())
        assert ciphertext != plaintext
        assert rsa.decrypt_int(ciphertext, self.KEY) == plaintext

    def test_out_of_range_rejected(self):
        with pytest.raises(CryptoError):
            rsa.encrypt_int(self.KEY.n, self.KEY.public())
        with pytest.raises(CryptoError):
            rsa.decrypt_int(-1, self.KEY)

    @given(st.integers(0, 2 ** 128))
    @settings(max_examples=50, deadline=None)
    def test_property_encrypt_decrypt(self, plaintext):
        ciphertext = rsa.encrypt_int(plaintext, self.KEY.public())
        assert rsa.decrypt_int(ciphertext, self.KEY) == plaintext


class TestChineseRemainderSigning:
    """``sign`` and ``decrypt_int`` take the private power through the CRT
    (RFC 8017 §5.2.1); the result must be the integer the whole-modulus
    power gives, and a faulty one must never leave ``sign``."""

    @given(st.integers(64, 256), st.integers(0, 2 ** 32), st.binary(max_size=64),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_property_same_integer_as_the_whole_modulus_power(
            self, bits, seed, message, data):
        key = rsa.generate_keypair(bits, seed=seed)
        assert rsa.sign(message, key) == \
            pow(rsa._digest_int(message, key.n), key.d, key.n)
        ciphertext = data.draw(st.integers(0, key.n - 1))
        assert rsa.decrypt_int(ciphertext, key) == pow(ciphertext, key.d, key.n)

    def test_a_faulty_signature_is_not_released(self):
        """A wrong private exponent (bit 1 of ``d`` flipped) stands in for a
        fault in one CRT half: the check before release raises, where a
        sign without it returns a signature that does not verify and, under
        the CRT, would leak a factor of ``n``."""
        key = rsa.generate_keypair(256, seed=3)
        faulty = rsa.RSAPrivateKey(key.n, key.e, key.d ^ 2, key.p, key.q)
        with pytest.raises(CryptoError):
            rsa.sign(b"hello", faulty)

    def test_derived_fields_stay_out_of_equality_and_repr(self):
        key = rsa.generate_keypair(128, seed=8)
        twin = rsa.RSAPrivateKey(key.n, key.e, key.d, key.p, key.q)
        assert twin == key and hash(twin) == hash(key)
        assert "dp" not in repr(key) and "qinv" not in repr(key)
        assert (key.dp, key.dq) == (key.d % (key.p - 1), key.d % (key.q - 1))
        assert key.q * key.qinv % key.p == 1
