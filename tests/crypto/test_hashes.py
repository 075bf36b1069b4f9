"""HMAC-SHA1 (RFC 2202), CRC-32, hash helpers, stream cipher."""

import hashlib
import hmac as stdlib_hmac
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.checksums import crc32, sha256_hex
from repro.crypto.hmac_sha1 import (
    hmac_sha1,
    hmac_sha1_hex,
    verify_hmac_sha1,
)
from repro.crypto import stream
from repro.datalog.errors import CryptoError


class TestHMACSHA1:
    # RFC 2202 test vectors
    RFC2202 = [
        (b"\x0b" * 20, b"Hi There", "b617318655057264e28bc0b6fb378c8ef146be00"),
        (b"Jefe", b"what do ya want for nothing?",
         "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"),
        (b"\xaa" * 20, b"\xdd" * 50, "125d7342b9ac11cd91a39af48aa17b4f63f175d3"),
        (b"\xaa" * 80, b"Test Using Larger Than Block-Size Key - Hash Key First",
         "aa4ae5e15272d00e95705637ce8a3b55ed402112"),
    ]

    @pytest.mark.parametrize("key,message,expected", RFC2202)
    def test_rfc_2202_vectors(self, key, message, expected):
        assert hmac_sha1_hex(key, message) == expected

    @given(st.binary(min_size=0, max_size=100), st.binary(min_size=0, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_property_matches_stdlib(self, key, message):
        expected = stdlib_hmac.new(key, message, hashlib.sha1).digest()
        assert hmac_sha1(key, message) == expected

    def test_verify(self):
        tag = hmac_sha1(b"key", b"msg")
        assert verify_hmac_sha1(b"key", b"msg", tag)
        assert not verify_hmac_sha1(b"key", b"msg!", tag)
        assert not verify_hmac_sha1(b"yek", b"msg", tag)
        assert not verify_hmac_sha1(b"key", b"msg", tag[:-1])


class TestCRC32:
    def test_known_value(self):
        assert crc32(b"123456789") == 0xCBF43926

    @given(st.binary(min_size=0, max_size=300))
    @settings(max_examples=150, deadline=None)
    def test_property_matches_zlib(self, data):
        assert crc32(data) == zlib.crc32(data)

    def test_streaming(self):
        whole = crc32(b"hello world")
        partial = crc32(b" world", crc32(b"hello"))
        assert whole == partial

    def test_hash_helpers(self):
        assert sha256_hex(b"x") == hashlib.sha256(b"x").hexdigest()


class TestStreamCipher:
    def test_round_trip(self):
        blob = stream.encrypt(b"key", b"attack at dawn")
        assert stream.decrypt(b"key", blob) == b"attack at dawn"

    def test_wrong_key_garbles(self):
        blob = stream.encrypt(b"key", b"attack at dawn")
        assert stream.decrypt(b"yek", blob) != b"attack at dawn"

    def test_fresh_nonce_randomizes(self):
        first = stream.encrypt(b"key", b"msg")
        second = stream.encrypt(b"key", b"msg")
        assert first != second

    def test_deterministic_with_nonce(self):
        nonce = b"n" * 16
        assert stream.encrypt(b"k", b"m", nonce) == stream.encrypt(b"k", b"m", nonce)

    def test_bad_nonce_length(self):
        with pytest.raises(CryptoError):
            stream.encrypt(b"k", b"m", nonce=b"short")

    def test_truncated_blob(self):
        with pytest.raises(CryptoError):
            stream.decrypt(b"k", b"tooshort")

    @given(st.binary(min_size=0, max_size=64), st.binary(min_size=0, max_size=500))
    @settings(max_examples=60, deadline=None)
    def test_property_round_trip(self, key, plaintext):
        assert stream.decrypt(key, stream.encrypt(key, plaintext)) == plaintext
