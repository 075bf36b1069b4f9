"""Keystore and the Datalog crypto builtins."""

import pytest

from repro.crypto import rsa
from repro.crypto.keystore import (
    KeyStore,
    generate_shared_secret,
    rsa_private_id,
    rsa_public_id,
    shared_secret_id,
)
from repro.datalog.errors import CryptoError
from repro.workspace.workspace import Workspace
from repro.crypto.datalog_builtins import register_crypto_builtins


class TestKeyStore:
    def test_rsa_storage(self):
        store = KeyStore()
        key = rsa.generate_keypair(256, seed=1)
        store.install_rsa_private("k1", key)
        store.install_rsa_public("k2", key.public())
        assert store.rsa_private("k1") is key
        assert store.rsa_public("k2") == key.public()

    def test_missing_keys_raise(self):
        store = KeyStore()
        with pytest.raises(CryptoError):
            store.rsa_private("missing")
        with pytest.raises(CryptoError):
            store.rsa_public("missing")
        with pytest.raises(CryptoError):
            store.secret("missing")

    def test_secret_storage(self):
        store = KeyStore()
        store.install_secret("s", b"x" * 32)
        assert store.secret("s") == b"x" * 32
        assert store.has_secret("s") and not store.has_secret("t")

    def test_each_key_id_is_bound_once(self):
        store = KeyStore()
        key = rsa.generate_keypair(256, seed=1)
        other = rsa.generate_keypair(256, seed=3)
        store.install_rsa_private("k", key)
        store.install_rsa_public("k", key.public())
        store.install_secret("k", b"x" * 32)
        # the same material again is a no-op
        store.install_rsa_private("k", key)
        store.install_rsa_public("k", key.public())
        store.install_secret("k", b"x" * 32)
        # other material under a bound id is refused, and nothing changes
        with pytest.raises(CryptoError, match="already bound"):
            store.install_rsa_private("k", other)
        with pytest.raises(CryptoError, match="already bound"):
            store.install_rsa_public("k", other.public())
        with pytest.raises(CryptoError, match="already bound"):
            store.install_secret("k", b"y" * 32)
        assert store.rsa_private("k") is key
        assert store.rsa_public("k") == key.public()
        assert store.secret("k") == b"x" * 32

    def test_a_held_credential_keeps_verifying(self):
        """A credential that verified when it entered still verifies: no
        rebinding can make ``hmacverify`` change its answer later."""
        workspace = Workspace("alice")
        register_crypto_builtins(workspace.builtins)
        workspace.keystore = KeyStore()
        workspace.keystore.install_secret("sk", b"s" * 32)
        workspace.load("""
            signed(R,S) <- tosign(R), hmacsign(R,"sk",S).
            checked(R) <- signed(R,S), hmacverify(R,S,"sk").
        """)
        workspace.load('tosign([| payload("x"). |]).')
        with pytest.raises(CryptoError):
            workspace.keystore.install_secret("sk", b"t" * 32)
        workspace.assert_fact("unrelated", (1,))
        assert len(workspace.tuples("checked")) == 1

    def test_id_conventions(self):
        assert rsa_private_id("alice") == "rsa-priv:alice"
        assert rsa_public_id("alice") == "rsa-pub:alice"
        # shared ids are symmetric
        assert shared_secret_id("alice", "bob") == shared_secret_id("bob", "alice")

    def test_generated_secret_length(self):
        import random
        secret = generate_shared_secret("a", "b", random.Random(1))
        assert len(secret) == 32


class TestCryptoBuiltinsInWorkspace:
    """The paper's exp1/exp3 builtins running inside rule bodies."""

    def _workspace(self):
        workspace = Workspace("alice")
        register_crypto_builtins(workspace.builtins)
        workspace.keystore = KeyStore()
        return workspace

    def test_rsa_sign_verify_roundtrip_in_rules(self):
        workspace = self._workspace()
        key = rsa.generate_keypair(256, seed=2)
        workspace.keystore.install_rsa_private("priv", key)
        workspace.keystore.install_rsa_public("pub", key.public())
        workspace.load("""
            signed(R,S) <- tosign(R), rsasign(R,S,"priv").
            checked(R) <- signed(R,S), rsaverify(R,S,"pub").
        """)
        workspace.load('tosign([| payload("x"). |]).')
        assert len(workspace.tuples("signed")) == 1
        assert len(workspace.tuples("checked")) == 1

    def test_hmac_sign_verify_in_rules(self):
        workspace = self._workspace()
        workspace.keystore.install_secret("sk", b"s" * 32)
        workspace.load("""
            signed(R,S) <- tosign(R), hmacsign(R,"sk",S).
            checked(R) <- signed(R,S), hmacverify(R,S,"sk").
        """)
        workspace.load('tosign([| payload("x"). |]).')
        assert len(workspace.tuples("checked")) == 1

    def test_verify_fails_on_wrong_tag(self):
        workspace = self._workspace()
        workspace.keystore.install_secret("sk", b"s" * 32)
        workspace.load('bad(R) <- tosign(R), hmacverify(R,"00ff","sk").')
        workspace.load('tosign([| payload("x"). |]).')
        assert workspace.tuples("bad") == set()

    def test_missing_secret_fails_closed(self):
        workspace = self._workspace()
        workspace.load('bad(R) <- tosign(R), hmacverify(R,"00ff","nokey").')
        workspace.load('tosign([| payload("x"). |]).')
        assert workspace.tuples("bad") == set()

    def test_encrypt_decrypt_rule_roundtrip(self):
        workspace = self._workspace()
        workspace.keystore.install_secret("sk", b"s" * 32)
        workspace.load("""
            cipher(C) <- plain(R), encryptrule(R,"sk",C).
            recovered(R2) <- cipher(C), decryptrule(C,"sk",R2).
        """)
        workspace.load('plain([| payload("deep secret"). |]).')
        ((recovered,),) = workspace.tuples("recovered")
        assert workspace.rule_text(recovered) == 'payload("deep secret").'

    def test_hash_and_checksum_builtins(self):
        workspace = self._workspace()
        workspace.load("""
            digest(H) <- v(R), sha256hash(R,H).
            crc(C) <- v(R), checksum(R,C).
        """)
        workspace.load('v([| payload("x"). |]).')
        assert len(workspace.tuples("digest")) == 1
        assert len(workspace.tuples("crc")) == 1

    def test_signature_covers_canonical_form(self):
        """Alpha-variant rules must share one signature (certificates)."""
        workspace = self._workspace()
        workspace.keystore.install_secret("sk", b"s" * 32)
        workspace.load('signed(R,S) <- tosign(R), hmacsign(R,"sk",S).')
        workspace.load("tosign([| p(X) <- q(X). |]).")
        workspace.load("tosign([| p(Zz) <- q(Zz). |]).")
        # alpha variants intern to one rule → exactly one signed pair
        assert len(workspace.tuples("signed")) == 1
