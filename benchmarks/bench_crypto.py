"""A6 — crypto micro-benchmarks: the constant factors behind Figure 2.

Per-operation sign/verify cost for RSA and HMAC-SHA1 over the same
canonical rule text.  The RSA/HMAC per-message gap here should account
for (most of) the scheme gap measured in E1.
"""

from benchmarks.harness import benchmark
from repro.crypto import rsa
from repro.crypto.hmac_sha1 import hmac_sha1, verify_hmac_sha1

MESSAGE = b'access("carol","report.txt","read").'
SECRET = b"s" * 32

_KEYS: dict = {}


def rsa_key(bits: int = 1024):
    """Seeded keypair, generated lazily so importing this module is cheap."""
    key = _KEYS.get(bits)
    if key is None:
        key = _KEYS[bits] = rsa.generate_keypair(bits, seed=3)
    return key


@benchmark("crypto_primitives", group="crypto",
           quick=[{"op": "hmac_sign", "iterations": 200},
                  {"op": "hmac_verify", "iterations": 200},
                  {"op": "rsa_sign", "rsa_bits": 512, "iterations": 50},
                  {"op": "rsa_verify", "rsa_bits": 512, "iterations": 20}],
           full=[{"op": "hmac_sign", "iterations": 2000},
                 {"op": "hmac_verify", "iterations": 2000},
                 {"op": "rsa_sign", "rsa_bits": 1024, "iterations": 40},
                 {"op": "rsa_verify", "rsa_bits": 1024, "iterations": 50}])
def crypto_primitives(case, op, iterations, rsa_bits=1024):
    """Per-operation sign/verify cost under each authentication scheme."""
    if op.startswith("rsa"):
        key = rsa_key(rsa_bits)
        signature = rsa.sign(MESSAGE, key)
        public = key.public()
        if op == "rsa_sign":
            def step():
                rsa.sign(MESSAGE, key)
        else:
            def step():
                assert rsa.verify(MESSAGE, signature, public)
    else:
        tag = hmac_sha1(SECRET, MESSAGE)
        if op == "hmac_sign":
            def step():
                hmac_sha1(SECRET, MESSAGE)
        else:
            def step():
                assert verify_hmac_sha1(SECRET, MESSAGE, tag)
    with case.measure():
        for _ in range(iterations):
            step()
    case.record(per_op_us=case.elapsed / iterations * 1e6)
