import gc
import sys
from collections import Counter

import pytest

from cwbind import sim, suite as suitemod
from cwbind.suite import CipherSuite, Drbg
from cwbind.wire import encode_frame


@pytest.fixture
def suite() -> CipherSuite:
    return CipherSuite()


@pytest.fixture
def rng() -> Drbg:
    return Drbg.from_int(0xC0FFEE)


@pytest.fixture
def opens(monkeypatch) -> Counter:
    """The work of opening key loads, as it happens: Ed25519 checks (through
    the ``_verify`` memo, hit or miss) by public key, and ``pke_decrypt``
    calls under the key ``"pke_decrypt"``."""
    calls: Counter = Counter()
    verify, pke_decrypt = suitemod._verify, CipherSuite.pke_decrypt

    def counting_verify(public_key, signature, message):
        calls[public_key] += 1
        return verify(public_key, signature, message)

    def counting_decrypt(suite, pair, ciphertext):
        calls["pke_decrypt"] += 1
        return pke_decrypt(suite, pair, ciphertext)

    monkeypatch.setattr(suitemod, "_verify", counting_verify)
    monkeypatch.setattr(CipherSuite, "pke_decrypt", counting_decrypt)
    return calls


@pytest.fixture
def no_failed_world():
    """Free what the last failed test left alive, before a test that counts
    the AES-GCM contexts built or reads ``suite._live``.

    pytest keeps the last failure's traceback in ``sys.last_traceback``
    (and ``last_type``, ``last_value``, ``last_exc``) into the next test.
    Its frames keep that test's world alive through reference cycles, and
    ``suite._live`` would hand its contexts to this test instead of
    building them. ``gc.collect()`` alone frees nothing while they are kept.
    """
    for name in ("last_type", "last_value", "last_traceback", "last_exc"):
        if hasattr(sys, name):
            delattr(sys, name)
    gc.collect()


@pytest.fixture
def frames(monkeypatch) -> list[bytes]:
    """The encoding of every frame a world broadcasts, in order, as the
    ledger counts it: after any scripted tampering."""
    captured: list[bytes] = []
    add_frame = sim.BandwidthLedger.add_frame

    def recording(ledger, frame):
        captured.append(encode_frame(frame))
        add_frame(ledger, frame)

    monkeypatch.setattr(sim.BandwidthLedger, "add_frame", recording)
    return captured
