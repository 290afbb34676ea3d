from collections import Counter

import pytest

from cwbind import sim
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
    """The work of opening key loads, as it happens: signature checks
    (``verify_recover``, through the suite's ``_verify`` memo, hit or miss)
    by public key, and ``pke_decrypt`` calls under the key ``"pke_decrypt"``."""
    calls: Counter = Counter()
    verify_recover, pke_decrypt = CipherSuite.verify_recover, CipherSuite.pke_decrypt

    def counting_verify(suite, public_key, sm):
        calls[public_key] += 1
        return verify_recover(suite, public_key, sm)

    def counting_decrypt(suite, pair, ciphertext):
        calls["pke_decrypt"] += 1
        return pke_decrypt(suite, pair, ciphertext)

    monkeypatch.setattr(CipherSuite, "verify_recover", counting_verify)
    monkeypatch.setattr(CipherSuite, "pke_decrypt", counting_decrypt)
    return calls


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
