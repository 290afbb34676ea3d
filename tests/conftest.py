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
