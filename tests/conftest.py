import pytest

from cwbind.suite import CipherSuite, Drbg


@pytest.fixture
def suite() -> CipherSuite:
    return CipherSuite()


@pytest.fixture
def rng() -> Drbg:
    return Drbg.from_int(0xC0FFEE)
