"""Memoised primitives: agreement with direct references, failures never
cached, shared per-system work done once per world state, fixed bounds."""

import hashlib
import importlib
import pkgutil
from collections import Counter
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given
from hypothesis import strategies as st

import cwbind
from cwbind import binding, suite as suitemod
from cwbind.errors import CryptoError
from cwbind.sim import load_scenario, run_world
from cwbind.suite import CipherSuite, SignedMessage
from cwbind.wire import ECM_MAGIC, ecm_aad

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SUITE = CipherSuite()

keys = st.binary(min_size=16, max_size=16)
others = st.lists(st.tuples(keys, st.binary(max_size=24), st.binary(max_size=12)), max_size=6)


def _flip(data: bytes, index: int) -> bytes:
    """``data`` with one bit of one byte flipped; an empty field gains a byte."""
    if not data:
        return b"\x01"
    out = bytearray(data)
    out[index % len(out)] ^= 1
    return bytes(out)


def _raises_twice(call) -> None:
    for _ in range(2):
        with pytest.raises(CryptoError):
            call()


@given(keys, st.binary(min_size=1, max_size=48), st.binary(max_size=24), others,
       st.sampled_from(["key", "nonce", "body", "tag", "aad"]), st.integers(0, 63))
def test_memoised_sym_decrypt_matches_aesgcm_and_caches_no_failure(key, plaintext, aad, cached,
                                                                    target, index):
    for other_key, other_plain, other_aad in cached:
        SUITE.sym_decrypt(other_key, SUITE.sym_encrypt(other_key, other_plain, other_aad),
                          other_aad)
    blob = SUITE.sym_encrypt(key, plaintext, aad)
    nonce, body, tag = blob[:12], blob[12:-16], blob[-16:]
    assert AESGCM(key).decrypt(nonce, body + tag, aad) == plaintext
    assert SUITE.sym_decrypt(key, blob, aad) == plaintext
    assert SUITE.sym_decrypt(key, blob, aad) == plaintext  # served from the memo

    parts = {"key": key, "nonce": nonce, "body": body, "tag": tag, "aad": aad}
    parts[target] = _flip(parts[target], index)
    bad_blob = parts["nonce"] + parts["body"] + parts["tag"]
    with pytest.raises(InvalidTag):
        AESGCM(parts["key"]).decrypt(parts["nonce"], parts["body"] + parts["tag"], parts["aad"])
    _raises_twice(lambda: SUITE.sym_decrypt(parts["key"], bad_blob, parts["aad"]))
    assert SUITE.sym_decrypt(key, blob, aad) == plaintext


@given(keys, st.binary(max_size=48), st.binary(max_size=24), others,
       st.sampled_from(["key", "body", "nonce", "tag", "aad"]), st.integers(0, 63))
def test_memoised_open_sealed_matches_aesgcm_and_caches_no_failure(key, body, aad, cached,
                                                                    target, index):
    for other_key, other_body, other_aad in cached:
        SUITE.open_sealed(other_key, SUITE.seal(other_key, other_body, other_aad), other_aad)
    sealed = SUITE.seal(key, body, aad)
    nonce, tag = sealed[-28:-16], sealed[-16:]
    assert sealed[:-28] == body
    assert AESGCM(key).decrypt(nonce, tag, aad + body) == b""
    assert SUITE.open_sealed(key, sealed, aad) == body
    assert SUITE.open_sealed(key, sealed, aad) == body  # served from the memo

    parts = {"key": key, "body": body, "nonce": nonce, "tag": tag, "aad": aad}
    parts[target] = _flip(parts[target], index)
    bad = parts["body"] + parts["nonce"] + parts["tag"]
    with pytest.raises(InvalidTag):
        AESGCM(parts["key"]).decrypt(parts["nonce"], parts["tag"], parts["aad"] + parts["body"])
    _raises_twice(lambda: SUITE.open_sealed(parts["key"], bad, parts["aad"]))
    assert SUITE.open_sealed(key, sealed, aad) == body


seeds = st.binary(min_size=32, max_size=32)
messages = st.binary(min_size=1, max_size=64)


@given(seeds, messages, st.lists(st.tuples(seeds, messages), max_size=4),
       st.sampled_from(["public_key", "signature", "message"]), st.integers(0, 63))
def test_memoised_verify_recover_matches_ed25519_and_caches_no_failure(seed, message, cached,
                                                                        target, index):
    for other_seed, other_message in cached:
        pair = SUITE.load_sig_keypair(other_seed)
        SUITE.verify_recover(pair.public_key, SUITE.sign(pair, other_message))
    pair = SUITE.load_sig_keypair(seed)
    sm = SUITE.sign(pair, message)
    Ed25519PublicKey.from_public_bytes(pair.public_key).verify(sm.signature, sm.message)
    assert SUITE.verify_recover(pair.public_key, sm) == message
    assert SUITE.verify_recover(pair.public_key, sm) == message  # served from the memo

    parts = {"public_key": pair.public_key, "signature": sm.signature, "message": message}
    if target == "public_key":
        parts[target] = SUITE.load_sig_keypair(_flip(seed, index)).public_key  # a wrong key
    else:
        parts[target] = _flip(parts[target], index)
    with pytest.raises(InvalidSignature):
        Ed25519PublicKey.from_public_bytes(parts["public_key"]).verify(parts["signature"],
                                                                       parts["message"])
    bad = SignedMessage(parts["message"], parts["signature"])
    _raises_twice(lambda: SUITE.verify_recover(parts["public_key"], bad))
    assert SUITE.verify_recover(pair.public_key, sm) == message


key_sets = st.integers(1, 40).flatmap(
    lambda n: st.lists(st.binary(min_size=n, max_size=n), min_size=1, max_size=4, unique=True))


@given(key_sets, st.binary(min_size=1, max_size=32), st.sampled_from([128, 192, 256, 512]),
       st.lists(st.tuples(key_sets, st.binary(min_size=1, max_size=8)), max_size=6))
def test_bound_secret_is_truncated_sha512_of_rand_and_sorted_keys(key_set, rand, n_bits, cached):
    for other_keys, other_rand in cached:
        binding.bound_secret(tuple(sorted(other_keys)), other_rand, 128)
    sorted_keys = tuple(sorted(key_set))
    expected = hashlib.sha512(rand + b"".join(sorted_keys)).digest()[: n_bits // 8]
    assert binding.bound_secret(sorted_keys, rand, n_bits) == expected
    hits = binding.bound_secret.cache_info().hits
    assert binding.bound_secret(sorted_keys, rand, n_bits) == expected
    assert binding.bound_secret.cache_info().hits == hits + 1


@pytest.mark.parametrize("keys, rand", [
    ((b"\x02" * 4, b"\x01" * 4), b"r"),  # unsorted
    ((b"\x01" * 4, b"\x01" * 4), b"r"),  # repeated
    ((b"\x01" * 4, b"\x02" * 5), b"r"),  # unequal lengths
    ((), b"r"),                          # empty set
    ((b"\x01" * 4,), b""),               # empty random value
])
def test_bound_secret_rejects_invalid_input_on_every_call(keys, rand):
    for _ in range(2):
        with pytest.raises(ValueError):
            binding.bound_secret(keys, rand, 128)


class _CountingAesGcm:
    """Stand-in for ``AESGCM`` that counts opens per associated data."""

    opens: Counter = Counter()

    def __init__(self, key):
        self._inner = AESGCM(key)

    def encrypt(self, nonce, data, aad):
        return self._inner.encrypt(nonce, data, aad)

    def decrypt(self, nonce, data, aad):
        type(self).opens[aad] += 1
        return self._inner.decrypt(nonce, data, aad)


def _expected_report(name: str) -> str:
    return (SCENARIO_DIR / "expected" / f"{name}.report").read_text()


@pytest.mark.usefixtures("no_failed_world")
def test_each_ecm_is_opened_once_per_system_and_epoch(monkeypatch):
    monkeypatch.setattr(suitemod, "AESGCM", _CountingAesGcm)
    monkeypatch.setattr(_CountingAesGcm, "opens", Counter())
    suitemod._aead.cache_clear()
    suitemod._open.cache_clear()
    config = load_scenario(SCENARIO_DIR / "baseline-bind.scn")
    report = run_world(config)[0]
    assert report.to_text() == _expected_report("baseline-bind")
    # every epoch several entitled decoders read their system's one ECM
    assert all(list(report.decode(row)[2].values()).count("K") >= 2 for row in report.rows)
    ecm_opens = {aad: n for aad, n in _CountingAesGcm.opens.items() if aad.startswith(ECM_MAGIC)}
    assert ecm_opens == {ecm_aad(0, epoch): 1 for epoch in range(config.epochs)}


class _CountingEd25519PublicKey:
    """Stand-in for ``Ed25519PublicKey`` that counts verified triples."""

    verified: Counter = Counter()

    def __init__(self, public_key: bytes):
        self._public_key = public_key

    @classmethod
    def from_public_bytes(cls, public_key: bytes):
        return cls(public_key)

    def verify(self, signature: bytes, message: bytes) -> None:
        type(self).verified[(self._public_key, signature, message)] += 1
        Ed25519PublicKey.from_public_bytes(self._public_key).verify(signature, message)


def test_each_distinct_signature_is_verified_once(monkeypatch):
    monkeypatch.setattr(suitemod, "Ed25519PublicKey", _CountingEd25519PublicKey)
    monkeypatch.setattr(_CountingEd25519PublicKey, "verified", Counter())
    suitemod._verify.cache_clear()
    report = run_world(load_scenario(SCENARIO_DIR / "baseline-cert.scn"))[0]
    assert report.to_text() == _expected_report("baseline-cert")
    verified = _CountingEd25519PublicKey.verified
    assert verified and set(verified.values()) == {1}


def _lru_caches():
    for info in pkgutil.walk_packages(cwbind.__path__, "cwbind."):
        module = importlib.import_module(info.name)
        for owner in [module, *(v for v in vars(module).values() if isinstance(v, type))]:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_parameters"):
                    yield f"{owner.__name__}.{name}", value


def test_every_lru_cache_has_a_small_fixed_bound():
    caches = dict(_lru_caches())
    assert {"cwbind.suite._aead", "cwbind.suite._open", "cwbind.suite._verify",
            "cwbind.binding.bound_secret", "cwbind.scramble._keystream",
            "cwbind.scramble.scramble"} <= set(caches)
    for name, cached in caches.items():
        maxsize = cached.cache_parameters()["maxsize"]
        assert maxsize is not None and 0 < maxsize <= 64, (name, maxsize)
