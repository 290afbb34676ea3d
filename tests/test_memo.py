"""Memoised primitives: agreement with direct references, failures never
cached, shared per-system work done once per world state, fixed bounds, and
no memo outside a suite."""

import ast
import hashlib
from collections import Counter
from pathlib import Path

import pytest
from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given
from hypothesis import strategies as st

from cwbind import binding, suite as suitemod
from cwbind.errors import CryptoError
from cwbind.sim import load_scenario, run_world
from cwbind.suite import CipherSuite, Drbg, SignedMessage
from cwbind.wire import ECM_MAGIC, ecm_aad

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
PACKAGE_DIR = Path(suitemod.__file__).resolve().parent

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
    suite = CipherSuite()
    for other_key, other_plain, other_aad in cached:
        suite.sym_decrypt_shared(other_key, suite.sym_encrypt(other_key, other_plain, other_aad),
                                 other_aad)
    blob = suite.sym_encrypt(key, plaintext, aad)
    nonce, body, tag = blob[:12], blob[12:-16], blob[-16:]
    assert AESGCM(key).decrypt(nonce, body + tag, aad) == plaintext
    assert suite.sym_decrypt_shared(key, blob, aad) == plaintext
    assert suite.sym_decrypt_shared(key, blob, aad) == plaintext  # served from the memo
    assert suite.sym_decrypt(key, blob, aad) == plaintext  # past the memo

    parts = {"key": key, "nonce": nonce, "body": body, "tag": tag, "aad": aad}
    parts[target] = _flip(parts[target], index)
    bad_blob = parts["nonce"] + parts["body"] + parts["tag"]
    with pytest.raises(InvalidTag):
        AESGCM(parts["key"]).decrypt(parts["nonce"], parts["body"] + parts["tag"], parts["aad"])
    _raises_twice(lambda: suite.sym_decrypt_shared(parts["key"], bad_blob, parts["aad"]))
    _raises_twice(lambda: suite.sym_decrypt(parts["key"], bad_blob, parts["aad"]))
    assert suite.sym_decrypt_shared(key, blob, aad) == plaintext


@given(keys, st.binary(max_size=48), st.binary(max_size=24), others,
       st.sampled_from(["key", "body", "nonce", "tag", "aad"]), st.integers(0, 63))
def test_memoised_open_sealed_matches_aesgcm_and_caches_no_failure(key, body, aad, cached,
                                                                    target, index):
    suite = CipherSuite()
    for other_key, other_body, other_aad in cached:
        suite.open_sealed(other_key, suite.seal(other_key, other_body, other_aad), other_aad)
    sealed = suite.seal(key, body, aad)
    nonce, tag = sealed[-28:-16], sealed[-16:]
    assert sealed[:-28] == body
    assert AESGCM(key).decrypt(nonce, tag, aad + body) == b""
    assert suite.open_sealed(key, sealed, aad) == body
    assert suite.open_sealed(key, sealed, aad) == body  # served from the memo

    parts = {"key": key, "body": body, "nonce": nonce, "tag": tag, "aad": aad}
    parts[target] = _flip(parts[target], index)
    bad = parts["body"] + parts["nonce"] + parts["tag"]
    with pytest.raises(InvalidTag):
        AESGCM(parts["key"]).decrypt(parts["nonce"], parts["tag"], parts["aad"] + parts["body"])
    _raises_twice(lambda: suite.open_sealed(parts["key"], bad, parts["aad"]))
    assert suite.open_sealed(key, sealed, aad) == body


seeds = st.binary(min_size=32, max_size=32)
messages = st.binary(min_size=1, max_size=64)


@given(seeds, messages, st.lists(st.tuples(seeds, messages), max_size=4),
       st.sampled_from(["public_key", "signature", "message"]), st.integers(0, 63))
def test_memoised_verify_recover_matches_ed25519_and_caches_no_failure(seed, message, cached,
                                                                        target, index):
    suite = CipherSuite()
    for other_seed, other_message in cached:
        pair = suite.keygen("sig", Drbg(other_seed))
        suite.verify_recover(pair.public_key, suite.sign(pair, other_message))
    pair = suite.keygen("sig", Drbg(seed))
    sm = suite.sign(pair, message)
    Ed25519PublicKey.from_public_bytes(pair.public_key).verify(sm.signature, sm.message)
    assert suite.verify_recover(pair.public_key, sm) == message
    assert suite.verify_recover(pair.public_key, sm) == message  # served from the memo

    parts = {"public_key": pair.public_key, "signature": sm.signature, "message": message}
    if target == "public_key":
        parts[target] = suite.keygen("sig", Drbg(_flip(seed, index))).public_key  # a wrong key
    else:
        parts[target] = _flip(parts[target], index)
    with pytest.raises(InvalidSignature):
        Ed25519PublicKey.from_public_bytes(parts["public_key"]).verify(parts["signature"],
                                                                       parts["message"])
    bad = SignedMessage(parts["message"], parts["signature"])
    _raises_twice(lambda: suite.verify_recover(parts["public_key"], bad))
    assert suite.verify_recover(pair.public_key, sm) == message


key_sets = st.integers(1, 40).flatmap(
    lambda n: st.lists(st.binary(min_size=n, max_size=n), min_size=1, max_size=4, unique=True))


@given(key_sets, st.binary(min_size=1, max_size=32), st.sampled_from([128, 192, 256, 512]),
       st.lists(st.tuples(key_sets, st.binary(min_size=1, max_size=8)), max_size=6))
def test_bound_secret_is_truncated_sha512_of_rand_and_sorted_keys(key_set, rand, n_bits, cached):
    suite = CipherSuite()
    for other_keys, other_rand in cached:
        suite.bound_secret(tuple(sorted(other_keys)), other_rand, 128)
    sorted_keys = tuple(sorted(key_set))
    expected = hashlib.sha512(rand + b"".join(sorted_keys)).digest()[: n_bits // 8]
    assert binding.bound_secret(sorted_keys, rand, n_bits) == expected  # uncached
    assert suite.bound_secret(sorted_keys, rand, n_bits) == expected
    hits = suite.bound_secret.cache_info().hits
    assert suite.bound_secret(sorted_keys, rand, n_bits) == expected
    assert suite.bound_secret.cache_info().hits == hits + 1


@pytest.mark.parametrize("keys, rand", [
    ((b"\x02" * 4, b"\x01" * 4), b"r"),  # unsorted
    ((b"\x01" * 4, b"\x01" * 4), b"r"),  # repeated
    ((b"\x01" * 4, b"\x02" * 5), b"r"),  # unequal lengths
    ((), b"r"),                          # empty set
    ((b"\x01" * 4,), b""),               # empty random value
])
def test_bound_secret_rejects_invalid_input_on_every_call(keys, rand):
    suite = CipherSuite()
    for _ in range(2):
        with pytest.raises(ValueError):
            suite.bound_secret(keys, rand, 128)
    assert suite.bound_secret.cache_info().currsize == 0


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


def test_each_ecm_is_opened_once_per_system_and_epoch(monkeypatch):
    monkeypatch.setattr(suitemod, "AESGCM", _CountingAesGcm)
    monkeypatch.setattr(_CountingAesGcm, "opens", Counter())
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
    report = run_world(load_scenario(SCENARIO_DIR / "baseline-cert.scn"))[0]
    assert report.to_text() == _expected_report("baseline-cert")
    verified = _CountingEd25519PublicKey.verified
    assert verified and set(verified.values()) == {1}


_CACHE_NAMES = {"lru_cache", "cache"}


def _outside_functions(node: ast.AST):
    """Every node under ``node`` that runs at module or class level: all but
    function bodies (a function's decorators and defaults run there)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            outer = [*getattr(child, "decorator_list", ()), *child.args.defaults,
                     *child.args.kw_defaults]
            for expr in filter(None, outer):
                yield from ast.walk(expr)
        else:
            yield child
            yield from _outside_functions(child)


def _caches_outside_functions(source: str) -> list[int]:
    """Lines that name ``lru_cache`` or ``cache`` at module or class level."""
    return sorted(node.lineno for node in _outside_functions(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id in _CACHE_NAMES
                  or isinstance(node, ast.Attribute) and node.attr in _CACHE_NAMES)


def test_no_module_or_class_level_cache():
    # the walker finds each form a shared memo could take, and none inside a
    # function body, where a suite builds its own
    assert _caches_outside_functions(
        "import functools\nfrom functools import lru_cache\n"
        "@lru_cache(maxsize=4)\ndef f(x): return x\n"
        "g = functools.cache(f)\n"
        "class C:\n    @functools.lru_cache\n    def m(self): pass\n"
        "    def __init__(self):\n        self.h = lru_cache(maxsize=2)(f)\n") == [3, 5, 7]
    found = {path.name: _caches_outside_functions(path.read_text())
             for path in sorted(PACKAGE_DIR.glob("*.py"))}
    assert "suite.py" in found
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_each_suite_memo_has_its_fixed_bound():
    memos = {name: memo.cache_parameters()["maxsize"]
             for name, memo in vars(CipherSuite()).items() if hasattr(memo, "cache_parameters")}
    assert memos == {"_open": 32, "_verify": 64, "_keystream": 32, "scramble": 32,
                     "bound_secret": 16}
