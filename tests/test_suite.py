"""Primitive suite: determinism, round trips, tamper rejection, golden vectors."""

import copy
import hashlib
import json
from pathlib import Path

import pytest
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey
from hypothesis import given, settings
from hypothesis import strategies as st

from cwbind import suite as suitemod
from cwbind.errors import CryptoError, CwbindError
from cwbind.suite import CipherSuite, Drbg, KeyPair, SignedMessage

VECTORS = json.loads((Path(__file__).parent / "vectors" / "suite.json").read_text())


def _flip_bit(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


# ---------------------------------------------------------------------------
# Drbg
# ---------------------------------------------------------------------------


def test_drbg_stream_matches_hash_counter_definition():
    # oracle: block i is SHA-512(seed || 8-byte big-endian i)
    seed = b"\x00" * 8
    expected = hashlib.sha512(seed + (0).to_bytes(8, "big")).digest()
    expected += hashlib.sha512(seed + (1).to_bytes(8, "big")).digest()
    assert Drbg(seed).read(96) == expected[:96]


def test_drbg_same_seed_same_stream():
    a, b = Drbg.from_int(5), Drbg.from_int(5)
    assert [a.read(n) for n in (1, 7, 64, 3)] == [b.read(n) for n in (1, 7, 64, 3)]


@pytest.mark.parametrize("seed", [-1, 2**64, -(2**70)])
def test_drbg_from_int_refuses_a_seed_outside_u64(seed):
    # used to escape as a bare struct.error
    with pytest.raises(ValueError, match="outside"):
        Drbg.from_int(seed)


def test_drbg_from_int_takes_the_whole_u64_range():
    assert Drbg.from_int(0).seed == bytes(8)
    assert Drbg.from_int(2**64 - 1).seed == b"\xff" * 8


def test_drbg_refuses_a_negative_read():
    # read(-5) used to return b"" like read(0)
    rng = Drbg(b"x")
    with pytest.raises(ValueError, match="-1"):
        rng.read(-1)
    assert rng.read(0) == b"" and rng.read(4) == Drbg(b"x").read(4)


def test_drbg_children_are_independent_of_parent_position():
    parent1 = Drbg.from_int(9)
    parent2 = Drbg.from_int(9)
    parent2.read(100)
    assert parent1.child("x").read(16) == parent2.child("x").read(16)
    assert parent1.child("x").read(16) != parent1.child("y").read(16)


# ---------------------------------------------------------------------------
# keygen
# ---------------------------------------------------------------------------


def test_keygen_deterministic_for_equal_seeds(suite):
    pair1 = suite.keygen("pke", Drbg(b"\x00" * 8))
    pair2 = suite.keygen("pke", Drbg(b"\x00" * 8))
    assert pair1 == pair2


def test_keygen_matches_reference_generator(suite):
    # oracle: private key is the first 32 Drbg bytes; public derived by the
    # underlying library directly
    raw = Drbg(b"\x07" * 8).read(32)
    expected_pk = (
        X25519PrivateKey.from_private_bytes(raw)
        .public_key()
        .public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
    )
    assert suite.keygen("pke", Drbg(b"\x07" * 8)).public_key == expected_pk

    raw_sig = Drbg(b"\x08" * 8).read(32)
    expected_sig_pk = (
        Ed25519PrivateKey.from_private_bytes(raw_sig)
        .public_key()
        .public_bytes(serialization.Encoding.Raw, serialization.PublicFormat.Raw)
    )
    assert suite.keygen("sig", Drbg(b"\x08" * 8)).public_key == expected_sig_pk


def test_keygen_distinct_seeds_distinct_keys(suite):
    # computed both with the reference path above; inequality is the claim
    pk1 = suite.keygen("pke", Drbg(b"\x01" * 8)).public_key
    pk2 = suite.keygen("pke", Drbg(b"\x02" * 8)).public_key
    assert pk1 != pk2


def test_keygen_sig_pair_passes_self_test(suite, rng):
    pair = suite.keygen("sig", rng)
    sm = suite.sign(pair, b"round trip")
    assert suite.verify_recover(pair.public_key, sm) == b"round trip"


def test_keygen_sig_self_test_rejects_a_corrupted_signature(suite, rng, monkeypatch):
    real_sign = CipherSuite.sign

    def corrupted_sign(self, pair, message):
        sm = real_sign(self, pair, message)
        return SignedMessage(sm.message, bytes([sm.signature[0] ^ 1]) + sm.signature[1:])

    monkeypatch.setattr(CipherSuite, "sign", corrupted_sign)
    with pytest.raises(CryptoError, match="fresh sig key pair failed its self-test"):
        suite.keygen("sig", rng)


def test_keygen_sig_self_test_leaves_the_verify_memo_alone(suite, rng):
    # the self-test signature is never checked again, so it takes no memo entry
    suite.keygen("sig", rng)
    assert suite._verify.cache_info().currsize == 0


def test_keygen_pke_self_test_rejects_a_pair_whose_halves_disagree(suite, rng, monkeypatch):
    # the public half belongs to another key, so the ladder step from the
    # base point gives back a public key other than the pair's
    real_pair = suitemod._pair
    other = real_pair(X25519PrivateKey, b"\x01" * 32)

    def mismatched(private_cls, private_key):
        pair = real_pair(private_cls, private_key)
        return KeyPair(other.public_key, pair.private_key, pair.loaded)

    monkeypatch.setattr(suitemod, "_pair", mismatched)
    with pytest.raises(CryptoError, match="fresh pke key pair failed its self-test"):
        suite.keygen("pke", rng)


@settings(max_examples=30)
@given(seed=st.binary(max_size=32), bits=st.sampled_from([128, 192, 256]),
       message=st.binary(max_size=64))
def test_a_keygen_pke_pair_round_trips_at_every_secret_size(seed, bits, message):
    # keygen's self-test encrypts nothing, so this keeps the round trip
    # checked; the wrap key is 32 bytes whatever the control-word length
    suite, rng = CipherSuite(bits), Drbg(seed)
    pair = suite.keygen("pke", rng)
    assert suite.pke_decrypt(pair, suite.pke_encrypt(pair.public_key, message, rng)) == message


def test_keygen_unknown_purpose(suite, rng):
    with pytest.raises(ValueError):
        suite.keygen("kex", rng)


def test_load_sig_keypair_rebuilds_the_generated_pair(suite, rng):
    pair = suite.keygen("sig", rng)
    loaded = suite.load_sig_keypair(pair.private_key)
    assert loaded == pair
    assert suite.verify_recover(pair.public_key, suite.sign(loaded, b"m")) == b"m"


@settings(max_examples=40)
@given(seed=st.binary(max_size=32))
def test_load_sig_keypair_of_a_drbg_read_is_the_keygen_pair_and_draw(seed):
    # the simulated adversary loads its forged signing keys this way, so its
    # keys, and every draw after them, match a self-tested keygen's
    suite = CipherSuite()
    generated_rng, loaded_rng = Drbg(seed), Drbg(seed)
    generated = suite.keygen("sig", generated_rng)
    loaded = suite.load_sig_keypair(loaded_rng.read(32))
    assert (loaded.public_key, loaded.private_key) == (generated.public_key,
                                                       generated.private_key)
    assert loaded_rng.read(64) == generated_rng.read(64)


class _CountingLoads:
    """Stand-in for a private-key class that records every raw key it loads."""

    def __init__(self, real):
        self.real = real
        self.loaded: list[bytes] = []

    def from_private_bytes(self, data: bytes):
        self.loaded.append(bytes(data))
        return self.real.from_private_bytes(data)


@pytest.mark.parametrize("k", [0, 1, 7])
def test_each_private_key_is_loaded_once(suite, rng, monkeypatch, k):
    sig_loads = _CountingLoads(Ed25519PrivateKey)
    pke_loads = _CountingLoads(X25519PrivateKey)
    monkeypatch.setattr("cwbind.suite.Ed25519PrivateKey", sig_loads)
    monkeypatch.setattr("cwbind.suite.X25519PrivateKey", pke_loads)

    sig_pair = suite.keygen("sig", rng)
    for i in range(k):
        suite.sign(sig_pair, b"message %d" % i)
    assert sig_loads.loaded == [sig_pair.private_key]

    pke_pair = suite.keygen("pke", rng)
    cts = [suite.pke_encrypt(pke_pair.public_key, b"message", rng) for _ in range(k)]
    for ct in cts:
        assert suite.pke_decrypt(pke_pair, ct) == b"message"
    assert pke_loads.loaded.count(pke_pair.private_key) == 1
    # every other load is the fresh ephemeral key of one of the k encryptions
    # above; the keygen self-test loads none
    assert len(pke_loads.loaded) == 1 + k


# ---------------------------------------------------------------------------
# public-key encryption
# ---------------------------------------------------------------------------


def test_pke_round_trip(suite, rng):
    pair = suite.keygen("pke", rng)
    ct = suite.pke_encrypt(pair.public_key, b"\xaa" * 16, rng)
    assert suite.pke_decrypt(pair, ct) == b"\xaa" * 16


def test_pke_wrong_private_key_fails(suite, rng):
    pair1 = suite.keygen("pke", rng)
    pair2 = suite.keygen("pke", rng)
    ct = suite.pke_encrypt(pair1.public_key, b"secret", rng)
    with pytest.raises(CryptoError):
        suite.pke_decrypt(pair2, ct)


def test_pke_long_plaintext(suite, rng):
    pair = suite.keygen("pke", rng)
    message = bytes(range(256)) * 40
    assert suite.pke_decrypt(pair,
                             suite.pke_encrypt(pair.public_key, message, rng)) == message


def test_pke_known_answer_matches_reference_composition(suite):
    # oracle: rebuild the hybrid ciphertext from primitives directly
    pair = suite.keygen("pke", Drbg(b"\x00" * 8))
    message = bytes(range(16))
    got = suite.pke_encrypt(pair.public_key, message, Drbg(b"\x02" * 8))

    enc_rng = Drbg(b"\x02" * 8)
    eph = X25519PrivateKey.from_private_bytes(enc_rng.read(32))
    eph_pub = eph.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )
    from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PublicKey
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    def lp(b: bytes) -> bytes:
        return len(b).to_bytes(4, "big") + b

    shared = eph.exchange(X25519PublicKey.from_public_bytes(pair.public_key))
    wrap = hashlib.sha512(b"cwbind/hybrid-wrap" + lp(shared) + lp(eph_pub)
                          + lp(pair.public_key)).digest()[:32]
    aad = eph_pub + pair.public_key
    nonce = hashlib.sha512(b"cwbind/sym-nonce" + lp(wrap) + lp(aad) + lp(message)).digest()[:12]
    expected = eph_pub + nonce + AESGCM(wrap).encrypt(nonce, message, aad)
    assert got == expected
    assert got.hex() == VECTORS["pke_ciphertext_seed02_m0f"]


# ---------------------------------------------------------------------------
# signatures
# ---------------------------------------------------------------------------


def test_sign_verify_round_trip(suite, rng):
    pair = suite.keygen("sig", rng)
    assert suite.verify_recover(pair.public_key, suite.sign(pair, b"m")) == b"m"


def test_signature_bit_flip_rejected(suite, rng):
    pair = suite.keygen("sig", rng)
    sm = suite.sign(pair, b"message")
    with pytest.raises(CryptoError):
        suite.verify_recover(pair.public_key, SignedMessage(sm.message, _flip_bit(sm.signature, 0)))


def test_verify_under_other_senders_key_rejected(suite):
    # two seeded pairs, cross-verify
    pair_a = suite.keygen("sig", Drbg(b"\x0a" * 8))
    pair_b = suite.keygen("sig", Drbg(b"\x0b" * 8))
    sm = suite.sign(pair_a, b"from a")
    with pytest.raises(CryptoError):
        suite.verify_recover(pair_b.public_key, sm)


def test_sign_empty_message_refused(suite, rng):
    pair = suite.keygen("sig", rng)
    with pytest.raises(ValueError):
        suite.sign(pair, b"")


def test_signed_message_serialization_round_trip(suite, rng):
    pair = suite.keygen("sig", rng)
    sm = suite.sign(pair, b"wire me")
    assert SignedMessage.from_bytes(sm.to_bytes()) == sm


# ---------------------------------------------------------------------------
# symmetric encryption
# ---------------------------------------------------------------------------


def test_sym_round_trip(suite):
    key = bytes(16)
    assert suite.sym_decrypt(key, suite.sym_encrypt(key, b"\x11" * 32)) == b"\x11" * 32


def test_sym_wrong_key_fails(suite):
    ct = suite.sym_encrypt(b"\x01" * 16, b"payload")
    with pytest.raises(CryptoError):
        suite.sym_decrypt(b"\x02" * 16, ct)


def test_sym_wrong_key_length_rejected(suite):
    with pytest.raises(ValueError):
        suite.sym_encrypt(b"\x01" * 15, b"pt")


def test_sym_golden_vector_matches_reference_composition(suite):
    # oracle: deterministic nonce then AES-GCM, composed directly
    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    def lp(b: bytes) -> bytes:
        return len(b).to_bytes(4, "big") + b

    key, pt, aad = bytes(range(16)), bytes(range(32)), b"aad"
    nonce = hashlib.sha512(b"cwbind/sym-nonce" + lp(key) + lp(aad) + lp(pt)).digest()[:12]
    expected = nonce + AESGCM(key).encrypt(nonce, pt, aad)
    assert suite.sym_encrypt(key, pt, aad=aad) == expected
    assert expected.hex() == VECTORS["sym_ciphertext_k0f_p20"]


@pytest.mark.parametrize("call, message", [
    (lambda suite, pair: suite.sym_decrypt(bytes(16), bytes(5)), "ciphertext too short"),
    (lambda suite, pair: suite.sym_decrypt_shared(bytes(16), bytes(5)), "ciphertext too short"),
    (lambda suite, pair: suite.pke_decrypt(pair, bytes(2)), "hybrid ciphertext too short"),
    (lambda suite, pair: suite.pke_decrypt(pair, bytes(32 + 28)), "invalid ephemeral public key"),
    (lambda suite, pair: suite.open_sealed(bytes(16), bytes(5)), "sealed blob too short"),
], ids=["sym-short", "sym-shared-short", "pke-short", "pke-zero-ephemeral", "sealed-short"])
def test_malformed_ciphertext_refused_by_its_own_check(suite, rng, call, message):
    # each refusal names its own check: without it the input falls through
    # to a later check, or to an error that is not a CwbindError
    pair = suite.keygen("pke", rng)
    with pytest.raises(CryptoError, match=f"^{message}$"):
        call(suite, pair)


def test_seal_protects_integrity_only(suite):
    key = bytes(16)
    sealed = suite.seal(key, b"public body", aad=b"hdr")
    assert sealed.startswith(b"public body")  # cleartext body
    assert suite.open_sealed(key, sealed, aad=b"hdr") == b"public body"
    with pytest.raises(CryptoError):
        suite.open_sealed(key, sealed, aad=b"other header")
    with pytest.raises(CryptoError):
        suite.open_sealed(key, _flip_bit(sealed, 8), aad=b"hdr")


# ---------------------------------------------------------------------------
# laws: round trips and tamper rejection at scale
# ---------------------------------------------------------------------------


def test_round_trip_laws_1000_randomized_cases(suite):
    rng = Drbg.from_int(1000)
    pke_pair = suite.keygen("pke", rng)
    sig_pair = suite.keygen("sig", rng)
    for i in range(1000):
        message = rng.read(1 + i % 64)
        layer = i % 3
        if layer == 0:
            key = rng.read(16)
            assert suite.sym_decrypt(key, suite.sym_encrypt(key, message)) == message
        elif layer == 1:
            ct = suite.pke_encrypt(pke_pair.public_key, message, rng)
            assert suite.pke_decrypt(pke_pair, ct) == message
        else:
            sm = suite.sign(sig_pair, message)
            assert suite.verify_recover(sig_pair.public_key, sm) == message


@pytest.mark.parametrize("layer", ["pke", "sig", "sym"])
def test_tamper_law_64_sampled_bit_positions(suite, layer):
    rng = Drbg.from_int(64)
    message = rng.read(24)
    if layer == "pke":
        pair = suite.keygen("pke", rng)
        blob = suite.pke_encrypt(pair.public_key, message, rng)
        check = lambda b: suite.pke_decrypt(pair, b)  # noqa: E731
    elif layer == "sig":
        pair = suite.keygen("sig", rng)
        sm = suite.sign(pair, message)
        blob = sm.to_bytes()
        check = lambda b: suite.verify_recover(  # noqa: E731
            pair.public_key, SignedMessage.from_bytes(b)
        )
    else:
        key = rng.read(16)
        blob = suite.sym_encrypt(key, message)
        check = lambda b: suite.sym_decrypt(key, b)  # noqa: E731

    total_bits = len(blob) * 8
    positions = sorted({(i * total_bits) // 64 for i in range(64)})
    assert len(positions) >= 64
    for bit in positions:
        tampered = _flip_bit(blob, bit)
        try:
            result = check(tampered)
        except CwbindError:
            continue
        # a verify that somehow passes must not return the real message
        assert result != message, f"bit {bit} accepted"


@settings(max_examples=60)
@given(message=st.binary(min_size=0, max_size=200), aad=st.binary(max_size=32))
def test_sym_round_trip_property(message, aad):
    suite = CipherSuite()
    key = b"\x42" * 16
    assert suite.sym_decrypt(key, suite.sym_encrypt(key, message, aad), aad) == message


@settings(max_examples=40)
@given(message=st.binary(min_size=1, max_size=200))
def test_sign_round_trip_property(message):
    suite = CipherSuite()
    pair = suite.keygen("sig", Drbg.from_int(77))
    assert suite.verify_recover(pair.public_key, suite.sign(pair, message)) == message


# ---------------------------------------------------------------------------
# secret length and golden vectors
# ---------------------------------------------------------------------------


def test_cipher_suite_rejects_unsupported_secret_bits():
    for bits in (0, 96, 127, 512):
        with pytest.raises(ValueError, match=f"got {bits}"):
            CipherSuite(bits)


@pytest.mark.parametrize("bits", [128, 192, 256])
def test_valid_secret_lengths(bits):
    assert CipherSuite(bits).secret_bytes == bits // 8


def test_suite_repr_holds_no_key_and_a_deep_copy_is_the_suite(suite):
    # a party's deep copy shares its world's suite: memos and contexts
    # belong to the world, and a context cannot be copied
    key = bytes(range(16))
    blob = suite.sym_encrypt(key, b"payload")
    assert suite.sym_decrypt_shared(key, blob) == b"payload"
    assert repr(suite) == "CipherSuite(128)" and key.hex() not in repr(suite)
    assert copy.deepcopy(suite) is suite
    assert copy.deepcopy({"suite": suite})["suite"] is suite
