"""Authority: registration, issuance, revocation, rotation, directory export."""

import hashlib

import pytest

from cwbind.encoding import encode_id
from cwbind.errors import CryptoError, ProtocolError, WireError
from cwbind.suite import Drbg, SignedMessage
from cwbind.ttp import (
    Certificate,
    Directory,
    certify_sender,
    export_directory,
    parse_directory,
    parse_revocation_list,
    register_receiver,
    revoke,
    rotate,
    signed_revocation_list,
    ttp_init,
    verify_certificate,
)


@pytest.fixture
def ttp(suite):
    return ttp_init(suite, Drbg.from_int(1))


def test_init_deterministic(suite):
    a = ttp_init(suite, Drbg.from_int(3))
    b = ttp_init(suite, Drbg.from_int(3))
    assert a.keypair.public_key == b.keypair.public_key
    assert a.generation == 1


def test_init_distinct_seeds_distinct_keys(suite):
    a = ttp_init(suite, Drbg.from_int(3))
    b = ttp_init(suite, Drbg.from_int(4))
    assert a.keypair.public_key != b.keypair.public_key


def test_register_receiver_issues_verifiable_cert(suite, ttp, rng):
    pk = suite.keygen("pke", rng).public_key
    cert = register_receiver(ttp, encode_id(7), pk)
    verify_certificate(suite, cert, ttp.keypair.public_key)
    assert cert.subject_pk == pk
    assert cert.subject_role == "receiver"


@pytest.mark.parametrize("issue", [register_receiver, certify_sender])
@pytest.mark.parametrize("subject_id", [7, encode_id(7)[1:]], ids=["int", "7-byte"])
def test_only_an_8_byte_id_gets_a_certificate(suite, ttp, rng, issue, subject_id):
    # a certificate carries its subject's 8-byte id as given, so an id in
    # any other form is refused before anything is signed or filed
    with pytest.raises((TypeError, ValueError)):
        issue(ttp, subject_id, suite.keygen("sig", rng).public_key)
    assert ttp.issued_certs == []
    assert ttp.receiver_registry == ttp.sender_registry == {}


def test_register_duplicate_id_rejected(suite, ttp, rng):
    pk = suite.keygen("pke", rng).public_key
    register_receiver(ttp, encode_id(7), pk)
    with pytest.raises(ProtocolError):
        register_receiver(ttp, encode_id(7), pk)


def test_cert_round_trips_to_registered_pk(suite, ttp, rng):
    pk = suite.keygen("pke", rng).public_key
    cert = register_receiver(ttp, encode_id(9), pk)
    # byte comparison against the registry through serialization
    reparsed = Certificate.from_bytes(cert.to_bytes())
    verify_certificate(suite, reparsed, ttp.keypair.public_key)
    assert reparsed.subject_pk == ttp.receiver_registry[(9).to_bytes(8, "big")]


def test_serials_unique_across_issuance(suite, ttp, rng):
    serials = set()
    for i in range(5):
        pk = suite.keygen("pke", rng).public_key
        serials.add(register_receiver(ttp, encode_id(i), pk).serial)
    serials.add(certify_sender(ttp, encode_id(100), suite.keygen("sig", rng).public_key).serial)
    rotate(ttp, rng)
    serials.update(cert.serial for cert in ttp.issued_certs)
    assert len(serials) == len(ttp.issued_certs)


def test_certify_sender_rotation_allows_new_key(suite, ttp, rng):
    pk1 = suite.keygen("sig", rng).public_key
    pk2 = suite.keygen("sig", rng).public_key
    certify_sender(ttp, encode_id(5), pk1)
    with pytest.raises(ProtocolError):
        certify_sender(ttp, encode_id(5), pk1)  # identical key re-certification
    cert = certify_sender(ttp, encode_id(5), pk2)  # key rotation
    assert cert.subject_pk == pk2


def test_revoke_membership_and_idempotence(suite, ttp, rng):
    cert = register_receiver(ttp, encode_id(1), suite.keygen("pke", rng).public_key)
    revoke(ttp, cert.serial)
    assert ttp.revoked_serials == {cert.serial}
    revoke(ttp, cert.serial)  # idempotent
    assert ttp.revoked_serials == {cert.serial}
    with pytest.raises(ProtocolError):
        revoke(ttp, 424242)
    assert ttp.revoked_serials == {cert.serial}


def test_rotate_reissues_receivers_and_keeps_their_keys(suite, ttp, rng):
    pks = {}
    for i in range(3):
        pk = suite.keygen("pke", rng).public_key
        register_receiver(ttp, encode_id(i), pk)
        pks[(i).to_bytes(8, "big")] = pk
    rotate(ttp, rng)
    assert ttp.generation == 2
    assert ttp.receiver_registry == pks  # byte-identical before/after
    directory = parse_directory(suite, export_directory(ttp))
    for cert in directory.certificates:
        verify_certificate(suite, cert, ttp.keypair.public_key)
        assert cert.generation == 2


def test_old_sender_cert_fails_under_new_authority_key(suite, ttp, rng):
    cert = certify_sender(ttp, encode_id(2), suite.keygen("sig", rng).public_key)
    rotate(ttp, rng)
    with pytest.raises(CryptoError):
        verify_certificate(suite, cert, ttp.keypair.public_key)


def test_cross_generation_receiver_cert_fails_after_rotate(suite, ttp, rng):
    cert = register_receiver(ttp, encode_id(3), suite.keygen("pke", rng).public_key)
    rotate(ttp, rng)
    with pytest.raises(CryptoError):
        verify_certificate(suite, cert, ttp.keypair.public_key)
    # but it still verifies under its own generation's key
    generation, old_pk = ttp.prior_pks[-1]
    assert generation == 1
    verify_certificate(suite, cert, old_pk)


def test_certificate_field_tampering_detected(suite, ttp, rng):
    cert = register_receiver(ttp, encode_id(6), suite.keygen("pke", rng).public_key)
    for tampered in (
        Certificate(cert.serial + 1, cert.subject_id, cert.subject_role,
                    cert.subject_pk, cert.generation, cert.signature),
        Certificate(cert.serial, (99).to_bytes(8, "big"), cert.subject_role,
                    cert.subject_pk, cert.generation, cert.signature),
        Certificate(cert.serial, cert.subject_id, "sender",
                    cert.subject_pk, cert.generation, cert.signature),
        Certificate(cert.serial, cert.subject_id, cert.subject_role,
                    b"\x00" * 32, cert.generation, cert.signature),
        Certificate(cert.serial, cert.subject_id, cert.subject_role,
                    cert.subject_pk, cert.generation + 1, cert.signature),
    ):
        with pytest.raises((CryptoError, ProtocolError)):
            verify_certificate(suite, tampered, ttp.keypair.public_key)


def test_no_receiver_private_key_reachable_from_state(suite, rng):
    # the registry holds public keys only; walk the whole object graph and
    # confirm the receiver's private bytes appear nowhere
    ttp = ttp_init(suite, Drbg.from_int(2))
    pair = suite.keygen("pke", rng)
    register_receiver(ttp, encode_id(11), pair.public_key)
    rotate(ttp, rng)

    seen = set()

    def walk(obj):
        if id(obj) in seen:
            return
        seen.add(id(obj))
        if isinstance(obj, (bytes, bytearray)):
            assert pair.private_key not in bytes(obj)
            return
        if isinstance(obj, dict):
            for k, v in obj.items():
                walk(k)
                walk(v)
        elif isinstance(obj, (list, tuple, set, frozenset)):
            for item in obj:
                walk(item)
        elif hasattr(obj, "__dict__"):
            for value in vars(obj).values():
                walk(value)

    walk(ttp)


def test_directory_export_parse_round_trip(suite, ttp, rng):
    register_receiver(ttp, encode_id(1), suite.keygen("pke", rng).public_key)
    certify_sender(ttp, encode_id(2), suite.keygen("sig", rng).public_key)
    revoke(ttp, ttp.issued_certs[0].serial)
    blob = export_directory(ttp)
    directory = parse_directory(suite, blob)
    assert directory.authority_pk == ttp.keypair.public_key
    assert directory.generation == ttp.generation
    assert directory.revoked_serials == frozenset(ttp.revoked_serials)
    assert len(directory.certificates) == 2


def test_directory_export_bytes_are_pinned(suite):
    # 64 receivers, two senders, one rotation and revocations on both sides
    # of it; the digest was taken from the export before it was built by join
    master = Drbg.from_int(0xD1)
    ttp = ttp_init(suite, master.child("ttp"))
    for n in range(1, 65):
        pk = suite.keygen("pke", master.child(f"chip-{n}")).public_key
        register_receiver(ttp, encode_id(n), pk)
    for n in (101, 102):
        pk = suite.keygen("sig", master.child(f"sender-{n}")).public_key
        certify_sender(ttp, encode_id(n), pk)
    revoke(ttp, ttp.issued_certs[3].serial)
    rotate(ttp, master.child("rotate"))
    for index in (7, 30, 64):
        revoke(ttp, ttp.issued_certs[-index].serial)
    blob = export_directory(ttp)
    assert len(blob) == 8707
    assert hashlib.sha256(blob).hexdigest() == (
        "03862caa2ecf7cbd6b9e628a1f331406f9d50a6f5f7316a69121f7733353733a")


def test_directory_receiver_cert_lookup(suite, ttp, rng):
    first = register_receiver(ttp, encode_id(1), suite.keygen("pke", rng).public_key)
    sender = certify_sender(ttp, encode_id(2), suite.keygen("sig", rng).public_key)
    later = register_receiver(ttp_init(suite, Drbg.from_int(2)), encode_id(1),
                              suite.keygen("pke", rng).public_key)
    directory = Directory(1, ttp.keypair.public_key, (), (first, sender, later), frozenset())
    assert directory.receiver_cert(first.subject_id) is first  # first listed wins
    assert directory.receiver_cert(sender.subject_id) is None  # senders are not receivers
    assert directory.receiver_cert(b"\x00" * 8) is None


def test_directory_signature_checked(suite, ttp, rng):
    register_receiver(ttp, encode_id(1), suite.keygen("pke", rng).public_key)
    blob = bytearray(export_directory(ttp))
    blob[-1] ^= 1
    with pytest.raises(CryptoError):
        parse_directory(suite, bytes(blob))


def test_directory_of_another_version_rejected(suite, ttp):
    # the version byte is outside the signed message, so only its own check
    # refuses it
    blob = bytearray(export_directory(ttp))
    blob[2] = 2
    with pytest.raises(WireError, match="^unsupported directory version 2 at offset 2$"):
        parse_directory(suite, bytes(blob))


def test_signed_revocation_list_round_trip(suite, ttp, rng):
    cert = register_receiver(ttp, encode_id(1), suite.keygen("pke", rng).public_key)
    revoke(ttp, cert.serial)
    sm = signed_revocation_list(ttp)
    assert parse_revocation_list(suite, sm, ttp.keypair.public_key) == {cert.serial}
    with pytest.raises(CryptoError):
        parse_revocation_list(suite, SignedMessage(sm.message + b"x", sm.signature),
                              ttp.keypair.public_key)
