"""Wire codecs: round trips, truncation offsets, protection, golden vectors."""

import json
import struct
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwbind.encoding import BROADCAST_ADDR, Reader, encode_id, lp, u8, u16, u32
from cwbind.errors import CryptoError, WireError
from cwbind.wire import (
    ECM_MAGIC,
    EMM_MAGIC,
    WIRE_VERSION,
    BroadcastFrame,
    Ecm,
    Emm,
    EmmKind,
    build_enroll_body,
    build_entitlement_body,
    build_pk_set_body,
    decode_ecm,
    decode_emm,
    decode_frame,
    ecm_aad,
    ecm_size,
    emm_aad,
    emm_size,
    encode_ecm,
    encode_emm,
    encode_frame,
    parse_enroll_body,
    parse_entitlement_body,
    parse_pk_set_body,
)

VECTORS = json.loads((Path(__file__).parent / "vectors" / "wire.json").read_text())


@pytest.mark.parametrize("kind", list(EmmKind))
def test_emm_round_trip_every_kind(kind):
    addressee = BROADCAST_ADDR if kind.name.startswith(("BROADCAST", "PK_SET", "CRL")) else encode_id(9)
    emm = Emm(ca_system_id=3, kind=kind, addressee=addressee, payload=b"\x42" * 21)
    assert decode_emm(encode_emm(emm)) == emm


@pytest.mark.parametrize("length", [0, 1, 7, 9])
def test_encode_emm_refuses_an_addressee_that_is_not_8_bytes(length):
    with pytest.raises(ValueError, match="^addressee must be 8 bytes$"):
        encode_emm(Emm(3, EmmKind.PER_RECEIVER_ENROLL, bytes(length), b"\x42"))


def test_ecm_round_trip():
    ecm = Ecm(ca_system_id=1, epoch=500, protected_secret=b"\x10" * 44)
    assert decode_ecm(encode_ecm(ecm)) == ecm


def test_frame_round_trip():
    frame = BroadcastFrame(
        epoch=12,
        scrambled_content=b"\xab" * 64,
        ecms=(Ecm(0, 12, b"\x01" * 44), Ecm(1, 12, b"\x02" * 44)),
        emms=(Emm(0, EmmKind.BROADCAST_SENDER_PK, BROADCAST_ADDR, b"\x03" * 60),),
    )
    assert decode_frame(encode_frame(frame)) == frame


@settings(max_examples=80)
@given(
    ca=st.integers(min_value=0, max_value=0xFFFF),
    epoch=st.integers(min_value=0, max_value=0xFFFFFFFF),
    payload=st.binary(max_size=128),
)
def test_ecm_round_trip_property(ca, epoch, payload):
    decoded = decode_ecm(encode_ecm(Ecm(ca, epoch, payload)))
    assert decoded == Ecm(ca, epoch, payload) and decoded.aad == ecm_aad(ca, epoch)


@settings(max_examples=80)
@given(ca=st.integers(0, 0xFFFF), epoch=st.integers(0, 0xFFFFFFFF), payload=st.binary(max_size=300))
def test_ecm_size_is_the_encoded_length(ca, epoch, payload):
    ecm = Ecm(ca, epoch, payload)
    assert ecm_size(ecm) == len(encode_ecm(ecm))


@settings(max_examples=80)
@given(ca=st.integers(0, 0xFFFF), kind=st.sampled_from(list(EmmKind)),
       addressee=st.binary(min_size=8, max_size=8), payload=st.binary(max_size=300))
def test_emm_size_is_the_encoded_length(ca, kind, addressee, payload):
    emm = Emm(ca, kind, addressee, payload)
    assert emm_size(emm) == len(encode_emm(emm))


def _reference_take_lp(data: bytes, offset: int) -> bytes | str:
    """A length-prefixed read at ``offset`` spelled out with ``struct``: the
    field, or the message of the ``WireError`` the read raises."""
    if offset + 4 > len(data):
        return f"truncated input: wanted 4 bytes at offset {offset}, have {len(data) - offset}"
    (length,) = struct.unpack_from(">I", data, offset)
    start = offset + 4
    if start + length > len(data):
        return f"truncated input: wanted {length} bytes at offset {start}, have {len(data) - start}"
    return data[start : start + length]


@st.composite
def _lp_inputs(draw) -> tuple[bytes, int]:
    """Bytes read before the field, a length prefix near the size of the
    bytes after it (or any u32), those bytes, and often a cut anywhere."""
    head = draw(st.binary(max_size=6))
    length = draw(st.integers(0, 40) | st.integers(0, 0xFFFFFFFF))
    data = head + struct.pack(">I", length) + draw(st.binary(max_size=40))
    if draw(st.booleans()):
        data = data[: draw(st.integers(0, len(data)))]
    return data, min(len(head), len(data))


@settings(max_examples=200)
@given(case=_lp_inputs())
def test_take_lp_matches_a_reference_parse(case):
    data, skip = case
    r = Reader(data)
    r.take(skip)
    expected = _reference_take_lp(data, skip)
    if isinstance(expected, str):
        with pytest.raises(WireError) as exc_info:
            r.take_lp()
        assert str(exc_info.value) == expected
    else:
        assert r.take_lp() == expected
        assert r.offset == skip + 4 + len(expected)


def test_truncation_reports_offset():
    blob = encode_emm(Emm(1, EmmKind.PER_RECEIVER_ENROLL, encode_id(2), b"\x00" * 30))
    for cut in range(len(blob)):
        with pytest.raises(WireError) as exc_info:
            decode_emm(blob[:cut])
        assert "offset" in str(exc_info.value)


def test_trailing_garbage_rejected():
    blob = encode_ecm(Ecm(1, 2, b"\x00" * 10)) + b"\xff"
    with pytest.raises(WireError):
        decode_ecm(blob)


def test_bad_magic_and_version():
    good = encode_ecm(Ecm(1, 2, b"\x00" * 10))
    with pytest.raises(WireError):
        decode_ecm(b"XX" + good[2:])
    with pytest.raises(WireError):
        decode_ecm(good[:2] + b"\x09" + good[3:])


def test_frame_of_another_version_rejected():
    blob = bytearray(encode_frame(BroadcastFrame(0, b"", (), ())))
    blob[2] = WIRE_VERSION + 1  # after the two magic bytes
    with pytest.raises(WireError, match=f"^unsupported frame version {WIRE_VERSION + 1} at offset 2$"):
        decode_frame(bytes(blob))


def test_unknown_emm_kind_rejected():
    blob = bytearray(encode_emm(Emm(1, EmmKind.CRL_UPDATE, BROADCAST_ADDR, b"")))
    blob[5] = 200  # kind byte
    with pytest.raises(WireError):
        decode_emm(bytes(blob))


# ---------------------------------------------------------------------------
# protection
# ---------------------------------------------------------------------------


def test_protect_unprotect_with_header_binding(suite):
    key = bytes(16)
    aad = emm_aad(1, EmmKind.PER_RECEIVER_ENROLL, encode_id(7))
    blob = suite.sym_encrypt(key, b"payload", aad)
    assert suite.sym_decrypt(key, blob, aad) == b"payload"
    with pytest.raises(CryptoError):
        suite.sym_decrypt(key, blob, emm_aad(1, EmmKind.PER_RECEIVER_ENROLL, encode_id(8)))
    with pytest.raises(CryptoError):
        suite.sym_decrypt(bytes(range(16)), blob, aad)


def test_seal_open_broadcast(suite):
    key = bytes(16)
    aad = emm_aad(0, EmmKind.BROADCAST_CERT, BROADCAST_ADDR)
    sealed = suite.seal(key, b"cert bytes", aad)
    assert sealed.startswith(b"cert bytes")
    assert suite.open_sealed(key, sealed, aad) == b"cert bytes"
    tampered = bytearray(sealed)
    tampered[0] ^= 1
    with pytest.raises(CryptoError):
        suite.open_sealed(key, bytes(tampered), aad)


# ---------------------------------------------------------------------------
# payload bodies
# ---------------------------------------------------------------------------


def test_enroll_body_round_trip():
    parts = (b"blob", b"\x01" * 16, b"\x02" * 16, b"announce")
    assert parse_enroll_body(build_enroll_body(*parts)) == parts


def test_entitlement_body_round_trip():
    assert parse_entitlement_body(build_entitlement_body(True, b"\x05" * 16)) == (True, b"\x05" * 16)
    assert parse_entitlement_body(build_entitlement_body(False)) == (False, b"")


def _reference_parse_entitlement_body(body: bytes) -> tuple[bool, bytes]:
    """The entitlement body read field by field with ``Reader``."""
    r = Reader(body)
    flag = r.take_u8()
    if flag == 0:
        r.done()
        return False, b""
    if flag != 1:
        raise WireError(f"bad entitlement flag {flag} at offset 0")
    key = r.take_lp()
    r.done()
    return True, key


@st.composite
def _entitlement_bodies(draw) -> bytes:
    """Arbitrary bytes, or a flag, a length prefix near the size of the
    bytes after it (or any u32) and those bytes, often cut anywhere."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=40))
    flag = draw(st.sampled_from([0, 1, 2, 255]))
    length = draw(st.integers(0, 24) | st.integers(0, 0xFFFFFFFF))
    body = bytes([flag]) + struct.pack(">I", length) + draw(st.binary(max_size=24))
    if draw(st.booleans()):
        body = body[: draw(st.integers(0, len(body)))]
    return body


@settings(max_examples=300)
@given(_entitlement_bodies())
@example(b"")
@example(b"\x00\x00")
@example(b"\x01\x00\x00\x00\x02ab")
@example(b"\x01\x00\x00\x00\x02abc")
@example(b"\x01\x00\x00\x00\x02a")
@example(b"\x01\x00\x00")
@example(b"\x07")
def test_entitlement_body_parse_matches_a_reader_reference(body):
    try:
        expected = _reference_parse_entitlement_body(body)
    except WireError as exc:
        with pytest.raises(WireError) as exc_info:
            parse_entitlement_body(body)
        assert str(exc_info.value) == str(exc)
    else:
        assert parse_entitlement_body(body) == expected


def _reference_emm_aad(ca_system_id: int, kind: EmmKind, addressee: bytes) -> bytes:
    """The fixed EMM header as the concatenation of its fields."""
    return EMM_MAGIC + u8(WIRE_VERSION) + u16(ca_system_id) + u8(int(kind)) + addressee


@settings(max_examples=200)
@given(ca=st.integers(0, 0xFFFF) | st.integers(-(2**70), 2**70),
       kind=st.sampled_from(list(EmmKind)), addressee=st.binary(min_size=8, max_size=8))
@example(ca=0xFFFF, kind=EmmKind.CRL_UPDATE, addressee=BROADCAST_ADDR)
@example(ca=0x10000, kind=EmmKind.BROADCAST_SENDER_PK, addressee=BROADCAST_ADDR)
@example(ca=-1, kind=EmmKind.PER_RECEIVER_ENROLL, addressee=b"\x00" * 8)
def test_emm_aad_is_the_concatenation_of_its_fields(ca, kind, addressee):
    try:
        expected = _reference_emm_aad(ca, kind, addressee)
    except struct.error as exc:
        with pytest.raises(struct.error) as exc_info:
            emm_aad(ca, kind, addressee)
        assert str(exc_info.value) == str(exc)
    else:
        assert emm_aad(ca, kind, addressee) == expected


def _reference_ecm_aad(ca_system_id: int, epoch: int) -> bytes:
    """The fixed ECM header as the concatenation of its fields."""
    return ECM_MAGIC + u8(WIRE_VERSION) + u16(ca_system_id) + u32(epoch)


@settings(max_examples=200)
@given(ca=st.integers(0, 0xFFFF) | st.integers(-(2**70), 2**70),
       epoch=st.integers(0, 2**32 - 1) | st.integers(-(2**70), 2**70))
@example(ca=0xFFFF, epoch=2**32 - 1)
@example(ca=0x10000, epoch=0)
@example(ca=0, epoch=2**32)
@example(ca=-1, epoch=-1)
def test_ecm_aad_is_the_concatenation_of_its_fields(ca, epoch):
    try:
        expected = _reference_ecm_aad(ca, epoch)
    except struct.error as exc:
        with pytest.raises(struct.error) as exc_info:
            ecm_aad(ca, epoch)
        assert str(exc_info.value) == str(exc)
    else:
        assert ecm_aad(ca, epoch) == expected


# ---------------------------------------------------------------------------
# Emm stays an immutable value
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", ["ca_system_id", "kind", "addressee", "payload"])
def test_emm_fields_cannot_be_assigned(field):
    emm = Emm(0, EmmKind.PER_RECEIVER_ENTITLEMENT, encode_id(1), b"\x01")
    with pytest.raises(AttributeError):
        setattr(emm, field, b"\x02")
    assert emm == Emm(0, EmmKind.PER_RECEIVER_ENTITLEMENT, encode_id(1), b"\x01")


@settings(max_examples=100, deadline=None)
@given(ca=st.integers(0, 0xFFFF), kind=st.sampled_from(list(EmmKind)),
       addressee=st.binary(min_size=8, max_size=8), payload=st.binary(max_size=200))
def test_emm_is_a_value_that_round_trips(ca, kind, addressee, payload):
    emm = Emm(ca, kind, addressee, payload)
    twin = Emm(ca, kind, bytes(addressee), bytes(payload))
    assert emm == twin and hash(emm) == hash(twin) and len({emm, twin}) == 1
    assert emm != Emm(ca, kind, addressee, payload + b"\x00")
    decoded = decode_emm(encode_emm(emm))
    assert decoded == emm and type(decoded.kind) is EmmKind
    assert encode_emm(emm) == emm_aad(ca, kind, addressee) + lp(payload)
    ecm = Ecm(ca, int(kind), payload)
    assert emm != ecm and ecm != emm and not emm == ecm


def test_pk_set_body_round_trip():
    pks = (b"\x01" * 32, b"\x02" * 32, b"\x03" * 32)
    assert parse_pk_set_body(build_pk_set_body(pks)) == pks


# ---------------------------------------------------------------------------
# size properties and golden vectors
# ---------------------------------------------------------------------------


def test_ecm_size_parity_across_carried_secret_kind(suite):
    # an ECM protecting the epoch's random value and one protecting the
    # control word are byte-equal in length when both are n bits
    key = bytes(16)
    rand, cw = b"\x0a" * 16, b"\x0b" * 16
    ecm_rand = encode_ecm(Ecm(0, 9, suite.sym_encrypt(key, rand, ecm_aad(0, 9))))
    ecm_cw = encode_ecm(Ecm(1, 9, suite.sym_encrypt(key, cw, ecm_aad(1, 9))))
    assert len(ecm_rand) == len(ecm_cw)


def test_ecm_secret_field_is_exactly_16_bytes(suite):
    key = bytes(16)
    ecm = Ecm(0, 4, suite.sym_encrypt(key, b"\x0c" * 16, ecm_aad(0, 4)))
    assert len(suite.sym_decrypt(key, ecm.protected_secret, ecm_aad(0, 4))) == 16


def test_ecm_golden_vector_matches_reference_composition():
    # oracle: compose the checked-in ECM byte-for-byte from raw primitives
    import hashlib

    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    def lp4(b: bytes) -> bytes:
        return len(b).to_bytes(4, "big") + b

    key = bytes(range(32, 48))
    secret = bytes(range(48, 64))
    aad = b"EC" + b"\x01" + (1).to_bytes(2, "big") + (5).to_bytes(4, "big")
    nonce = hashlib.sha512(b"cwbind/sym-nonce" + lp4(key) + lp4(aad) + lp4(secret)).digest()[:12]
    protected = nonce + AESGCM(key).encrypt(nonce, secret, aad)
    assert (aad + lp4(protected)).hex() == VECTORS["ecm_epoch5"]


def test_emm_golden_vector_matches_reference_composition():
    import hashlib

    from cryptography.hazmat.primitives.ciphers.aead import AESGCM

    def lp4(b: bytes) -> bytes:
        return len(b).to_bytes(4, "big") + b

    key = bytes(range(16))  # broadcast group key
    body = b"\x11" * 32  # the announced sender public key
    header = b"EM" + b"\x01" + (1).to_bytes(2, "big") + b"\x01" + b"\xff" * 8
    nonce = hashlib.sha512(b"cwbind/sym-nonce" + lp4(key) + lp4(header) + lp4(body)).digest()[:12]
    tag = AESGCM(key).encrypt(nonce, b"", header + body)
    sealed = body + nonce + tag
    assert (header + lp4(sealed)).hex() == VECTORS["emm_broadcast_sender_pk"]


def test_wire_vector_bytes_decode():
    emm = decode_emm(bytes.fromhex(VECTORS["emm_broadcast_sender_pk"]))
    assert emm.kind == EmmKind.BROADCAST_SENDER_PK and emm.is_broadcast()
    ecm = decode_ecm(bytes.fromhex(VECTORS["ecm_epoch5"]))
    assert ecm.epoch == 5


def test_reader_done_rejects_leftovers():
    r = Reader(b"\x00\x01\x02")
    r.take(2)
    with pytest.raises(WireError):
        r.done()
