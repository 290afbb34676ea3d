"""The one-pass DERIVE/LOAD_CW codec, the nonce material and the chip
channel message value, each checked against a reference built from
``Reader``, ``lp`` and ``u32``."""

import hashlib

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwbind.decoder import (
    ChipChannelMsg,
    ChipMsgKind,
    _split_word_msg,
    derive_msg,
    load_cw_msg,
)
from cwbind.encoding import Reader, lp, u32
from cwbind.errors import WireError
from cwbind.suite import CipherSuite, _nonce

SUITE = CipherSuite()


def _reference_split(payload: bytes, named: bool):
    """The ``Reader`` parse the one-pass codec replaced."""
    r = Reader(payload)
    epoch = r.take_u32()
    sender_pk = r.take_lp() if named else None
    word = r.take_lp()
    r.done()
    return epoch, sender_pk, word


def _outcome(split, payload: bytes, named: bool):
    """The parse result, or the ``WireError`` message; any other exception escapes."""
    try:
        return split(payload, named)
    except WireError as exc:
        return ("WireError", str(exc))


def _real_payload(epoch: int, sender_pk: bytes | None, secret: bytes, derive: bool) -> bytes:
    if derive:
        return derive_msg(SUITE, b"\x11" * 16, epoch, secret, sender_pk).payload
    return load_cw_msg(epoch, secret).payload


@st.composite
def _mutated_payloads(draw):
    """A real DERIVE or LOAD_CW payload, then one or two edits that keep it
    close enough to parse: a byte set, a cut, an insertion, or a length
    field overwritten with any 32-bit value."""
    derive = draw(st.booleans())
    sender_pk = draw(st.none() | st.binary(max_size=40)) if derive else None
    data = bytearray(_real_payload(draw(st.integers(0, 2**32 - 1)), sender_pk,
                                   draw(st.binary(max_size=40)), derive))
    for _ in range(draw(st.integers(1, 2))):
        edit = draw(st.sampled_from(["set", "cut", "insert", "length"]))
        at = draw(st.integers(0, len(data)))
        if edit == "set" and data:
            data[at % len(data)] = draw(st.integers(0, 255))
        elif edit == "cut":
            del data[at:at + draw(st.integers(1, 8))]
        elif edit == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif edit == "length":
            # the first length field, or the second one of a named payload
            offset = draw(st.sampled_from([4, 8 + (len(sender_pk) if sender_pk else 0)]))
            data[offset:offset + 4] = u32(draw(st.integers(0, 2**32 - 1)))
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(payload=st.binary(max_size=120) | _mutated_payloads(), named=st.booleans())
@example(payload=b"", named=False)
@example(payload=u32(1) + u32(0), named=True)  # a header cut before the second field
@example(payload=u32(1) + u32(5) + b"abcde", named=False)
@example(payload=u32(1) + u32(5) + b"abcde" + b"\x00", named=False)  # one trailing byte
@example(payload=u32(1) + u32(2**32 - 1) + b"ab", named=False)  # overlong length
def test_one_pass_split_agrees_with_reader(payload, named):
    assert _outcome(_split_word_msg, payload, named) == _outcome(_reference_split, payload, named)


@settings(max_examples=100, deadline=None)
@given(
    epoch=st.integers(0, 2**32 - 1),
    sender_pk=st.none() | st.binary(max_size=40),
    secret=st.binary(max_size=40),
    ltk=st.binary(min_size=16, max_size=16),
)
def test_derive_and_load_cw_payloads_are_the_lp_layout(epoch, sender_pk, secret, ltk):
    msg = derive_msg(SUITE, ltk, epoch, secret, sender_pk)
    wrapped = SUITE.sym_encrypt(ltk, secret, aad=u32(epoch))
    named = b"" if sender_pk is None else lp(sender_pk)
    assert msg.kind == ChipMsgKind.DERIVE
    assert msg.payload == u32(epoch) + named + lp(wrapped)
    assert _split_word_msg(msg.payload, sender_pk is not None) == (epoch, sender_pk, wrapped)
    cw = load_cw_msg(epoch, secret)
    assert cw == ChipChannelMsg(ChipMsgKind.LOAD_CW, u32(epoch) + lp(secret))


@settings(max_examples=200, deadline=None)
@given(key=st.binary(max_size=48), aad=st.binary(max_size=80), plaintext=st.binary(max_size=80))
def test_nonce_material_is_unchanged(key, aad, plaintext):
    material = b"cwbind/sym-nonce" + lp(key) + lp(aad) + lp(plaintext)
    expected = hashlib.sha512(material).digest()[:12]
    assert _nonce(key, aad, plaintext) == expected


# ---------------------------------------------------------------------------
# ChipChannelMsg stays a frozen value
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("field", ["kind", "payload"])
def test_chip_msg_fields_cannot_be_assigned(field):
    msg = ChipChannelMsg(ChipMsgKind.DERIVE, b"\x01")
    with pytest.raises(AttributeError):
        setattr(msg, field, b"\x02")
    assert msg == ChipChannelMsg(ChipMsgKind.DERIVE, b"\x01")


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(list(ChipMsgKind)), payload=st.binary(max_size=200))
def test_chip_msg_is_a_value_that_round_trips(kind, payload):
    msg = ChipChannelMsg(kind, payload)
    twin = ChipChannelMsg(kind, bytes(payload))
    assert msg == twin and hash(msg) == hash(twin) and len({msg, twin}) == 1
    assert msg != ChipChannelMsg(kind, payload + b"\x00")
    decoded = ChipChannelMsg.decode(msg.encode())
    assert decoded == msg and type(decoded.kind) is ChipMsgKind
    assert msg.encode() == bytes([int(kind)]) + lp(payload)

