"""Decoder: CA client message handling, chip compliance gate, isolation."""

import copy
import functools
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cwbind import decoder as decmod, headend as hemod
from cwbind.decoder import (
    CaClientState,
    ChipChannelMsg,
    ChipMsgKind,
    ChipState,
    Decoder,
    chip_process,
    client_process_ecm,
    client_process_emm,
    descramble,
    make_decoder,
    process_frame,
    swap_client,
)
from cwbind.encoding import BROADCAST_ADDR, encode_id, lp, u32
from cwbind.errors import CryptoError, CwbindError, ProtocolError, WireError
from cwbind.kinds import BIND, CA_KINDS, CERT, LEGACY
from cwbind.phase1 import Bundle
from cwbind.suite import Drbg
from cwbind.ttp import register_receiver, ttp_init
from cwbind.wire import (
    BROADCAST_KINDS,
    BroadcastFrame,
    Emm,
    EmmKind,
    build_enroll_body,
    build_entitlement_body,
    build_pk_set_body,
)

NO_ANCHOR = (0, b"")  # a trust anchor for chips that ignore it (bind, legacy)


@pytest.fixture
def pipeline(suite):
    """One bind + one cert + one legacy decoder behind a mixed head-end."""
    master = Drbg.from_int(0xD0)
    ttp = ttp_init(suite, master.child("ttp"))
    kinds = [BIND, CERT, LEGACY]
    decoders = {}
    for decoder_id, ca_index in [(1, 0), (2, 1), (3, 2), (4, 0)]:
        channel_key = master.child(f"prov-{decoder_id}").read(16)
        d = make_decoder(suite, kinds[ca_index], ca_index, encode_id(decoder_id),
                         master.child(f"chip-{decoder_id}"), channel_key,
                         authority_generation=ttp.generation,
                         authority_pk=ttp.keypair.public_key)
        decoders[decoder_id] = d
        if d.chip_public_key() is not None:
            register_receiver(ttp, d.decoder_id, d.chip_public_key())
    headend = hemod.headend_init(suite, kinds, master.child("headend"), ttp)
    for decoder_id, d in decoders.items():
        hemod.provision_receiver(headend, d.ca_index, d.decoder_id,
                                 master.child(f"prov-{decoder_id}").read(16))
        hemod.enroll_receiver(headend, d.ca_index, d.decoder_id)
        hemod.authorize(headend, d.ca_index, d.decoder_id, True)
    return headend, decoders, master, headend.directory


def test_enroll_emm_yields_exactly_one_load_msg(pipeline):
    headend, decoders, master, directory = pipeline
    frame = hemod.epoch_tick(headend, b"c")
    d = decoders[1]
    msgs = []
    for emm in frame.emms:
        msgs.extend(client_process_emm(d.client, emm))
    loads = [m for m in msgs if m.kind == ChipMsgKind.LOAD_LTK]
    assert len(loads) == 1


def test_other_receivers_emm_ignored(pipeline):
    headend, decoders, master, directory = pipeline
    frame = hemod.epoch_tick(headend, b"c")
    enroll_for_1 = next(e for e in frame.emms
                        if e.kind == EmmKind.PER_RECEIVER_ENROLL and e.addressee == encode_id(1))
    assert client_process_emm(decoders[4].client, enroll_for_1) == []


def test_tampered_emm_raises_without_chip_message(pipeline):
    headend, decoders, master, directory = pipeline
    frame = hemod.epoch_tick(headend, b"c")
    enroll = next(e for e in frame.emms
                  if e.kind == EmmKind.PER_RECEIVER_ENROLL and e.addressee == encode_id(1))
    payload = bytearray(enroll.payload)
    payload[5] ^= 1
    tampered = Emm(enroll.ca_system_id, enroll.kind, enroll.addressee, bytes(payload))
    with pytest.raises(CryptoError):
        client_process_emm(decoders[1].client, tampered)


def test_entitled_client_derive_message_carries_broadcast_secret(pipeline, suite):
    # white-box: decrypting the derive message under the chip's long-term key
    # yields exactly the secret that rode the ECM
    headend, decoders, master, directory = pipeline
    frame = hemod.epoch_tick(headend, b"c")
    d = decoders[1]
    result = process_frame(d, frame, None)
    derive = next(m for m in result.chip_msgs if m.kind == ChipMsgKind.DERIVE)
    from cwbind.encoding import Reader

    r = Reader(derive.payload)
    epoch = r.take_u32()
    sender_pk = r.take_lp()
    wrapped = r.take_lp()
    ltk = d.chip.receiver.ltk_by_sender[sender_pk]
    rand = suite.sym_decrypt(ltk, wrapped, aad=u32(epoch))
    from cwbind.binding import BindingInput, derive_secret

    assert derive_secret(BindingInput((sender_pk,), rand), 128) == headend.scrambler_key


def test_non_protocol_error_propagates_unscored(pipeline):
    # only a CwbindError is a rejection; any other exception is a bug and
    # must fail the run instead of landing in FrameResult.errors
    headend, decoders, master, directory = pipeline
    frame = hemod.epoch_tick(headend, b"c")
    with mock.patch.object(decmod, "chip_process", side_effect=TypeError("bug")):
        with pytest.raises(TypeError):
            process_frame(decoders[1], frame, None)


def test_unentitled_client_emits_nothing(pipeline):
    headend, decoders, master, directory = pipeline
    hemod.authorize(headend, 0, encode_id(4), False)
    frame = hemod.epoch_tick(headend, b"c")
    d = decoders[4]
    result = process_frame(d, frame, None)
    assert not any(msg.kind in decmod.WORD_KINDS for msg in result.chip_msgs)
    assert result.descrambled is None


def test_derive_messages_differ_across_decoders(pipeline):
    headend, decoders, master, directory = pipeline
    frame = hemod.epoch_tick(headend, b"c")
    r1 = process_frame(decoders[1], frame, None)
    r4 = process_frame(decoders[4], frame, None)
    d1 = next(m for m in r1.chip_msgs if m.kind == ChipMsgKind.DERIVE)
    d4 = next(m for m in r4.chip_msgs if m.kind == ChipMsgKind.DERIVE)
    assert d1.payload != d4.payload


def test_derive_before_enrollment_rejected(suite):
    d = make_decoder(suite, BIND, 0, encode_id(9), Drbg.from_int(9), b"\x00" * 16, *NO_ANCHOR)
    msg = ChipChannelMsg(ChipMsgKind.DERIVE, u32(0) + lp(b"\x01" * 32) + lp(b"\x02" * 44))
    with pytest.raises(ProtocolError):
        chip_process(d.chip, msg)


def test_replayed_derive_message_rejected_at_other_chip(pipeline):
    headend, decoders, master, directory = pipeline
    frame = hemod.epoch_tick(headend, b"c")
    r1 = process_frame(decoders[1], frame, None)
    derive = next(m for m in r1.chip_msgs if m.kind == ChipMsgKind.DERIVE)
    with pytest.raises((CryptoError, ProtocolError)):
        chip_process(decoders[4].chip, derive)  # wrong long-term key


def test_raw_control_word_rejected_by_compliant_chips(pipeline):
    headend, decoders, master, directory = pipeline
    frame = hemod.epoch_tick(headend, b"content")
    for decoder_id in (1, 2):
        process_frame(decoders[decoder_id], frame, None)
    known_cw = headend.scrambler_key  # adversary knows the value
    inject = ChipChannelMsg(ChipMsgKind.LOAD_CW, u32(frame.epoch) + lp(known_cw))
    for decoder_id in (1, 2):
        with pytest.raises(ProtocolError):
            chip_process(decoders[decoder_id].chip, inject)


def test_legacy_chip_refuses_a_derive_message(pipeline):
    headend, decoders, master, directory = pipeline
    frame = hemod.epoch_tick(headend, b"c")
    derive = next(m for m in process_frame(decoders[1], frame, None).chip_msgs
                  if m.kind == ChipMsgKind.DERIVE)
    with pytest.raises(ProtocolError, match="^legacy chip only accepts raw control words$"):
        chip_process(decoders[3].chip, derive)


def test_entitled_client_without_a_long_term_key_sends_no_derive(pipeline):
    # the entitlement arrived but the enrollment did not: the client knows
    # the ECM key and no sender key, so it has nothing to wrap the secret in
    headend, decoders, master, directory = pipeline
    frame = hemod.epoch_tick(headend, b"c")
    client = decoders[1].client
    for emm in frame.emms:
        if emm.kind == EmmKind.PER_RECEIVER_ENTITLEMENT and emm.addressee == encode_id(1):
            client_process_emm(client, emm)
    assert client.ecm_key is not None and client.announce is None
    with pytest.raises(ProtocolError,
                       match="^client holds no long-term key for the current sender key$"):
        client_process_ecm(client, frame.ecms[0])


def test_legacy_chip_accepts_raw_control_word(pipeline):
    # the contrast: a legacy chip takes the injected word and descrambles
    headend, decoders, master, directory = pipeline
    content = b"\x61" * 32
    frame = hemod.epoch_tick(headend, content)
    inject = ChipChannelMsg(ChipMsgKind.LOAD_CW, u32(frame.epoch) + lp(headend.scrambler_key))
    handle = chip_process(decoders[3].chip, inject)
    assert descramble(decoders[3].chip, handle, frame.scrambled_content) == content


def test_stale_handle_refused(pipeline):
    headend, decoders, master, directory = pipeline
    frame1 = hemod.epoch_tick(headend, b"first")
    d = decoders[4]
    process_frame(d, frame1, None)  # enrollment and entitlement arrive here
    # re-drive the next frame manually to hold onto the handle
    frame2 = hemod.epoch_tick(headend, b"second")
    msgs = []
    for emm in frame2.emms:
        msgs.extend(client_process_emm(d.client, emm))
    for ecm in frame2.ecms:
        m = client_process_ecm(d.client, ecm)
        if m is not None:
            msgs.append(m)
    handles = [chip_process(d.chip, m) for m in msgs]
    handle = next(h for h in handles if h is not None)
    frame3 = hemod.epoch_tick(headend, b"third")
    m3 = client_process_ecm(d.client, frame3.ecms[0])
    chip_process(d.chip, m3)  # advances the chip's epoch watermark
    with pytest.raises(ProtocolError):
        descramble(d.chip, handle, frame3.scrambled_content)


def test_wrong_key_handle_yields_garbage_not_content(suite):
    from cwbind.decoder import ControlWordHandle
    from cwbind.scramble import scramble

    content = b"\x44" * 32
    scrambled = scramble(b"\x01" * 16, 5, content)
    chip = ChipState(LEGACY, suite, current_epoch=5)
    wrong = ControlWordHandle(5, b"\x02" * 16)
    assert descramble(chip, wrong, scrambled) != content


def test_secret_isolation_in_reprs(pipeline):
    # serialization scan: no chip secret appears in any repr in the pipeline
    headend, decoders, master, directory = pipeline
    frame = hemod.epoch_tick(headend, b"c")
    secrets = [headend.scrambler_key]
    for d in decoders.values():
        result = process_frame(d, frame, None)
        if d.chip.receiver is not None:
            recv = d.chip.receiver
            secrets.append(recv.enc_keypair.private_key)
            if hasattr(recv, "ltk_by_sender"):
                secrets.extend(recv.ltk_by_sender.values())
            if getattr(recv, "ltk", None):
                secrets.append(recv.ltk)
        text = repr(d.chip) + repr(d.client) + repr(d) + repr(result.chip_msgs is None)
        for secret in secrets:
            if secret:
                assert secret.hex() not in text
                assert str(secret) not in text


def test_handle_repr_hides_key(pipeline):
    headend, decoders, master, directory = pipeline
    content = b"\x10" * 16
    frame = hemod.epoch_tick(headend, content)
    d = decoders[3]
    result = process_frame(d, frame, None)
    assert result.descrambled == content
    from cwbind.decoder import ControlWordHandle

    handle = ControlWordHandle(0, headend.scrambler_key)
    assert headend.scrambler_key.hex() not in repr(handle)


def test_chip_state_unchanged_on_failed_messages(pipeline):
    import copy

    headend, decoders, master, directory = pipeline
    frame = hemod.epoch_tick(headend, b"c")
    process_frame(decoders[1], frame, None)
    chip = decoders[1].chip
    before = copy.deepcopy(chip)
    for msg in (
        ChipChannelMsg(ChipMsgKind.LOAD_CW, u32(9) + lp(b"\x00" * 16)),
        ChipChannelMsg(ChipMsgKind.DERIVE, u32(9) + lp(b"\x01" * 32) + lp(b"\x02" * 44)),
        ChipChannelMsg(ChipMsgKind.LOAD_LTK, b"\x00" * 8),
        ChipChannelMsg(ChipMsgKind.CRL_UPDATE, b"\x00" * 4),
    ):
        with pytest.raises((ProtocolError, CryptoError, WireError)):
            chip_process(chip, msg)
    assert chip == before


def _enrolled_bind_decoder_and_next_derive(pipeline, content):
    """Bind decoder 1 after its enrollment frame, plus the honest DERIVE of
    the following frame, not yet delivered to the chip."""
    headend, decoders, master, directory = pipeline
    d = decoders[1]
    process_frame(d, hemod.epoch_tick(headend, b"enroll"), None)
    frame = hemod.epoch_tick(headend, content)
    (ecm,) = frame.ecms_for(d.ca_index)
    return d, client_process_ecm(d.client, ecm), frame


@pytest.mark.parametrize("malformed", ["duplicate", "unequal-lengths", "empty-key", "no-keys"])
def test_malformed_sender_key_set_refused_before_any_state_change(pipeline, malformed):
    content = b"after the malformed set"
    d, derive, frame = _enrolled_bind_decoder_and_next_derive(pipeline, content)
    (pk,) = d.chip.receiver.active_pk_set
    bad, message = {
        "duplicate": ((pk, pk), "sender key set repeats a key"),
        "unequal-lengths": ((pk, b"\x01" * (len(pk) + 1)), "holds a key that is not 32 bytes"),
        "empty-key": ((pk, b""), "holds a key that is not 32 bytes"),
        "no-keys": ((), "empty sender key set"),
    }[malformed]
    with pytest.raises(ProtocolError, match=message):
        chip_process(d.chip, ChipChannelMsg(ChipMsgKind.PK_SET_UPDATE, build_pk_set_body(bad)))
    assert d.chip.receiver.active_pk_set == (pk,)
    handle = chip_process(d.chip, derive)
    assert handle is not None
    assert descramble(d.chip, handle, frame.scrambled_content) == content


_BIND_CHIP: list = []


@given(st.lists(st.binary(min_size=32, max_size=32), min_size=1, max_size=6, unique=True),
       st.randoms(use_true_random=False))
def test_installed_sender_key_set_is_stored_sorted(pks, order):
    # the derivation takes the stored set as it is, so every order the
    # update arrives in must leave it sorted
    if not _BIND_CHIP:
        from cwbind.suite import CipherSuite

        _BIND_CHIP.append(make_decoder(CipherSuite(), BIND, 0, encode_id(1),
                                       Drbg.from_int(0x50), b"\x00" * 16, *NO_ANCHOR).chip)
    (chip,) = _BIND_CHIP
    order.shuffle(pks)
    chip_process(chip, ChipChannelMsg(ChipMsgKind.PK_SET_UPDATE, build_pk_set_body(tuple(pks))))
    assert chip.receiver.active_pk_set == tuple(sorted(pks))


def test_every_writer_of_the_active_key_set_sorts_it():
    # ``phase2_receive`` relies on the stored set being sorted; the only
    # code that sets it is the chip's PK_SET_UPDATE handler, which sorts
    import ast
    from pathlib import Path

    import cwbind

    writers = []
    for path in sorted(Path(cwbind.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Attribute) and t.attr == "active_pk_set"
                       for t in targets):
                    writers.append((path.name, ast.unparse(node.value)))
            elif isinstance(node, ast.Call):
                named = [kw.arg for kw in node.keywords]
                args = [a.value for a in node.args if isinstance(a, ast.Constant)]
                assert "active_pk_set" not in named + args, (path.name, ast.unparse(node))
    assert writers == [("decoder.py", "tuple(sorted(pks))")]


# ---------------------------------------------------------------------------
# the chip's repeat rule (``ChipState``): a repeated key-set update is taken
# without parsing it again; ``test_bindproto`` and ``test_certproto`` run
# the same cases on repeated key loads
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind, msg_kind", [
    (BIND, ChipMsgKind.LOAD_LTK), (BIND, ChipMsgKind.PK_SET_UPDATE), (CERT, ChipMsgKind.LOAD_LTK),
], ids=["bind-load", "bind-key-set", "cert-load"])
def test_an_empty_payload_on_a_fresh_chip_is_refused(suite, kind, msg_kind):
    # a fresh chip remembers nothing, so no payload, the empty one
    # included, counts as a repeat
    chip = make_decoder(suite, kind, 0, encode_id(1), Drbg.from_int(0x51), b"\x00" * 16,
                        *NO_ANCHOR).chip
    for _ in range(2):
        with pytest.raises(WireError):
            chip_process(chip, ChipChannelMsg(msg_kind, b""))
    assert chip.last_load is None and chip.last_pk_set is None


@pytest.fixture
def pk_set_parses(monkeypatch) -> list[bytes]:
    """The payloads ``parse_pk_set_body`` is handed in ``decoder``, in order."""
    calls: list[bytes] = []
    real = decmod.parse_pk_set_body

    def counting(body):
        calls.append(body)
        return real(body)

    monkeypatch.setattr(decmod, "parse_pk_set_body", counting)
    return calls


def _pk_set_msg(*pks: bytes) -> ChipChannelMsg:
    return ChipChannelMsg(ChipMsgKind.PK_SET_UPDATE, build_pk_set_body(pks))


def test_a_byte_identical_key_set_repeat_is_not_parsed(pipeline, pk_set_parses):
    d, derive, frame = _enrolled_bind_decoder_and_next_derive(pipeline, b"after the repeat")
    recv = d.chip.receiver
    (pk,) = recv.active_pk_set
    assert d.chip.last_pk_set == build_pk_set_body((pk,))
    before, remembered = copy.deepcopy(d.chip), d.chip.last_pk_set
    pk_set_parses.clear()
    repeat = _pk_set_msg(pk)
    assert repeat.payload is not remembered  # equal bytes in a new object
    assert chip_process(d.chip, repeat) is None
    assert pk_set_parses == []
    assert d.chip == before and d.chip.last_pk_set == remembered
    assert descramble(d.chip, chip_process(d.chip, derive), frame.scrambled_content) == (
        b"after the repeat")


def test_a_key_set_update_that_differs_is_checked_on_every_try(pipeline, pk_set_parses):
    d, _, _ = _enrolled_bind_decoder_and_next_derive(pipeline, b"c")
    recv = d.chip.receiver
    (pk,) = recv.active_pk_set
    honest = d.chip.last_pk_set
    one_bit = bytearray(honest)
    one_bit[-1] ^= 1  # in the key, so the set still parses
    pk_set_parses.clear()
    chip_process(d.chip, ChipChannelMsg(ChipMsgKind.PK_SET_UPDATE, bytes(one_bit)))
    assert pk_set_parses == [bytes(one_bit)]
    assert recv.active_pk_set == (bytes(one_bit[-32:]),)
    assert d.chip.last_pk_set == bytes(one_bit)
    malformed = _pk_set_msg(pk, pk)
    for _ in range(2):
        pk_set_parses.clear()
        with pytest.raises(ProtocolError, match="sender key set repeats a key"):
            chip_process(d.chip, malformed)
        assert pk_set_parses == [malformed.payload]


@pytest.mark.parametrize("refused", [
    build_pk_set_body((b"\x01" * 32, b"\x01" * 32)),  # fails a check after parsing
    build_pk_set_body((b"\x01" * 32,))[:-1],  # fails to parse
], ids=["repeats-a-key", "truncated"])
def test_a_refused_key_set_update_keeps_the_set_and_the_record(pipeline, refused):
    d, derive, frame = _enrolled_bind_decoder_and_next_derive(pipeline, b"kept")
    recv = d.chip.receiver
    pk_set, remembered = recv.active_pk_set, d.chip.last_pk_set
    with pytest.raises((ProtocolError, WireError)):
        chip_process(d.chip, ChipChannelMsg(ChipMsgKind.PK_SET_UPDATE, refused))
    assert recv.active_pk_set == pk_set and d.chip.last_pk_set == remembered
    assert descramble(d.chip, chip_process(d.chip, derive), frame.scrambled_content) == b"kept"


def test_key_set_updates_a_b_a_parse_three_times(pipeline, pk_set_parses):
    d, _, _ = _enrolled_bind_decoder_and_next_derive(pipeline, b"c")
    recv = d.chip.receiver
    (pk,) = recv.active_pk_set
    a, b = _pk_set_msg(pk, b"\x01" * 32), _pk_set_msg(b"\x02" * 32)
    pk_set_parses.clear()
    for msg in (a, b, a):
        chip_process(d.chip, msg)
    assert pk_set_parses == [a.payload, b.payload, a.payload]
    assert recv.active_pk_set == tuple(sorted((pk, b"\x01" * 32)))
    assert d.chip.last_pk_set == a.payload


def test_a_sender_rotation_replaces_a_probes_key_set_record(pipeline, pk_set_parses):
    # a probe's rogue set holds the chip until the head-end's rotation sends
    # a new honest set; the probe's next copy is then checked again
    headend, decoders, master, directory = pipeline
    d, _, _ = _enrolled_bind_decoder_and_next_derive(pipeline, b"c")
    recv = d.chip.receiver
    rogue = _pk_set_msg(b"\x0a" * 32)
    chip_process(d.chip, rogue)
    assert d.chip.last_pk_set == rogue.payload
    hemod.rotate_sender_key(headend, 0, master.child("rotate"))
    frame = hemod.epoch_tick(headend, b"rotated")
    assert process_frame(d, frame, None).descrambled == b"rotated"
    honest = headend.ca_systems[0].sender.sig_keypair.public_key
    assert recv.active_pk_set == (honest,)
    assert d.chip.last_pk_set == build_pk_set_body((honest,))
    pk_set_parses.clear()
    chip_process(d.chip, rogue)
    assert pk_set_parses == [rogue.payload] and recv.active_pk_set == (b"\x0a" * 32,)


@pytest.mark.parametrize("rand_len", [0, 15, 17])
def test_wrapped_random_value_of_wrong_length_is_a_protocol_rejection(pipeline, suite, rand_len):
    d, derive, frame = _enrolled_bind_decoder_and_next_derive(pipeline, b"c")
    (pk,) = d.chip.receiver.active_pk_set
    ltk = d.chip.receiver.ltk_by_sender[pk]
    wrapped = suite.sym_encrypt(ltk, b"\x07" * rand_len, aad=u32(frame.epoch))
    msg = ChipChannelMsg(ChipMsgKind.DERIVE, u32(frame.epoch) + lp(pk) + lp(wrapped))
    with pytest.raises(ProtocolError):
        chip_process(d.chip, msg)
    assert chip_process(d.chip, derive) is not None


def test_client_swap_keeps_chip_and_restores_service(pipeline, suite):
    headend, decoders, master, directory = pipeline
    frame = hemod.epoch_tick(headend, b"pre-swap")
    assert process_frame(decoders[1], frame, None).descrambled == b"pre-swap"
    d = decoders[1]
    chip_before = d.chip

    new_key = master.child("new-provision").read(16)
    swap_client(d, new_key)
    assert d.chip is chip_before  # chip untouched
    assert d.client.group_key is None  # client state is fresh

    hemod.provision_receiver(headend, 0, encode_id(1), new_key)
    hemod.enroll_receiver(headend, 0, encode_id(1))
    hemod.authorize(headend, 0, encode_id(1), True)
    content = b"post-swap content"
    frame = hemod.epoch_tick(headend, content)
    assert process_frame(d, frame, None).descrambled == content
    assert d.chip is chip_before


def test_chip_msg_codec_round_trip():
    msg = ChipChannelMsg(ChipMsgKind.DERIVE, b"\x00\x01\x02")
    assert ChipChannelMsg.decode(msg.encode()) == msg


def test_chip_msg_decode_unknown_kind_is_wire_error():
    for kind_code in [0, *range(6, 256)]:
        with pytest.raises(WireError, match="at offset 0"):
            ChipChannelMsg.decode(bytes([kind_code]) + lp(b"\x00"))


# ---------------------------------------------------------------------------
# per-frame EMM routing
# ---------------------------------------------------------------------------

_IDS = (encode_id(1), encode_id(2))


class _PastChecks(Exception):
    """Raised in place of building the EMM header, which the client does
    only once an EMM has passed its system and addressee checks."""


def _full_scan_acts_on(client, emms):
    acted = []
    with mock.patch.object(decmod, "emm_aad", side_effect=_PastChecks):
        for emm in emms:
            try:
                client_process_emm(client, emm)
            except _PastChecks:
                acted.append(emm)
    return acted


def _emms_handed_to_client(decoder, frame):
    handed = []
    with mock.patch.object(decmod, "client_process_emm",
                           side_effect=lambda client, emm: handed.append(emm) or []):
        process_frame(decoder, frame, None)
    return handed


@given(
    ca_index=st.sampled_from([0, 1]),
    receiver_id=st.sampled_from(_IDS),
    emms=st.lists(st.builds(
        Emm,
        ca_system_id=st.sampled_from([0, 1]),
        kind=st.sampled_from(list(EmmKind)),
        addressee=st.sampled_from(_IDS + (BROADCAST_ADDR,)),
        payload=st.binary(max_size=4),
    ), max_size=24),
)
@example(ca_index=0, receiver_id=_IDS[0], emms=[
    Emm(0, EmmKind.PER_RECEIVER_ENROLL, _IDS[0], b"e"),
    Emm(0, EmmKind.BROADCAST_CERT, _IDS[1], b"c"),  # broadcast kind, specific addressee
    Emm(0, EmmKind.PER_RECEIVER_ENTITLEMENT, BROADCAST_ADDR, b"x"),  # per-receiver, broadcast
    Emm(1, EmmKind.PK_SET_UPDATE, BROADCAST_ADDR, b"p"),
    Emm(0, EmmKind.PER_RECEIVER_ENTITLEMENT, _IDS[0], b"t"),
    Emm(0, EmmKind.PK_SET_UPDATE, BROADCAST_ADDR, b"p"),
])
def test_process_frame_hands_client_exactly_what_a_full_scan_acts_on(ca_index, receiver_id, emms):
    client = CaClientState(suite=None, ca_system_id=ca_index, receiver_id=receiver_id,
                           kind=BIND, channel_key=b"")
    decoder = Decoder(receiver_id, ca_index, client, ChipState(LEGACY, None))
    frame = BroadcastFrame(0, b"", (), tuple(emms))
    assert _emms_handed_to_client(decoder, frame) == _full_scan_acts_on(client, frame.emms)


def test_deauthorization_frame_work_per_decoder_is_its_own_emms(suite):
    # 64 decoders over two systems; one de-authorization per system makes the
    # next frame carry an entitlement EMM for every remaining decoder
    master = Drbg.from_int(0x64)
    ttp = ttp_init(suite, master.child("ttp"))
    kinds = [BIND, LEGACY]
    decoders = {}
    for n in range(1, 65):
        ca_index = n % 2
        d = make_decoder(suite, kinds[ca_index], ca_index, encode_id(n),
                         master.child(f"chip-{n}"), master.child(f"prov-{n}").read(16), *NO_ANCHOR)
        decoders[d.decoder_id] = d
        if d.chip_public_key() is not None:
            register_receiver(ttp, d.decoder_id, d.chip_public_key())
    headend = hemod.headend_init(suite, kinds, master.child("headend"), ttp)
    for decoder_id, d in decoders.items():
        hemod.provision_receiver(headend, d.ca_index, decoder_id, d.client.channel_key)
        hemod.enroll_receiver(headend, d.ca_index, decoder_id)
        hemod.authorize(headend, d.ca_index, decoder_id, True)
    setup = hemod.epoch_tick(headend, b"setup")
    for d in decoders.values():
        assert process_frame(d, setup, None).descrambled == b"setup"

    dropped = {encode_id(1), encode_id(2)}
    for decoder_id in dropped:
        hemod.authorize(headend, decoders[decoder_id].ca_index, decoder_id, False)
    content = b"after de-authorization"
    frame = hemod.epoch_tick(headend, content)
    assert len(frame.emms) == 64

    calls = []
    real = decmod.client_process_emm
    with mock.patch.object(decmod, "client_process_emm",
                           side_effect=lambda client, emm: calls.append(emm) or real(client, emm)):
        for decoder_id, d in decoders.items():
            calls.clear()
            result = process_frame(d, frame, None)
            shared = sum(e.ca_system_id == d.ca_index and e.kind in BROADCAST_KINDS
                         for e in frame.emms)
            own = sum(e.ca_system_id == d.ca_index and e.addressee == decoder_id
                      and e.kind not in BROADCAST_KINDS for e in frame.emms)
            assert (shared, own) == (0, 1)
            assert len(calls) <= shared + own
            assert result.errors == []
            assert (result.descrambled == content) == (decoder_id not in dropped)


# ---------------------------------------------------------------------------
# words and keys of the wrong length
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("decoder_id, carried", [
    (1, "ecm-key"), (2, "ecm-key"), (3, "ecm-key"),
    (1, "group-key"), (2, "group-key"), (3, "group-key"),
    (1, "ltk-copy"), (2, "ltk-copy"),
])
def test_authentic_emm_key_of_wrong_length_is_refused_before_any_state_change(pipeline, decoder_id,
                                                                              carried):
    # a 5-byte key in an EMM sealed under the receiver's own channel key
    # must be a rejection that leaves the client as it was, not a key that
    # later fails inside AES (the ECM, or the broadcast EMM after it)
    headend, decoders, _, _ = pipeline
    d = decoders[decoder_id]
    ca = headend.ca_systems[d.ca_index]
    content = b"\x33" * 32
    assert process_frame(d, hemod.epoch_tick(headend, content), None).descrambled == content
    short = b"\x05" * 5
    if carried == "ecm-key":
        kind, body = EmmKind.PER_RECEIVER_ENTITLEMENT, build_entitlement_body(True, short)
        error = "emm:ECM key is not 16 bytes"
    else:
        ltk = ca.sender.ltk_store[d.decoder_id] if ca.sender else b""
        group, ltk = (short, ltk) if carried == "group-key" else (ca.group_key, short)
        announce = d.client.announce if ca.sender else b""
        kind, body = EmmKind.PER_RECEIVER_ENROLL, build_enroll_body(b"", ltk, group, announce)
        error = "emm:enrollment carries a key that is not 16 bytes"
    hemod._queue(ca, kind, body, d.decoder_id)
    ignored = EmmKind.BROADCAST_CERT if d.client.kind.binds else EmmKind.PK_SET_UPDATE
    hemod._queue(ca, ignored, b"\x00")  # opened under the group key, then ignored
    before = copy.deepcopy(d.client)
    frame = hemod.epoch_tick(headend, content)
    with pytest.raises(ProtocolError, match="is not 16 bytes"):
        client_process_emm(copy.deepcopy(d.client), frame.emms_for(d.ca_index, d.decoder_id)[0])
    result = process_frame(d, frame, None)
    assert result.errors == [error]
    assert result.descrambled == content
    assert d.client == before


def test_raw_control_word_of_wrong_length_gets_no_handle(suite):
    # the descrambler keys AES with the word, so a 5-byte word must be a
    # protocol rejection, not a handle that fails inside the descrambler
    chip = ChipState(LEGACY, suite)
    with pytest.raises(ProtocolError):
        handle = chip_process(chip, ChipChannelMsg(ChipMsgKind.LOAD_CW, u32(0) + lp(b"\x05" * 5)))
        descramble(chip, handle, b"content")
    assert chip.current_epoch == -1


@pytest.mark.parametrize("kind", ["bind", "cert"])
def test_long_term_key_of_wrong_length_is_refused_on_delivery(suite, kind):
    # an adversary with only its own key pair (and, for a certificate chip,
    # the stolen authority key) delivers a 5-byte long-term key, then a
    # DERIVE under it: both must be rejections that leave the chip as it was
    from cwbind.ttp import certify_sender

    master = Drbg.from_int(0x5B)
    ttp = ttp_init(suite, master.child("ttp"))
    d = make_decoder(suite, CA_KINDS[kind], 0, encode_id(1), master.child("chip"), b"\x00" * 16,
                     authority_generation=ttp.generation, authority_pk=ttp.keypair.public_key)
    rogue = suite.keygen("sig", master.child("rogue"))
    key_ct = suite.pke_encrypt(d.chip_public_key(), b"\x05" * 5, master.child("wrap"))
    blob = suite.sign(rogue, encode_id(1) + lp(key_ct)).to_bytes()
    if kind == "bind":
        bundle = Bundle(rogue.public_key, blob)
        named = lp(rogue.public_key)
    else:
        bundle = Bundle(certify_sender(ttp, encode_id(0xAD), rogue.public_key).to_bytes(), blob)
        named = b""
    load = ChipChannelMsg(ChipMsgKind.LOAD_LTK, bundle.to_bytes())
    derive = ChipChannelMsg(ChipMsgKind.DERIVE, u32(0) + named + lp(b"\x00" * 44))

    before = copy.deepcopy(d.chip)
    result = process_frame(d, BroadcastFrame(0, b"content", (), ()),
                           chip_filter=lambda msgs: msgs + [load, derive])
    assert result.descrambled is None
    assert len(result.errors) == 2 and "long-term key is not 16 bytes" in result.errors[0]
    assert d.chip == before


class _Rogue:
    """One chip of each kind, and an adversary holding its own sender key
    pair and a certificate for it (the stolen-authority-key case)."""

    def __init__(self):
        from cwbind.suite import CipherSuite
        from cwbind.ttp import certify_sender

        suite = CipherSuite()
        master = Drbg.from_int(0xF022)
        self.suite = suite
        self.ttp = ttp_init(suite, master.child("ttp"))
        self.pair = suite.keygen("sig", master.child("rogue"))
        self.cert = certify_sender(self.ttp, encode_id(0xAD), self.pair.public_key)
        self.decoders = {
            name: make_decoder(suite, kind, 0, encode_id(1), master.child(f"chip-{name}"),
                               b"\x00" * 16, authority_generation=self.ttp.generation,
                               authority_pk=self.ttp.keypair.public_key)
            for name, kind in CA_KINDS.items()
        }

    def encode(self, kind, spec) -> bytes:
        """The chip message a spec describes, built with the adversary's keys."""
        suite, what = self.suite, spec[0]
        if what == "load-ltk":
            chip_pk = self.decoders["cert" if kind == "cert" else "bind"].chip_public_key()
            key_ct = suite.pke_encrypt(chip_pk, spec[1], Drbg.from_int(7))
            blob = suite.sign(self.pair, encode_id(1) + lp(key_ct)).to_bytes()
            announce = self.cert.to_bytes() if kind == "cert" else self.pair.public_key
            bundle = Bundle(announce, blob)
            return ChipChannelMsg(ChipMsgKind.LOAD_LTK, bundle.to_bytes()).encode()
        if what == "derive":
            _, epoch, ltk, secret = spec
            named = lp(self.pair.public_key) if kind == "bind" else b""
            # an LTK of the suite's length wraps the secret; any other
            # length, which no adversary can wrap under, sends it as is
            wrapped = (suite.sym_encrypt(ltk, secret, aad=u32(epoch))
                       if len(ltk) == suite.secret_bytes else secret)
            return ChipChannelMsg(ChipMsgKind.DERIVE, u32(epoch) + named + lp(wrapped)).encode()
        if what == "load-cw":
            return ChipChannelMsg(ChipMsgKind.LOAD_CW, u32(spec[1]) + lp(spec[2])).encode()
        if what == "pk-set":
            pks = tuple(self.pair.public_key if pk is None else pk for pk in spec[1])
            return ChipChannelMsg(ChipMsgKind.PK_SET_UPDATE, build_pk_set_body(pks)).encode()
        crl = suite.sign(self.ttp.keypair, u32(len(spec[1]) // 8) + spec[1])
        return ChipChannelMsg(ChipMsgKind.CRL_UPDATE, crl.to_bytes()).encode()


@functools.lru_cache(maxsize=1)
def _rogue() -> _Rogue:
    return _Rogue()


def test_certificate_chip_refuses_an_announcement_that_is_no_certificate():
    # a certificate chip parses the bundle's announcement as a certificate
    # in its phase 1: a bind bundle's bare sender key is refused as wire
    # input, and the long-term key the chip holds stays
    rogue = _rogue()
    chip = copy.deepcopy(rogue.decoders["cert"].chip)
    load = ChipChannelMsg.decode(rogue.encode("cert", ("load-ltk", b"\x01" * 16)))
    assert chip_process(chip, load) is None and chip.receiver.ltk == b"\x01" * 16
    blob = Bundle.from_bytes(load.payload).signed_blob
    bare = ChipChannelMsg(ChipMsgKind.LOAD_LTK, Bundle(rogue.pair.public_key, blob).to_bytes())
    with pytest.raises(WireError):
        chip_process(chip, bare)
    assert chip.receiver.ltk == b"\x01" * 16


_sized = st.sampled_from([0, 5, 15, 16, 17, 32]).flatmap(
    lambda n: st.binary(min_size=n, max_size=n))
_epoch = st.integers(0, 2)
_spec = st.one_of(
    st.tuples(st.just("load-ltk"), _sized),
    st.tuples(st.just("derive"), _epoch, _sized, _sized),
    st.tuples(st.just("load-cw"), _epoch, _sized),
    st.tuples(st.just("pk-set"), st.lists(st.none() | _sized, max_size=3)),
    st.tuples(st.just("crl"), _sized),
)


@settings(deadline=None, max_examples=150)
@given(
    kind=st.sampled_from(["bind", "cert", "legacy"]),
    steps=st.lists(st.tuples(_spec, st.none() | st.integers(0, 4000)), min_size=1, max_size=4),
)
@example(kind="bind", steps=[(("load-ltk", b"\x05" * 5), None),
                             (("derive", 0, b"\x05" * 5, b"\x00" * 44), None)])
@example(kind="cert", steps=[(("load-ltk", b"\x01" * 16), None),
                             (("derive", 0, b"\x01" * 16, b"\x05" * 5), None)])
@example(kind="legacy", steps=[(("load-cw", 0, b"\x05" * 5), None)])
def test_chip_then_descramble_raises_only_protocol_errors(kind, steps):
    # every chip message an adversary can build, with fields of any length,
    # optionally with one bit flipped, then a descramble under any handle
    rogue = _rogue()
    chip = copy.deepcopy(rogue.decoders[kind].chip)
    for spec, bit in steps:
        data = bytearray(rogue.encode(kind, spec))
        if bit is not None:
            data[bit // 8 % len(data)] ^= 1 << (bit % 8)
        try:
            handle = chip_process(chip, ChipChannelMsg.decode(bytes(data)))
            if handle is not None:
                descramble(chip, handle, b"content")
        except CwbindError:
            pass
