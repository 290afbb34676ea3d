"""Head-end orchestration: epoch ticks, enrollment, authorization, rotation."""

import hashlib
from dataclasses import replace

import pytest

from cwbind import decoder as decmod, headend as hemod
from cwbind.encoding import encode_id
from cwbind.errors import ProtocolError
from cwbind.kinds import CA_KINDS
from cwbind.suite import Drbg
from cwbind.ttp import export_directory, parse_directory, register_receiver, revoke, ttp_init
from cwbind.wire import encode_ecm, encode_emm


def build_world(suite, kinds, decoder_plan, seed=1234):
    """kinds: list of CA kind names; decoder_plan: list of (id, ca_index)."""
    kinds = [CA_KINDS[name] for name in kinds]
    master = Drbg.from_int(seed)
    ttp = ttp_init(suite, master.child("ttp"))
    decoders = {}
    for decoder_id, ca_index in decoder_plan:
        channel_key = master.child(f"prov-{decoder_id}").read(suite.secret_bytes)
        d = decmod.make_decoder(
            suite, kinds[ca_index], ca_index, encode_id(decoder_id),
            master.child(f"chip-{decoder_id}"), channel_key,
            authority_generation=ttp.generation,
            authority_pk=ttp.keypair.public_key,
        )
        decoders[decoder_id] = (d, channel_key)
        if d.chip_public_key() is not None:
            register_receiver(ttp, d.decoder_id, d.chip_public_key())
    directory = parse_directory(suite, export_directory(ttp))
    headend = hemod.headend_init(suite, kinds, master.child("headend"), ttp, directory)
    for d, channel_key in decoders.values():
        hemod.provision_receiver(headend, d.ca_index, d.decoder_id, channel_key)
    return master, ttp, directory, headend, decoders


def enroll_and_authorize(headend, decoders, ids):
    for decoder_id in ids:
        d, _ = decoders[decoder_id]
        hemod.enroll_receiver(headend, d.ca_index, d.decoder_id)
        hemod.authorize(headend, d.ca_index, d.decoder_id, True)


def test_epoch_secret_matches_independent_derivation(suite):
    # oracle: replay the head-end rng stream by hand, then hash rand || pk
    master, ttp, directory, headend, decoders = build_world(suite, ["bind"], [(1, 0)])
    enroll_and_authorize(headend, decoders, [1])
    frame = hemod.epoch_tick(headend, b"payload")

    shadow = Drbg.from_int(1234).child("headend")
    shadow.read(32)  # sender signature keygen
    shadow.read(16 + 16)  # group and entitlement keys
    # enrollment: long-term key (16) then hybrid ephemeral key (32)
    shadow.read(16 + 32)
    rand = shadow.read(16)
    pk = headend.ca_systems[0].sender.sig_keypair.public_key
    expected = hashlib.sha512(rand + pk).digest()[:16]
    assert headend.scrambler_key == expected
    assert frame.epoch == 0 and headend.epoch == 1


def test_pure_legacy_headend_draws_control_word_directly(suite):
    master, ttp, directory, headend, decoders = build_world(suite, ["legacy"], [(1, 0)])
    enroll_and_authorize(headend, decoders, [1])
    shadow = Drbg.from_int(1234).child("headend")
    shadow.read(16 + 16)  # group + entitlement keys; no sender keygen
    hemod.epoch_tick(headend, b"x")
    assert headend.scrambler_key == shadow.read(16)


def test_mixed_families_recover_identical_content(suite):
    kinds = ["bind", "cert", "legacy"]
    plan = [(1, 0), (2, 1), (3, 2)]
    master, ttp, directory, headend, decoders = build_world(suite, kinds, plan)
    enroll_and_authorize(headend, decoders, [1, 2, 3])
    content = b"\xdd" * 48
    frame = hemod.epoch_tick(headend, content)
    for decoder_id in (1, 2, 3):
        d, _ = decoders[decoder_id]
        result = decmod.process_frame(d, frame, None)
        assert result.descrambled == content, (decoder_id, result.errors)


def test_zero_authorized_receivers_still_emits_frame(suite):
    master, ttp, directory, headend, decoders = build_world(suite, ["bind"], [(1, 0)])
    hemod.enroll_receiver(headend, 0, encode_id(1))
    frame = hemod.epoch_tick(headend, b"c")
    assert len(frame.ecms) == 1
    d, _ = decoders[1]
    result = decmod.process_frame(d, frame, None)
    assert result.descrambled is None
    assert not any(msg.kind in decmod.WORD_KINDS for msg in result.chip_msgs)


def test_enroll_requires_provisioning_and_unrevoked_cert(suite):
    master, ttp, directory, headend, decoders = build_world(suite, ["cert"], [(1, 0)])
    with pytest.raises(ProtocolError, match="^receiver 99 not provisioned$"):
        hemod.enroll_receiver(headend, 0, encode_id(99))
    hemod.provision_receiver(headend, 0, encode_id(99), b"\x00" * 16)
    with pytest.raises(ProtocolError):
        hemod.enroll_receiver(headend, 0, encode_id(99))  # not registered
    serial = directory.receiver_cert(encode_id(1)).serial
    revoke(ttp, serial)
    headend.directory = parse_directory(suite, export_directory(ttp))
    with pytest.raises(ProtocolError):
        hemod.enroll_receiver(headend, 0, encode_id(1))


def test_authorizing_an_unenrolled_receiver_is_refused(suite):
    # provisioned, never enrolled: no entitlement may be queued for it
    master, ttp, directory, headend, decoders = build_world(suite, ["bind"], [(1, 0)])
    with pytest.raises(ProtocolError,
                       match="^cannot change authorization of an unenrolled receiver$"):
        hemod.authorize(headend, 0, encode_id(1), True)
    assert not headend.ca_systems[0].authorized


def test_epoch_tick_without_a_ca_system_is_refused(suite):
    master, ttp, directory, headend, decoders = build_world(suite, [], [])
    with pytest.raises(ProtocolError, match="^head-end has no CA system configured$"):
        hemod.epoch_tick(headend, b"c")
    assert headend.epoch == 0


def test_enrollment_never_leaks_long_term_key_bytes(suite):
    master, ttp, directory, headend, decoders = build_world(suite, ["bind", "cert"],
                                                            [(1, 0), (2, 1)])
    enroll_and_authorize(headend, decoders, [1, 2])
    frame = hemod.epoch_tick(headend, b"content")
    broadcast = b"".join(encode_emm(e) for e in frame.emms)
    broadcast += b"".join(encode_ecm(e) for e in frame.ecms)
    broadcast += frame.scrambled_content
    for ca in headend.ca_systems:
        for ltk in ca.sender.ltk_store.values():
            assert ltk not in broadcast


def test_deauthorize_rotates_entitlement_key(suite):
    master, ttp, directory, headend, decoders = build_world(suite, ["bind"],
                                                            [(1, 0), (2, 0)])
    enroll_and_authorize(headend, decoders, [1, 2])
    key_before = headend.ca_systems[0].ecm_key
    hemod.authorize(headend, 0, encode_id(2), False)
    assert headend.ca_systems[0].ecm_key != key_before
    content = b"\x99" * 32
    frame = hemod.epoch_tick(headend, content)
    assert decmod.process_frame(decoders[1][0], frame, None).descrambled == content
    r2 = decmod.process_frame(decoders[2][0], frame, None)
    assert r2.descrambled is None
    assert not any(msg.kind in decmod.WORD_KINDS for msg in r2.chip_msgs)


def test_reauthorization_restores_derivation(suite):
    master, ttp, directory, headend, decoders = build_world(suite, ["bind"], [(1, 0)])
    enroll_and_authorize(headend, decoders, [1])
    decmod.process_frame(decoders[1][0], hemod.epoch_tick(headend, b"setup"), None)
    hemod.authorize(headend, 0, encode_id(1), False)
    decmod.process_frame(decoders[1][0], hemod.epoch_tick(headend, b"a"), None)
    hemod.authorize(headend, 0, encode_id(1), True)
    content = b"\x12" * 32
    frame = hemod.epoch_tick(headend, content)
    assert decmod.process_frame(decoders[1][0], frame, None).descrambled == content


def test_authorization_change_does_not_touch_other_chip_bytes(suite):
    # frame diff: authorizing decoder 2 adds per-receiver EMMs for decoder 2
    # and (on de-authorization) changes the ECM payload, nothing else
    def run(with_second):
        master, ttp, directory, headend, decoders = build_world(
            suite, ["bind"], [(1, 0), (2, 0)], seed=777)
        enroll_and_authorize(headend, decoders, [1])
        hemod.enroll_receiver(headend, 0, encode_id(2))
        if with_second:
            hemod.authorize(headend, 0, encode_id(2), True)
        frame = hemod.epoch_tick(headend, b"content!")
        result = decmod.process_frame(decoders[1][0], frame, None)
        return frame, [m.encode() for m in result.chip_msgs]

    frame_a, chip_a = run(False)
    frame_b, chip_b = run(True)
    assert chip_a == chip_b  # decoder 1's chip channel is untouched
    emms_a = {(e.kind, e.addressee) for e in frame_a.emms}
    emms_b = {(e.kind, e.addressee) for e in frame_b.emms}
    assert emms_a <= emms_b
    assert all(addr == encode_id(2) for _, addr in emms_b - emms_a)


def test_sender_rotation_keeps_honest_decoders_working(suite):
    master, ttp, directory, headend, decoders = build_world(suite, ["bind"],
                                                            [(1, 0), (2, 0)])
    enroll_and_authorize(headend, decoders, [1, 2])
    setup_frame = hemod.epoch_tick(headend, b"before")
    for decoder_id in (1, 2):
        decmod.process_frame(decoders[decoder_id][0], setup_frame, None)
    hemod.rotate_sender_key(headend, 0, master.child("rot"))
    content = b"\x31" * 32
    frame = hemod.epoch_tick(headend, content)
    for decoder_id in (1, 2):
        assert decmod.process_frame(decoders[decoder_id][0], frame, None).descrambled == content


def test_sender_rotation_cuts_off_withheld_decoder(suite):
    master, ttp, directory, headend, decoders = build_world(suite, ["bind"],
                                                            [(1, 0), (2, 0)])
    enroll_and_authorize(headend, decoders, [1, 2])
    setup_frame = hemod.epoch_tick(headend, b"before")
    for decoder_id in (1, 2):
        decmod.process_frame(decoders[decoder_id][0], setup_frame, None)
    hemod.rotate_sender_key(headend, 0, master.child("rot"))
    content = b"\x32" * 32
    frame = hemod.epoch_tick(headend, content)
    # drop decoder 2's re-keying EMMs from the frame: its stale material stops working
    kept = tuple(emm for emm in frame.emms if emm.addressee != encode_id(2))
    assert len(kept) < len(frame.emms)
    frame = replace(frame, emms=kept)
    assert decmod.process_frame(decoders[1][0], frame, None).descrambled == content
    r2 = decmod.process_frame(decoders[2][0], frame, None)
    assert r2.descrambled != content and r2.errors


def test_cert_rotation_calls_authority_bind_rotation_does_not(suite):
    kinds = ["bind", "cert"]
    master, ttp, directory, headend, decoders = build_world(suite, kinds,
                                                            [(1, 0), (2, 1)])
    enroll_and_authorize(headend, decoders, [1, 2])
    before = sum(ttp.op_counts.values())
    hemod.rotate_sender_key(headend, 0, master.child("rot-bind"))
    assert sum(ttp.op_counts.values()) == before  # binding rotation is authority-free
    hemod.rotate_sender_key(headend, 1, master.child("rot-cert"))
    assert sum(ttp.op_counts.values()) > before


def test_legacy_system_has_no_sender_key(suite):
    master, ttp, directory, headend, decoders = build_world(suite, ["legacy"], [(1, 0)])
    with pytest.raises(ProtocolError):
        hemod.rotate_sender_key(headend, 0, master.child("r"))


def test_control_word_freshness_over_many_epochs(suite):
    master, ttp, directory, headend, decoders = build_world(suite, ["bind"], [(1, 0)])
    seen = set()
    for _ in range(10_000):
        hemod.epoch_tick(headend, b"")
        seen.add(headend.scrambler_key)
    assert len(seen) == 10_000


def test_one_way_channel_no_receiver_input_surface():
    # structural: no head-end operation accepts anything decoder-originated
    import inspect

    for fn in (hemod.epoch_tick, hemod.enroll_receiver, hemod.authorize,
               hemod.rotate_sender_key):
        params = set(inspect.signature(fn).parameters)
        assert not params & {"response", "uplink", "ack", "decoder", "chip"}
