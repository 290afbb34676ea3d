"""Hash-binding key transport: certificate-free phase 1, bound derivation,
cross-sender substitution resistance."""

import copy
import hashlib

import pytest

from cwbind import bindproto, headend as hemod
from cwbind.binding import bound_secret
from cwbind.decoder import ChipChannelMsg, ChipMsgKind, ChipState, chip_process
from cwbind.encoding import encode_id, lp, u32
from cwbind.errors import CryptoError, ProtocolError
from cwbind.kinds import BIND
from cwbind.phase1 import Bundle
from cwbind.sim import build_world, parse_scenario, run_world
from cwbind.suite import Drbg
from cwbind.ttp import export_directory, parse_directory, register_receiver, ttp_init
from cwbind.wire import parse_pk_set_body


@pytest.fixture
def world(suite):
    rng = Drbg.from_int(0xFEED)
    ttp = ttp_init(suite, rng.child("ttp"))
    receivers = {}
    for i in (1, 2, 3):
        recv = bindproto.receiver_init(suite, encode_id(i), rng.child(f"r{i}"))
        register_receiver(ttp, encode_id(i), recv.enc_keypair.public_key)
        receivers[i] = recv
    directory = parse_directory(suite, export_directory(ttp))
    sender = bindproto.sender_init(suite, rng.child("sender"))
    return ttp, sender, directory, receivers, rng.child("run")


NO_AUTHORITY_KEY = """
scenario no-authority-key
seed 7
epochs 6
ca 0 bind
decoder 1 ca 0
decoder 2 ca 0
at 0 authorize 0 1
at 1 compromise ttp-key
at 2 forge-sender 0 2
at 3 rotate-ttp
at 4 rotate-sender 0
"""

LABEL = u32(0)  # the epoch label a DERIVE for epoch 0 authenticates


def _wrap(sender, receiver_id, rand):
    """Phase 2 as the CA client sends it (``decoder.derive_msg``): ``rand``
    under the receiver's long-term key, with the epoch label authenticated."""
    return sender.suite.sym_encrypt(sender.ltk_store[encode_id(receiver_id)], rand, LABEL)


def test_receiver_state_holds_no_authority_key():
    # structural: nothing in a chip's receiver state names an authority key,
    # nor do the chip's records of what it accepted after a run: an honest
    # set on decoder 1, a forged one on decoder 2, across two authority
    # generations
    config = parse_scenario(NO_AUTHORITY_KEY)
    authority_keys = {build_world(config).headend.ttp.keypair.public_key}
    world = run_world(config)[1]
    authority_keys.add(world.headend.ttp.keypair.public_key)
    assert len(authority_keys) == 2
    for decoder in world.decoders.values():
        chip = decoder.chip
        assert set(vars(chip.receiver)) == {"suite", "receiver_id", "enc_keypair",
                                            "ltk_by_sender", "active_pk_set"}
        assert chip.last_load is not None and chip.last_pk_set is not None
        assert tuple(sorted(parse_pk_set_body(chip.last_pk_set))) == chip.receiver.active_pk_set
        assert all(key not in record for key in authority_keys
                   for record in (chip.last_load, chip.last_pk_set))


def test_module_never_touches_the_authority():
    # the protocol module, and the phase 1 path it shares with the
    # certificate shape, consume only the public directory snapshot
    import cwbind.bindproto
    import cwbind.phase1

    for mod in (cwbind.bindproto, cwbind.phase1):
        source = open(mod.__file__).read()
        assert "TtpState" not in source, mod.__name__
        assert "certify_sender" not in source, mod.__name__


def test_sender_init_makes_no_authority_calls(world, suite):
    ttp, _, _, _, rng = world
    calls_before = dict(ttp.op_counts)
    bindproto.sender_init(suite, rng)
    calls_after = dict(ttp.op_counts)
    assert calls_after == calls_before


def test_honest_phase1_files_key_under_sender_pk(world):
    _, sender, directory, receivers, rng = world
    bundle = bindproto.phase1_send(sender, directory, encode_id(1), rng)
    bindproto.phase1_receive(receivers[1], bundle)
    stored = receivers[1].ltk_by_sender[sender.sig_keypair.public_key]
    assert stored == sender.ltk_store[(1).to_bytes(8, "big")]


def test_phase1_fresh_ltk_per_call(world):
    _, sender, directory, receivers, rng = world
    bindproto.phase1_send(sender, directory, encode_id(1), rng)
    first = sender.ltk_store[(1).to_bytes(8, "big")]
    bindproto.phase1_send(sender, directory, encode_id(1), rng)
    assert sender.ltk_store[(1).to_bytes(8, "big")] != first


def test_wrong_recipient_aborts_unchanged(world):
    _, sender, directory, receivers, rng = world
    bundle = bindproto.phase1_send(sender, directory, encode_id(2), rng)
    before = copy.deepcopy(receivers[1])
    with pytest.raises(ProtocolError):
        bindproto.phase1_receive(receivers[1], bundle)
    assert receivers[1] == before


def test_resigned_bundle_files_under_interloper_key(world, suite):
    # an interloper re-wraps the key delivery under its own key pair: the
    # receiver accepts it but files the key under the interloper's key, so a
    # derivation naming the honest sender's key cannot use it
    _, sender, _, receivers, rng = world
    honest_pk = sender.sig_keypair.public_key
    interloper = suite.keygen("sig", rng)
    recv = receivers[1]

    ltk = rng.read(16)
    key_ct = suite.pke_encrypt(recv.enc_keypair.public_key, ltk, rng)
    blob = suite.sign(interloper,
                      recv.receiver_id + len(key_ct).to_bytes(4, "big") + key_ct)
    bindproto.phase1_receive(recv, Bundle(interloper.public_key, blob.to_bytes()))

    assert interloper.public_key in recv.ltk_by_sender
    assert honest_pk not in recv.ltk_by_sender
    wrapped = suite.sym_encrypt(ltk, rng.read(16), LABEL)
    with pytest.raises(ProtocolError):
        bindproto.phase2_receive(recv, honest_pk, wrapped, LABEL)


def test_bundle_signature_must_match_carried_pk(world, suite):
    _, sender, directory, receivers, rng = world
    bundle = bindproto.phase1_send(sender, directory, encode_id(1), rng)
    other = suite.keygen("sig", rng)
    forged = Bundle(other.public_key, bundle.signed_blob)
    before = copy.deepcopy(receivers[1])
    with pytest.raises(CryptoError):
        bindproto.phase1_receive(receivers[1], forged)
    assert receivers[1] == before


def test_epoch_tick_bind_secret_matches_sha512_oracle(world, suite):
    # the head-end's control word is the SHA-512 prefix of the random value
    # its bind ECM carries and the one binding sender's key
    ttp, _, _, _, rng = world
    headend = hemod.headend_init(suite, [BIND], rng.child("headend"), ttp)
    ca = headend.ca_systems[0]
    pk = ca.sender.sig_keypair.public_key
    ecm = hemod.epoch_tick(headend, b"\x00" * 32).ecms[0]
    rand = suite.sym_decrypt(ca.ecm_key, ecm.protected_secret, ecm.aad)
    assert len(rand) == 16 and len(headend.scrambler_key) == 16
    assert headend.scrambler_key == hashlib.sha512(rand + pk).digest()[:16]


def test_same_rand_different_key_set_different_secret(world, suite):
    _, sender, _, _, rng = world
    from cwbind.binding import BindingInput, derive_secret

    pk1 = sender.sig_keypair.public_key
    for _ in range(25):
        other = suite.keygen("sig", rng).public_key
        rand = rng.read(16)
        s1 = derive_secret(BindingInput((pk1,), rand), 128)
        s2 = derive_secret(BindingInput(tuple(sorted((pk1, other))), rand), 128)
        assert s1 != s2


def test_phase2_round_trip_single_sender(world):
    _, sender, directory, receivers, rng = world
    bindproto.phase1_receive(receivers[1],
                             bindproto.phase1_send(sender, directory, encode_id(1), rng))
    pk = sender.sig_keypair.public_key
    rand = rng.read(16)
    ct = _wrap(sender, 1, rand)
    assert bindproto.phase2_receive(receivers[1], pk, ct, LABEL) == bound_secret((pk,), rand, 128)


def test_phase2_tampered_ciphertext_rejected(world):
    _, sender, directory, receivers, rng = world
    bindproto.phase1_receive(receivers[1],
                             bindproto.phase1_send(sender, directory, encode_id(1), rng))
    pk = sender.sig_keypair.public_key
    ct = bytearray(_wrap(sender, 1, rng.read(16)))
    ct[0] ^= 0x80
    with pytest.raises(CryptoError):
        bindproto.phase2_receive(receivers[1], pk, bytes(ct), LABEL)


def test_phase2_unknown_receiver_and_unknown_sender_key(world):
    # receiver 3 never ran phase 1: it holds no long-term key under the sender key
    _, sender, _, receivers, rng = world
    with pytest.raises(ProtocolError):
        bindproto.phase2_receive(receivers[3], sender.sig_keypair.public_key, b"\x00" * 44, LABEL)


def test_phase2_per_receiver_ciphertexts_distinct(world):
    _, sender, directory, receivers, rng = world
    for i in (1, 2):
        bindproto.phase1_receive(receivers[i],
                                 bindproto.phase1_send(sender, directory, encode_id(i), rng))
    rand = rng.read(16)
    assert _wrap(sender, 1, rand) != _wrap(sender, 2, rand)


def test_active_set_gates_delivering_key(world, suite):
    _, sender, directory, receivers, rng = world
    bindproto.phase1_receive(receivers[1],
                             bindproto.phase1_send(sender, directory, encode_id(1), rng))
    pk = sender.sig_keypair.public_key
    other = suite.keygen("sig", rng).public_key
    receivers[1].active_pk_set = (other,) if other < pk else (other,)
    ct = _wrap(sender, 1, rng.read(16))
    with pytest.raises(ProtocolError):
        bindproto.phase2_receive(receivers[1], pk, ct, LABEL)


def test_multi_sender_set_derivation(world, suite):
    _, sender, directory, receivers, rng = world
    bindproto.phase1_receive(receivers[1],
                             bindproto.phase1_send(sender, directory, encode_id(1), rng))
    pk = sender.sig_keypair.public_key
    co_sender = suite.keygen("sig", rng).public_key
    pk_set = tuple(sorted((pk, co_sender)))
    receivers[1].active_pk_set = pk_set
    rand = rng.read(16)
    ct = _wrap(sender, 1, rand)
    assert bindproto.phase2_receive(receivers[1], pk, ct, LABEL) == bound_secret(pk_set, rand, 128)


def test_rogue_sender_full_message_set_never_yields_honest_secret(world, suite):
    # 100 seeded trials of the cross-sender forgery: the receiver completes
    # the rogue's protocol but the derived secret never equals the honest one
    _, sender, directory, receivers, rng = world
    recv = receivers[2]
    bindproto.phase1_receive(recv, bindproto.phase1_send(sender, directory, encode_id(2), rng))
    honest_pk = sender.sig_keypair.public_key

    for trial in range(100):
        trial_rng = rng.child(f"rogue-{trial}")
        honest_secret = bound_secret((honest_pk,), trial_rng.read(16), 128)
        rogue = bindproto.sender_init(suite, trial_rng)
        rogue_bundle = bindproto.phase1_send(rogue, directory, encode_id(2), trial_rng)
        bindproto.phase1_receive(recv, rogue_bundle)
        rogue_pk = rogue.sig_keypair.public_key
        recv.active_pk_set = (rogue_pk,)
        rogue_rand = trial_rng.read(16)
        derived = bindproto.phase2_receive(recv, rogue_pk, _wrap(rogue, 2, rogue_rand), LABEL)
        assert derived != honest_secret
        recv.active_pk_set = ()


def test_reenrollment_overwrites_stored_key(world):
    _, sender, directory, receivers, rng = world
    bindproto.phase1_receive(receivers[1],
                             bindproto.phase1_send(sender, directory, encode_id(1), rng))
    pk = sender.sig_keypair.public_key
    first = receivers[1].ltk_by_sender[pk]
    bindproto.phase1_receive(receivers[1],
                             bindproto.phase1_send(sender, directory, encode_id(1), rng))
    assert receivers[1].ltk_by_sender[pk] != first


# ---------------------------------------------------------------------------
# a repeated key load: the protocol step opens every bundle it is handed; the
# chip takes a byte-identical copy of the last load it accepted without
# running the step again (``decoder.ChipState``)
# ---------------------------------------------------------------------------

def _load(bundle: Bundle) -> ChipChannelMsg:
    """The bundle as a chip receives it, in new byte objects on each call."""
    return ChipChannelMsg(ChipMsgKind.LOAD_LTK, bundle.to_bytes())


def test_phase1_receive_opens_a_repeated_bundle_again(world, opens):
    _, sender, directory, receivers, rng = world
    bundle = bindproto.phase1_send(sender, directory, encode_id(1), rng)
    for _ in range(2):
        bindproto.phase1_receive(receivers[1], bundle)
    assert opens == {sender.sig_keypair.public_key: 2, "pke_decrypt": 2}


def test_a_byte_identical_repeat_is_taken_without_opening(world, opens):
    _, sender, directory, receivers, rng = world
    chip, pk = ChipState(BIND, sender.suite, receivers[1]), sender.sig_keypair.public_key
    bundle = bindproto.phase1_send(sender, directory, encode_id(1), rng)
    chip_process(chip, _load(bundle))
    assert opens == {pk: 1, "pke_decrypt": 1}
    before, remembered = copy.deepcopy(chip), chip.last_load
    opens.clear()
    chip_process(chip, _load(bundle))
    assert not opens
    assert chip == before and chip.last_load == remembered == bundle.to_bytes()


@pytest.mark.parametrize("change", ["message-bit", "signature-bit", "signer"])
def test_a_load_that_differs_from_the_last_is_checked_on_every_try(world, suite, opens, change):
    _, sender, directory, receivers, rng = world
    chip = ChipState(BIND, suite, receivers[1])
    bundle = bindproto.phase1_send(sender, directory, encode_id(1), rng)
    chip_process(chip, _load(bundle))
    remembered = chip.last_load
    if change == "signer":
        changed = Bundle(suite.keygen("sig", rng).public_key, bundle.signed_blob)
    else:
        blob = bytearray(bundle.signed_blob)
        blob[20 if change == "message-bit" else -1] ^= 1  # in the ephemeral key, or the signature
        changed = Bundle(bundle.announce, bytes(blob))
    for _ in range(2):
        opens.clear()
        with pytest.raises(CryptoError):
            chip_process(chip, _load(changed))
        assert opens == {changed.announce: 1}
    assert chip.last_load == remembered


def test_a_failed_open_leaves_the_remembered_load(world, suite, opens):
    # a load that verifies and decrypts, to a key of the wrong length, fails
    # the last check: on every try, and without replacing the record
    _, sender, directory, receivers, rng = world
    recv, pk = receivers[1], sender.sig_keypair.public_key
    chip = ChipState(BIND, suite, recv)
    bundle = bindproto.phase1_send(sender, directory, encode_id(1), rng)
    chip_process(chip, _load(bundle))
    remembered = chip.last_load
    key_ct = suite.pke_encrypt(recv.enc_keypair.public_key, rng.read(15), rng)
    short = Bundle(pk, suite.sign(sender.sig_keypair, recv.receiver_id + lp(key_ct)).to_bytes())
    for _ in range(2):
        opens.clear()
        with pytest.raises(ProtocolError, match="long-term key is not 16 bytes"):
            chip_process(chip, _load(short))
        assert opens == {pk: 1, "pke_decrypt": 1}
    assert chip.last_load == remembered
    opens.clear()
    chip_process(chip, _load(bundle))
    assert not opens


def test_loads_a_b_a_open_a_twice(world, opens):
    _, sender, directory, receivers, rng = world
    chip, pk = ChipState(BIND, sender.suite, receivers[1]), sender.sig_keypair.public_key
    a = bindproto.phase1_send(sender, directory, encode_id(1), rng)
    ltk_a = sender.ltk_store[encode_id(1)]
    b = bindproto.phase1_send(sender, directory, encode_id(1), rng)
    for bundle in (a, b, a):
        chip_process(chip, _load(bundle))
    assert opens == {pk: 3, "pke_decrypt": 3}
    assert chip.receiver.ltk_by_sender[pk] == ltk_a
