"""Certificate-authenticated key transport: phases, checks, abort semantics."""

import copy

import pytest

from cwbind import certproto, sim, suite as suitemod
from cwbind.decoder import ChipChannelMsg, ChipMsgKind, ChipState, chip_process
from cwbind.encoding import encode_id, lp, u32
from cwbind.errors import CryptoError, CwbindError, ProtocolError
from cwbind.kinds import CERT
from cwbind.phase1 import Bundle
from cwbind.suite import Drbg, SignedMessage
from cwbind.ttp import (
    ROLE_SENDER,
    Certificate,
    export_directory,
    parse_directory,
    register_receiver,
    revoke,
    rotate,
    signed_revocation_list,
    ttp_init,
)


@pytest.fixture
def world(suite):
    """Authority, sender, its directory, three initialized receivers."""
    rng = Drbg.from_int(0xBEEF)
    ttp = ttp_init(suite, rng.child("ttp"))
    receivers = {}
    for i in (1, 2, 3):
        recv = certproto.receiver_init(suite, encode_id(i), ttp.generation, ttp.keypair.public_key,
                                       rng.child(f"r{i}"))
        register_receiver(ttp, encode_id(i), recv.enc_keypair.public_key)
        receivers[i] = recv
    directory = parse_directory(suite, export_directory(ttp))
    sender = certproto.sender_init(suite, encode_id(100), rng.child("sender"), ttp)
    return ttp, sender, directory, receivers, rng.child("run")


LABEL = u32(0)  # the epoch label a DERIVE for epoch 0 authenticates


def _wrap(sender, receiver_id, secret, label=LABEL):
    """Phase 2 as the CA client sends it (``decoder.derive_msg``): ``secret``
    under the receiver's long-term key, with the epoch label authenticated."""
    return sender.suite.sym_encrypt(sender.ltk_store[encode_id(receiver_id)], secret, label)


def test_honest_phase1_establishes_matching_keys(world):
    ttp, sender, directory, receivers, rng = world
    bundle = certproto.phase1_send(sender, directory, encode_id(1), rng)
    certproto.phase1_receive(receivers[1], bundle)
    assert receivers[1].ltk == sender.ltk_store[(1).to_bytes(8, "big")]


def test_bundle_signed_blob_verifies_under_sender_key(world, suite):
    ttp, sender, directory, receivers, rng = world
    bundle = certproto.phase1_send(sender, directory, encode_id(1), rng)
    blob = SignedMessage.from_bytes(bundle.signed_blob)
    suite.verify_recover(sender.sig_keypair.public_key, blob)


def test_phase1_fresh_ltk_each_run(world):
    ttp, sender, directory, receivers, rng = world
    certproto.phase1_send(sender, directory, encode_id(1), rng)
    first = sender.ltk_store[(1).to_bytes(8, "big")]
    certproto.phase1_send(sender, directory, encode_id(1), rng)
    assert sender.ltk_store[(1).to_bytes(8, "big")] != first


def test_phase1_unknown_receiver(world):
    ttp, sender, directory, receivers, rng = world
    with pytest.raises(ProtocolError):
        certproto.phase1_send(sender, directory, encode_id(42), rng)


def test_phase1_revoked_receiver_cert(world, suite):
    ttp, sender, directory, receivers, rng = world
    serial = next(c.serial for c in ttp.issued_certs if c.subject_id == (2).to_bytes(8, "big"))
    revoke(ttp, serial)
    directory = parse_directory(suite, export_directory(ttp))
    with pytest.raises(ProtocolError):
        certproto.phase1_send(sender, directory, encode_id(2), rng)


def test_wrong_recipient_aborts_with_state_unchanged(world):
    ttp, sender, directory, receivers, rng = world
    bundle_for_3 = certproto.phase1_send(sender, directory, encode_id(3), rng)
    before = copy.deepcopy(receivers[1])
    with pytest.raises(ProtocolError):
        certproto.phase1_receive(receivers[1], bundle_for_3)
    assert receivers[1] == before


def test_rogue_authority_cert_aborts(world, suite):
    # a full run against a sender certified by a different "authority"
    ttp, sender, directory, receivers, rng = world
    rogue_ttp = ttp_init(suite, Drbg.from_int(666))
    for i, recv in receivers.items():
        register_receiver(rogue_ttp, encode_id(i), recv.enc_keypair.public_key)
    rogue_directory = parse_directory(suite, export_directory(rogue_ttp))
    rogue_sender = certproto.sender_init(suite, encode_id(100), Drbg.from_int(667), rogue_ttp)
    bundle = certproto.phase1_send(rogue_sender, rogue_directory, encode_id(1), rng)
    # the generation check cannot tell this authority from the installed one
    assert Certificate.from_bytes(bundle.announce).generation == receivers[1].authority_generation
    before = copy.deepcopy(receivers[1])
    with pytest.raises(CryptoError):
        certproto.phase1_receive(receivers[1], bundle)
    assert receivers[1] == before


def test_receiver_side_revocation_check(world):
    ttp, sender, directory, receivers, rng = world
    bundle = certproto.phase1_send(sender, directory, encode_id(1), rng)
    receivers[1].known_revoked = {sender.sender_cert.serial}
    before = copy.deepcopy(receivers[1])
    with pytest.raises(ProtocolError):
        certproto.phase1_receive(receivers[1], bundle)
    assert receivers[1] == before


def test_receiver_role_check(world, suite):
    # a receiver certificate in the sender slot is rejected even though it
    # verifies under the authority key
    ttp, sender, directory, receivers, rng = world
    bundle = certproto.phase1_send(sender, directory, encode_id(1), rng)
    receiver_cert = next(c for c in ttp.issued_certs if c.subject_role == "receiver")
    forged = Bundle(receiver_cert.to_bytes(), bundle.signed_blob)
    with pytest.raises(ProtocolError, match="^certificate subject is not a sender$"):
        certproto.phase1_receive(receivers[1], forged)


def test_phase2_round_trip_and_authorization_shape(world):
    ttp, sender, directory, receivers, rng = world
    for i in (1, 2):  # authorized set
        certproto.phase1_receive(receivers[i],
                                 certproto.phase1_send(sender, directory, encode_id(i), rng))
    secret = rng.read(16)
    derived = {}
    for i in (1, 2):
        derived[i] = certproto.phase2_receive(receivers[i], _wrap(sender, i, secret), LABEL)
    assert derived == {1: secret, 2: secret}
    # receiver 3 never ran phase 1: it holds no key to unwrap under
    with pytest.raises(ProtocolError):
        certproto.phase2_receive(receivers[3], b"\x00" * 44, LABEL)


def test_phase2_ciphertexts_differ_per_receiver(world):
    ttp, sender, directory, receivers, rng = world
    for i in (1, 2):
        certproto.phase1_receive(receivers[i],
                                 certproto.phase1_send(sender, directory, encode_id(i), rng))
    secret = b"\x77" * 16
    assert _wrap(sender, 1, secret) != _wrap(sender, 2, secret)


def test_phase2_tampered_ciphertext_rejected(world):
    ttp, sender, directory, receivers, rng = world
    certproto.phase1_receive(receivers[1],
                             certproto.phase1_send(sender, directory, encode_id(1), rng))
    ct = bytearray(_wrap(sender, 1, b"\x55" * 16))
    ct[-1] ^= 1
    with pytest.raises(CryptoError):
        certproto.phase2_receive(receivers[1], bytes(ct), LABEL)


def test_phase2_cross_receiver_ciphertext_rejected(world):
    ttp, sender, directory, receivers, rng = world
    for i in (1, 2):
        certproto.phase1_receive(receivers[i],
                                 certproto.phase1_send(sender, directory, encode_id(i), rng))
    ct_for_2 = _wrap(sender, 2, b"\x66" * 16)
    with pytest.raises(CryptoError):
        certproto.phase2_receive(receivers[1], ct_for_2, LABEL)


def test_phase2_context_binding(world):
    ttp, sender, directory, receivers, rng = world
    certproto.phase1_receive(receivers[1],
                             certproto.phase1_send(sender, directory, encode_id(1), rng))
    ct = _wrap(sender, 1, b"\x44" * 16, label=u32(9))
    assert certproto.phase2_receive(receivers[1], ct, u32(9)) == b"\x44" * 16
    with pytest.raises(CryptoError):
        certproto.phase2_receive(receivers[1], ct, u32(8))


def test_implicit_key_authentication_set_equality(world):
    # the set of receivers that can produce the secret equals the set the
    # sender ran phase 2 for, across a changing authorized subset
    ttp, sender, directory, receivers, rng = world
    for i in (1, 2, 3):
        certproto.phase1_receive(receivers[i],
                                 certproto.phase1_send(sender, directory, encode_id(i), rng))
    for authorized in [(1,), (1, 2), (2, 3), (1, 2, 3)]:
        secret = rng.read(16)
        cts = {i: _wrap(sender, i, secret) for i in authorized}
        derived = set()
        for i in (1, 2, 3):
            for ct in cts.values():
                try:
                    if certproto.phase2_receive(receivers[i], ct, LABEL) == secret:
                        derived.add(i)
                except CryptoError:
                    pass
        assert derived == set(authorized)


def test_message_tampering_never_yields_secret_at_nonauthorized(world, suite):
    # sampled single-bit tampering over the three message classes; receiver 3
    # is not authorized and must never end up with the sender's secret
    ttp, sender, directory, receivers, rng = world
    bundle = certproto.phase1_send(sender, directory, encode_id(1), rng)
    certproto.phase1_receive(receivers[1], bundle)
    secret = rng.read(16)
    ct = _wrap(sender, 1, secret)

    for blob, rebuild in (
        (bundle.announce, lambda b: Bundle(b, bundle.signed_blob)),
        (bundle.signed_blob, lambda b: Bundle(bundle.announce, b)),
    ):
        for i in range(64):
            bit = (i * len(blob) * 8) // 64
            tampered = bytearray(blob)
            tampered[bit // 8] ^= 1 << (bit % 8)
            try:
                forged = rebuild(bytes(tampered))
                certproto.phase1_receive(receivers[3], forged)
                derived = certproto.phase2_receive(receivers[3], ct, LABEL)
            except CwbindError:
                continue
            assert derived != secret
    for i in range(64):
        bit = (i * len(ct) * 8) // 64
        tampered = bytearray(ct)
        tampered[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises((CryptoError, ProtocolError)):
            certproto.phase2_receive(receivers[1], bytes(tampered), LABEL)



# ---------------------------------------------------------------------------
# the trust anchor: one authority generation and its key
# ---------------------------------------------------------------------------

_REAL_PUBLIC_KEY = suitemod.Ed25519PublicKey


class _CountingVerifier:
    """Stand-in for ``Ed25519PublicKey`` that counts every verification."""

    calls = 0

    def __init__(self, key):
        self._key = key

    @classmethod
    def from_public_bytes(cls, data):
        return cls(_REAL_PUBLIC_KEY.from_public_bytes(data))

    def verify(self, signature, message):
        type(self).calls += 1
        self._key.verify(signature, message)


@pytest.fixture
def verifications(monkeypatch):
    monkeypatch.setattr(suitemod, "Ed25519PublicKey", _CountingVerifier)
    monkeypatch.setattr(_CountingVerifier, "calls", 0)
    return _CountingVerifier


def _minted_bundle(honest, directory, signer, generation, recv, rng):
    """A sender certificate for a fresh key pair, signed by ``signer`` with
    ``generation``, and the bundle ``certproto.phase1_send`` seals under it
    for ``recv`` from ``directory``, with the key it delivers."""
    suite = honest.suite
    pair = suite.keygen("sig", rng.child("minted-sender"))
    cert = Certificate.issue(suite, signer, 0x7F000001, encode_id(0xAD), ROLE_SENDER,
                             pair.public_key, generation)
    minted = certproto.CertSenderState(suite, pair, sender_id=encode_id(0xAD), sender_cert=cert)
    bundle = certproto.phase1_send(minted, directory, recv.receiver_id, rng)
    return bundle, minted.ltk_store[recv.receiver_id]


@pytest.mark.parametrize("source", ["rotated-ttp", "retired-key"])
def test_certificate_of_another_generation_is_rejected_before_verification(
        world, suite, verifications, source):
    ttp, sender, directory, receivers, rng = world
    retired = ttp.keypair
    rotate(ttp, rng.child("rotate"))
    rotated_directory = parse_directory(suite, export_directory(ttp))
    if source == "rotated-ttp":
        # the chip still holds generation 1; the authority now certifies under 2
        recv = receivers[1]
        rotated_sender = certproto.sender_init(suite, encode_id(101), rng.child("sender-2"), ttp)
        bundle = certproto.phase1_send(rotated_sender, rotated_directory, encode_id(1), rng)
    else:
        # a chip replaced with the new anchor; the certificate is minted
        # with the retired key under its own generation
        old = receivers[1]
        recv = certproto.CertReceiverState(suite, old.receiver_id, ttp.generation,
                                           ttp.keypair.public_key, old.enc_keypair)
        bundle, _ = _minted_bundle(sender, directory, retired, 1, recv, rng)
    assert Certificate.from_bytes(bundle.announce).generation != recv.authority_generation
    before = copy.deepcopy(recv)
    verifications.calls = 0
    with pytest.raises(ProtocolError, match="generation"):
        certproto.phase1_receive(recv, bundle)
    assert verifications.calls == 0
    assert recv == before


@pytest.mark.parametrize("generation", ["anchor", "other"])
@pytest.mark.parametrize("signed_by", ["anchor", "other"])
def test_only_the_anchor_key_and_generation_together_are_accepted(
        world, suite, verifications, signed_by, generation):
    ttp, sender, directory, receivers, rng = world
    recv = receivers[1]
    other_key = suite.keygen("sig", rng.child("other-authority"))
    signer = ttp.keypair if signed_by == "anchor" else other_key
    gen = recv.authority_generation + (0 if generation == "anchor" else 1)
    bundle, ltk = _minted_bundle(sender, directory, signer, gen, recv, rng)
    before = copy.deepcopy(recv)
    verifications.calls = 0
    if (signed_by, generation) == ("anchor", "anchor"):
        certproto.phase1_receive(recv, bundle)
        assert recv.ltk == ltk
        assert verifications.calls == 2  # the certificate, then the blob
        return
    expected = CryptoError if generation == "anchor" else ProtocolError
    with pytest.raises(expected):
        certproto.phase1_receive(recv, bundle)
    assert verifications.calls == (1 if generation == "anchor" else 0)
    assert recv == before


# ---------------------------------------------------------------------------
# a repeated key load: the protocol step checks every bundle it is handed;
# the chip takes a byte-identical copy of the last load it accepted without
# running the step again (``decoder.ChipState``)
# ---------------------------------------------------------------------------

def _load(bundle: Bundle) -> ChipChannelMsg:
    """The bundle as a chip receives it, in new byte objects on each call."""
    return ChipChannelMsg(ChipMsgKind.LOAD_LTK, bundle.to_bytes())


def test_phase1_receive_checks_and_opens_a_repeated_bundle_again(world, opens):
    ttp, sender, directory, receivers, rng = world
    bundle = certproto.phase1_send(sender, directory, encode_id(1), rng)
    for _ in range(2):
        certproto.phase1_receive(receivers[1], bundle)
    assert opens == {ttp.keypair.public_key: 2, sender.sig_keypair.public_key: 2,
                     "pke_decrypt": 2}


def test_a_byte_identical_repeat_is_taken_without_checking_or_opening(world, opens):
    ttp, sender, directory, receivers, rng = world
    chip, pk = ChipState(CERT, sender.suite, receivers[1]), sender.sig_keypair.public_key
    bundle = certproto.phase1_send(sender, directory, encode_id(1), rng)
    chip_process(chip, _load(bundle))
    assert opens == {ttp.keypair.public_key: 1, pk: 1, "pke_decrypt": 1}
    before, remembered = copy.deepcopy(chip), chip.last_load
    opens.clear()
    chip_process(chip, _load(bundle))
    assert not opens
    assert chip == before and chip.last_load == remembered == bundle.to_bytes()


@pytest.mark.parametrize("change", ["message-bit", "signature-bit", "signer"])
def test_a_load_that_differs_from_the_last_is_checked_on_every_try(world, opens, change):
    ttp, sender, directory, receivers, rng = world
    chip = ChipState(CERT, sender.suite, receivers[1])
    bundle = certproto.phase1_send(sender, directory, encode_id(1), rng)
    chip_process(chip, _load(bundle))
    remembered = chip.last_load
    if change == "signer":  # the same blob under another certified sender
        other = certproto.sender_init(sender.suite, encode_id(101), rng.child("other"), ttp)
        changed, signer = Bundle(other.sender_cert.to_bytes(), bundle.signed_blob), other
    else:
        blob = bytearray(bundle.signed_blob)
        blob[20 if change == "message-bit" else -1] ^= 1  # in the ephemeral key, or the signature
        changed, signer = Bundle(bundle.announce, bytes(blob)), sender
    for _ in range(2):
        opens.clear()
        with pytest.raises(CryptoError):
            chip_process(chip, _load(changed))
        assert opens == {ttp.keypair.public_key: 1, signer.sig_keypair.public_key: 1}
    assert chip.last_load == remembered


def test_a_failed_open_leaves_the_remembered_load(world, suite, opens):
    # a load that verifies and decrypts, to a key of the wrong length, fails
    # the last check: on every try, and without replacing the record
    ttp, sender, directory, receivers, rng = world
    recv, pk = receivers[1], sender.sig_keypair.public_key
    chip = ChipState(CERT, suite, recv)
    bundle = certproto.phase1_send(sender, directory, encode_id(1), rng)
    chip_process(chip, _load(bundle))
    remembered, ltk = chip.last_load, recv.ltk
    key_ct = suite.pke_encrypt(recv.enc_keypair.public_key, rng.read(15), rng)
    short = Bundle(bundle.announce,
                   suite.sign(sender.sig_keypair, recv.receiver_id + lp(key_ct)).to_bytes())
    for _ in range(2):
        opens.clear()
        with pytest.raises(ProtocolError, match="long-term key is not 16 bytes"):
            chip_process(chip, _load(short))
        assert opens == {ttp.keypair.public_key: 1, pk: 1, "pke_decrypt": 1}
    assert chip.last_load == remembered and recv.ltk == ltk
    opens.clear()
    chip_process(chip, _load(bundle))
    assert not opens


def test_loads_a_b_a_open_a_twice(world, opens):
    ttp, sender, directory, receivers, rng = world
    chip, pk = ChipState(CERT, sender.suite, receivers[1]), sender.sig_keypair.public_key
    a = certproto.phase1_send(sender, directory, encode_id(1), rng)
    ltk_a = sender.ltk_store[encode_id(1)]
    b = certproto.phase1_send(sender, directory, encode_id(1), rng)
    for bundle in (a, b, a):
        chip_process(chip, _load(bundle))
    assert opens == {ttp.keypair.public_key: 3, pk: 3, "pke_decrypt": 3}
    assert chip.receiver.ltk == ltk_a


def test_a_repeat_is_refused_once_a_crl_update_revokes_its_sender(world):
    ttp, sender, directory, receivers, rng = world
    chip = ChipState(CERT, sender.suite, receivers[1])
    load = certproto.phase1_send(sender, directory, encode_id(1), rng).to_bytes()
    chip_process(chip, ChipChannelMsg(ChipMsgKind.LOAD_LTK, load))
    ltk = chip.receiver.ltk
    revoke(ttp, sender.sender_cert.serial)
    chip_process(chip, ChipChannelMsg(ChipMsgKind.CRL_UPDATE,
                                      signed_revocation_list(ttp).to_bytes()))
    for _ in range(2):
        with pytest.raises(ProtocolError, match="^sender certificate is revoked$"):
            chip_process(chip, ChipChannelMsg(ChipMsgKind.LOAD_LTK, bytes(load)))
    assert chip.receiver.ltk == ltk


RECOVER_WORLD = """
scenario recover-forgets
seed 5
epochs 5
ca 0 cert
decoder 1 ca 0
decoder 2 ca 0
at 0 authorize 0 1
at 0 authorize 0 2
at 1 compromise ttp-key
at 3 recover
"""


def test_a_chip_replaced_by_recover_remembers_no_load(monkeypatch):
    held, replaced = {}, {}  # each chip and its record, then
    real = sim._do_recover

    def recording(world, epoch):
        held.update((d, (dec.chip, dec.chip.last_load)) for d, dec in world.decoders.items())
        real(world, epoch)
        replaced.update((d, (dec.chip, dec.chip.last_load)) for d, dec in world.decoders.items())

    monkeypatch.setattr(sim, "_do_recover", recording)
    world = sim.run_world(sim.parse_scenario(RECOVER_WORLD))[1]
    assert world.decoders_replaced == len(held) == 2
    sender_cert = world.headend.ca_systems[0].sender.sender_cert.to_bytes()
    for d, (chip, record) in held.items():
        assert record is not None
        assert replaced[d][0] is not chip and replaced[d][1] is None
        # the new chip then takes the re-keyed sender's load
        assert Bundle.from_bytes(world.decoders[d].chip.last_load).announce == sender_cert
