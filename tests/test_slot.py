"""Per-world AES-GCM contexts (``CipherSuite._contexts``): a context caches a
key schedule and never an outcome, whatever keys go through it and in what
order; each key's context is built once per world, shared by every party
that names the key, and freed with the world."""

import copy
import gc
import weakref
from collections import Counter
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.asymmetric.x25519 import X25519PrivateKey, X25519PublicKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given
from hypothesis import strategies as st

from cwbind import decoder as decmod, headend as hemod, sim as simmod, suite as suitemod
from cwbind.decoder import (
    chip_process,
    client_process_ecm,
    derive_msg,
    descramble,
    process_frame,
)
from cwbind.encoding import Reader, encode_id
from cwbind.errors import CryptoError, CwbindError
from cwbind.sim import build_world, load_scenario, parse_scenario, run_world
from cwbind.phase1 import Bundle
from cwbind.suite import PUBLIC_KEY_LEN, CipherSuite, Drbg, SignedMessage
from cwbind.wire import Emm, emm_aad

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

keys = st.binary(min_size=16, max_size=16)


@given(st.lists(keys, min_size=1, max_size=4, unique=True),
       st.lists(st.tuples(st.integers(0, 3), st.binary(min_size=1, max_size=32),
                          st.binary(max_size=16), st.integers(0, 31)),
                min_size=1, max_size=12))
def test_contexts_agree_with_a_fresh_context_per_call(key_set, ops):
    # seals under 1-4 keys, each followed by the open of any earlier seal,
    # so the keys a suite's contexts serve change in every order a sequence
    # can give
    suite = CipherSuite()
    sealed = []
    for key_index, plaintext, aad, reopen in ops:
        key = key_set[key_index % len(key_set)]
        blob = suite.sym_encrypt(key, plaintext, aad)
        nonce = blob[:12]
        assert blob[12:] == AESGCM(key).encrypt(nonce, plaintext, aad)
        assert blob == CipherSuite().sym_encrypt(key, plaintext, aad)
        sealed.append((key, blob, aad, plaintext))
        key, blob, aad, plaintext = sealed[reopen % len(sealed)]
        assert AESGCM(key).decrypt(blob[:12], blob[12:], aad) == plaintext
        assert suite.sym_decrypt(key, blob, aad) == plaintext
    assert set(suite._contexts) == {key for key, _, _, _ in sealed}


@given(keys, st.binary(min_size=1, max_size=48), st.binary(max_size=24),
       st.sampled_from(["key", "nonce", "body", "tag", "aad"]), st.integers(0, 63),
       st.integers(1, 255))
def test_a_context_never_caches_a_failure(key, plaintext, aad, target, index, mask):
    suite = CipherSuite()
    blob = suite.sym_encrypt(key, plaintext, aad)
    assert suite.sym_decrypt(key, blob, aad) == plaintext
    parts = {"key": key, "nonce": blob[:12], "body": blob[12:-16], "tag": blob[-16:],
             "aad": aad}
    changed = bytearray(parts[target] or b"\x00")
    changed[index % len(changed)] ^= mask
    parts[target] = bytes(changed)
    bad_blob = parts["nonce"] + parts["body"] + parts["tag"]
    for _ in range(2):
        with pytest.raises(CryptoError):
            suite.sym_decrypt(parts["key"], bad_blob, parts["aad"])
    assert suite.sym_decrypt(key, blob, aad) == plaintext


# ---------------------------------------------------------------------------
# contexts in the pipeline
# ---------------------------------------------------------------------------

WORLD = """
scenario contexts
seed 11
epochs 8
ca 0 {kind}
decoder 1 ca 0
decoder 2 ca 0
"""


def _world(kind: str):
    world = build_world(parse_scenario(WORLD.format(kind=kind)))
    for decoder_id in (1, 2):
        hemod.authorize(world.headend, 0, encode_id(decoder_id), True)
    return world, world.decoders[encode_id(1)]


def _tick(world):
    content = bytes([world.headend.epoch]) * 32
    return hemod.epoch_tick(world.headend, content), content


def _current_ltk(decoder) -> bytes:
    return decoder.client.ltk_by_sender[decoder.client.announce]


@pytest.mark.parametrize("kind", ["bind", "cert"])
def test_after_rotation_only_the_new_long_term_key_derives(kind):
    world, decoder = _world(kind)
    for _ in range(2):
        frame, content = _tick(world)
        assert process_frame(decoder, frame, None).descrambled == content
    old_ltk, old_announce = _current_ltk(decoder), decoder.client.announce
    hemod.rotate_sender_key(world.headend, 0, world.master.child("rotate"))
    frame, content = _tick(world)  # re-enrolls: client and chip move to the new key
    assert process_frame(decoder, frame, None).descrambled == content
    new_ltk = _current_ltk(decoder)
    assert new_ltk != old_ltk

    frame, content = _tick(world)
    ecm = frame.ecms[0]
    suite = world.suite
    secret = suite.sym_decrypt_shared(decoder.client.ecm_key, ecm.protected_secret, ecm.aad)
    sender_pk = decoder.client.announce if kind == "bind" else None
    old = derive_msg(suite, old_ltk, ecm.epoch, secret, sender_pk)
    new = derive_msg(suite, new_ltk, ecm.epoch, secret, sender_pk)
    assert client_process_ecm(decoder.client, ecm) == new
    for _ in range(2):
        with pytest.raises(CryptoError):
            chip_process(decoder.chip, old)
        if kind == "bind":  # the old key is still filed under the retired sender key
            with pytest.raises(CwbindError):
                chip_process(decoder.chip, derive_msg(suite, old_ltk, ecm.epoch, secret,
                                                      old_announce))
        handle = chip_process(decoder.chip, new)
        assert descramble(decoder.chip, handle, frame.scrambled_content) == content


class _CountingContexts:
    """Stand-in for ``AESGCM`` that counts the contexts built per key."""

    built: Counter = Counter()

    def __init__(self, key):
        type(self).built[key] += 1
        self._inner = AESGCM(key)

    def encrypt(self, nonce, data, aad):
        return self._inner.encrypt(nonce, data, aad)

    def decrypt(self, nonce, data, aad):
        return self._inner.decrypt(nonce, data, aad)


@pytest.mark.parametrize("kind", ["bind", "cert"])
def test_deep_copied_decoder_shares_the_suite_and_acts_alike(kind, monkeypatch):
    world, decoder = _world(kind)
    frame, content = _tick(world)
    assert process_frame(decoder, frame, None).descrambled == content
    twin = copy.deepcopy(decoder)
    assert twin is not decoder and twin == decoder
    assert twin.client is not decoder.client and twin.chip is not decoder.chip
    assert twin.client.suite is twin.chip.suite is twin.chip.receiver.suite is world.suite

    monkeypatch.setattr(suitemod, "AESGCM", _CountingContexts)
    monkeypatch.setattr(_CountingContexts, "built", Counter())
    for _ in range(3):
        frame, content = _tick(world)
        result = process_frame(decoder, frame, None)
        assert result.descrambled == content
        assert process_frame(twin, frame, None) == result
    assert twin == decoder
    # the world's suite already holds the long-term key's context, so the
    # twin's client and chip take it and build none
    assert _CountingContexts.built[_current_ltk(decoder)] == 0


def _keys_through_open(monkeypatch) -> set[bytes]:
    """The key of every open through ``_open`` by each suite built from now on."""
    opened: set[bytes] = set()
    init = CipherSuite.__init__

    def recording_init(suite, *args):
        init(suite, *args)
        memo_open = suite._open

        def recording_open(key, ciphertext, aad):
            opened.add(key)
            return memo_open(key, ciphertext, aad)

        suite._open = recording_open

    monkeypatch.setattr(CipherSuite, "__init__", recording_init)
    return opened


@pytest.mark.parametrize("name", ["baseline-bind", "baseline-cert"])
def test_long_term_key_contexts_are_built_per_delivery_not_per_epoch(name, monkeypatch):
    # each delivered long-term key gets one context in its world, shared by
    # the client and the chip, however many epochs it then wraps and unwraps
    monkeypatch.setattr(suitemod, "AESGCM", _CountingContexts)
    monkeypatch.setattr(_CountingContexts, "built", Counter())
    delivered = set()
    client_process_emm = decmod.client_process_emm

    def recording(client, emm):
        msgs = client_process_emm(client, emm)
        delivered.update((client.receiver_id, ltk) for ltk in client.ltk_by_sender.values())
        return msgs

    monkeypatch.setattr(decmod, "client_process_emm", recording)
    config = load_scenario(SCENARIO_DIR / f"{name}.scn")
    report = run_world(config)[0]
    assert report.to_text() == (SCENARIO_DIR / "expected" / f"{name}.report").read_text()
    derived = sum(list(report.decode(row)[2].values()).count("K") for row in report.rows)
    assert derived > 4 * len(delivered)
    long_term_keys = {ltk for _, ltk in delivered}
    assert delivered
    assert {_CountingContexts.built[ltk] for ltk in long_term_keys} == {1}


# ---------------------------------------------------------------------------
# channel keys: one context for both ends of every provisioned receiver
# ---------------------------------------------------------------------------

CHURN = """
scenario channel-contexts
seed 12
epochs 13
ca 0 bind
ca 1 cert
{decoders}
rotate-auth 0 every 2 count 9
rotate-auth 1 every 3 count 10
at 5 swap-client 3
at 7 swap-client 14
"""


def test_channel_key_contexts_are_built_per_provisioning_at_each_end(monkeypatch):
    # de-authorizations re-ship the ECM key to ~10 receivers per system in
    # one burst: more distinct channel keys than ``_open`` holds entries
    decoders = "\n".join(f"decoder {i} ca {i // 13}" for i in range(26))
    config = parse_scenario(CHURN.format(decoders=decoders))
    monkeypatch.setattr(suitemod, "AESGCM", _CountingContexts)
    monkeypatch.setattr(_CountingContexts, "built", Counter())
    opened = _keys_through_open(monkeypatch)
    provisioned, per_receiver = [], Counter()
    provision, queue = hemod.provision_receiver, hemod._queue

    def recording_provision(headend, ca_index, receiver_id, channel_key):
        provisioned.append(channel_key)
        provision(headend, ca_index, receiver_id, channel_key)

    def recording_queue(ca, kind, body, addressee=hemod.BROADCAST_ADDR):
        emm = queue(ca, kind, body, addressee)
        if addressee != hemod.BROADCAST_ADDR:
            per_receiver[ca.receiver_channels[addressee]] += 1
        return emm

    monkeypatch.setattr(hemod, "provision_receiver", recording_provision)
    monkeypatch.setattr(hemod, "_queue", recording_queue)
    report = run_world(config)[0]
    assert report.implicit_key_auth and report.authenticity_violations == 0
    assert len(provisioned) == len(set(provisioned)) == 28  # two swaps re-provision
    # most keys carry several EMMs each, so a rebuild per use would show
    assert sum(per_receiver.values()) > 3 * len(provisioned)
    for key in provisioned:  # one context, shared by the head-end and the client
        assert _CountingContexts.built[key] == 1, _CountingContexts.built[key]
    assert not opened & set(provisioned)  # per-receiver opens bypass ``_open``


def test_contexts_are_freed_with_the_world():
    # the world's suite holds its contexts and memos, and nothing outside
    # the world holds the suite
    report, world = run_world(load_scenario(SCENARIO_DIR / "multi-ca.scn"))
    channel_keys = {key for ca in world.headend.ca_systems for key in ca.receiver_channels.values()}
    assert channel_keys <= set(world.suite._contexts)
    suite = weakref.ref(world.suite)
    del report, world
    gc.collect()
    assert suite() is None


def _shared_key(kind: str, pair: str):
    """A world's suite, a key two parties share in it, and a blob sealed
    under that key: the client's and chip's long-term key, or the head-end's
    and client's channel key."""
    world, decoder = _world(kind)
    frame, content = _tick(world)
    assert process_frame(decoder, frame, None).descrambled == content
    suite = world.suite
    assert decoder.client.suite is decoder.chip.receiver.suite is world.headend.suite is suite
    if pair == "long-term":
        key = _current_ltk(decoder)
    else:
        key = world.headend.ca_systems[0].receiver_channels[decoder.client.receiver_id]
    assert key in suite._contexts  # built when the world first used the key
    return suite, key, suite.sym_encrypt(key, b"shared", b"aad")


@pytest.mark.parametrize("kind", ["bind", "cert"])
@pytest.mark.parametrize("pair", ["long-term", "channel"])
def test_a_failed_open_through_a_shared_context_fails_on_every_call(kind, pair):
    suite, key, blob = _shared_key(kind, pair)
    context = suite._contexts[key]
    bad = blob[:-1] + bytes([blob[-1] ^ 1])
    opens = (suite.sym_decrypt, suite.sym_decrypt_shared)
    for _ in range(2):
        for open_ in opens:
            with pytest.raises(CryptoError):
                open_(key, bad, b"aad")
    for open_ in opens:
        assert open_(key, blob, b"aad") == b"shared"
    assert suite._contexts[key] is context


def _enrolled(kind: str):
    """A world past its first frame, decoder 1 authorized, with the
    entitlement EMM the head-end then queued for it."""
    world, decoder = _world(kind)
    frame, content = _tick(world)
    assert process_frame(decoder, frame, None).descrambled == content
    hemod.authorize(world.headend, 0, encode_id(1), True)
    return world, decoder, world.headend.ca_systems[0].pending_emms[-1]


_FLIP_WORLDS: dict = {}


@given(st.sampled_from(["bind", "cert", "legacy"]), st.integers(0, 255), st.integers(1, 255))
def test_per_receiver_emm_with_any_byte_flipped_fails_on_every_call(kind, index, mask):
    if kind not in _FLIP_WORLDS:
        _FLIP_WORLDS[kind] = _enrolled(kind)
    world, decoder, emm = _FLIP_WORLDS[kind]
    client = decoder.client
    changed = bytearray(emm.payload)
    changed[index % len(changed)] ^= mask
    bad = Emm(emm.ca_system_id, emm.kind, emm.addressee, bytes(changed))
    aad = emm_aad(emm.ca_system_id, emm.kind, emm.addressee)
    for _ in range(2):
        with pytest.raises(CryptoError):
            decmod.client_process_emm(client, bad)
        with pytest.raises(CryptoError):
            client.suite.sym_decrypt(client.channel_key, bad.payload, aad)
    assert decmod.client_process_emm(client, emm) == []
    assert client.ecm_key is not None and client.ecm_key == world.headend.ca_systems[0].ecm_key


@pytest.mark.parametrize("kind", ["bind", "cert", "legacy"])
def test_after_swap_client_only_the_new_channel_key_opens(kind):
    world, decoder, old_emm = _enrolled(kind)
    receiver_id = encode_id(1)
    new_key = world.master.child("swap").read(world.suite.secret_bytes)
    decmod.swap_client(decoder, new_key)
    hemod.provision_receiver(world.headend, 0, receiver_id, new_key)
    hemod.enroll_receiver(world.headend, 0, receiver_id)
    hemod.authorize(world.headend, 0, receiver_id, True)
    for _ in range(2):
        with pytest.raises(CryptoError):
            decmod.client_process_emm(decoder.client, old_emm)
    # the frame carries the old entitlement first, then the new enrollment
    # and entitlement: the old one is refused and the new ones open
    frame, content = _tick(world)
    result = process_frame(decoder, frame, None)
    assert result.descrambled == content
    assert len(result.errors) == 1 and result.errors[0].startswith("emm:")


# ---------------------------------------------------------------------------
# PKE wrap keys: one use at each end, outside the world's contexts and memos
# ---------------------------------------------------------------------------

def _rekey_shaped() -> str:
    """Two systems of 8 decoders: compromise, recovery, probes, replays and a
    sender rotation on each."""
    lines = ["scenario rekey-shaped", "seed 4", "epochs 30", "ca 0 bind", "ca 1 cert"]
    lines += [f"decoder {i} ca {i // 8}" for i in range(16)]
    for ca in (0, 1):
        first = 8 * ca
        lines += [f"at 0 authorize {ca} {first + j}" for j in range(5)]
        lines += [f"at 5 compromise control-word {first}", f"at 5 compromise ca-client {first + 1}",
                  f"at 5 compromise sender-keys {ca}", f"at 11 pirate-probe {first + 5}",
                  f"at 11 forge-sender {ca} {first + 6}",
                  f"at 15 replay {first} {first + 7} chip-derive", f"at 20 rotate-sender {ca}",
                  f"at 25 replay {first + 1} {first + 7} ecm"]
    return "\n".join(lines + ["at 5 compromise ttp-key", "at 10 recover"]) + "\n"


def _forged_wrap_key(world, decoder_id: bytes) -> bytes:
    """The PKE wrap key of the long-term key in a probe's forged load."""
    bundle = Bundle.from_bytes(world.adversary.probes[decoder_id].load[0].payload)
    blob = SignedMessage.from_bytes(bundle.signed_blob).message
    key_ct = Reader(blob[8:]).take_lp()  # after the 8-byte recipient id
    pair = world.decoders[decoder_id].chip.receiver.enc_keypair
    eph_pub = key_ct[:PUBLIC_KEY_LEN]
    shared = pair.loaded.exchange(X25519PublicKey.from_public_bytes(eph_pub))
    return suitemod._wrap_key(shared, eph_pub, pair.public_key)


def test_wrap_keys_never_evict_a_shared_key_from_the_memo(monkeypatch):
    # PKE wrap keys (32 bytes) never enter the world's contexts or ``_open``,
    # and no key of the secret's length has its context built twice
    monkeypatch.setattr(suitemod, "AESGCM", _CountingContexts)
    monkeypatch.setattr(_CountingContexts, "built", Counter())
    opened = _keys_through_open(monkeypatch)
    report, world = run_world(parse_scenario(_rekey_shaped()))
    assert report.implicit_key_auth and report.recovery_success
    secret_bytes, built = world.suite.secret_bytes, _CountingContexts.built
    assert opened and {len(key) for key in opened | set(world.suite._contexts)} == {secret_bytes}
    assert {n for key, n in built.items() if len(key) == secret_bytes} == {1}
    forged = {_forged_wrap_key(world, encode_id(d)): d for d in (5, 6, 13, 14)}
    wraps = [n for key, n in built.items() if len(key) == 32 and key not in forged]
    assert wraps and max(wraps) <= 2  # at most once at each end
    # each probe seals its forged load once, in epoch 11. A bind chip opens
    # the re-sent bundle in epoch 11 and takes the byte-identical copies
    # that follow without opening them; epoch 20's sender rotation delivers
    # an honest load in between, so it opens the forged one once more. A
    # replaced cert chip refuses it on its generation before decrypting.
    assert {d: built[key] for key, d in forged.items()} == {5: 3, 6: 3, 13: 1, 14: 1}


def test_probe_keys_never_reach_the_memo(monkeypatch):
    # the chip opens each probe's DERIVE past ``_open``, as it opens a
    # client's, so no probe key takes (and evicts an ECM from) its entries;
    # the adversary's wrap and the chip's unwrap share the key's one context
    monkeypatch.setattr(suitemod, "AESGCM", _CountingContexts)
    monkeypatch.setattr(_CountingContexts, "built", Counter())
    opened, probe_keys = _keys_through_open(monkeypatch), set()

    def recording_derive(suite, ltk, *args):
        probe_keys.add(ltk)
        return derive_msg(suite, ltk, *args)

    monkeypatch.setattr(simmod, "derive_msg", recording_derive)  # the adversary's only
    report, world = run_world(parse_scenario(_rekey_shaped()))
    assert report.implicit_key_auth and report.recovery_success
    # four probed decoders, one key each: every probe builds its forged load
    # once, in epoch 11, and wraps each epoch's DERIVE under its key
    assert len(probe_keys) == 4 and opened and probe_keys.isdisjoint(opened)
    assert probe_keys <= set(world.suite._contexts)
    assert all(_CountingContexts.built[key] == 1 for key in probe_keys)


def test_a_forge_probed_bind_chip_stores_one_forged_key():
    # the chip files every verified load under its signing key and never
    # drops one; the forge probe re-sends one load under one rogue key, so
    # decoder 6 holds the keys of the three honest sender keys (setup,
    # recover, rotate-sender) and the rogue key
    world = run_world(parse_scenario(_rekey_shaped()))[1]
    rogue = world.adversary.probes[encode_id(6)].rogue
    stored = world.decoders[encode_id(6)].chip.receiver.ltk_by_sender
    assert len(stored) == 4 and rogue.public_key in stored


class _CountingExchanges:
    """Stand-in for ``X25519PrivateKey`` that counts every exchange."""

    exchanges = 0

    def __init__(self, key):
        self._key = key

    @classmethod
    def from_private_bytes(cls, data):
        return cls(X25519PrivateKey.from_private_bytes(data))

    def public_key(self):
        return self._key.public_key()

    def exchange(self, peer):
        type(self).exchanges += 1
        return self._key.exchange(peer)


def test_a_rekey_shaped_world_makes_an_exact_number_of_x25519_exchanges(monkeypatch):
    # key generation, every honest delivery and each probe's forged load
    # cost exchanges; a chip takes a byte-identical copy of the load it last
    # opened without one. Opening every copy again would add 34: the forged
    # load re-sent to each of the two probed bind chips in 17 more epochs.
    monkeypatch.setattr(suitemod, "X25519PrivateKey", _CountingExchanges)
    monkeypatch.setattr(_CountingExchanges, "exchanges", 0)
    report = run_world(parse_scenario(_rekey_shaped()))[0]
    assert report.implicit_key_auth and report.recovery_success
    assert _CountingExchanges.exchanges == 120


@given(st.integers(0, 200), st.integers(1, 255))
def test_a_tampered_pke_ciphertext_fails_on_every_call(index, mask):
    suite, rng = CipherSuite(), Drbg(b"pke-tamper")
    pair = suite.keygen("pke", rng)
    blob = suite.pke_encrypt(pair.public_key, b"long-term key 16", rng)
    changed = bytearray(blob)
    changed[index % len(changed)] ^= mask
    for bad in (bytes(changed), blob[:index % len(blob)]):
        for _ in range(2):
            with pytest.raises(CryptoError):
                suite.pke_decrypt(pair, bad)
    assert suite.pke_decrypt(pair, blob) == b"long-term key 16"
