"""Per-holder AES-GCM contexts (``suite.AeadSlot``): a slot caches a key
schedule and never an outcome, whatever keys go through it and in what order."""

import copy
from collections import Counter
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers.aead import AESGCM
from hypothesis import given
from hypothesis import strategies as st

from cwbind import decoder as decmod, headend as hemod, suite as suitemod
from cwbind.decoder import (
    chip_process,
    client_process_ecm,
    derive_msg,
    descramble,
    process_frame,
)
from cwbind.encoding import encode_id
from cwbind.errors import CryptoError, CwbindError
from cwbind.sim import build_world, load_scenario, parse_scenario, run_scenario
from cwbind.suite import AeadSlot, CipherSuite

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SUITE = CipherSuite()

keys = st.binary(min_size=16, max_size=16)


@given(st.lists(keys, min_size=1, max_size=4, unique=True),
       st.lists(st.tuples(st.integers(0, 3), st.binary(min_size=1, max_size=32),
                          st.binary(max_size=16), st.integers(0, 31)),
                min_size=1, max_size=12))
def test_slot_agrees_with_a_fresh_context_per_call(key_set, ops):
    # seals under 1-4 keys, each followed by the open of any earlier seal,
    # so the slot's key changes in every order a sequence can give
    slot = AeadSlot()
    sealed = []
    for key_index, plaintext, aad, reopen in ops:
        key = key_set[key_index % len(key_set)]
        blob = SUITE.sym_encrypt(key, plaintext, aad, slot=slot)
        nonce = blob[:12]
        assert blob[12:] == AESGCM(key).encrypt(nonce, plaintext, aad)
        assert blob == SUITE.sym_encrypt(key, plaintext, aad)
        sealed.append((key, blob, aad, plaintext))
        key, blob, aad, plaintext = sealed[reopen % len(sealed)]
        assert AESGCM(key).decrypt(blob[:12], blob[12:], aad) == plaintext
        assert SUITE.sym_decrypt(key, blob, aad, slot=slot) == plaintext


@given(keys, st.binary(min_size=1, max_size=48), st.binary(max_size=24),
       st.sampled_from(["key", "nonce", "body", "tag", "aad"]), st.integers(0, 63),
       st.integers(1, 255))
def test_slot_never_caches_a_failure(key, plaintext, aad, target, index, mask):
    slot = AeadSlot()
    blob = SUITE.sym_encrypt(key, plaintext, aad, slot=slot)
    assert SUITE.sym_decrypt(key, blob, aad, slot=slot) == plaintext
    parts = {"key": key, "nonce": blob[:12], "body": blob[12:-16], "tag": blob[-16:],
             "aad": aad}
    changed = bytearray(parts[target] or b"\x00")
    changed[index % len(changed)] ^= mask
    parts[target] = bytes(changed)
    bad_blob = parts["nonce"] + parts["body"] + parts["tag"]
    for _ in range(2):
        with pytest.raises(CryptoError):
            SUITE.sym_decrypt(parts["key"], bad_blob, parts["aad"], slot=slot)
    assert SUITE.sym_decrypt(key, blob, aad, slot=slot) == plaintext


def test_slot_repr_and_deep_copy_hold_no_key():
    slot = AeadSlot()
    key = bytes(range(16))
    SUITE.sym_encrypt(key, b"payload", slot=slot)
    assert repr(slot) == "AeadSlot()" and key.hex() not in repr(slot)
    twin = copy.deepcopy(slot)
    assert twin is not slot and repr(twin) == "AeadSlot()"


# ---------------------------------------------------------------------------
# slots in the pipeline
# ---------------------------------------------------------------------------

WORLD = """
scenario slots
seed 11
epochs 8
ca 0 {kind}
decoder 1 ca 0
decoder 2 ca 0
"""


def _world(kind: str):
    world = build_world(parse_scenario(WORLD.format(kind=kind)))
    for decoder_id in (1, 2):
        hemod.authorize(world.headend, 0, decoder_id, True)
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
        assert process_frame(decoder, frame).descrambled == content
    old_ltk, old_announce = _current_ltk(decoder), decoder.client.announce
    hemod.rotate_sender_key(world.headend, 0, world.master.child("slot-rotate"))
    frame, content = _tick(world)  # re-enrolls: both slots move to the new key
    assert process_frame(decoder, frame).descrambled == content
    new_ltk = _current_ltk(decoder)
    assert new_ltk != old_ltk

    frame, content = _tick(world)
    ecm = frame.ecms[0]
    secret = SUITE.sym_decrypt(decoder.client.ecm_key, ecm.protected_secret, aad=ecm.aad)
    sender_pk = decoder.client.announce if kind == "bind" else None
    old = derive_msg(SUITE, old_ltk, ecm.epoch, secret, sender_pk)
    new = derive_msg(SUITE, new_ltk, ecm.epoch, secret, sender_pk)
    assert client_process_ecm(decoder.client, ecm) == new  # the client's slot wrap
    for _ in range(2):
        with pytest.raises(CryptoError):
            chip_process(decoder.chip, old)
        if kind == "bind":  # the old key is still filed under the retired sender key
            with pytest.raises(CwbindError):
                chip_process(decoder.chip, derive_msg(SUITE, old_ltk, ecm.epoch, secret,
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
def test_deep_copied_decoder_starts_with_empty_slots_and_acts_alike(kind, monkeypatch):
    world, decoder = _world(kind)
    frame, content = _tick(world)
    assert process_frame(decoder, frame).descrambled == content
    twin = copy.deepcopy(decoder)
    slots = [decoder.client.ltk_slot, decoder.chip.receiver.ltk_slot,
             twin.client.ltk_slot, twin.chip.receiver.ltk_slot]
    assert len({id(slot) for slot in slots}) == 4

    monkeypatch.setattr(suitemod, "AESGCM", _CountingContexts)
    monkeypatch.setattr(_CountingContexts, "built", Counter())
    for _ in range(3):
        frame, content = _tick(world)
        result = process_frame(decoder, frame)
        assert result.descrambled == content
        assert process_frame(twin, frame) == result
    # the original's slots are warm; the twin's client and chip build one each
    assert _CountingContexts.built[_current_ltk(decoder)] == 2


@pytest.mark.parametrize("name", ["baseline-bind", "baseline-cert"])
def test_long_term_key_contexts_are_built_per_delivery_not_per_epoch(name, monkeypatch):
    # each delivered long-term key gets one context in the client's slot and
    # one in the chip's, however many epochs it then wraps and unwraps
    monkeypatch.setattr(suitemod, "AESGCM", _CountingContexts)
    monkeypatch.setattr(_CountingContexts, "built", Counter())
    suitemod._aead.cache_clear()
    suitemod._open.cache_clear()
    delivered = set()
    client_process_emm = decmod.client_process_emm

    def recording(client, emm):
        msgs = client_process_emm(client, emm)
        delivered.update((client.receiver_id, ltk) for ltk in client.ltk_by_sender.values())
        return msgs

    monkeypatch.setattr(decmod, "client_process_emm", recording)
    config = load_scenario(SCENARIO_DIR / f"{name}.scn")
    report = run_scenario(config)
    assert report.to_text() == (SCENARIO_DIR / "expected" / f"{name}.report").read_text()
    assert sum(o == "K" for row in report.rows for o in row.outcomes.values()) > 4 * len(delivered)
    long_term_keys = {ltk for _, ltk in delivered}
    built = sum(n for key, n in _CountingContexts.built.items() if key in long_term_keys)
    assert delivered
    assert built <= 2 * len(delivered), (built, len(delivered))
