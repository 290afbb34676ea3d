"""Content scrambler: the shared keystream and output caches against a
direct AES-CTR."""

import hashlib
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given
from hypothesis import strategies as st

from cwbind.decoder import ChipState, ControlWordHandle, descramble
from cwbind.kinds import LEGACY
from cwbind.scramble import _keystream, scramble
from cwbind.sim import load_scenario, run_world

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(SCENARIO_DIR.glob("*.scn"))


def _reference(control_word: bytes, epoch: int, data: bytes) -> bytes:
    counter = hashlib.sha512(b"cwbind/scramble" + epoch.to_bytes(8, "big")).digest()[:16]
    enc = Cipher(algorithms.AES(control_word), modes.CTR(counter)).encryptor()
    return enc.update(data) + enc.finalize()


control_words = st.sampled_from([16, 24, 32]).flatmap(lambda n: st.binary(min_size=n, max_size=n))
epochs = st.integers(0, 2**64 - 1)
contents = st.binary(max_size=300)


@given(control_words, epochs, contents, st.lists(st.tuples(control_words, epochs, contents),
                                                 max_size=6))
def test_scramble_matches_direct_aes_ctr(control_word, epoch, data, others):
    for other in others:
        scramble(*other)
    expected = _reference(control_word, epoch, data)
    assert scramble(control_word, epoch, data) == expected
    assert scramble(control_word, epoch, data) == expected  # now served from the cache
    assert scramble(control_word, epoch, expected) == data


@pytest.mark.parametrize("change", ["control_word", "epoch", "length"])
def test_differing_entry_never_reuses_cached_keystream(change):
    control_word, epoch, data = b"\x11" * 16, 9, b"\x5a" * 64
    _keystream.cache_clear()
    scramble.cache_clear()
    scramble(control_word, epoch, data)
    if change == "control_word":
        control_word = b"\x12" + control_word[1:]
    elif change == "epoch":
        epoch += 1
    else:
        data = data[:-1]
    misses = _keystream.cache_info().misses
    assert scramble(control_word, epoch, data) == _reference(control_word, epoch, data)
    assert _keystream.cache_info().misses == misses + 1


@pytest.mark.parametrize("change", ["control_word", "epoch", "data"])
def test_differing_entry_never_reuses_cached_output(change):
    control_word, epoch, data = b"\x21" * 16, 4, b"\x6b" * 64
    scramble.cache_clear()
    first = scramble(control_word, epoch, data)
    hits = scramble.cache_info().hits
    assert scramble(control_word, epoch, data) is first  # stored bytes, handed out again
    assert scramble.cache_info().hits == hits + 1
    if change == "control_word":
        control_word = control_word[:-1] + b"\x22"
    elif change == "epoch":
        epoch += 1
    else:
        data = data[:-1] + b"\x6c"  # same length: only the output memo tells them apart
    misses = scramble.cache_info().misses
    out = scramble(control_word, epoch, data)
    assert scramble.cache_info().misses == misses + 1
    assert out == _reference(control_word, epoch, data) and out != first


def test_wrong_control_word_after_right_one_cached_yields_garbage(suite):
    content = b"\x44" * 64
    right, wrong = b"\x01" * 16, b"\x02" * 16
    scrambled = scramble(right, 5, content)  # the head-end fills the cache
    chip = ChipState(LEGACY, suite, current_epoch=5)
    assert descramble(chip, ControlWordHandle(5, right), scrambled) == content
    assert descramble(chip, ControlWordHandle(5, wrong), scrambled) != content


class _CountingCipher:
    """Stand-in for ``Cipher`` that counts the AES-CTR set-ups."""

    def __init__(self):
        self.setups = 0

    def __call__(self, algorithm, mode):
        self.setups += 1
        return Cipher(algorithm, mode)


@pytest.mark.parametrize("name", ["baseline-bind", "baseline-cert"])
def test_honest_world_sets_up_one_keystream_per_epoch(monkeypatch, name):
    counting = _CountingCipher()
    monkeypatch.setattr("cwbind.scramble.Cipher", counting)
    _keystream.cache_clear()
    scramble.cache_clear()
    config = load_scenario(SCENARIO_DIR / f"{name}.scn")
    report = run_world(config)[0]
    assert report.to_text() == (SCENARIO_DIR / "expected" / f"{name}.report").read_text()
    assert counting.setups == config.epochs


def test_cache_state_across_worlds_never_reaches_a_report():
    # the second pass meets every module-level memo (keystream, AEAD contexts
    # and opens, signature checks, bound secrets) warm from other worlds
    first = {path.stem: run_world(load_scenario(path))[0].to_text() for path in SHIPPED}
    second = {path.stem: run_world(load_scenario(path))[0].to_text() for path in reversed(SHIPPED)}
    assert len(first) == 9
    assert second == first
