"""Content scrambler: a suite's keystream and output memos against a direct
AES-CTR, and worlds that share no memo."""

import hashlib
from collections import Counter
from pathlib import Path

import pytest
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes
from hypothesis import given
from hypothesis import strategies as st

from cwbind import scramble as scramblemod, suite as suitemod
from cwbind.decoder import ChipState, ControlWordHandle, descramble
from cwbind.kinds import LEGACY
from cwbind.sim import load_scenario, parse_scenario, run_world
from cwbind.suite import CipherSuite

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
    suite = CipherSuite()
    for other in others:
        suite.scramble(*other)
    expected = _reference(control_word, epoch, data)
    assert scramblemod.scramble(control_word, epoch, data) == expected  # uncached
    assert suite.scramble(control_word, epoch, data) == expected
    assert suite.scramble(control_word, epoch, data) == expected  # now served from the memo
    assert suite.scramble(control_word, epoch, expected) == data


@pytest.mark.parametrize("change", ["control_word", "epoch", "length"])
def test_differing_entry_never_reuses_cached_keystream(change):
    control_word, epoch, data = b"\x11" * 16, 9, b"\x5a" * 64
    suite = CipherSuite()
    suite.scramble(control_word, epoch, data)
    if change == "control_word":
        control_word = b"\x12" + control_word[1:]
    elif change == "epoch":
        epoch += 1
    else:
        data = data[:-1]
    misses = suite._keystream.cache_info().misses
    assert suite.scramble(control_word, epoch, data) == _reference(control_word, epoch, data)
    assert suite._keystream.cache_info().misses == misses + 1


@pytest.mark.parametrize("change", ["control_word", "epoch", "data"])
def test_differing_entry_never_reuses_cached_output(change):
    control_word, epoch, data = b"\x21" * 16, 4, b"\x6b" * 64
    suite = CipherSuite()
    first = suite.scramble(control_word, epoch, data)
    hits = suite.scramble.cache_info().hits
    assert suite.scramble(control_word, epoch, data) is first  # stored bytes, handed out again
    assert suite.scramble.cache_info().hits == hits + 1
    if change == "control_word":
        control_word = control_word[:-1] + b"\x22"
    elif change == "epoch":
        epoch += 1
    else:
        data = data[:-1] + b"\x6c"  # same length: only the output memo tells them apart
    misses = suite.scramble.cache_info().misses
    out = suite.scramble(control_word, epoch, data)
    assert suite.scramble.cache_info().misses == misses + 1
    assert out == _reference(control_word, epoch, data) and out != first


def test_wrong_control_word_after_right_one_cached_yields_garbage(suite):
    content = b"\x44" * 64
    right, wrong = b"\x01" * 16, b"\x02" * 16
    scrambled = suite.scramble(right, 5, content)  # the head-end fills the memo
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
    config = load_scenario(SCENARIO_DIR / f"{name}.scn")
    report = run_world(config)[0]
    assert report.to_text() == (SCENARIO_DIR / "expected" / f"{name}.report").read_text()
    assert counting.setups == config.epochs


class _Counted:
    """A ``cryptography`` object whose methods named in ``names`` count
    their calls in ``calls``, under the name ``names`` gives them."""

    def __init__(self, inner, calls: Counter, names: dict[str, str]):
        self._inner, self._calls, self._names = inner, calls, names

    def __getattr__(self, attr):
        method = getattr(self._inner, attr)
        name = self._names.get(attr)
        if name is None:
            return method

        def counted(*args):
            self._calls[name] += 1
            return method(*args)
        return counted


class _CountingFactory:
    """Stand-in for a ``cryptography`` class: builds its objects as
    ``_Counted`` ones, counting each build under ``built`` when given."""

    def __init__(self, real, calls: Counter, names: dict[str, str], built: str | None = None):
        self._real, self._calls, self._names, self._built = real, calls, names, built

    def _counted(self, inner) -> _Counted:
        if self._built is not None:
            self._calls[self._built] += 1
        return _Counted(inner, self._calls, self._names)

    def __call__(self, *args):
        return self._counted(self._real(*args))

    def from_private_bytes(self, data):
        return self._counted(self._real.from_private_bytes(data))

    def from_public_bytes(self, data):
        return self._counted(self._real.from_public_bytes(data))


def _count_primitives(monkeypatch) -> Counter:
    """Every call a world makes at the ``cryptography`` boundary, by name."""
    calls: Counter = Counter()
    for attr, names, built in [
            ("Ed25519PrivateKey", {"sign": "ed25519 sign"}, None),
            ("Ed25519PublicKey", {"verify": "ed25519 verify"}, None),
            ("X25519PrivateKey", {"exchange": "x25519 exchange"}, None),
            ("AESGCM", {"encrypt": "aes-gcm encrypt", "decrypt": "aes-gcm decrypt"},
             "aes-gcm context")]:
        real = getattr(suitemod, attr)
        monkeypatch.setattr(suitemod, attr, _CountingFactory(real, calls, names, built))
    monkeypatch.setattr(scramblemod, "Cipher", _CountingFactory(Cipher, calls, {}, "aes-ctr setup"))
    return calls


# the steady-simulcrypt workload's shape, small: bind, bind, cert and legacy
# systems of 8 decoders, each authorizing a rotating 5 of them
STEADY_SHAPE = "\n".join(
    ["scenario steady-shape", "seed 1", "epochs 12"]
    + [line for ca, kind in enumerate(["bind", "bind", "cert", "legacy"])
       for line in [f"ca {ca} {kind}"] + [f"decoder {8 * ca + d} ca {ca}" for d in range(1, 9)]]
    + [f"rotate-auth {ca} every 4 count 5" for ca in range(4)]) + "\n"


def test_cache_state_across_worlds_never_reaches_a_report(monkeypatch):
    # each world builds its own suite, so no memo entry of one world reaches
    # the next: nine shipped worlds run twice, in opposite orders, give the
    # same reports, and two worlds of one config, run one after the other,
    # each make exactly the primitive calls of one world
    first = {path.stem: run_world(load_scenario(path))[0].to_text() for path in SHIPPED}
    second = {path.stem: run_world(load_scenario(path))[0].to_text() for path in reversed(SHIPPED)}
    assert len(first) == 9
    assert second == first

    calls = _count_primitives(monkeypatch)
    config = parse_scenario(STEADY_SHAPE)
    counts = []
    for _ in range(2):
        calls.clear()
        run_world(config)
        counts.append(dict(calls))
    assert counts[1] == counts[0]
    assert set(counts[0]) == {"ed25519 sign", "ed25519 verify", "x25519 exchange",
                              "aes-gcm encrypt", "aes-gcm decrypt", "aes-gcm context",
                              "aes-ctr setup"}
    assert counts[0]["aes-ctr setup"] == config.epochs
