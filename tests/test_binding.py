"""Binding derivation: encoding injectivity, truncation, strength formula,
and the statistical proxies for its two security properties."""

import hashlib
import itertools
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cwbind.binding import (
    BindingInput,
    derive_secret,
    encode_binding_input,
    second_preimage_strength,
)

VECTORS = json.loads((Path(__file__).parent / "vectors" / "kdf.json").read_text())


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_single_key_is_rand_then_key():
    inp = BindingInput(public_keys=(b"\x01\x02",), rand=b"\xaa\xbb")
    assert encode_binding_input(inp) == b"\xaa\xbb\x01\x02"


def test_unsorted_key_list_rejected():
    with pytest.raises(ValueError):
        BindingInput(public_keys=(b"\x03\x04", b"\x01\x02"), rand=b"\xaa\xbb")


def test_duplicate_keys_rejected():
    with pytest.raises(ValueError):
        BindingInput(public_keys=(b"\x01\x02", b"\x01\x02"), rand=b"\xaa\xbb")


def test_empty_key_list_rejected():
    with pytest.raises(ValueError):
        BindingInput(public_keys=(), rand=b"\xaa")


def test_mixed_key_lengths_rejected():
    with pytest.raises(ValueError):
        BindingInput(public_keys=(b"\x01\x02", b"\x03\x04\x05"), rand=b"\xaa")


def test_encoding_injective_over_toy_universe():
    # exhaustive brute force: 8 two-byte keys, sorted lists of up to 3,
    # 64 two-byte rand values; every valid input encodes uniquely
    keys = [bytes([k, k + 1]) for k in range(0, 16, 2)]
    key_lists = []
    for size in (1, 2, 3):
        key_lists.extend(itertools.combinations(sorted(keys), size))
    rands = [bytes([r, 255 - r]) for r in range(64)]
    seen = {}
    for key_list in key_lists:
        for rand in rands:
            enc = encode_binding_input(BindingInput(public_keys=key_list, rand=rand))
            assert enc not in seen, (key_list, rand, seen[enc])
            seen[enc] = (key_list, rand)
    assert len(seen) == len(key_lists) * len(rands)


@settings(max_examples=200)
@given(
    keys=st.lists(st.binary(min_size=4, max_size=4), min_size=1, max_size=5, unique=True),
    rand=st.binary(min_size=2, max_size=2),
)
def test_encoding_parses_back_uniquely(keys, rand):
    inp = BindingInput(public_keys=tuple(sorted(keys)), rand=rand)
    enc = encode_binding_input(inp)
    # fixed-width fields make the encoding losslessly splittable
    assert enc[:2] == rand
    recovered = tuple(enc[2 + 4 * i : 6 + 4 * i] for i in range(len(keys)))
    assert recovered == inp.public_keys


# ---------------------------------------------------------------------------
# derivation
# ---------------------------------------------------------------------------


def test_derive_matches_sha512_oracle():
    inp = BindingInput(public_keys=(b"\x01\x02",), rand=b"\xaa\xbb")
    expected = hashlib.sha512(b"\xaa\xbb\x01\x02").digest()
    assert derive_secret(inp, 128) == expected[:16]
    assert derive_secret(inp, 512) == expected
    assert derive_secret(inp, 128).hex() == VECTORS["derive_toy_single_n128"]


def test_truncation_prefix_property():
    inp = BindingInput(public_keys=(bytes(32),), rand=bytes(16))
    assert derive_secret(inp, 512).startswith(derive_secret(inp, 128))


def test_derive_rejects_bad_lengths():
    inp = BindingInput(public_keys=(b"\x01",), rand=b"\x02")
    with pytest.raises(ValueError):
        derive_secret(inp, 520)
    with pytest.raises(ValueError):
        derive_secret(inp, 129)
    with pytest.raises(ValueError):
        derive_secret(inp, 0)


def test_any_key_change_changes_secret():
    # 100 sampled single-key perturbations
    base_keys = [bytes([i] * 32) for i in range(4)]
    rand = b"\x5c" * 16
    base = derive_secret(BindingInput(tuple(base_keys), rand), 128)
    changed = 0
    for trial in range(100):
        keys = list(base_keys)
        slot = trial % 4
        keys[slot] = hashlib.sha512(bytes([trial])).digest()[:32]
        perturbed = derive_secret(BindingInput(tuple(sorted(keys)), rand), 128)
        if perturbed != base:
            changed += 1
    assert changed == 100


def test_multi_key_order_independence_via_sorting():
    a, b = b"\x01" * 32, b"\x02" * 32
    rand = b"\x0f" * 16
    sorted_input = BindingInput(tuple(sorted((b, a))), rand)
    assert sorted_input.public_keys == (a, b)
    with pytest.raises(ValueError):
        BindingInput((b, a), rand)  # caller must sort; no silent reordering


# ---------------------------------------------------------------------------
# strength calculator
# ---------------------------------------------------------------------------


def test_strength_log_term_vanishes_at_base_length():
    assert second_preimage_strength(128, 2**10) == 128


@pytest.mark.parametrize(
    "n,length,expected",
    [
        (128, 2**20, 128),
        (511, 2**13, 509),
        (192, 2**30, 192),
        (256, 2**40, 256),
        (511, 2**40, 482),
    ],
)
def test_strength_direct_arithmetic(n, length, expected):
    # oracle: floating-point evaluation of the published formula
    oracle = min(n, math.floor(512 - math.log2(length / 2**10)))
    assert oracle == expected
    assert second_preimage_strength(n, length) == expected


def test_strength_rejects_tiny_inputs():
    with pytest.raises(ValueError):
        second_preimage_strength(128, 2**10 - 1)


@pytest.mark.parametrize("n", [0, -5, 513, 1000])
def test_strength_rejects_output_lengths_outside_the_digest(n):
    # 1000 used to give 511 and -5 to give -5
    with pytest.raises(ValueError, match="output length"):
        second_preimage_strength(n, 2**20)
    assert second_preimage_strength(1, 2**20) == 1
    assert second_preimage_strength(512, 2**10) == 512


@settings(max_examples=300)
@given(
    n=st.integers(min_value=1, max_value=512),
    length=st.integers(min_value=2**10, max_value=2**48),
)
def test_strength_matches_float_oracle(n, length):
    oracle = min(n, math.floor(512 - math.log2(length / 2**10)))
    assert second_preimage_strength(n, length) == oracle


def test_strength_equals_n_for_all_reachable_inputs():
    # up to 16 senders with 32-byte keys plus a 32-byte rand, in bits
    max_len = (16 * 32 + 32) * 8
    for n in (128, 192, 256):
        assert second_preimage_strength(n, max(max_len, 2**10)) == n


# ---------------------------------------------------------------------------
# security property proxies on a toy universe
# ---------------------------------------------------------------------------


def _toy_h(key: bytes, rand: bytes) -> int:
    digest = derive_secret(BindingInput((key,), rand), 16)
    return int.from_bytes(digest, "big")


def test_second_preimage_proxy_collisions_look_random():
    # 64 keys x 4096 rand values -> 262144 inputs into a 16-bit truncation.
    # All encodings are distinct (injectivity), so collisions come only from
    # the hash; bucket occupancy should look Poisson(mean 4).
    keys = [bytes([k, 0x10 ^ k]) for k in range(64)]
    buckets = [0] * 65536
    for key in keys:
        for r in range(4096):
            buckets[_toy_h(key, r.to_bytes(2, "big"))] += 1
    total = sum(buckets)
    assert total == 64 * 4096
    mean = total / 65536
    variance = sum((b - mean) ** 2 for b in buckets) / 65536
    assert 0.9 < variance / mean < 1.1  # Poisson: variance == mean
    assert max(buckets) < 30  # astronomically safe bound for Poisson(4)


def test_hidden_rand_prediction_proxy():
    # with rand hidden, guessing the 16-bit output succeeds ~2^-16 of the time
    key = b"\x13\x37"
    trials = 200000
    guess = _toy_h(key, b"\x00\x00")  # adversary's best fixed guess
    hits = 0
    state = 0
    for i in range(trials):
        state = int.from_bytes(hashlib.sha512(state.to_bytes(8, "big")).digest()[:8], "big")
        rand = (state & 0xFFFF).to_bytes(2, "big")
        if rand == b"\x00\x00":
            continue  # the guessed point itself is excluded: rand is secret
        if _toy_h(key, rand) == guess:
            hits += 1
    # Binomial(200000, 2^-16) has mean ~3; 13 is a ~1e-6 tail bound
    assert hits <= 13
