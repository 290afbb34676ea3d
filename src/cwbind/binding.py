"""Control-word binding: derive the shared secret from sender keys and a nonce.

The shared secret is the truncated SHA-512 digest of the secret random value
followed by the canonical serializations of the sender public keys, sorted
lexicographically. Sorting fixes one encoding for every set of interoperating
senders, so all of them compute the same secret regardless of enumeration
order. Because the secret is a function of the public keys, a message chain
built under any other key yields a different secret: substituting a sender
key anywhere breaks the derivation rather than the transport.

The strength calculator reports the expected second-preimage resistance of
truncated SHA-512 as min{n, 512 - log2(max_input_len_bits / 2^10)} bits; for
every output length used here (<= 256 bits) and every input length reachable
with a realistic number of senders, the result equals n.

Knowing a derived secret does not directly reveal the bound random value.
That is a defense-in-depth observation about the hash, documented here; it is
not a property this module enforces or tests beyond its statistical proxies.

The head-end and every chip of an epoch derive the same secret from the same
sorted key set and random value; a world's cipher suite memoises
``bound_secret`` (``CipherSuite.bound_secret``, see ``cwbind.suite``), and
``bound_secret`` itself computes afresh on every call.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

HASH_OUTPUT_BITS = 512
_LOG2_BASE_LEN = 10  # the calculator normalizes input length by 2**10 bits


@dataclass(frozen=True)
class BindingInput:
    """Sorted sender public keys plus the secret random value.

    Invariants: at least one key, keys strictly sorted (which also rules out
    duplicates), all keys of equal length so the flat encoding is injective.
    """

    public_keys: tuple[bytes, ...]
    rand: bytes

    def __post_init__(self):
        if not self.public_keys:
            raise ValueError("binding input needs at least one public key")
        if not self.rand:
            raise ValueError("binding input needs a non-empty random value")
        if len({len(pk) for pk in self.public_keys}) != 1:
            raise ValueError("all public keys must share one canonical length")
        for a, b in zip(self.public_keys, self.public_keys[1:]):
            if a >= b:
                raise ValueError("public keys must be strictly sorted (no duplicates)")


def encode_binding_input(inp: BindingInput) -> bytes:
    """Flat encoding: rand first, then each key in sorted order.

    Injective over valid inputs: rand has a fixed length per deployment and
    the keys share one fixed length, so the split points are unambiguous.
    """
    return inp.rand + b"".join(inp.public_keys)


def derive_secret(inp: BindingInput, n_bits: int) -> bytes:
    """Leftmost ``n_bits`` of SHA-512 over the encoded input."""
    if n_bits > HASH_OUTPUT_BITS:
        raise ValueError(f"cannot truncate SHA-512 to {n_bits} bits")
    if n_bits <= 0 or n_bits % 8 != 0:
        raise ValueError("output length must be a positive multiple of 8 bits")
    digest = hashlib.sha512(encode_binding_input(inp)).digest()
    return digest[: n_bits // 8]


def bound_secret(public_keys: tuple[bytes, ...], rand: bytes, n_bits: int) -> bytes:
    """``derive_secret`` over the sorted ``public_keys`` and ``rand``."""
    return derive_secret(BindingInput(public_keys, rand), n_bits)


def second_preimage_strength(n_bits: int, max_input_len_bits: int) -> int:
    """Expected second-preimage strength in bits, rounded down.

    Exact integer arithmetic: floor(512 - log2(L / 2^10)) equals
    512 + 10 - ceil(log2(L)), and ceil(log2(L)) is (L-1).bit_length().
    """
    if not 1 <= n_bits <= HASH_OUTPUT_BITS:
        raise ValueError(f"output length must be 1..{HASH_OUTPUT_BITS} bits, got {n_bits}")
    if max_input_len_bits < 2**_LOG2_BASE_LEN:
        raise ValueError(f"maximum input length must be at least 2^{_LOG2_BASE_LEN} bits")
    log_term = HASH_OUTPUT_BITS + _LOG2_BASE_LEN - (max_input_len_bits - 1).bit_length()
    return min(n_bits, log_term)
