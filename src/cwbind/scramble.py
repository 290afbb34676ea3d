"""Content scrambler stand-in.

The real broadcast scrambling algorithm is licensed under non-disclosure and
cannot be reproduced here, so content protection is modeled with AES-CTR
keyed by the control word, with the counter block derived from the epoch.
Scramble and descramble are the same keystream XOR.

The keystream is a pure function of (control word, epoch, length), so it is
computed once per (control word, epoch) and kept in a small bounded cache:
the head-end's scrambler fills it and every descrambler holding that epoch's
control word reuses it. Like the real thing, descrambling stays
unauthenticated: under a wrong key (or epoch) it misses the cache, computes
its own keystream and yields garbage rather than an error.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

from .encoding import u64


def _counter_block(epoch: int) -> bytes:
    return hashlib.sha512(b"cwbind/scramble" + u64(epoch)).digest()[:16]


@lru_cache(maxsize=32)
def _keystream(control_word: bytes, epoch: int, length: int) -> int:
    """AES-CTR over ``length`` zero bytes, as a big-endian integer."""
    enc = Cipher(algorithms.AES(control_word), modes.CTR(_counter_block(epoch))).encryptor()
    return int.from_bytes(enc.update(bytes(length)) + enc.finalize(), "big")


def scramble(control_word: bytes, epoch: int, data: bytes) -> bytes:
    length = len(data)
    keystream = _keystream(control_word, epoch, length)
    return (int.from_bytes(data, "big") ^ keystream).to_bytes(length, "big")


def descramble(control_word: bytes, epoch: int, data: bytes) -> bytes:
    return scramble(control_word, epoch, data)
