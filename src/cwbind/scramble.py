"""Content scrambler stand-in.

The real broadcast scrambling algorithm is licensed under non-disclosure and
cannot be reproduced here, so content protection is modeled with AES-CTR
keyed by the control word, with the counter block derived from the epoch.
Scramble and descramble are the same keystream XOR.

Two bounded memos share the work every decoder of a frame would otherwise
repeat. The keystream is a pure function of (control word, epoch, length),
so ``_keystream`` (32 entries) computes it once per (control word, epoch):
an honest epoch sets up exactly one ``Cipher``. The output is a pure
function of (control word, epoch, data), so ``scramble`` (32 entries)
keeps it under exactly that key: the first authorized decoder computes the
epoch's plaintext and every later one gets the stored bytes. A hit hashes
no content anew: every decoder passes the frame's one content object, and a
bytes object computes its hash once. Like the real thing, descrambling stays
unauthenticated: under a wrong key or epoch it misses both memos, computes
its own keystream and yields garbage rather than an error.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.modes import CTR

from .encoding import u64


def _counter_block(epoch: int) -> bytes:
    return hashlib.sha512(b"cwbind/scramble" + u64(epoch)).digest()[:16]


@lru_cache(maxsize=32)
def _keystream(control_word: bytes, epoch: int, length: int) -> int:
    """AES-CTR over ``length`` zero bytes, as a big-endian integer."""
    enc = Cipher(AES(control_word), CTR(_counter_block(epoch))).encryptor()
    return int.from_bytes(enc.update(bytes(length)) + enc.finalize(), "big")


@lru_cache(maxsize=32)
def scramble(control_word: bytes, epoch: int, data: bytes) -> bytes:
    length = len(data)
    keystream = _keystream(control_word, epoch, length)
    return (int.from_bytes(data, "big") ^ keystream).to_bytes(length, "big")


descramble = scramble  # the same keystream XOR, and the same output memo
