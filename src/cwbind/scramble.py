"""Content scrambler stand-in.

The real broadcast scrambling algorithm is licensed under non-disclosure and
cannot be reproduced here, so content protection is modeled with AES-CTR
keyed by the control word, with the counter block derived from the epoch.
Scramble and descramble are the same keystream XOR.

Both functions here compute afresh on every call. A world's cipher suite
memoises them (``CipherSuite.scramble``, which hands ``scramble`` its own
``keystream`` memo): see ``cwbind.suite``. Like the real thing,
descrambling stays unauthenticated: under a wrong key or epoch it yields
garbage rather than an error.
"""

from __future__ import annotations

import hashlib

from cryptography.hazmat.primitives.ciphers import Cipher
from cryptography.hazmat.primitives.ciphers.algorithms import AES
from cryptography.hazmat.primitives.ciphers.modes import CTR

from .encoding import u64


def _counter_block(epoch: int) -> bytes:
    return hashlib.sha512(b"cwbind/scramble" + u64(epoch)).digest()[:16]


def keystream(control_word: bytes, epoch: int, length: int) -> int:
    """AES-CTR over ``length`` zero bytes, as a big-endian integer."""
    enc = Cipher(AES(control_word), CTR(_counter_block(epoch))).encryptor()
    return int.from_bytes(enc.update(bytes(length)) + enc.finalize(), "big")


def scramble(control_word: bytes, epoch: int, data: bytes, keystream=keystream) -> bytes:
    """``data`` XOR the keystream of (``control_word``, ``epoch``), taken
    from ``keystream`` (a memo of this module's, in a suite)."""
    length = len(data)
    return (int.from_bytes(data, "big") ^ keystream(control_word, epoch, length)).to_bytes(
        length, "big")
