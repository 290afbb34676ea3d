"""A fixed reference block that tracks how fast the machine runs right now.

On a shared host the speed of the same code drifts by up to 1.7x, in phases
that last from seconds to minutes, so a plain wall-clock median depends on
which phases a run happened to meet. The harness therefore runs this block
next to the program, as pauses that the timed intervals leave out: a few
before each world, then at most one every ``EVERY`` seconds of program time,
at hooks the tracer already uses (epoch ticks, decoder creation, enrollment).
Each stretch of program time between two pauses is scaled by
``REFERENCE_US`` over the median of the ``2 * WINDOW`` blocks around it. The
result reads as the time the program would take at the speed at which one
block takes ``REFERENCE_US``.

The block uses only the standard library and ``cryptography``, never
``cwbind``, so a change to the program cannot move it. Its mix follows the
program's: interpreted dict and bytes work, SHA-256, AES-GCM and one Ed25519
signature.
"""

from __future__ import annotations

import bisect
import hashlib
import statistics
import time

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

# a block's time at the reference speed: about its time on a 2.1 GHz Xeon
# vCPU (CPython 3.11, cryptography 48) when the host is quiet
REFERENCE_US = 300.0
EVERY = 0.005  # seconds of program time between pauses, at least
WINDOW = 10  # blocks on each side of a stretch that set its scale

_SIGNER = Ed25519PrivateKey.from_private_bytes(bytes(32))
_AEAD = AESGCM(bytes(16))


def block() -> float:
    """Run the reference block once; return its duration in seconds."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    digest = b""
    for i in range(320):
        key = i % 61
        table[key] = table.get(key, 0) + i
        digest = hashlib.sha256(digest + key.to_bytes(2, "big")).digest()
        if i % 8 == 0:
            digest = _AEAD.encrypt(digest[:12], digest, b"")[:32]
    _SIGNER.sign(digest)
    return time.perf_counter() - start


class Pacer:
    """Pauses the program for reference blocks and scales the time between."""

    def __init__(self, every: float = EVERY) -> None:
        self.every = every
        self.starts: list[float] = []  # when each pause began
        self.ends: list[float] = []  # when the program resumed
        self.blocks: list[float] = []  # each pause's block time
        self.resumed = 0.0

    def pause(self) -> None:
        self.starts.append(time.perf_counter())
        self.blocks.append(block())
        self.resumed = time.perf_counter()
        self.ends.append(self.resumed)

    def mark(self) -> None:
        """A hook in the program was reached: pause if it is time to."""
        if time.perf_counter() - self.resumed >= self.every:
            self.pause()

    def scale(self, j: int) -> float:
        """Factor for the stretch that ends where pause ``j`` begins."""
        window = self.blocks[max(j - WINDOW, 0):j + WINDOW]
        return REFERENCE_US * 1e-6 / statistics.median(window)

    def span(self, a: float, b: float) -> tuple[float, float]:
        """Program time from ``a`` to ``b``, without the pauses in between:
        (as measured, at the reference speed)."""
        measured = scaled = 0.0
        j = bisect.bisect_right(self.starts, a)
        while j < len(self.starts) and self.starts[j] < b:
            measured += self.starts[j] - a
            scaled += (self.starts[j] - a) * self.scale(j)
            a = self.ends[j]
            j += 1
        return measured + (b - a), scaled + (b - a) * self.scale(j)
