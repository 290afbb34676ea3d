"""Canonical byte-level encoding helpers.

Every variable-length field in this package is length-prefixed with a
4-byte big-endian length, and every fixed-width integer is big-endian.
The Reader tracks its offset so decode errors can name the exact byte
position that failed.
"""

from __future__ import annotations

import struct

from .errors import WireError

BROADCAST_ADDR = b"\xff" * 8
U32 = struct.Struct(">I")  # every length prefix, and every u32 field


def u8(value: int) -> bytes:
    return struct.pack(">B", value)


def u16(value: int) -> bytes:
    return struct.pack(">H", value)


def u32(value: int) -> bytes:
    return U32.pack(value)


def u64(value: int) -> bytes:
    return struct.pack(">Q", value)


def lp(data: bytes) -> bytes:
    """Length-prefix: 4-byte big-endian length followed by the bytes."""
    return U32.pack(len(data)) + data


def encode_id(identity: int) -> bytes:
    """Canonical 8-byte big-endian identity."""
    return struct.pack(">Q", identity)


def id_as_int(identity: bytes) -> int:
    return int.from_bytes(identity, "big")


class Reader:
    """Sequential reader over immutable bytes with offset-aware errors."""

    def __init__(self, data: bytes):
        self.data = data
        self.offset = 0

    def take(self, n: int) -> bytes:
        if self.offset + n > len(self.data):
            raise WireError(
                f"truncated input: wanted {n} bytes at offset {self.offset}, "
                f"have {len(self.data) - self.offset}"
            )
        out = self.data[self.offset : self.offset + n]
        self.offset += n
        return out

    def take_u8(self) -> int:
        return self.take(1)[0]

    def take_u16(self) -> int:
        return struct.unpack(">H", self.take(2))[0]

    def take_u32(self) -> int:
        return struct.unpack(">I", self.take(4))[0]

    def take_u64(self) -> int:
        return struct.unpack(">Q", self.take(8))[0]

    def take_lp(self) -> bytes:
        return self.take(int.from_bytes(self.take(4), "big"))

    def expect(self, magic: bytes, what: str) -> None:
        got = self.take(len(magic))
        if got != magic:
            raise WireError(
                f"bad {what} at offset {self.offset - len(magic)}: "
                f"expected {magic!r}, got {got!r}"
            )

    def done(self) -> None:
        if self.offset != len(self.data):
            raise WireError(
                f"{len(self.data) - self.offset} trailing bytes at offset {self.offset}"
            )
