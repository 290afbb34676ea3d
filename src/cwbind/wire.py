"""Broadcast CA message formats and the protected head-end-to-client channel.

All formats are versioned, big-endian, and length-prefixed; real transport
stream packetization is out of scope. Control-word cadence is a logical epoch
counter: one epoch, one secret.

Entitlement management message (magic ``EM``, version 1)::

    "EM" | u8 version | u16 ca_system_id | u8 kind | 8-byte addressee | lp(payload)

    kind                      addressee   payload protection
    1 BROADCAST_SENDER_PK     broadcast   seal(group):         raw sender pk
    2 BROADCAST_CERT          broadcast   seal(group):         certificate bytes
    3 PER_RECEIVER_ENROLL     receiver    sym_encrypt(recv):   lp(blob) lp(ltk copy)
                                                               lp(group key) lp(announce)
    4 PER_RECEIVER_ENTITLEMENT receiver   sym_encrypt(recv):   u8 flag [lp(ecm key)]
    5 PK_SET_UPDATE           broadcast   seal(group):         u16 n, n*lp(pk)
    6 CRL_UPDATE              broadcast   seal(group):         signed serial list

Broadcast kinds are integrity-protected only (the content is public,
``CipherSuite.seal``/``open_sealed``); the per-receiver kinds are
confidentiality- and integrity-protected under the receiver's provisioning
key (``CipherSuite.sym_encrypt``/``sym_decrypt``). The fixed header is bound
as associated data in both cases.

Entitlement control message (magic ``EC``, version 1)::

    "EC" | u8 version | u16 ca_system_id | u32 epoch | lp(protected_secret)

The protected secret carries exactly one n-bit value (the epoch's random
value for binding-protocol systems, the control word otherwise), encrypted
under the entitlement key shared by the clients of currently authorized
decoders, with the fixed header (``Ecm.aad``, built once per ECM) as
associated data.

Broadcast frame (magic ``BF``, version 1), the unit of capture/replay::

    "BF" | u8 version | u32 epoch | lp(scrambled content)
         | u16 n_ecms, n*lp(ecm) | u16 n_emms, n*lp(emm)

Frames flow one way; no field exists for receiver responses. Every decoder
receives the whole frame, but its CA client acts only on its own system's
broadcast-kind EMMs (whatever their addressee) and on the per-receiver EMMs
addressed to it, and on its own system's ECM. A frame routes its EMMs and
ECMs to those recipients once, when built, so a decoder's work on a frame
does not grow with the messages meant for others
(``BroadcastFrame.emms_for``, ``BroadcastFrame.ecms_for``).

``emm_size`` and ``ecm_size`` give an encoded message's length from the
layouts above without encoding it, for byte accounting.

An ``Emm`` is an immutable value tuple, like ``decoder.ChipChannelMsg``,
equal only to an EMM with the same fields and never to an ``Ecm``; unlike a
frozen record it is built without a per-field ``__setattr__``.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

from .encoding import U32, Reader, lp, u16, u32, u8
from .errors import WireError

EMM_MAGIC = b"EM"
ECM_MAGIC = b"EC"
FRAME_MAGIC = b"BF"
WIRE_VERSION = 1
_EMM_HEADER = struct.Struct(">2sBHB")  # magic, version, ca_system_id, kind
_ECM_HEADER = struct.Struct(">2sBHI")  # magic, version, ca_system_id, epoch


class EmmKind(IntEnum):
    BROADCAST_SENDER_PK = 1
    BROADCAST_CERT = 2
    PER_RECEIVER_ENROLL = 3
    PER_RECEIVER_ENTITLEMENT = 4
    PK_SET_UPDATE = 5
    CRL_UPDATE = 6


BROADCAST_KINDS = frozenset(
    {EmmKind.BROADCAST_SENDER_PK, EmmKind.BROADCAST_CERT, EmmKind.PK_SET_UPDATE, EmmKind.CRL_UPDATE}
)


class Emm(NamedTuple):
    ca_system_id: int
    kind: EmmKind
    addressee: bytes  # 8-byte receiver id, or ``encoding.BROADCAST_ADDR``
    payload: bytes

    def is_broadcast(self) -> bool:  # by kind, whatever the addressee, as frames route it
        return self.kind in BROADCAST_KINDS


@dataclass(frozen=True)
class Ecm:
    """``aad`` is the fixed header (``ecm_aad``): the head-end hands over the
    one it encrypted under, and any other construction packs it here."""

    ca_system_id: int
    epoch: int
    protected_secret: bytes
    aad: bytes = field(default=b"", repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.aad:
            object.__setattr__(self, "aad", ecm_aad(self.ca_system_id, self.epoch))


@dataclass(frozen=True)
class BroadcastFrame:
    epoch: int
    scrambled_content: bytes
    ecms: tuple[Ecm, ...]
    emms: tuple[Emm, ...]
    # EMM frame positions: broadcast kinds under the bare ``ca_system_id``
    # whatever their addressee, per-receiver kinds under (id, addressee)
    _emm_routes: dict[int | tuple[int, bytes], list[int]] = field(
        init=False, repr=False, compare=False)
    _ecm_routes: dict[int, list[Ecm]] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        emm_routes: dict[int | tuple[int, bytes], list[int]] = {}
        for position, (ca_system_id, kind, addressee, _) in enumerate(self.emms):
            key = ca_system_id if kind in BROADCAST_KINDS else (ca_system_id, addressee)
            emm_routes.setdefault(key, []).append(position)
        ecm_routes: dict[int, list[Ecm]] = {}
        for ecm in self.ecms:
            ecm_routes.setdefault(ecm.ca_system_id, []).append(ecm)
        object.__setattr__(self, "_emm_routes", emm_routes)
        object.__setattr__(self, "_ecm_routes", ecm_routes)

    def emms_for(self, ca_system_id: int, receiver_id: bytes) -> Sequence[Emm]:
        """The EMMs a CA client of ``ca_system_id`` with ``receiver_id`` acts
        on, in frame order: the system's broadcast-kind EMMs and the
        per-receiver EMMs addressed to it."""
        routes = self._emm_routes
        if not routes:  # most frames carry no EMMs
            return ()
        shared = routes.get(ca_system_id)
        own = routes.get((ca_system_id, receiver_id))
        if shared is None and own is None:
            return ()
        positions = sorted(shared + own) if shared and own else shared or own
        emms = self.emms
        return [emms[i] for i in positions]

    def ecms_for(self, ca_system_id: int) -> Sequence[Ecm]:
        """The ECMs a CA client of ``ca_system_id`` acts on, in frame order."""
        return self._ecm_routes.get(ca_system_id, ())


def emm_aad(ca_system_id: int, kind: EmmKind, addressee: bytes) -> bytes:
    """The fixed EMM header, bound as associated data by payload protection."""
    return _EMM_HEADER.pack(EMM_MAGIC, WIRE_VERSION, ca_system_id, kind) + addressee


def ecm_aad(ca_system_id: int, epoch: int) -> bytes:
    """The fixed ECM header, bound as associated data by payload protection."""
    return _ECM_HEADER.pack(ECM_MAGIC, WIRE_VERSION, ca_system_id, epoch)


def encode_emm(emm: Emm) -> bytes:
    if len(emm.addressee) != 8:
        raise ValueError("addressee must be 8 bytes")
    return emm_aad(emm.ca_system_id, emm.kind, emm.addressee) + lp(emm.payload)


def emm_size(emm: Emm) -> int:
    """``len(encode_emm(emm))`` for an 8-byte addressee, without encoding:
    the 14-byte header, the 4-byte length prefix and the payload."""
    return 18 + len(emm.payload)


def decode_emm(data: bytes) -> Emm:
    r = Reader(data)
    r.expect(EMM_MAGIC, "EMM magic")
    version = r.take_u8()
    if version != WIRE_VERSION:
        raise WireError(f"unsupported EMM version {version} at offset {r.offset - 1}")
    ca_system_id = r.take_u16()
    kind_code = r.take_u8()
    try:
        kind = EmmKind(kind_code)
    except ValueError:
        raise WireError(f"unknown EMM kind {kind_code} at offset {r.offset - 1}") from None
    addressee = r.take(8)
    payload = r.take_lp()
    r.done()
    return Emm(ca_system_id, kind, addressee, payload)


def encode_ecm(ecm: Ecm) -> bytes:
    return ecm.aad + lp(ecm.protected_secret)


def ecm_size(ecm: Ecm) -> int:
    """``len(encode_ecm(ecm))`` without encoding: the 9-byte header, the
    4-byte length prefix and the protected secret."""
    return 13 + len(ecm.protected_secret)


def decode_ecm(data: bytes) -> Ecm:
    r = Reader(data)
    r.expect(ECM_MAGIC, "ECM magic")
    version = r.take_u8()
    if version != WIRE_VERSION:
        raise WireError(f"unsupported ECM version {version} at offset {r.offset - 1}")
    ca_system_id = r.take_u16()
    epoch = r.take_u32()
    protected_secret = r.take_lp()
    r.done()
    return Ecm(ca_system_id, epoch, protected_secret)


def encode_frame(frame: BroadcastFrame) -> bytes:
    out = FRAME_MAGIC + u8(WIRE_VERSION) + u32(frame.epoch) + lp(frame.scrambled_content)
    out += u16(len(frame.ecms))
    for ecm in frame.ecms:
        out += lp(encode_ecm(ecm))
    out += u16(len(frame.emms))
    for emm in frame.emms:
        out += lp(encode_emm(emm))
    return out


def decode_frame(data: bytes) -> BroadcastFrame:
    r = Reader(data)
    r.expect(FRAME_MAGIC, "frame magic")
    version = r.take_u8()
    if version != WIRE_VERSION:
        raise WireError(f"unsupported frame version {version} at offset {r.offset - 1}")
    epoch = r.take_u32()
    scrambled = r.take_lp()
    ecms = tuple(decode_ecm(r.take_lp()) for _ in range(r.take_u16()))
    emms = tuple(decode_emm(r.take_lp()) for _ in range(r.take_u16()))
    r.done()
    return BroadcastFrame(epoch, scrambled, ecms, emms)


# ---------------------------------------------------------------------------
# per-kind payload bodies (what goes inside the protection)
# ---------------------------------------------------------------------------


def build_enroll_body(blob: bytes, ltk_copy: bytes, group_key: bytes, announce: bytes) -> bytes:
    """Enrollment body: signed blob, long-term key copy for the client,
    broadcast group key, and the current sender announcement (certificate
    bytes or bare public key) so enrollment is self-contained."""
    return lp(blob) + lp(ltk_copy) + lp(group_key) + lp(announce)


def parse_enroll_body(body: bytes) -> tuple[bytes, bytes, bytes, bytes]:
    r = Reader(body)
    out = (r.take_lp(), r.take_lp(), r.take_lp(), r.take_lp())
    r.done()
    return out


def build_entitlement_body(entitled: bool, ecm_key: bytes = b"") -> bytes:
    if entitled:
        return u8(1) + lp(ecm_key)
    return u8(0)


def parse_entitlement_body(body: bytes) -> tuple[bool, bytes]:
    """Read ``build_entitlement_body``'s layout in one pass; ``Reader``
    rejects what that pass refuses, with its own messages and offsets."""
    end = len(body)
    if end >= 5 and body[0] == 1 and U32.unpack_from(body, 1)[0] == end - 5:
        return True, body[5:]
    if body == b"\x00":
        return False, b""
    r = Reader(body)
    flag = r.take_u8()
    if flag == 1:
        r.take_lp()
    elif flag:
        raise WireError(f"bad entitlement flag {flag} at offset 0")
    r.done()


def build_pk_set_body(pk_set: tuple[bytes, ...]) -> bytes:
    out = u16(len(pk_set))
    for pk in pk_set:
        out += lp(pk)
    return out


def parse_pk_set_body(body: bytes) -> tuple[bytes, ...]:
    r = Reader(body)
    pks = tuple(r.take_lp() for _ in range(r.take_u16()))
    r.done()
    return pks
