"""Decoder: updatable CA client plus content-decryption chip.

The two halves are isolated state machines joined by an explicit channel the
adversary can observe and write to, which is why every message crossing it is
a protocol message the chip checks rather than a bare key. The chip holds the
receiver private key and never lets it, a long-term key, or a derived control
word out; the only thing a successful derivation yields is an opaque handle
that the descrambler alone consumes.

Chip channel message (``u8 kind | lp(payload)``)::

    1 LOAD_LTK       phase 1 bundle: lp(announcement) | lp(signed blob)
    2 DERIVE         cert: u32 epoch | lp(wrapped control word)
                     bind: u32 epoch | lp(sender pk) | lp(wrapped random value)
    3 PK_SET_UPDATE  u16 n, n*lp(pk)          (bind chips only)
    4 CRL_UPDATE     signed revocation list   (cert chips only)
    5 LOAD_CW        u32 epoch | lp(raw control word)

``derive_msg`` and ``load_cw_msg`` build DERIVE and LOAD_CW; LOAD_LTK
carries ``phase1.Bundle.to_bytes`` for either kind, whose announcement is the
sender certificate or the bare sender key. DERIVE and LOAD_CW are split in
one pass, and ``Reader`` rejects whatever that pass does not accept; a
DERIVE's first four bytes are the epoch label its wrap authenticates. A chip
issues a handle only for a control word of the suite's secret length.

The chip takes a byte-identical repeat of the last LOAD_LTK or
PK_SET_UPDATE it accepted without running it again, as an EMM cycle or a
re-sent probe brings (``ChipState``, written once the step returned). A
load's outcome rests on its bytes, the chip's fixed key pair and, on a
certificate chip, the immutable anchor and the revocation list, so an
accepted CRL_UPDATE forgets the load. Any other payload is checked in full,
a refused one keeps the record, and every DERIVE is checked.

LOAD_CW is the legacy channel: legacy chips accept it unchecked, which is
exactly their weakness. Compliant chips reject the kind outright, so knowing
a control word's value never lets an adversary feed it to them.

Client and chip are one record each for every kind. Both hold their
``cwbind.kinds.CaKind``, the one place that says how kinds differ; the chip
also holds its protocol's receiver state (``None`` on a legacy chip).

The CA client is replaceable while the chip stays: swapping in a freshly
personalized client models a downloaded client update after a client-side
breach. A repeated phase 1 delivery for the same sender key overwrites the
stored long-term key (re-enrollment after rotation).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import NamedTuple

from . import bindproto, certproto
from .encoding import U32, Reader, lp, u8
from .errors import CwbindError, ProtocolError, WireError
from .kinds import CaKind
from .phase1 import Bundle
from .suite import PUBLIC_KEY_LEN, CipherSuite, Drbg, SignedMessage
from .ttp import parse_revocation_list
from .wire import (
    BROADCAST_KINDS,
    Ecm,
    Emm,
    EmmKind,
    build_pk_set_body,
    emm_aad,
    parse_enroll_body,
    parse_entitlement_body,
    parse_pk_set_body,
)

class ChipMsgKind(IntEnum):
    LOAD_LTK = 1
    DERIVE = 2
    PK_SET_UPDATE = 3
    CRL_UPDATE = 4
    LOAD_CW = 5


WORD_KINDS = frozenset((ChipMsgKind.DERIVE, ChipMsgKind.LOAD_CW))  # a derivation attempt
# bound once for the per-decoder path: an enum member loaded through its class costs a lookup
_DERIVE = ChipMsgKind.DERIVE
_LOAD_CW = ChipMsgKind.LOAD_CW
_ENTITLEMENT = EmmKind.PER_RECEIVER_ENTITLEMENT
_WORD_HEADER = struct.Struct(">II")  # a DERIVE or LOAD_CW payload's epoch and first length


class ChipChannelMsg(NamedTuple):
    kind: ChipMsgKind
    payload: bytes

    def encode(self) -> bytes:
        return u8(int(self.kind)) + lp(self.payload)

    @classmethod
    def decode(cls, data: bytes) -> "ChipChannelMsg":
        r = Reader(data)
        kind_code = r.take_u8()
        try:
            kind = ChipMsgKind(kind_code)
        except ValueError:
            raise WireError(
                f"unknown chip message kind {kind_code} at offset {r.offset - 1}"
            ) from None
        payload = r.take_lp()
        r.done()
        return cls(kind, payload)


def derive_msg(suite: CipherSuite, ltk: bytes, epoch: int, secret: bytes,
               sender_pk: bytes | None) -> ChipChannelMsg:
    """DERIVE: ``secret`` wrapped under ``ltk`` with the epoch label
    authenticated. Binding chips are told the sender key it was filed under;
    certificate chips (``sender_pk`` None) hold one long-term key."""
    label = U32.pack(epoch)
    wrapped = suite.sym_encrypt(ltk, secret, label)
    if sender_pk is None:
        return ChipChannelMsg(_DERIVE, label + U32.pack(len(wrapped)) + wrapped)
    return ChipChannelMsg(_DERIVE, b"".join((label, U32.pack(len(sender_pk)), sender_pk,
                                             U32.pack(len(wrapped)), wrapped)))


def load_cw_msg(epoch: int, control_word: bytes) -> ChipChannelMsg:
    """LOAD_CW: a raw control word, which only a legacy chip accepts."""
    return ChipChannelMsg(_LOAD_CW, _WORD_HEADER.pack(epoch, len(control_word)) + control_word)


class ControlWordHandle:
    """Epoch-scoped capability to descramble; never reveals the key bytes."""

    __slots__ = ("epoch", "_control_word")

    def __init__(self, epoch: int, control_word: bytes):
        self.epoch = epoch
        self._control_word = control_word

    def __repr__(self) -> str:
        return f"ControlWordHandle(epoch={self.epoch})"


# ---------------------------------------------------------------------------
# CA client
# ---------------------------------------------------------------------------


@dataclass
class CaClientState:
    suite: CipherSuite
    ca_system_id: int
    receiver_id: bytes
    kind: CaKind
    channel_key: bytes = field(repr=False)
    group_key: bytes | None = field(default=None, repr=False)
    ecm_key: bytes | None = field(default=None, repr=False)
    announce: bytes | None = None  # current sender certificate bytes, or bare key
    co_sender_pks: tuple[bytes, ...] = ()
    ltk_by_sender: dict[bytes, bytes] = field(default_factory=dict, repr=False)  # by announce
    last_pk_set_sent: tuple[bytes, ...] = ()


def _pk_set_msg_if_changed(client: CaClientState) -> list[ChipChannelMsg]:
    pks = set(client.co_sender_pks)
    if client.announce is not None:
        pks.add(client.announce)
    current = tuple(sorted(pks))
    if current and current != client.last_pk_set_sent:
        client.last_pk_set_sent = current
        return [ChipChannelMsg(ChipMsgKind.PK_SET_UPDATE, build_pk_set_body(current))]
    return []


def client_process_emm(client: CaClientState, emm: Emm) -> list[ChipChannelMsg]:
    """Turn one EMM into chip channel messages.

    Messages for other systems or other addressees produce nothing; a
    protection failure on a message meant for this client raises, and so
    does an authentic one carrying a key not of the suite's secret length,
    before any state changes.
    """
    ca_system_id, kind, addressee, payload = emm
    if ca_system_id != client.ca_system_id:
        return []
    per_receiver = kind not in BROADCAST_KINDS
    if per_receiver and addressee != client.receiver_id:
        return []
    aad = emm_aad(ca_system_id, kind, addressee)

    if per_receiver:
        suite = client.suite
        body = suite.sym_decrypt(client.channel_key, payload, aad)
        if kind == _ENTITLEMENT:
            entitled, ecm_key = parse_entitlement_body(body)
            if entitled and len(ecm_key) != suite.secret_bytes:
                raise ProtocolError(f"ECM key is not {suite.secret_bytes} bytes")
            client.ecm_key = ecm_key if entitled else None
            return []
        blob, ltk_copy, group_key, announce = parse_enroll_body(body)
        if len(group_key) != suite.secret_bytes or (
                client.kind.proto is not None and len(ltk_copy) != suite.secret_bytes):
            raise ProtocolError(f"enrollment carries a key that is not {suite.secret_bytes} bytes")
        client.group_key = group_key
        if client.kind.proto is None:
            return []
        client.announce = announce
        client.ltk_by_sender[announce] = ltk_copy
        msgs = [ChipChannelMsg(ChipMsgKind.LOAD_LTK, Bundle(announce, blob).to_bytes())]
        if client.kind.binds:
            msgs.extend(_pk_set_msg_if_changed(client))
        return msgs

    # broadcast kinds: ignorable until the group key arrives with enrollment
    if client.group_key is None:
        return []
    body = client.suite.open_sealed(client.group_key, payload, aad)
    if kind not in client.kind.acts_on:
        return []
    if kind == EmmKind.CRL_UPDATE:
        return [ChipChannelMsg(ChipMsgKind.CRL_UPDATE, body)]
    if kind == EmmKind.PK_SET_UPDATE:
        client.co_sender_pks = parse_pk_set_body(body)
    else:  # the announcement: certificate bytes, or the raw sender public key
        client.announce = body
    return _pk_set_msg_if_changed(client) if client.kind.binds else []


def client_process_ecm(client: CaClientState, ecm: Ecm) -> ChipChannelMsg | None:
    """Derive the epoch secret from the ECM and wrap it for the chip.

    An unentitled client emits nothing. The per-chip wrapping step happens
    here, inside the decoder: its output never touches the broadcast.
    """
    if ecm.ca_system_id != client.ca_system_id:
        return None
    if client.ecm_key is None:
        return None
    secret = client.suite.sym_decrypt_shared(client.ecm_key, ecm.protected_secret, ecm.aad)
    if client.kind.proto is None:
        return load_cw_msg(ecm.epoch, secret)
    ltk = client.ltk_by_sender.get(client.announce)
    if ltk is None:  # also when no sender key is known yet (not enrolled)
        raise ProtocolError("client holds no long-term key for the current sender key")
    return derive_msg(client.suite, ltk, ecm.epoch, secret,
                      client.announce if client.kind.binds else None)


# ---------------------------------------------------------------------------
# chip
# ---------------------------------------------------------------------------


@dataclass
class ChipState:
    kind: CaKind
    suite: CipherSuite
    receiver: certproto.CertReceiverState | bindproto.BindReceiverState | None = None
    current_epoch: int = -1
    # the last accepted LOAD_LTK and PK_SET_UPDATE payloads (the repeat rule)
    last_load: bytes | None = field(default=None, repr=False, compare=False)
    last_pk_set: bytes | None = field(default=None, repr=False, compare=False)


def _split_word_msg(payload: bytes, named: bool) -> tuple[int, bytes | None, bytes]:
    """Read a ``derive_msg`` or ``load_cw_msg`` payload in one pass: the
    epoch, the sender key when ``named``, then the wrapped or raw word.
    ``Reader`` rejects what that pass refuses, with its own messages."""
    end = len(payload)
    if end >= 8:  # both layouts have a length at offset 4
        epoch, size = _WORD_HEADER.unpack_from(payload)
        offset = 8 + size
        if not named:
            if offset == end:
                return epoch, None, payload[8:]
        elif offset + 4 <= end and offset + 4 + U32.unpack_from(payload, offset)[0] == end:
            return epoch, payload[8:offset], payload[offset + 4:]
    r = Reader(payload)
    r.take(4)
    r.take_lp()
    if named:
        r.take_lp()
    r.done()


def chip_process(chip: ChipState, msg: ChipChannelMsg) -> ControlWordHandle | None:
    """Run one chip channel message through the protocol checks.

    Every check failure raises and leaves the chip state unchanged. Only a
    DERIVE (or legacy LOAD_CW) yields a handle, and all of them are issued
    at the one tail below: only for a control word of the suite's secret
    length, and only then does the chip's epoch watermark move.
    """
    kind, recv = chip.kind, chip.receiver
    # a compliant chip's DERIVE first: every authorized decoder-epoch carries one
    if msg.kind == _DERIVE and kind.proto is not None:
        payload = msg.payload
        epoch, sender_pk, wrapped = _split_word_msg(payload, kind.binds)
        # the epoch label (the payload's first four bytes) is authenticated
        # inside the wrap: a relabeled delivery fails before it can move the
        # epoch watermark
        if kind.binds:
            control_word = bindproto.phase2_receive(recv, sender_pk, wrapped, payload[:4])
        else:
            control_word = certproto.phase2_receive(recv, wrapped, payload[:4])
    elif kind.proto is None:
        if msg.kind != _LOAD_CW:
            raise ProtocolError("legacy chip only accepts raw control words")
        epoch, _, control_word = _split_word_msg(msg.payload, False)
    elif msg.kind == _LOAD_CW:
        raise ProtocolError("raw control word is not an accepted message kind")
    elif msg.kind == ChipMsgKind.LOAD_LTK:
        if msg.payload != chip.last_load:
            kind.proto.phase1_receive(recv, Bundle.from_bytes(msg.payload))
            chip.last_load = msg.payload
        return None
    elif msg.kind == ChipMsgKind.CRL_UPDATE and EmmKind.CRL_UPDATE in kind.acts_on:
        crl = SignedMessage.from_bytes(msg.payload)
        recv.known_revoked = parse_revocation_list(recv.suite, crl, recv.authority_pk)
        chip.last_load = None  # a new list may revoke the load's sender
        return None
    elif msg.kind == ChipMsgKind.PK_SET_UPDATE and EmmKind.PK_SET_UPDATE in kind.acts_on:
        if msg.payload == chip.last_pk_set:
            return None
        pks = parse_pk_set_body(msg.payload)
        if not pks:
            raise ProtocolError("empty sender key set")
        # the set must be one the binding can derive from, or the next
        # DERIVE would fail outside the protocol checks
        if any(len(pk) != PUBLIC_KEY_LEN for pk in pks):
            raise ProtocolError(f"sender key set holds a key that is not {PUBLIC_KEY_LEN} bytes")
        if len(set(pks)) != len(pks):
            raise ProtocolError("sender key set repeats a key")
        recv.active_pk_set = tuple(sorted(pks))
        chip.last_pk_set = msg.payload
        return None
    else:
        raise ProtocolError(f"{kind.name} chip rejects message kind {msg.kind.name}")

    # the descrambler is keyed by exactly this length; any other would fail
    # outside the protocol checks
    if len(control_word) != chip.suite.secret_bytes:
        raise ProtocolError(f"control word is not {chip.suite.secret_bytes} bytes")
    if epoch > chip.current_epoch:
        chip.current_epoch = epoch
    return ControlWordHandle(epoch, control_word)


def descramble(chip: ChipState, handle: ControlWordHandle, scrambled: bytes) -> bytes:
    """Descramble under a handle; stale (out-of-epoch) handles are refused."""
    if handle.epoch != chip.current_epoch:
        raise ProtocolError(
            f"stale control word handle (epoch {handle.epoch}, chip at {chip.current_epoch})"
        )
    return chip.suite.scramble(handle._control_word, handle.epoch, scrambled)


# ---------------------------------------------------------------------------
# whole-decoder assembly
# ---------------------------------------------------------------------------


@dataclass
class Decoder:
    decoder_id: bytes
    ca_index: int
    client: CaClientState
    chip: ChipState

    def chip_public_key(self) -> bytes | None:
        if self.chip.receiver is None:
            return None
        return self.chip.receiver.enc_keypair.public_key


def make_decoder(suite: CipherSuite, kind: CaKind, ca_index: int, decoder_id: bytes,
                 rng: Drbg, channel_key: bytes, authority_generation: int,
                 authority_pk: bytes) -> Decoder:
    """Manufacture a decoder of the ``kind`` record: generate the chip key
    pair (if any) and personalize the CA client with its provisioning key.

    ``decoder_id`` is the decoder's 8-byte id (``encoding.encode_id``). The
    trust anchor, the authority generation and public key, is the current
    one at manufacture; a certificate chip is bound to it for life: it
    accepts only sender certificates of that generation signed by that key,
    so after the authority rotates it must be replaced. Other chips ignore
    both."""
    chip = ChipState(kind, suite)
    if kind.certified:
        chip.receiver = certproto.receiver_init(suite, decoder_id, authority_generation,
                                                authority_pk, rng)
    elif kind.proto is not None:
        chip.receiver = bindproto.receiver_init(suite, decoder_id, rng)
    client = CaClientState(suite, ca_index, decoder_id, kind, channel_key)
    return Decoder(decoder_id=decoder_id, ca_index=ca_index, client=client, chip=chip)


def swap_client(decoder: Decoder, new_channel_key: bytes) -> None:
    """Replace the CA client with a freshly personalized one, keeping the chip.

    Models a client update after a client-side compromise: all client-held
    keys are discarded; the chip state is untouched.
    """
    old = decoder.client
    decoder.client = CaClientState(old.suite, old.ca_system_id, old.receiver_id, old.kind,
                                   new_channel_key)


@dataclass(slots=True)
class FrameResult:
    """What one decoder did with one frame."""

    chip_msgs: list[ChipChannelMsg]
    descrambled: bytes | None
    errors: list[str]


def process_frame(decoder: Decoder, frame, chip_filter) -> FrameResult:
    """Feed a broadcast frame through client and chip.

    The client sees only the EMMs and ECMs the frame routes to it
    (``BroadcastFrame.emms_for``, ``BroadcastFrame.ecms_for``): its system's
    broadcast-kind EMMs, the per-receiver EMMs addressed to it and its
    system's ECM, in frame order. Every other message is one it would drop
    unread, so the work per decoder does not grow with the messages meant
    for other decoders or systems.

    ``chip_filter``, unless ``None``, receives the chip channel message list
    and returns the list actually delivered: this is the observable,
    attackable channel between the two halves.
    """
    msgs: list[ChipChannelMsg] = []
    errors: list[str] = []
    client = decoder.client
    for emm in frame.emms_for(client.ca_system_id, client.receiver_id):
        try:
            msgs += client_process_emm(client, emm)
        except CwbindError as exc:  # a protocol rejection is an outcome; a bug is not
            errors.append(f"emm:{exc}")
    for ecm in frame.ecms_for(client.ca_system_id):
        try:
            msg = client_process_ecm(client, ecm)
            if msg is not None:
                msgs.append(msg)
        except CwbindError as exc:
            errors.append(f"ecm:{exc}")

    if chip_filter is not None:
        msgs = chip_filter(msgs)

    chip = decoder.chip
    handle = None
    for msg in msgs:
        try:
            result = chip_process(chip, msg)
        except CwbindError as exc:
            errors.append(f"chip:{exc}")
            continue
        if result is not None:
            handle = result

    descrambled = None
    if handle is not None:
        try:
            descrambled = descramble(chip, handle, frame.scrambled_content)
        except CwbindError as exc:
            errors.append(f"descramble:{exc}")
    return FrameResult(msgs, descrambled, errors)
