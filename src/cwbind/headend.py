"""Head-end orchestration: CA systems, shared components, scrambling, EMM/ECM emission.

One head-end carries any mix of CA systems over a single scrambled stream.
Each system's kind is a ``cwbind.kinds.CaKind`` record, the one place that
says how kinds differ; the head-end reads its fields:

  * ``binds`` -- binding-protocol systems. The shared components draw one
    random value per epoch and derive the control word by hashing it with the
    sorted set of all binding senders' public keys; each such system's ECM
    carries the random value, and its key set travels as ``PK_SET_UPDATE``.
  * ``certified`` -- certificate-protocol systems. Their ECMs carry the
    control word itself; a sender rotation revokes the old certificate.
  * ``proto`` None -- legacy systems with no chip-level protocol and no
    sender; their ECMs also carry the control word, and their clients pass
    it to the chip unwrapped.

If no bind system is configured the control word is drawn directly from the
RNG. With at least one, every system observes the same (epoch, control word)
pair: interoperation over one stream requires nothing more.

Per-receiver phase 2 wrapping happens inside the decoder's CA client, never
on the broadcast: the head-end only ships the group-protected ECM, so the
protocol adds no per-receiver broadcast traffic per epoch.

Channel keys: each receiver's CA client is provisioned (factory step) with a
per-receiver key; enrollment delivers the broadcast group key under it, and
entitlement delivers the ECM key. The ECM key rotates whenever a receiver is
de-authorized, so possession of the current key always coincides with the
authorized set. Compliant and legacy ECMs are both emitted every epoch.

The head-end holds the authority (``ttp``) and a copy of its directory,
refreshed only when the authority rotates, that each phase 1 reads. A
certificate sender rotation revokes in ``ttp`` alone, harmlessly: phase 1
reads only receiver entries; chips learn of the revocation by ``CRL_UPDATE``.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from . import bindproto, certproto
from .encoding import BROADCAST_ADDR, encode_id
from .errors import ProtocolError
from .kinds import CaKind
from .phase1 import SenderState
from .suite import CipherSuite, Drbg
from .ttp import Directory, TtpState, revoke, signed_revocation_list
from .wire import (
    BROADCAST_KINDS,
    BroadcastFrame,
    Ecm,
    Emm,
    EmmKind,
    build_enroll_body,
    build_entitlement_body,
    build_pk_set_body,
    ecm_aad,
    emm_aad,
)

@dataclass
class CaSystem:
    index: int
    kind: CaKind
    suite: CipherSuite
    sender: SenderState | None  # a ``CertSenderState`` on certificate systems
    group_key: bytes = field(repr=False, default=b"")
    ecm_key: bytes = field(repr=False, default=b"")
    # per provisioned receiver: its channel key
    receiver_channels: dict[bytes, bytes] = field(default_factory=dict, repr=False)
    enrolled: set[bytes] = field(default_factory=set)
    authorized: set[bytes] = field(default_factory=set)
    pending_emms: list[Emm] = field(default_factory=list)


@dataclass
class HeadendState:
    suite: CipherSuite
    rng: Drbg
    ca_systems: list[CaSystem]
    ttp: TtpState  # certifies and revokes certificate systems' sender keys
    directory: Directory  # the authority's directory as of its last rotation
    epoch: int = 0
    pk_set: tuple[bytes, ...] = ()  # every binding sender's key, sorted
    scrambler_key: bytes | None = field(default=None, repr=False)


def _bind_pk_set(headend: HeadendState) -> tuple[bytes, ...]:
    return tuple(sorted(
        ca.sender.sig_keypair.public_key
        for ca in headend.ca_systems
        if ca.kind.binds
    ))


def _queue(ca: CaSystem, kind: EmmKind, body: bytes, addressee: bytes = BROADCAST_ADDR) -> None:
    """Protect ``body`` as its kind requires (``cwbind.wire``) and queue the EMM."""
    aad = emm_aad(ca.index, kind, addressee)
    if kind in BROADCAST_KINDS:
        payload = ca.suite.seal(ca.group_key, body, aad)
    else:
        payload = ca.suite.sym_encrypt(ca.receiver_channels[addressee], body, aad)
    ca.pending_emms.append(Emm(ca.index, kind, addressee, payload))


def _queue_announcement(ca: CaSystem) -> None:
    """Broadcast the sender's announcement: its certificate, or its bare public key."""
    if ca.kind.certified:
        _queue(ca, ca.kind.announce, ca.sender.sender_cert.to_bytes())
    elif ca.kind.announce is not None:
        _queue(ca, ca.kind.announce, ca.sender.sig_keypair.public_key)


def _queue_pk_set_updates(headend: HeadendState, systems: list[CaSystem]) -> None:
    """Distribute the full bind-sender key set through the binding ``systems``.

    Only needed when systems interoperate; a lone bind system's decoders
    learn its key from the ordinary announcement.
    """
    if len(headend.pk_set) < 2:
        return
    for ca in systems:
        if ca.kind.binds:
            _queue(ca, EmmKind.PK_SET_UPDATE, build_pk_set_body(headend.pk_set))


def headend_init(suite: CipherSuite, kinds: list[CaKind], rng: Drbg,
                 ttp: TtpState, directory: Directory) -> HeadendState:
    """Build one CA system per kind record. Certificate systems need the
    authority to issue their sender certificates, and the head-end keeps it,
    with its ``directory``, to re-certify them on rotation and to look
    receivers up; binding systems involve no authority call."""
    systems: list[CaSystem] = []
    for index, kind in enumerate(kinds):
        sender = None
        if kind.certified:
            sender = certproto.sender_init(suite, encode_id(index + 1), rng, ttp)
        elif kind.proto is not None:
            sender = bindproto.sender_init(suite, rng)
        ca = CaSystem(index=index, kind=kind, suite=suite, sender=sender)
        ca.group_key = rng.read(suite.secret_bytes)
        ca.ecm_key = rng.read(suite.secret_bytes)
        systems.append(ca)
    headend = HeadendState(suite=suite, rng=rng, ca_systems=systems, ttp=ttp,
                           directory=directory)
    headend.pk_set = _bind_pk_set(headend)
    for ca in systems:
        _queue_announcement(ca)
    _queue_pk_set_updates(headend, systems)
    return headend


def provision_receiver(headend: HeadendState, ca_index: int,
                       receiver_id: bytes, channel_key: bytes) -> None:
    """Factory step: share the per-receiver CA channel key with the system."""
    headend.ca_systems[ca_index].receiver_channels[receiver_id] = channel_key


def enroll_receiver(headend: HeadendState, ca_index: int, receiver_id: bytes) -> None:
    """Run phase 1 for one receiver, against the head-end's current
    directory, and queue its enrollment EMM.

    The enrollment payload carries the signed blob, the long-term key copy
    for the client, the broadcast group key, and the current sender
    announcement, all protected under the receiver's provisioning key.
    """
    ca = headend.ca_systems[ca_index]
    if receiver_id not in ca.receiver_channels:
        raise ProtocolError(f"receiver {int.from_bytes(receiver_id, 'big')} not provisioned")

    if ca.kind.proto is None:
        body = build_enroll_body(b"", b"", ca.group_key, b"")
    else:
        bundle = ca.kind.proto.phase1_send(ca.sender, headend.directory, receiver_id,
                                           headend.rng)
        body = build_enroll_body(bundle.signed_blob, ca.sender.ltk_store[receiver_id],
                                 ca.group_key, bundle.announce)

    _queue(ca, EmmKind.PER_RECEIVER_ENROLL, body, receiver_id)
    ca.enrolled.add(receiver_id)
    # interoperating deployments: the fresh client needs the co-senders' keys,
    # and any set broadcast that predated its enrollment was unverifiable
    _queue_pk_set_updates(headend, [ca])


def _queue_entitlements(ca: CaSystem, receiver_ids: Iterable[bytes],
                        entitled: bool = True) -> None:
    """Queue one entitlement EMM per receiver, in the given order; the
    body, which carries the current ECM key or withdraws it, is built once."""
    body = build_entitlement_body(entitled, ca.ecm_key if entitled else b"")
    kind = EmmKind.PER_RECEIVER_ENTITLEMENT
    for receiver_id in receiver_ids:
        _queue(ca, kind, body, receiver_id)


def authorize(headend: HeadendState, ca_index: int,
              receiver_id: bytes, entitled: bool) -> None:
    """Update the authorized set and deliver or withdraw the ECM key.

    De-authorizing rotates the ECM key and re-delivers it to the remaining
    authorized receivers, so the key shared by entitled clients always
    matches the authorized set exactly. That burst builds the entitlement
    body once and seals it under each receiver's channel key.
    """
    ca = headend.ca_systems[ca_index]
    if receiver_id not in ca.enrolled:
        raise ProtocolError("cannot change authorization of an unenrolled receiver")
    if entitled:
        # always queue the delivery: re-authorizing a receiver whose client
        # was re-personalized must re-ship the current key
        ca.authorized.add(receiver_id)
        _queue_entitlements(ca, (receiver_id,))
    elif receiver_id in ca.authorized:
        ca.authorized.discard(receiver_id)
        ca.ecm_key = headend.rng.read(headend.suite.secret_bytes)
        _queue_entitlements(ca, (receiver_id,), entitled=False)
        _queue_entitlements(ca, sorted(ca.authorized))


def rotate_sender_key(headend: HeadendState, ca_index: int, rng: Drbg) -> None:
    """Replace one CA system's sender key pair and re-run phase 1.

    Certificate systems additionally have the head-end's authority revoke
    the old certificate and issue a fresh one; binding systems touch no
    authority at all. Phase 1 runs against the head-end's current directory.
    The ECM key is rotated too: a sender-key compromise is assumed to have
    exposed the CA system's channel material. Every enrolled receiver is
    re-enrolled, and the re-keying burst builds the entitlement body once
    for all authorized receivers.
    """
    ca = headend.ca_systems[ca_index]
    if ca.kind.proto is None:
        raise ProtocolError("legacy CA system has no sender key")

    if ca.kind.certified:
        old_serial = ca.sender.sender_cert.serial
        certproto.refresh_sender_key(ca.sender, rng, headend.ttp)
        revoke(headend.ttp, old_serial)
        _queue(ca, EmmKind.CRL_UPDATE, signed_revocation_list(headend.ttp).to_bytes())
    else:
        bindproto.refresh_sender_key(ca.sender, rng)
        headend.pk_set = _bind_pk_set(headend)
        _queue_pk_set_updates(headend, headend.ca_systems)

    _queue_announcement(ca)
    ca.ecm_key = headend.rng.read(headend.suite.secret_bytes)
    for receiver_id in sorted(ca.enrolled):
        enroll_receiver(headend, ca_index, receiver_id)
    _queue_entitlements(ca, sorted(ca.authorized))


def epoch_tick(headend: HeadendState, content: bytes) -> BroadcastFrame:
    """Produce one epoch's broadcast frame.

    Draws the epoch randomness, derives or adopts the control word,
    scrambles the content, and emits one ECM per CA system plus all pending
    EMMs. The frame is emitted whether or not anyone is authorized.
    """
    if not headend.ca_systems:
        raise ProtocolError("head-end has no CA system configured")
    suite = headend.suite
    rand: bytes | None = None
    if headend.pk_set:
        # one random value per epoch, of the secret's length, bound to the
        # sorted key set of every binding sender
        rand = headend.rng.read(suite.secret_bytes)
        control_word = suite.bound_secret(headend.pk_set, rand, suite.secret_bits)
    else:
        control_word = headend.rng.read(suite.secret_bytes)
    headend.scrambler_key = control_word

    epoch = headend.epoch
    ecms = []
    emms: list[Emm] = []
    for ca in headend.ca_systems:
        secret = rand if ca.kind.binds else control_word
        aad = ecm_aad(ca.index, epoch)
        ecms.append(Ecm(ca.index, epoch, suite.sym_encrypt(ca.ecm_key, secret, aad), aad))
        emms += ca.pending_emms
        ca.pending_emms = []

    frame = BroadcastFrame(epoch, suite.scramble(control_word, epoch, content), tuple(ecms),
                           tuple(emms))
    headend.epoch = epoch + 1
    return frame
