"""Certificate-free key transport with hash-bound epoch secrets (the new shape).

Receivers are initialized with nothing but their own decryption private key:
no authority key is installed and none is consulted, which is what lets a
receiver survive a full authority compromise untouched. Phase 1 delivers a
long-term key under the sender's *bare* public key; the receiver files the
key under exactly the public key that verified the delivery. Phase 2
transports a secret random value, and both ends derive the epoch secret by
hashing that value together with the sender public key set.

The derivation is what protects message authenticity: a forger using any
other key pair can make a receiver complete the protocol, but the receiver
then derives a secret bound to the forger's key, never the honest sender's.
Nothing here requires the public key distribution itself to be protected.
The signed blob and the phase 2 wrap are the ones both shapes share
(``cwbind.phase1``).

Senders that interoperate on one epoch secret necessarily trust each other
already (they share the secret); this module does not model trust between
them beyond accepting a multi-key set in the derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .binding import bound_secret
from .encoding import Reader, encode_id, lp
from .errors import ProtocolError
from .phase1 import SenderState, open_blob, phase2_send, seal_ltk  # noqa: F401 (re-export)
from .suite import AeadSlot, CipherSuite, Drbg, KeyPair, SignedMessage
from .ttp import Directory


@dataclass(frozen=True)
class BindBundle:
    """Phase 1 message set: bare sender public key plus the signed key blob."""

    sender_pk: bytes
    signed_blob: SignedMessage

    def to_bytes(self) -> bytes:
        return lp(self.sender_pk) + lp(self.signed_blob.to_bytes())

    @classmethod
    def from_bytes(cls, data: bytes) -> "BindBundle":
        r = Reader(data)
        sender_pk = r.take_lp()
        blob = SignedMessage.from_bytes(r.take_lp())
        r.done()
        return cls(sender_pk, blob)


@dataclass
class BindReceiverState:
    # Deliberately no authority key field anywhere in this state.
    suite: CipherSuite
    receiver_id: bytes
    enc_keypair: KeyPair
    ltk_by_sender: dict[bytes, bytes] = field(default_factory=dict, repr=False)
    active_pk_set: tuple[bytes, ...] = ()  # sorted, as the derivation takes it
    ltk_slot: AeadSlot = field(default_factory=AeadSlot, repr=False, compare=False)


def sender_init(suite: CipherSuite, sender_id: bytes | int, rng: Drbg,
                directory: Directory) -> SenderState:
    """Generate the sender key pair. No authority interaction happens here."""
    return SenderState(suite, encode_id(sender_id), suite.keygen("sig", rng), directory)


def receiver_init(suite: CipherSuite, receiver_id: bytes | int, rng: Drbg) -> BindReceiverState:
    return BindReceiverState(
        suite=suite,
        receiver_id=encode_id(receiver_id),
        enc_keypair=suite.keygen("pke", rng),
    )


def refresh_sender_key(sender: SenderState, rng: Drbg) -> None:
    """Generate a new sender key pair."""
    sender.sig_keypair = sender.suite.keygen("sig", rng)


def phase1_send(sender: SenderState, receiver_id: bytes | int, rng: Drbg) -> BindBundle:
    """Produce the phase 1 bundle for one receiver and remember the new key."""
    blob = seal_ltk(sender, receiver_id, rng)
    return BindBundle(sender_pk=sender.sig_keypair.public_key, signed_blob=blob)


def phase1_receive(recv: BindReceiverState, bundle: BindBundle) -> None:
    """Verify under the delivered key and file the long-term key under it.

    Filing under the verifying key is load-bearing: a bundle re-signed by an
    interloper stores its key under the interloper's public key, so later
    derivations that name the honest sender's key cannot find or use it.
    A second delivery for the same sender key overwrites the stored key,
    which is how re-enrollment after a sender key change works.
    """
    recv.ltk_by_sender[bundle.sender_pk] = open_blob(recv, bundle.sender_pk, bundle.signed_blob)


def shared_epoch_secret(pk_set: tuple[bytes, ...], rng: Drbg,
                        n_bits: int) -> tuple[bytes, bytes]:
    """Draw the secret random value and derive the epoch secret from it.

    This is the head-end's shared step: one random value per epoch, one
    derived secret, identical for every interoperating sender. The random
    value has the same length as the derived secret.
    """
    rand = rng.read(n_bits // 8)
    secret = bound_secret(tuple(sorted(pk_set)), rand, n_bits)
    return rand, secret


def phase2_receive(recv: BindReceiverState, sender_pk: bytes, ciphertext: bytes,
                   context: bytes = b"") -> bytes:
    """Unwrap the random value and derive the epoch secret bound to the keys.

    The unwrap goes through the receiver's own ``ltk_slot``, which holds the
    context of the last long-term key used, whichever sender it is filed
    under.

    The key set fed to the derivation is the receiver's active set when one
    has been installed, otherwise the singleton of the delivering sender's
    key (the single-sender deployment). The delivering key must be in the
    set either way, and the random value must have the secret's length.
    The active set is stored sorted (``decoder.chip_process`` sorts it), so
    the derivation takes it as it is.
    """
    ltk = recv.ltk_by_sender.get(sender_pk)
    if ltk is None:
        raise ProtocolError("no long-term key stored under this sender key")
    rand = recv.suite.sym_decrypt(ltk, ciphertext, context, recv.ltk_slot)
    if len(rand) != recv.suite.secret_bytes:
        raise ProtocolError("random value does not have the derived secret's length")
    pk_set = recv.active_pk_set or (sender_pk,)
    if sender_pk not in pk_set:
        raise ProtocolError("delivering sender key is not in the active key set")
    return bound_secret(pk_set, rand, recv.suite.secret_bits)
