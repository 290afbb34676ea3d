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
The phase 1 bundle, whose announcement here is the bare key, is the one
both shapes share (``cwbind.phase1``). The head-end draws each epoch's
random value (``headend.epoch_tick``); the CA client wraps it for its chip
(``decoder.derive_msg``).

Senders that interoperate on one epoch secret necessarily trust each other
already (they share the secret); this module does not model trust between
them beyond accepting a multi-key set in the derivation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ProtocolError
from .phase1 import Bundle, SenderState, open_blob, seal_ltk
from .suite import CipherSuite, Drbg, KeyPair
from .ttp import Directory


@dataclass
class BindReceiverState:
    # Deliberately no authority key field anywhere in this state.
    suite: CipherSuite
    receiver_id: bytes
    enc_keypair: KeyPair
    ltk_by_sender: dict[bytes, bytes] = field(default_factory=dict, repr=False)
    active_pk_set: tuple[bytes, ...] = ()  # sorted, as the derivation takes it


def sender_init(suite: CipherSuite, rng: Drbg) -> SenderState:
    """Generate the sender key pair. No authority interaction happens here."""
    return SenderState(suite, suite.keygen("sig", rng))


def receiver_init(suite: CipherSuite, receiver_id: bytes, rng: Drbg) -> BindReceiverState:
    return BindReceiverState(
        suite=suite,
        receiver_id=receiver_id,
        enc_keypair=suite.keygen("pke", rng),
    )


def refresh_sender_key(sender: SenderState, rng: Drbg) -> None:
    """Generate a new sender key pair."""
    sender.sig_keypair = sender.suite.keygen("sig", rng)


def phase1_send(sender: SenderState, directory: Directory, receiver_id: bytes,
                rng: Drbg) -> Bundle:
    """Produce the phase 1 bundle for one receiver ``directory`` lists,
    announcing the bare sender public key, and remember the new key."""
    return Bundle(sender.sig_keypair.public_key, seal_ltk(sender, directory, receiver_id, rng))


def phase1_receive(recv: BindReceiverState, bundle: Bundle) -> None:
    """Verify under the delivered key and file the long-term key under it.

    Filing under the verifying key is load-bearing: a bundle re-signed by an
    interloper stores its key under the interloper's public key, so later
    derivations that name the honest sender's key cannot find or use it.
    A second delivery for the same sender key overwrites the stored key,
    which is how re-enrollment after a sender key change works.
    """
    recv.ltk_by_sender[bundle.announce] = open_blob(recv, bundle.announce, bundle.signed_blob)


def phase2_receive(recv: BindReceiverState, sender_pk: bytes, ciphertext: bytes,
                   context: bytes) -> bytes:
    """Unwrap the random value and derive the epoch secret bound to the keys.

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
    rand = recv.suite.sym_decrypt(ltk, ciphertext, context)
    if len(rand) != recv.suite.secret_bytes:
        raise ProtocolError("random value does not have the derived secret's length")
    pk_set = recv.active_pk_set or (sender_pk,)
    if sender_pk not in pk_set:
        raise ProtocolError("delivering sender key is not in the active key set")
    return recv.suite.bound_secret(pk_set, rand, recv.suite.secret_bits)
