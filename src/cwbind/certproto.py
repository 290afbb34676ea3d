"""Certificate-authenticated key transport (the pre-existing protocol shape).

Receivers are initialized with a trust anchor, the authority generation
and public key, and their own decryption private key. Phase 1 transports a
fresh long-term key to each receiver under the sender's *certified*
signature key; phase 2 wraps each epoch secret under the long-term key for
the authorized receivers.

Receiver-side checks in phase 1, in order: the announcement parses as a
certificate, which is of the anchor's generation, verifies under the
anchor's key, names a sender role, and is not on the known revocation list;
the signed blob verifies under the certified sender key; this receiver is
the intended recipient; the long-term key decrypts. The generation check
costs no signature work and rejects nothing the key would accept: the
authority signs only under its current generation and changes key and
generation together (``ttp.rotate``), so a certificate the anchor's key
verifies carries the anchor's generation.
A failure at any point aborts and leaves the receiver state unchanged.
The phase 1 bundle, whose announcement here is the certificate, is the one
both shapes share (``cwbind.phase1``); the CA client wraps each epoch secret
for its chip (``decoder.derive_msg``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ProtocolError
from .phase1 import Bundle, SenderState, open_blob, seal_ltk
from .suite import CipherSuite, Drbg, KeyPair
from .ttp import Certificate, Directory, ROLE_SENDER, TtpState, certify_sender, verify_certificate


@dataclass
class CertSenderState(SenderState):
    sender_id: bytes = field(kw_only=True)  # the subject of every certificate it obtains
    sender_cert: Certificate = field(kw_only=True)


@dataclass
class CertReceiverState:
    suite: CipherSuite
    receiver_id: bytes
    # the trust anchor: installed at initialization, immutable thereafter
    authority_generation: int
    authority_pk: bytes
    enc_keypair: KeyPair
    ltk: bytes | None = field(default=None, repr=False)
    known_revoked: set[int] = field(default_factory=set)


def sender_init(suite: CipherSuite, sender_id: bytes, rng: Drbg,
                ttp: TtpState) -> CertSenderState:
    """Generate the sender signature key pair and obtain its certificate."""
    pair = suite.keygen("sig", rng)
    cert = certify_sender(ttp, sender_id, pair.public_key)
    return CertSenderState(suite, pair, sender_id=sender_id, sender_cert=cert)


def receiver_init(suite: CipherSuite, receiver_id: bytes, authority_generation: int,
                  authority_pk: bytes, rng: Drbg) -> CertReceiverState:
    return CertReceiverState(
        suite=suite,
        receiver_id=receiver_id,
        authority_generation=authority_generation,
        authority_pk=authority_pk,
        enc_keypair=suite.keygen("pke", rng),
    )


def refresh_sender_key(sender: CertSenderState, rng: Drbg, ttp: TtpState) -> None:
    """Generate a new sender key pair and obtain a fresh certificate."""
    sender.sig_keypair = sender.suite.keygen("sig", rng)
    sender.sender_cert = certify_sender(ttp, sender.sender_id, sender.sig_keypair.public_key)


def phase1_send(sender: CertSenderState, directory: Directory, receiver_id: bytes,
                rng: Drbg) -> Bundle:
    """Produce the phase 1 bundle for one receiver ``directory`` lists,
    announcing the sender certificate, and remember the new key."""
    return Bundle(sender.sender_cert.to_bytes(), seal_ltk(sender, directory, receiver_id, rng))


def phase1_receive(recv: CertReceiverState, bundle: Bundle) -> None:
    """Parse the announcement as a certificate, run all receiver checks,
    then commit the long-term key."""
    cert = Certificate.from_bytes(bundle.announce)
    if cert.generation != recv.authority_generation:
        raise ProtocolError("sender certificate is not of the installed authority generation")
    verify_certificate(recv.suite, cert, recv.authority_pk)
    if cert.subject_role != ROLE_SENDER:
        raise ProtocolError("certificate subject is not a sender")
    if cert.serial in recv.known_revoked:
        raise ProtocolError("sender certificate is revoked")
    recv.ltk = open_blob(recv, cert.subject_pk, bundle.signed_blob)


def phase2_receive(recv: CertReceiverState, ciphertext: bytes, context: bytes) -> bytes:
    """Unwrap the epoch secret; authentication failure raises CryptoError."""
    if recv.ltk is None:
        raise ProtocolError("no long-term key established")
    return recv.suite.sym_decrypt(recv.ltk, ciphertext, context)
