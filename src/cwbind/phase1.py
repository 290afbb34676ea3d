"""The key delivery both protocol shapes share: phase 1's signed blob and
phase 2's per-receiver wrap.

Both shapes deliver each receiver's long-term key the same way. The sender
looks the receiver up in its directory snapshot, refuses a revoked one,
draws a fresh long-term key, encrypts it to the receiver's public key and
signs the ciphertext together with the recipient id. The receiver verifies
the blob, checks that it is the recipient and decrypts. The shapes differ
only in how the receiver decides to trust the signing key, and that stays
in the protocol modules: ``certproto`` checks a certificate, ``bindproto``
files the key under the public key that verified it.

Signed blob layout (injective): 8-byte recipient id, then the
length-prefixed public-key ciphertext of the long-term key.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .encoding import Reader, encode_id, lp
from .errors import ProtocolError
from .suite import CipherSuite, Drbg, KeyPair, SignedMessage
from .ttp import Directory


@dataclass
class SenderState:
    suite: CipherSuite
    sender_id: bytes
    sig_keypair: KeyPair
    directory: Directory  # public snapshot; the head-end pushes each new one
    ltk_store: dict[bytes, bytes] = field(default_factory=dict, repr=False)


def seal_blob(suite: CipherSuite, sig_keypair: KeyPair, receiver_id: bytes,
              receiver_pk: bytes, ltk: bytes, rng: Drbg) -> SignedMessage:
    """Encrypt ``ltk`` to ``receiver_pk`` and sign it with the recipient id."""
    key_ct = suite.pke_encrypt(receiver_pk, ltk, rng)
    return suite.sign(sig_keypair, receiver_id + lp(key_ct))


def seal_ltk(sender: SenderState, receiver_id: bytes | int, rng: Drbg) -> SignedMessage:
    """Deliver a fresh long-term key to a listed, unrevoked receiver and
    remember it for phase 2."""
    receiver_id = encode_id(receiver_id)
    receiver_cert = sender.directory.receiver_cert(receiver_id)
    if receiver_cert is None:
        raise ProtocolError(f"receiver {int.from_bytes(receiver_id, 'big')} not in directory")
    if receiver_cert.serial in sender.directory.revoked_serials:
        raise ProtocolError("receiver certificate is revoked")
    ltk = rng.read(sender.suite.secret_bytes)
    blob = seal_blob(sender.suite, sender.sig_keypair, receiver_id, receiver_cert.subject_pk,
                     ltk, rng)
    sender.ltk_store[receiver_id] = ltk
    return blob


def open_blob(recv, signer_pk: bytes, blob: SignedMessage) -> bytes:
    """The long-term key a blob signed under ``signer_pk`` delivers to ``recv``.

    ``recv`` is either protocol's receiver state. A key of any length other
    than the suite's secret length is refused here, before anything is
    filed, since no later step could use it.
    """
    r = Reader(recv.suite.verify_recover(signer_pk, blob))
    intended = r.take(8)
    key_ct = r.take_lp()
    r.done()
    if intended != recv.receiver_id:
        raise ProtocolError("not the intended recipient")
    ltk = recv.suite.pke_decrypt(recv.enc_keypair, key_ct)
    if len(ltk) != recv.suite.secret_bytes:
        raise ProtocolError(f"long-term key is not {recv.suite.secret_bytes} bytes")
    return ltk


def phase2_send(sender: SenderState, receiver_id: bytes | int, secret: bytes,
                context: bytes = b"") -> bytes:
    """Wrap one epoch's secret (the binding shape's random value) for one
    authorized receiver under its long-term key.

    ``context`` is authenticated alongside the secret; the transport mapping
    uses it to bind the epoch number so relabeled deliveries are rejected.
    """
    receiver_id = encode_id(receiver_id)
    ltk = sender.ltk_store.get(receiver_id)
    if ltk is None:
        raise ProtocolError("receiver has no long-term key (phase 1 not run)")
    return sender.suite.sym_encrypt(ltk, secret, aad=context)
