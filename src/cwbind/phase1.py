"""Phase 1, the key delivery both protocol shapes share: the bundle and its
signed blob.

Both shapes deliver each receiver's long-term key the same way. The sender
looks the receiver up in the authority's directory, which its caller holds
and hands it (the head-end keeps the one current copy), refuses a revoked one,
draws a fresh long-term key, encrypts it to the receiver's public key and
signs the ciphertext together with the recipient id (``seal_ltk``, the one
place a blob is sealed). The receiver verifies the blob, checks that it is
the recipient and decrypts (``open_blob``). The shapes differ only in how
the receiver decides to trust the signing key, and that stays in the
protocol modules: ``certproto`` checks a certificate, ``bindproto`` files
the key under the verifying key.

Bundle layout (``Bundle.to_bytes``): lp(announcement) | lp(signed blob). The
announcement is the sender's certificate bytes or its bare public key, the
same bytes the head-end broadcasts as the sender announcement. Signed blob
layout (injective): 8-byte recipient id, then the length-prefixed public-key
ciphertext of the long-term key, signed (``SignedMessage``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .encoding import Reader, lp
from .errors import ProtocolError
from .suite import CipherSuite, Drbg, KeyPair, SignedMessage
from .ttp import Directory


@dataclass(frozen=True)
class Bundle:
    """Phase 1 message set: the sender announcement plus the signed key blob,
    both as the bytes they travel as."""

    announce: bytes
    signed_blob: bytes

    def to_bytes(self) -> bytes:
        return lp(self.announce) + lp(self.signed_blob)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Bundle":
        r = Reader(data)
        bundle = cls(r.take_lp(), r.take_lp())
        r.done()
        return bundle


@dataclass
class SenderState:
    """What a sender of either shape holds: its signing key pair and the
    long-term key it last sealed to each receiver. A certificate sender also
    holds its id and certificate (``certproto.CertSenderState``); a binding
    sender is known by its key alone. The directory it looks receivers up in
    is not its own: each phase 1 call is handed it."""

    suite: CipherSuite
    sig_keypair: KeyPair
    ltk_store: dict[bytes, bytes] = field(default_factory=dict, repr=False)


def seal_ltk(sender: SenderState, directory: Directory, receiver_id: bytes,
             rng: Drbg) -> bytes:
    """Deliver a fresh long-term key to a receiver ``directory`` lists and
    has not revoked, and remember it for phase 2."""
    receiver_cert = directory.receiver_cert(receiver_id)
    if receiver_cert is None:
        raise ProtocolError(f"receiver {int.from_bytes(receiver_id, 'big')} not in directory")
    if receiver_cert.serial in directory.revoked_serials:
        raise ProtocolError("receiver certificate is revoked")
    ltk = rng.read(sender.suite.secret_bytes)
    key_ct = sender.suite.pke_encrypt(receiver_cert.subject_pk, ltk, rng)
    sender.ltk_store[receiver_id] = ltk
    return sender.suite.sign(sender.sig_keypair, receiver_id + lp(key_ct)).to_bytes()


def open_blob(recv, signer_pk: bytes, blob: bytes) -> bytes:
    """The long-term key a blob signed under ``signer_pk`` delivers to ``recv``.

    ``recv`` is either protocol's receiver state. A key of any length other
    than the suite's secret length is refused here, before anything is
    filed, since no later step could use it.
    """
    r = Reader(recv.suite.verify_recover(signer_pk, SignedMessage.from_bytes(blob)))
    intended = r.take(8)
    key_ct = r.take_lp()
    r.done()
    if intended != recv.receiver_id:
        raise ProtocolError("not the intended recipient")
    ltk = recv.suite.pke_decrypt(recv.enc_keypair, key_ct)
    if len(ltk) != recv.suite.secret_bytes:
        raise ProtocolError(f"long-term key is not {recv.suite.secret_bytes} bytes")
    return ltk
