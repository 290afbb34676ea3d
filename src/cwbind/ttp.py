"""Trusted third party: registration, certificates, revocation, key rotation.

The registry holds only *public* receiver keys. That asymmetry is the crux of
the recovery story: rotating the authority key pair re-issues every receiver
certificate without touching any receiver secret, so receivers that never
trusted the authority key directly (the binding protocol) survive a full
authority compromise unchanged.

Secure transfer of keys to and from the authority ("initialization",
certificate requests) is modeled as a trusted in-process call.

Directory export wire format (magic ``TD``, version 1)::

    "TD" | u8 version | signed body (SignedMessage)
    body = u32 generation | lp(authority pk)
         | u16 n_prior | n_prior * (u32 generation | lp(pk))
         | u16 n_certs | n_certs * lp(certificate)
         | u32 n_revoked | n_revoked * u64 serial

The body is signed by the current authority key, so consumers holding any
trusted copy of it can authenticate the whole bundle, revocation list
included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .encoding import Reader, lp, u16, u32, u64, u8
from .errors import ProtocolError, WireError
from .suite import CipherSuite, Drbg, KeyPair, SignedMessage

ROLE_SENDER = "sender"
ROLE_RECEIVER = "receiver"
_ROLE_CODE = {ROLE_SENDER: 1, ROLE_RECEIVER: 2}
_CODE_ROLE = {v: k for k, v in _ROLE_CODE.items()}


@dataclass(frozen=True)
class Certificate:
    serial: int
    subject_id: bytes
    subject_role: str
    subject_pk: bytes
    generation: int
    signature: SignedMessage

    @staticmethod
    def signed_payload(serial: int, subject_id: bytes, subject_role: str,
                       subject_pk: bytes, generation: int) -> bytes:
        """The signed fields; ``subject_id`` is an 8-byte id (ValueError otherwise)."""
        if len(subject_id) != 8:
            raise ValueError(f"subject id must be 8 bytes, got {len(subject_id)}")
        return (
            u64(serial)
            + subject_id
            + u8(_ROLE_CODE[subject_role])
            + lp(subject_pk)
            + u32(generation)
        )

    @classmethod
    def issue(cls, suite: CipherSuite, keypair: KeyPair, serial: int, subject_id: bytes,
              role: str, subject_pk: bytes, generation: int) -> "Certificate":
        """A certificate over these fields, signed under the authority ``keypair``."""
        payload = cls.signed_payload(serial, subject_id, role, subject_pk, generation)
        return cls(serial, subject_id, role, subject_pk, generation, suite.sign(keypair, payload))

    def to_bytes(self) -> bytes:
        return self.signature.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "Certificate":
        sm = SignedMessage.from_bytes(data)
        r = Reader(sm.message)
        serial = r.take_u64()
        subject_id = r.take(8)
        role_code = r.take_u8()
        if role_code not in _CODE_ROLE:
            raise WireError(f"unknown certificate role code {role_code} at offset {r.offset - 1}")
        subject_pk = r.take_lp()
        generation = r.take_u32()
        r.done()
        return cls(serial, subject_id, _CODE_ROLE[role_code], subject_pk, generation, sm)


def verify_certificate(suite: CipherSuite, cert: Certificate, authority_pk: bytes) -> None:
    """Verify the signature and that the parsed fields are the signed ones.

    Raises CryptoError on a bad signature, ProtocolError on a field mismatch.
    """
    recovered = suite.verify_recover(authority_pk, cert.signature)
    expected = Certificate.signed_payload(
        cert.serial, cert.subject_id, cert.subject_role, cert.subject_pk, cert.generation
    )
    if recovered != expected:
        raise ProtocolError("certificate fields do not match the signed payload")


@dataclass(frozen=True)
class Directory:
    """Immutable snapshot of the authority's public material."""

    generation: int
    authority_pk: bytes
    prior_authority_pks: tuple[tuple[int, bytes], ...]
    certificates: tuple[Certificate, ...]
    revoked_serials: frozenset[int]

    @cached_property
    def _receiver_certs(self) -> dict[bytes, Certificate]:
        out: dict[bytes, Certificate] = {}
        for cert in self.certificates:
            if cert.subject_role == ROLE_RECEIVER:
                out.setdefault(cert.subject_id, cert)  # the first certificate listed wins
        return out

    def receiver_cert(self, receiver_id: bytes) -> Certificate | None:
        return self._receiver_certs.get(receiver_id)


@dataclass
class TtpState:
    suite: CipherSuite
    keypair: KeyPair
    generation: int = 1
    receiver_registry: dict[bytes, bytes] = field(default_factory=dict)
    sender_registry: dict[bytes, bytes] = field(default_factory=dict)
    issued_certs: list[Certificate] = field(default_factory=list)
    revoked_serials: set[int] = field(default_factory=set)
    prior_pks: list[tuple[int, bytes]] = field(default_factory=list)
    next_serial: int = 1
    op_counts: dict[str, int] = field(default_factory=dict)

    def _count(self, op: str) -> None:
        self.op_counts[op] = self.op_counts.get(op, 0) + 1


def ttp_init(suite: CipherSuite, rng: Drbg) -> TtpState:
    return TtpState(suite=suite, keypair=suite.keygen("sig", rng))


def _issue(ttp: TtpState, subject_id: bytes, role: str, subject_pk: bytes) -> Certificate:
    cert = Certificate.issue(ttp.suite, ttp.keypair, ttp.next_serial, subject_id, role,
                             subject_pk, ttp.generation)
    ttp.next_serial += 1
    ttp.issued_certs.append(cert)
    return cert


def register_receiver(ttp: TtpState, receiver_id: bytes, receiver_pk: bytes) -> Certificate:
    ttp._count("register_receiver")
    if receiver_id in ttp.receiver_registry:
        raise ProtocolError(f"receiver {int.from_bytes(receiver_id, 'big')} already registered")
    cert = _issue(ttp, receiver_id, ROLE_RECEIVER, receiver_pk)  # refuses a bad id first
    ttp.receiver_registry[receiver_id] = receiver_pk
    return cert


def certify_sender(ttp: TtpState, sender_id: bytes, sender_pk: bytes) -> Certificate:
    ttp._count("certify_sender")
    if ttp.sender_registry.get(sender_id) == sender_pk:
        raise ProtocolError("sender already certified for this key")
    cert = _issue(ttp, sender_id, ROLE_SENDER, sender_pk)
    ttp.sender_registry[sender_id] = sender_pk
    return cert


def revoke(ttp: TtpState, serial: int) -> None:
    ttp._count("revoke")
    if not any(cert.serial == serial for cert in ttp.issued_certs):
        raise ProtocolError(f"cannot revoke unknown serial {serial}")
    ttp.revoked_serials.add(serial)


def rotate(ttp: TtpState, rng: Drbg) -> None:
    """Replace the authority key pair and re-issue all receiver certificates.

    The receiver registry (public keys) is untouched: the authority holds no
    receiver secret, so nothing receiver-side is invalidated. Sender
    certificates are not carried over; senders rejoin as if new.
    """
    ttp._count("rotate")
    ttp.prior_pks.append((ttp.generation, ttp.keypair.public_key))
    ttp.keypair = ttp.suite.keygen("sig", rng)
    ttp.generation += 1
    ttp.sender_registry = {}
    for receiver_id, receiver_pk in sorted(ttp.receiver_registry.items()):
        _issue(ttp, receiver_id, ROLE_RECEIVER, receiver_pk)


def export_directory(ttp: TtpState) -> bytes:
    """Serialize the current generation's public material, signed.

    ``issued_certs`` is the full issuance history; only certificates of the
    current generation are exported (older ones verify only under retired
    authority keys).
    """
    ttp._count("export_directory")
    current = [cert for cert in ttp.issued_certs if cert.generation == ttp.generation]
    parts = [u32(ttp.generation), lp(ttp.keypair.public_key), u16(len(ttp.prior_pks))]
    parts += [u32(generation) + lp(pk) for generation, pk in ttp.prior_pks]
    parts.append(u16(len(current)))
    parts += [lp(cert.to_bytes()) for cert in current]
    serials = sorted(ttp.revoked_serials)
    parts.append(u32(len(serials)))
    parts += [u64(serial) for serial in serials]
    body = b"".join(parts)  # one join: appending to bytes in a loop is quadratic
    return b"TD" + u8(1) + ttp.suite.sign(ttp.keypair, body).to_bytes()


def parse_directory(suite: CipherSuite, data: bytes) -> Directory:
    """Parse an exported directory and check its signature under the
    authority key it embeds (trust on first use, as when a head-end receives
    the key over the modeled secure channel)."""
    r = Reader(data)
    r.expect(b"TD", "directory magic")
    version = r.take_u8()
    if version != 1:
        raise WireError(f"unsupported directory version {version} at offset {r.offset - 1}")
    sm = SignedMessage(message=r.take_lp(), signature=r.take_lp())
    r.done()

    br = Reader(sm.message)
    generation = br.take_u32()
    authority_pk = br.take_lp()
    prior = tuple((br.take_u32(), br.take_lp()) for _ in range(br.take_u16()))
    certs = tuple(Certificate.from_bytes(br.take_lp()) for _ in range(br.take_u16()))
    revoked = frozenset(br.take_u64() for _ in range(br.take_u32()))
    br.done()

    suite.verify_recover(authority_pk, sm)
    return Directory(generation, authority_pk, prior, certs, revoked)


def signed_revocation_list(ttp: TtpState) -> SignedMessage:
    """Stand-alone signed revocation list for broadcast distribution."""
    ttp._count("signed_revocation_list")
    serials = sorted(ttp.revoked_serials)
    body = u32(len(serials)) + b"".join(u64(s) for s in serials)
    return ttp.suite.sign(ttp.keypair, body)


def parse_revocation_list(suite: CipherSuite, sm: SignedMessage, authority_pk: bytes) -> set[int]:
    body = suite.verify_recover(authority_pk, sm)
    r = Reader(body)
    serials = {r.take_u64() for _ in range(r.take_u32())}
    r.done()
    return serials
