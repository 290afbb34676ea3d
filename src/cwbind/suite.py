"""The cipher suite: Ed25519, X25519-hybrid encryption and AES-GCM, fixed.

``CipherSuite(secret_bits)`` implements the three primitives itself; the
length of the control words and symmetric keys (128, 192 or 256 bits) is its
only parameter:

  * public-key encryption -- X25519 key agreement wrapping the payload with
    authenticated AES-GCM under a 32-byte wrap key, so plaintexts of any
    length fit and decryption under a wrong private key fails detectably.
  * signatures            -- Ed25519, a signature with appendix: the signed
    message travels with the signature and ``verify_recover`` returns it
    after verification.
  * symmetric encryption  -- AES-GCM with the nonce
    SHA-512("cwbind/sym-nonce" | lp(key) | lp(aad) | lp(plaintext))[:12],
    built in one join; ``tests/vectors/suite.json`` pins these bytes. Seeded
    runs are byte-identical; every value the protocols encrypt is fresh
    random material, so nonce determinism never repeats a (key, nonce) pair
    with two plaintexts.

``keygen`` returns a key pair only after its self-test (a PKE round trip, or
a signature that verifies); any failure raises ``CryptoError`` naming it.
The self-test signature is verified directly, outside the ``_verify`` memo
below, since it is never checked again. Honest parties (the authority,
senders, receivers) draw their keys through ``keygen``. The simulated
adversary's forged signing keys are attack inputs no one relies on, so
``sim`` loads them with ``load_sig_keypair(rng.read(32))``: the same pair
from the same bytes without the test, which draws nothing from ``rng``.

SHA-512 (the binding, the nonce, the wrap key, the scrambler, the Drbg) is
called from ``hashlib`` directly.

All randomness is drawn from a Drbg, a hash-counter generator: two runs from
equal seeds produce byte-identical output. Production-grade entropy is a
non-goal; reproducibility is the point.

Every entitled decoder of a CA system opens the same ECM under the same key,
and every certificate chip checks the same certificate and revocation list,
so three results are memoised, each in one ``functools.lru_cache`` of a fixed
size that no option or variable changes: the ``AESGCM`` context per key
(``_aead``, 8 entries), the plaintext of each successful AES-GCM open
(``_open``, 32 entries, shared by ``sym_decrypt`` and ``open_sealed``), and
each successful Ed25519 verification keyed by (public key, signature, message)
(``_verify``, 64 entries). ``_open`` is keyed by (key, nonce || body,
associated data): ``sym_decrypt`` passes the ciphertext object as it arrived,
which every client of an ECM shares, so a hit slices nothing and hashes no
bytes anew (a bytes object computes its hash once); ``open_sealed`` passes
nonce || tag and associated data || body. The key stays injective because the
nonce has a fixed length. A memo entry exists only for inputs that already
passed the full check. A failure raises out of the cached function, so it is
never cached: a wrong key, nonce, tag, body, associated data or signature is
checked again on every call and raises ``CryptoError`` each time. A repeated
key load never reaches ``_verify``: its chip takes it unopened
(``phase1.open_blob``).

The ``_aead`` memo serves keys many parties share: the group and ECM keys
of each CA system. A PKE wrap key is used once at each end, so
``pke_encrypt`` and ``pke_decrypt`` each build a context for that call
alone and open without ``_open``: in the memos it would only evict keys
that come back. A party that uses its own key every time instead holds an
``AeadSlot``: the CA client for the long-term-key wrap in
``decoder.derive_msg``, each chip's protocol receiver state for the unwrap
in ``phase2_receive``, both ends of each receiver's channel key (the
head-end's slot per provisioned receiver and the client's
``channel_slot``) for the per-receiver EMMs, and the simulated adversary's
slot per probed decoder (in ``sim.AdversaryState.probes``) for the key
its DERIVE wraps under, new only when the adversary rebuilds its load. A
de-authorization re-ships the ECM key to every remaining subscriber, one
EMM under each one's channel key, so a burst names N distinct keys in a
row; an 8-entry LRU over them misses on every key once N > 8 and evicts the
shared keys on the way. A slot keeps the context of the last key used
through it and changes it only when the key differs, so no population size
rebuilds the AES key schedule per use. A slot open bypasses ``_open``: a
chip's DERIVE and a client's per-receiver EMM are each seen once, so
memoising them would only push an ECM out of the shared memo. A slot caches
a key schedule, never an outcome; a failed open raises ``CryptoError`` on
every call. Slots and ``_aead`` draw contexts from one table of weak
references (``_live``), so the slots naming a key share its one context:
client and chip for a long-term key, head-end and client for a channel key.
A context (about 2.4 KiB, cryptography 48.0.0) is freed when its last
holder moves on; the table holds none and has no size.
"""

from __future__ import annotations

import hashlib
import weakref
from dataclasses import dataclass, field
from functools import lru_cache, partial

from cryptography.exceptions import InvalidSignature, InvalidTag
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)
from cryptography.hazmat.primitives.asymmetric.x25519 import (
    X25519PrivateKey,
    X25519PublicKey,
)
from cryptography.hazmat.primitives.ciphers.aead import AESGCM

from .encoding import U32, Reader, lp, u64
from .errors import CryptoError

_RAW = serialization.Encoding.Raw
_RAW_PUB = serialization.PublicFormat.Raw

GCM_NONCE_LEN = 12
GCM_TAG_LEN = 16
_TRAILER = GCM_NONCE_LEN + GCM_TAG_LEN  # the overhead of one AES-GCM output
PUBLIC_KEY_LEN = 32  # Ed25519 and X25519 alike

VALID_SECRET_BITS = (128, 192, 256)


class Drbg:
    """Deterministic byte generator: block ``i`` is SHA-512(seed || i)."""

    def __init__(self, seed: bytes):
        self.seed = bytes(seed)
        self.counter = 0
        self._buf = b""

    @classmethod
    def from_int(cls, seed: int) -> "Drbg":
        if not 0 <= seed < 1 << 64:
            raise ValueError(f"seed {seed} outside 0..2**64-1")
        return cls(u64(seed))

    def read(self, n: int) -> bytes:
        if n < 0:
            raise ValueError(f"cannot read {n} bytes")
        while len(self._buf) < n:
            self._buf += hashlib.sha512(self.seed + u64(self.counter)).digest()
            self.counter += 1
        out, self._buf = self._buf[:n], self._buf[n:]
        return out

    def child(self, label: str | bytes) -> "Drbg":
        """Independent generator derived from this seed and a label.

        Child derivation never consumes from the parent stream, so wiring
        order of components does not perturb their draws.
        """
        if isinstance(label, str):
            label = label.encode()
        return Drbg(hashlib.sha512(self.seed + b"/child/" + label).digest())


@dataclass(frozen=True)
class KeyPair:
    """A key pair; ``loaded`` is ``private_key`` as the suite loaded it
    when it built the pair, so signing and decryption never parse it again."""

    public_key: bytes
    private_key: bytes = field(repr=False)
    loaded: Ed25519PrivateKey | X25519PrivateKey = field(repr=False, compare=False)


@dataclass(frozen=True)
class SignedMessage:
    """A message together with its signature (signature with appendix)."""

    message: bytes
    signature: bytes

    def to_bytes(self) -> bytes:
        return lp(self.message) + lp(self.signature)

    @classmethod
    def from_bytes(cls, data: bytes) -> "SignedMessage":
        r = Reader(data)
        sm = cls(message=r.take_lp(), signature=r.take_lp())
        r.done()
        return sm


# ---------------------------------------------------------------------------
# memoised primitives (successes only; see the module docstring)
# ---------------------------------------------------------------------------


class _Context:
    """An ``AESGCM`` context's methods, held where a weak reference can name them."""

    __slots__ = ("encrypt", "decrypt", "__weakref__")


# key -> weak reference to its live context, whose death pops the entry (C-level)
_live: dict[bytes, weakref.ref] = {}


def _context(key: bytes) -> _Context:
    """The live context of ``key``, built only if no holder has one."""
    ref = _live.get(key)
    context = None if ref is None else ref()
    if context is None:
        aead, context = AESGCM(key), _Context()
        context.encrypt, context.decrypt = aead.encrypt, aead.decrypt
        _live[key] = weakref.ref(context, partial(_live.pop, key))
    return context


class AeadSlot:
    """One holder's hold on the shared AES-GCM context of the last key it
    used. Its repr shows no key, and a deep copy is an empty slot."""

    __slots__ = ("_key", "_context")

    def __init__(self) -> None:
        self._key: bytes | None = None
        self._context: _Context | None = None

    def context(self, key: bytes) -> _Context:
        if key != self._key:
            self._context = _context(key)
            self._key = key
        return self._context

    def __repr__(self) -> str:
        return "AeadSlot()"

    def __deepcopy__(self, memo) -> "AeadSlot":
        return AeadSlot()


_aead = lru_cache(maxsize=8)(_context)


@lru_cache(maxsize=32)
def _open(key: bytes, ciphertext: bytes, aad: bytes) -> bytes:
    """AES-GCM open of ``nonce || body``; raises ``InvalidTag`` (uncached)
    on any mismatch."""
    return _aead(key).decrypt(ciphertext[:GCM_NONCE_LEN], ciphertext[GCM_NONCE_LEN:], aad)


@lru_cache(maxsize=64)
def _verify(public_key: bytes, signature: bytes, message: bytes) -> None:
    """Ed25519 verification; raises (uncached) unless the signature holds."""
    Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)


# ---------------------------------------------------------------------------
# AES-GCM and key helpers; the wrap key of PKE skips the secret-length check
# ---------------------------------------------------------------------------


def _nonce(key: bytes, aad: bytes, plaintext: bytes) -> bytes:
    material = b"".join((b"cwbind/sym-nonce", U32.pack(len(key)), key, U32.pack(len(aad)),
                         aad, U32.pack(len(plaintext)), plaintext))
    return hashlib.sha512(material).digest()[:GCM_NONCE_LEN]


def _wrap_key(shared: bytes, eph_pub: bytes, recipient_pub: bytes) -> bytes:
    """The PKE payload key; it binds the ephemeral and recipient public keys."""
    material = b"cwbind/hybrid-wrap" + lp(shared) + lp(eph_pub) + lp(recipient_pub)
    return hashlib.sha512(material).digest()[:32]


def _pair(private_cls: type, private_key: bytes) -> KeyPair:
    sk = private_cls.from_private_bytes(private_key)
    return KeyPair(sk.public_key().public_bytes(_RAW, _RAW_PUB), private_key, sk)


class CipherSuite:
    """The fixed suite; ``secret_bits`` is the length of every control word
    and symmetric key. A PKE ciphertext is the ephemeral public key, then
    AES-GCM under the 32-byte wrap key with both public keys as associated
    data, so a bit flip anywhere in it is rejected."""

    def __init__(self, secret_bits: int = 128):
        if secret_bits not in VALID_SECRET_BITS:
            raise ValueError(f"secret_bits must be one of {VALID_SECRET_BITS}, got {secret_bits}")
        self.secret_bits = secret_bits
        self.secret_bytes = secret_bits // 8

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CipherSuite) and self.secret_bits == other.secret_bits

    def __hash__(self) -> int:
        return hash(self.secret_bits)

    def keygen(self, purpose: str, rng: Drbg) -> KeyPair:
        if purpose not in ("pke", "sig"):
            raise ValueError(f"unknown keygen purpose: {purpose!r}")
        try:
            if purpose == "pke":
                pair = _pair(X25519PrivateKey, rng.read(32))
                probe = b"\x5a" * 16
                ciphertext = self.pke_encrypt(pair.public_key, probe, rng)
                passed = self.pke_decrypt(pair, ciphertext) == probe
            else:
                # verified outside ``_verify``: this signature is never checked again
                pair = _pair(Ed25519PrivateKey, rng.read(32))
                sm = self.sign(pair, b"self-test")
                Ed25519PublicKey.from_public_bytes(pair.public_key).verify(sm.signature,
                                                                           sm.message)
                passed = sm.message == b"self-test"
        except (CryptoError, InvalidSignature):
            passed = False
        if not passed:
            raise CryptoError(f"fresh {purpose} key pair failed its self-test")
        return pair

    def load_sig_keypair(self, private_key: bytes) -> KeyPair:
        """Rebuild a stored signature key pair from its private half."""
        return _pair(Ed25519PrivateKey, private_key)

    def pke_encrypt(self, public_key: bytes, plaintext: bytes, rng: Drbg) -> bytes:
        eph = X25519PrivateKey.from_private_bytes(rng.read(32))
        eph_pub = eph.public_key().public_bytes(_RAW, _RAW_PUB)
        shared = eph.exchange(X25519PublicKey.from_public_bytes(public_key))
        wrap = _wrap_key(shared, eph_pub, public_key)
        aad = eph_pub + public_key
        nonce = _nonce(wrap, aad, plaintext)
        return eph_pub + nonce + AESGCM(wrap).encrypt(nonce, plaintext, aad)

    def pke_decrypt(self, pair: KeyPair, ciphertext: bytes) -> bytes:
        if len(ciphertext) < PUBLIC_KEY_LEN:
            raise CryptoError("hybrid ciphertext too short")
        eph_pub, body = ciphertext[:PUBLIC_KEY_LEN], ciphertext[PUBLIC_KEY_LEN:]
        try:
            shared = pair.loaded.exchange(X25519PublicKey.from_public_bytes(eph_pub))
        except ValueError as exc:
            raise CryptoError("invalid ephemeral public key") from exc
        wrap = _wrap_key(shared, eph_pub, pair.public_key)
        if len(body) < _TRAILER:
            raise CryptoError("ciphertext too short")
        try:
            return AESGCM(wrap).decrypt(body[:GCM_NONCE_LEN], body[GCM_NONCE_LEN:],
                                        eph_pub + pair.public_key)
        except InvalidTag as exc:
            raise CryptoError("authenticated decryption failed") from exc

    def sign(self, pair: KeyPair, message: bytes) -> SignedMessage:
        if not message:
            raise ValueError("refusing to sign an empty message")
        return SignedMessage(message=message, signature=pair.loaded.sign(message))

    def verify_recover(self, public_key: bytes, sm: SignedMessage) -> bytes:
        try:
            _verify(public_key, sm.signature, sm.message)
        except (InvalidSignature, ValueError) as exc:
            raise CryptoError("signature verification failed") from exc
        return sm.message

    def sym_encrypt(self, key: bytes, plaintext: bytes, aad: bytes = b"",
                    slot: AeadSlot | None = None) -> bytes:
        """AES-GCM under the deterministic nonce, ``nonce || body``, through
        the holder's ``slot`` when given."""
        if len(key) != self.secret_bytes:
            raise ValueError(f"symmetric key must be {self.secret_bytes} bytes, got {len(key)}")
        nonce = _nonce(key, aad, plaintext)
        aead = _aead(key) if slot is None else slot.context(key)
        return nonce + aead.encrypt(nonce, plaintext, aad)

    def sym_decrypt(self, key: bytes, ciphertext: bytes, aad: bytes = b"",
                    slot: AeadSlot | None = None) -> bytes:
        """Decrypt under ``key``, through the holder's ``slot`` when given."""
        if len(key) != self.secret_bytes:
            raise ValueError(f"symmetric key must be {self.secret_bytes} bytes, got {len(key)}")
        if len(ciphertext) < _TRAILER:
            raise CryptoError("ciphertext too short")
        try:
            if slot is None:
                return _open(key, ciphertext, aad)
            return slot.context(key).decrypt(ciphertext[:GCM_NONCE_LEN],
                                             ciphertext[GCM_NONCE_LEN:], aad)
        except InvalidTag as exc:
            raise CryptoError("authenticated decryption failed") from exc

    def seal(self, key: bytes, body: bytes, aad: bytes = b"") -> bytes:
        """Integrity-only protection for broadcast payloads: the clear body,
        then nonce and tag."""
        nonce = _nonce(key, aad, body)
        return body + nonce + _aead(key).encrypt(nonce, b"", aad + body)

    def open_sealed(self, key: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        if len(sealed) < _TRAILER:
            raise CryptoError("sealed blob too short")
        body = sealed[:-_TRAILER]
        try:
            _open(key, sealed[-_TRAILER:], aad + body)  # nonce || tag
        except InvalidTag as exc:
            raise CryptoError("integrity check failed") from exc
        return body
