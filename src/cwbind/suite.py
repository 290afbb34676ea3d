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

``keygen`` returns a key pair only after a pairwise-consistency test (NIST
SP 800-56A Rev. 3, 5.6.2.1.4), raising ``CryptoError`` if it fails. An X25519
pair's Montgomery-ladder step X25519(k, 9) must give back the public half that
fixed-base multiplication made (RFC 7748, 6.1); an Ed25519 pair's signature
must verify, outside the ``_verify`` memo below (it is never checked again).
Neither test draws from ``rng``: a pair reads exactly 32 bytes. Every key
pair in a world, the adversary's forged signers' too, comes from ``keygen``.

SHA-512 (the binding, the nonce, the wrap key, the scrambler, the Drbg) is
called from ``hashlib`` directly.

All randomness is drawn from a Drbg, a hash-counter generator: two runs from
equal seeds produce byte-identical output. Production-grade entropy is a
non-goal; reproducibility is the point.

Memos. ``build_world`` makes one suite per world and hands it to every
party, so the suite owns every memo that the world's parties share, and
they are freed with the world; a deep copy of a party shares its world's
suite (``__deepcopy__`` returns the suite itself). Each memo is a
``functools.lru_cache`` of a fixed size that no option or variable changes,
made in ``__init__``:

  * ``_open`` (32 entries) -- the plaintext of each successful AES-GCM open
    that many parties repeat: ``sym_decrypt_shared`` for an ECM, which every
    entitled client of a CA system opens (and so does the adversary's read),
    and ``open_sealed`` for a broadcast EMM, which every client of the
    system opens. It is keyed by (key, nonce || body, associated data). An
    ECM's ciphertext object is the one all its clients pass, so a hit slices
    nothing and hashes no bytes anew (a bytes object computes its hash
    once); ``open_sealed`` passes nonce || tag and associated data || body.
    The key stays injective because the nonce has a fixed length.
  * ``_verify`` (64) -- each successful Ed25519 verification, keyed by
    (public key, signature, message): every certificate chip checks the
    same certificate and revocation list.
  * ``scramble`` (32) and its ``_keystream`` (32) -- the scrambler output
    by (control word, epoch, data), and the keystream by (control word,
    epoch, length). The head-end's scramble of an epoch sets up its one
    AES-CTR, the first authorized decoder XORs with the stored keystream,
    and every later one takes the stored bytes; a hit hashes no content
    anew, since every decoder passes the frame's one content object.
  * ``bound_secret`` (16) -- the binding by (sorted keys, random value,
    output bits); the head-end's tick fills it and the epoch's chips reuse
    the entry.

A memo entry exists only for inputs that already passed the full check. A
failure raises out of the cached function, so it is never cached: a wrong
key, nonce, tag, body, associated data, signature or binding input is
checked again on every call and raises each time. A descramble under a
wrong control word misses both scrambler memos and yields garbage.

The suite also keeps one ``AESGCM`` context per key (``_contexts``, a plain
dict). A key's first use in the world builds it; every later
``sym_encrypt``, ``sym_decrypt``, ``seal`` or ``_open`` miss under that key
takes it, so no population size rebuilds a key schedule per use, and the
CA client and chip (a long-term key), or the head-end and client (a channel
key), use one context. The dict has no fixed size: it holds one context
(about 2.4 KiB, cryptography 48.0.0) per distinct key the world used, 259,
932 and 909 at the end of seed-1 ``steady-simulcrypt``, ``churn-512`` and
``rekey-attack`` worlds. ``sym_decrypt`` opens what only one party sees, a
DERIVE or a per-receiver EMM, so it bypasses ``_open``: memoising those
would only push an ECM out. A PKE wrap key is used once at each end, so
``pke_encrypt`` and ``pke_decrypt`` build a context for that call alone.
A repeated key load never reaches ``_verify``: its chip takes it unopened
(``decoder.ChipState``).
"""

from __future__ import annotations

import hashlib
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

from . import binding, scramble
from .encoding import U32, Reader, lp, u64
from .errors import CryptoError

_RAW = serialization.Encoding.Raw
_RAW_PUB = serialization.PublicFormat.Raw

GCM_NONCE_LEN = 12
GCM_TAG_LEN = 16
_TRAILER = GCM_NONCE_LEN + GCM_TAG_LEN  # the overhead of one AES-GCM output
PUBLIC_KEY_LEN = 32  # Ed25519 and X25519 alike
_BASE_POINT = X25519PublicKey.from_public_bytes(b"\x09" + bytes(31))  # u = 9

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
# the uncached primitives the memos wrap (see the module docstring)
# ---------------------------------------------------------------------------


def _new_context(contexts: dict[bytes, AESGCM], key: bytes) -> AESGCM:
    """Build ``key``'s context and file it in ``contexts``. Callers look
    the key up with ``contexts.get`` first, so a hit costs no Python call."""
    contexts[key] = aead = AESGCM(key)
    return aead


def _decrypt(contexts: dict[bytes, AESGCM], key: bytes, ciphertext: bytes, aad: bytes) -> bytes:
    """AES-GCM open of ``nonce || body``; raises ``InvalidTag`` on any mismatch."""
    aead = contexts.get(key) or _new_context(contexts, key)
    return aead.decrypt(ciphertext[:GCM_NONCE_LEN], ciphertext[GCM_NONCE_LEN:], aad)


def _verify(public_key: bytes, signature: bytes, message: bytes) -> None:
    """Ed25519 verification; raises unless the signature holds."""
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
    data, so a bit flip anywhere in it is rejected. Each instance owns its
    memos and contexts (see the module docstring), looked up in
    ``scramble`` and ``binding`` when it is built; its repr shows no key."""

    def __init__(self, secret_bits: int = 128):
        if secret_bits not in VALID_SECRET_BITS:
            raise ValueError(f"secret_bits must be one of {VALID_SECRET_BITS}, got {secret_bits}")
        self.secret_bits = secret_bits
        self.secret_bytes = secret_bits // 8
        self._contexts: dict[bytes, AESGCM] = {}
        self._decrypt = partial(_decrypt, self._contexts)
        self._open = lru_cache(maxsize=32)(self._decrypt)
        self._verify = lru_cache(maxsize=64)(_verify)
        self._keystream = lru_cache(maxsize=32)(scramble.keystream)
        self.scramble = lru_cache(maxsize=32)(partial(scramble.scramble,
                                                      keystream=self._keystream))
        self.bound_secret = lru_cache(maxsize=16)(binding.bound_secret)

    def __repr__(self) -> str:
        return f"CipherSuite({self.secret_bits})"

    def __deepcopy__(self, memo) -> "CipherSuite":
        return self

    def keygen(self, purpose: str, rng: Drbg) -> KeyPair:
        if purpose not in ("pke", "sig"):
            raise ValueError(f"unknown keygen purpose: {purpose!r}")
        if purpose == "pke":
            pair = _pair(X25519PrivateKey, rng.read(32))
            passed = pair.loaded.exchange(_BASE_POINT) == pair.public_key
        else:
            # verified outside ``_verify``: this signature is never checked again
            pair = _pair(Ed25519PrivateKey, rng.read(32))
            sm = self.sign(pair, b"self-test")
            try:
                Ed25519PublicKey.from_public_bytes(pair.public_key).verify(sm.signature,
                                                                           sm.message)
            except InvalidSignature:
                passed = False
            else:
                passed = sm.message == b"self-test"
        if not passed:
            raise CryptoError(f"fresh {purpose} key pair failed its self-test")
        return pair

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
            self._verify(public_key, sm.signature, sm.message)
        except (InvalidSignature, ValueError) as exc:
            raise CryptoError("signature verification failed") from exc
        return sm.message

    def sym_encrypt(self, key: bytes, plaintext: bytes, aad: bytes = b"") -> bytes:
        """AES-GCM under the deterministic nonce, ``nonce || body``."""
        if len(key) != self.secret_bytes:
            raise ValueError(f"symmetric key must be {self.secret_bytes} bytes, got {len(key)}")
        nonce = _nonce(key, aad, plaintext)
        aead = self._contexts.get(key) or _new_context(self._contexts, key)
        return nonce + aead.encrypt(nonce, plaintext, aad)

    def sym_decrypt(self, key: bytes, ciphertext: bytes, aad: bytes = b"") -> bytes:
        """Decrypt what one party alone opens (a DERIVE, a per-receiver
        EMM) under ``key``, outside ``_open``."""
        return self._sym_open(self._decrypt, key, ciphertext, aad)

    def sym_decrypt_shared(self, key: bytes, ciphertext: bytes, aad: bytes = b"") -> bytes:
        """``sym_decrypt`` through ``_open``, for what many parties open: an ECM."""
        return self._sym_open(self._open, key, ciphertext, aad)

    def _sym_open(self, open_, key: bytes, ciphertext: bytes, aad: bytes) -> bytes:
        if len(key) != self.secret_bytes:
            raise ValueError(f"symmetric key must be {self.secret_bytes} bytes, got {len(key)}")
        if len(ciphertext) < _TRAILER:
            raise CryptoError("ciphertext too short")
        try:
            return open_(key, ciphertext, aad)
        except InvalidTag as exc:
            raise CryptoError("authenticated decryption failed") from exc

    def seal(self, key: bytes, body: bytes, aad: bytes = b"") -> bytes:
        """Integrity-only protection for broadcast payloads: the clear body,
        then nonce and tag."""
        nonce = _nonce(key, aad, body)
        aead = self._contexts.get(key) or _new_context(self._contexts, key)
        return body + nonce + aead.encrypt(nonce, b"", aad + body)

    def open_sealed(self, key: bytes, sealed: bytes, aad: bytes = b"") -> bytes:
        if len(sealed) < _TRAILER:
            raise CryptoError("sealed blob too short")
        body = sealed[:-_TRAILER]
        try:
            self._open(key, sealed[-_TRAILER:], aad + body)  # nonce || tag
        except InvalidTag as exc:
            raise CryptoError("integrity check failed") from exc
        return body
