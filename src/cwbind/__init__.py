"""Broadcast key establishment with hash-bound control words.

A library implementing two key-transport protocols over one fixed cipher
suite (Ed25519, X25519-hybrid encryption, AES-GCM) -- the classic
certificate-authenticated shape and a certificate-free shape that binds each
epoch secret to the sender public keys -- plus a deterministic
one-way-broadcast pay-TV simulator (authority, head-end, decoders,
adversary) that exercises their security properties.
"""

__version__ = "0.1.0"

from .binding import BindingInput, derive_secret, encode_binding_input, second_preimage_strength
from .errors import CryptoError, CwbindError, ProtocolError, WireError
from .suite import CipherSuite, Drbg, KeyPair, SignedMessage

__all__ = [
    "BindingInput",
    "CipherSuite",
    "CryptoError",
    "CwbindError",
    "Drbg",
    "KeyPair",
    "ProtocolError",
    "SignedMessage",
    "WireError",
    "derive_secret",
    "encode_binding_input",
    "second_preimage_strength",
    "__version__",
]
