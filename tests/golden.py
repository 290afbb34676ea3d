"""Golden vector generation (test support, not part of the package).

Produces byte-exact regression vectors for the primitive suite, the binding
derivation, and the wire codecs, keyed by fixed seeds. The checked-in copies
under ``tests/vectors/`` freeze the formats: any byte-level drift on any
platform shows up as a diff against these files. Acceptance criterion 10
compares each file with ``vectors_json`` of its entries, byte for byte; a
deliberate format change writes that text to the file in its own change.
"""

from __future__ import annotations

import hashlib
import json

from cwbind.binding import BindingInput, derive_secret, encode_binding_input, second_preimage_strength
from cwbind.encoding import BROADCAST_ADDR, encode_id
from cwbind.scramble import scramble
from cwbind.suite import CipherSuite, Drbg
from cwbind.wire import (
    Ecm,
    Emm,
    EmmKind,
    ecm_aad,
    emm_aad,
    encode_ecm,
    encode_emm,
)


# the algorithms the suite fixes, named as ``suite.json`` has always named them
SUITE_CONFIG = {"hash_scheme": "sha512", "pke_scheme": "x25519-hybrid", "secret_bits": 128,
                "sig_scheme": "ed25519", "sym_scheme": "aesgcm"}


def suite_vectors() -> dict:
    suite = CipherSuite()
    out: dict = {"config": dict(SUITE_CONFIG)}

    out["drbg_seed00_64B"] = Drbg(b"\x00" * 8).read(64).hex()
    out["drbg_child_label_a_32B"] = Drbg(b"\x00" * 8).child("a").read(32).hex()

    pke_pair = suite.keygen("pke", Drbg(b"\x00" * 8))
    sig_pair = suite.keygen("sig", Drbg(b"\x01" * 8))
    out["pke_public_key_seed00"] = pke_pair.public_key.hex()
    out["sig_public_key_seed01"] = sig_pair.public_key.hex()

    message = bytes(range(16))
    out["pke_ciphertext_seed02_m0f"] = suite.pke_encrypt(
        pke_pair.public_key, message, Drbg(b"\x02" * 8)
    ).hex()
    out["signed_message_m0f"] = suite.sign(sig_pair, message).to_bytes().hex()

    key = bytes(range(16))
    out["sym_ciphertext_k0f_p20"] = suite.sym_encrypt(key, bytes(range(32)), aad=b"aad").hex()
    out["seal_k0f_body8"] = suite.seal(key, b"leafless", aad=b"hdr").hex()
    out["scramble_k0f_epoch3"] = scramble(key, 3, b"sixteen byte msg").hex()

    out["sha512_empty"] = hashlib.sha512(b"").hexdigest()
    out["sha512_abc"] = hashlib.sha512(b"abc").hexdigest()
    return out


def kdf_vectors() -> dict:
    out: dict = {}
    toy = BindingInput(public_keys=(b"\x01\x02",), rand=b"\xaa\xbb")
    out["encode_toy_single"] = encode_binding_input(toy).hex()
    out["derive_toy_single_n128"] = derive_secret(toy, 128).hex()
    out["derive_toy_single_n512"] = derive_secret(toy, 512).hex()

    pair = BindingInput(public_keys=(b"\x01\x02", b"\x03\x04"), rand=b"\xcc\xdd")
    out["encode_toy_pair"] = encode_binding_input(pair).hex()
    out["derive_toy_pair_n128"] = derive_secret(pair, 128).hex()

    production = BindingInput(
        public_keys=(bytes(range(32)), bytes(range(64, 96))),
        rand=bytes(range(16)),
    )
    out["derive_production_n128"] = derive_secret(production, 128).hex()

    out["strength"] = {
        f"n{n}_L2e{e}": second_preimage_strength(n, 2**e)
        for n in (128, 192, 256, 511)
        for e in (10, 13, 20, 30, 40)
    }
    return out


def wire_vectors() -> dict:
    suite = CipherSuite()
    group_key = bytes(range(16))
    channel_key = bytes(range(16, 32))
    ecm_key = bytes(range(32, 48))
    receiver = encode_id(7)
    out: dict = {}

    sealed = suite.seal(group_key, b"\x11" * 32,
                        aad=emm_aad(1, EmmKind.BROADCAST_SENDER_PK, BROADCAST_ADDR))
    out["emm_broadcast_sender_pk"] = encode_emm(
        Emm(1, EmmKind.BROADCAST_SENDER_PK, BROADCAST_ADDR, sealed)
    ).hex()

    protected = suite.sym_encrypt(channel_key, b"\x22" * 24,
                                  aad=emm_aad(1, EmmKind.PER_RECEIVER_ENROLL, receiver))
    out["emm_per_receiver_enroll"] = encode_emm(
        Emm(1, EmmKind.PER_RECEIVER_ENROLL, receiver, protected)
    ).hex()

    secret = bytes(range(48, 64))
    out["ecm_epoch5"] = encode_ecm(
        Ecm(1, 5, suite.sym_encrypt(ecm_key, secret, aad=ecm_aad(1, 5)))
    ).hex()
    return out


def generate_vectors() -> dict[str, dict]:
    return {
        "suite": suite_vectors(),
        "kdf": kdf_vectors(),
        "wire": wire_vectors(),
    }


def vectors_json(entries: dict) -> str:
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"
