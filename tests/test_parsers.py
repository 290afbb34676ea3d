"""Every byte-level entry point, fed mutated valid encodings, either parses
or raises a ``CwbindError``; any other exception is a parser bug."""

import ast
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwbind
from cwbind.decoder import ChipChannelMsg, ChipMsgKind
from cwbind.encoding import encode_id
from cwbind.errors import CwbindError
from cwbind.phase1 import Bundle
from cwbind.suite import CipherSuite, Drbg, SignedMessage
from cwbind.ttp import (
    Certificate,
    certify_sender,
    export_directory,
    parse_directory,
    register_receiver,
    revoke,
    rotate,
    ttp_init,
)
from cwbind.wire import (
    BroadcastFrame,
    Ecm,
    Emm,
    EmmKind,
    build_enroll_body,
    build_entitlement_body,
    build_pk_set_body,
    decode_ecm,
    decode_emm,
    decode_frame,
    encode_ecm,
    encode_emm,
    encode_frame,
    parse_enroll_body,
    parse_entitlement_body,
    parse_pk_set_body,
)


def _valid_encodings() -> dict[str, tuple]:
    """One valid encoding per entry point, with the call that parses it."""
    suite = CipherSuite()
    rng = Drbg.from_int(20)
    sender = suite.keygen("sig", rng)
    receiver = suite.keygen("pke", rng)
    ttp = ttp_init(suite, rng)
    register_receiver(ttp, encode_id(7), receiver.public_key)
    certify_sender(ttp, encode_id(9), sender.public_key)
    revoke(ttp, 1)
    rotate(ttp, rng)  # a directory with a prior key, certificates and a revocation
    cert = certify_sender(ttp, encode_id(9), sender.public_key)
    blob = suite.sign(sender, b"wrapped long-term key")
    cert_bundle = Bundle(cert.to_bytes(), blob.to_bytes()).to_bytes()
    bind_bundle = Bundle(sender.public_key, blob.to_bytes()).to_bytes()
    entitlement = build_entitlement_body(True, rng.read(16))
    ecm = Ecm(0, 5, rng.read(40))
    emms = (Emm(0, EmmKind.PER_RECEIVER_ENTITLEMENT, encode_id(7), entitlement),
            Emm(1, EmmKind.PK_SET_UPDATE, encode_id(0xFFFF_FFFF_FFFF_FFFF),
                build_pk_set_body((sender.public_key,))))
    return {
        "decode_emm": (decode_emm, encode_emm(emms[0])),
        "decode_ecm": (decode_ecm, encode_ecm(ecm)),
        "decode_frame": (decode_frame, encode_frame(BroadcastFrame(5, rng.read(64), (ecm,), emms))),
        "parse_directory": (lambda data: parse_directory(suite, data), export_directory(ttp)),
        "Certificate.from_bytes": (Certificate.from_bytes, cert.to_bytes()),
        "SignedMessage.from_bytes": (SignedMessage.from_bytes, blob.to_bytes()),
        # the two shapes of a phase-1 bundle, both parsed by Bundle.from_bytes
        "CertBundle.from_bytes": (Bundle.from_bytes, cert_bundle),
        "BindBundle.from_bytes": (Bundle.from_bytes, bind_bundle),
        "ChipChannelMsg.decode": (ChipChannelMsg.decode,
                                  ChipChannelMsg(ChipMsgKind.LOAD_LTK, bind_bundle).encode()),
        "parse_enroll_body": (parse_enroll_body,
                              build_enroll_body(blob.to_bytes(), rng.read(16), rng.read(16),
                                                cert.to_bytes())),
        "parse_entitlement_body": (parse_entitlement_body, entitlement),
        "parse_pk_set_body": (parse_pk_set_body,
                              build_pk_set_body((sender.public_key, receiver.public_key))),
    }


ENTRY_POINTS = _valid_encodings()


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_each_valid_encoding_parses(name):
    parse, data = ENTRY_POINTS[name]
    parse(data)


def _mutated(data: bytes, rnd: random.Random) -> bytes:
    """``data`` after one to three bit flips, truncations or extensions."""
    for _ in range(rnd.randint(1, 3)):
        op = rnd.randrange(3) if data else 2
        if op == 0:
            bit = rnd.randrange(len(data) * 8)
            data = data[:bit // 8] + bytes([data[bit // 8] ^ 1 << bit % 8]) + data[bit // 8 + 1:]
        elif op == 1:
            data = data[:rnd.randrange(len(data))]
        else:
            data += rnd.randbytes(rnd.randint(1, 16))
    return data


@settings(max_examples=50, deadline=None)
@given(rnd=st.randoms(use_true_random=True))
def test_mutated_encodings_raise_only_cwbind_errors(rnd):
    # 8 mutants of each encoding per example: 4,800 parses in the default run
    for parse, data in ENTRY_POINTS.values():
        for _ in range(8):
            try:
                parse(_mutated(data, rnd))
            except CwbindError:
                pass


def test_only_the_reader_words_truncation_and_trailing_bytes():
    # the one-pass codecs hand every input they refuse to ``Reader``, so
    # these two fault texts are written once, in ``encoding.py``
    package = Path(cwbind.__file__).parent
    writers = {path.name for path in package.glob("*.py")
               if any(text in path.read_text() for text in ("truncated input", "trailing bytes"))}
    assert writers == {"encoding.py"}


def test_only_encode_id_takes_an_id_as_bytes_or_int():
    # every party is named by its 8-byte id, so no parameter may take an id
    # both ways; ``encode_id``, the one converter, takes only the int
    package = Path(cwbind.__file__).parent
    mixed = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = node.args.posonlyargs + node.args.args + node.args.kwonlyargs
                mixed += [f"{path.stem}.{node.name}({param.arg})" for param in params
                          if param.annotation is not None and {"bytes", "int"}
                          <= set(re.findall(r"\w+", ast.unparse(param.annotation)))]
    assert mixed == []
