"""Command-line front end.

Subcommands::

    cwbind run <scenario.scn> [--seed N] [--out FILE]
    cwbind ttp init --state FILE [--seed N]
    cwbind ttp rotate --state FILE [--seed N]
    cwbind ttp export --state FILE --out FILE
    cwbind kdf strength --n BITS --max-len BITS
    cwbind wire decode <file>

Exit codes: 0 success, 1 operational failure (bad scenario, undecodable
file, out-of-range value), 2 usage error. ``run --seed`` overrides the
scenario file's seed; ``ttp init`` defaults to seed 0 and ``ttp rotate`` to
the authority's generation. Scripts and CI are the intended users; there is
no interactive mode.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .encoding import id_as_int
from .errors import CryptoError, CwbindError
from .binding import second_preimage_strength
from .sim import load_scenario, run_world
from .suite import CipherSuite, Drbg
from .ttp import Certificate, TtpState, export_directory, parse_directory, rotate, ttp_init
from .wire import decode_ecm, decode_emm, decode_frame


# ---------------------------------------------------------------------------
# ttp state file (JSON, hex-encoded fields)
# ---------------------------------------------------------------------------


def _ttp_to_json(ttp: TtpState) -> str:
    state = {
        "secret_bits": ttp.suite.secret_bits,
        "public_key": ttp.keypair.public_key.hex(),
        "private_key": ttp.keypair.private_key.hex(),
        "generation": ttp.generation,
        "receivers": {str(id_as_int(k)): v.hex() for k, v in ttp.receiver_registry.items()},
        "senders": {str(id_as_int(k)): v.hex() for k, v in ttp.sender_registry.items()},
        "certs": [cert.to_bytes().hex() for cert in ttp.issued_certs],
        "revoked": sorted(ttp.revoked_serials),
        "prior_pks": [[gen, pk.hex()] for gen, pk in ttp.prior_pks],
        "next_serial": ttp.next_serial,
    }
    return json.dumps(state, indent=2, sort_keys=True) + "\n"


def _uint(value, bits: int = 32) -> int:
    if type(value) is not int or not 0 <= value < 1 << bits:
        raise ValueError(f"{value!r} is not an unsigned {bits}-bit integer")
    return value


def _registry(entries: dict) -> dict[bytes, bytes]:
    return {int(k).to_bytes(8, "big"): bytes.fromhex(v) for k, v in entries.items()}


def _ttp_from_json(text: str) -> TtpState:
    """Rebuild the authority; a missing, mistyped or malformed field is
    refused with one ``CwbindError`` that names it."""
    state = json.loads(text)
    if type(state) is not dict:
        raise CwbindError("ttp state is not a JSON object")

    def read(name: str, kind: type, convert):
        value = state.get(name)
        if type(value) is not kind:
            raise CwbindError(f"ttp state field {name!r} is missing or not a JSON {kind.__name__}")
        try:
            return convert(value)
        except (CwbindError, TypeError, ValueError, OverflowError) as exc:
            raise CwbindError(f"ttp state field {name!r} is malformed: {exc}") from exc

    suite = read("secret_bits", int, CipherSuite)
    keypair = read("private_key", str, lambda v: suite.load_sig_keypair(bytes.fromhex(v)))
    if keypair.public_key != read("public_key", str, bytes.fromhex):
        raise CryptoError("ttp state public key does not match its private key")
    ttp = TtpState(suite=suite, keypair=keypair, generation=read("generation", int, _uint),
                   next_serial=read("next_serial", int, lambda v: _uint(v, 64)))
    ttp.receiver_registry = read("receivers", dict, _registry)
    ttp.sender_registry = read("senders", dict, _registry)
    ttp.issued_certs = read("certs", list,
                            lambda v: [Certificate.from_bytes(bytes.fromhex(c)) for c in v])
    ttp.revoked_serials = read("revoked", list, lambda v: {_uint(s, 64) for s in v})
    ttp.prior_pks = read("prior_pks", list,
                         lambda v: [(_uint(gen), bytes.fromhex(pk)) for gen, pk in v])
    return ttp


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    text = run_world(config)[0].to_text()
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_ttp(args) -> int:
    state_path = Path(args.state)
    if args.ttp_cmd == "init":
        ttp = ttp_init(CipherSuite(), Drbg.from_int(args.seed or 0).child("ttp"))
        state_path.write_text(_ttp_to_json(ttp))
        print(f"authority generation {ttp.generation}, key {ttp.keypair.public_key.hex()}")
        return 0
    ttp = _ttp_from_json(state_path.read_text())
    if args.ttp_cmd == "rotate":
        seed = ttp.generation if args.seed is None else args.seed
        rotate(ttp, Drbg.from_int(seed).child(f"ttp-rotate-{ttp.generation}"))
        state_path.write_text(_ttp_to_json(ttp))
        print(f"authority generation {ttp.generation}, key {ttp.keypair.public_key.hex()}")
        return 0
    Path(args.out).write_bytes(export_directory(ttp))  # ttp export
    print(f"directory for generation {ttp.generation} written to {args.out}")
    return 0


def _cmd_kdf_strength(args) -> int:
    print(second_preimage_strength(args.n, args.max_len))
    return 0


def _print_emm(emm) -> None:
    addressee = "broadcast" if emm.is_broadcast() else str(id_as_int(emm.addressee))
    print(f"EMM ca-system={emm.ca_system_id} kind={emm.kind.name} addressee={addressee}")
    print(f"  payload ({len(emm.payload)} bytes): {emm.payload.hex()}")


def _print_ecm(ecm) -> None:
    print(f"ECM ca-system={ecm.ca_system_id} epoch={ecm.epoch}")
    print(f"  protected secret ({len(ecm.protected_secret)} bytes): {ecm.protected_secret.hex()}")


def _cmd_wire_decode(args) -> int:
    data = Path(args.file).read_bytes()
    magic = data[:2]
    if magic == b"EM":
        _print_emm(decode_emm(data))
    elif magic == b"EC":
        _print_ecm(decode_ecm(data))
    elif magic == b"BF":
        frame = decode_frame(data)
        print(f"frame epoch={frame.epoch} content={len(frame.scrambled_content)} bytes "
              f"ecms={len(frame.ecms)} emms={len(frame.emms)}")
        for ecm in frame.ecms:
            _print_ecm(ecm)
        for emm in frame.emms:
            _print_emm(emm)
    elif magic == b"TD":
        directory = parse_directory(CipherSuite(), data)
        print(f"directory generation={directory.generation} "
              f"authority-key={directory.authority_pk.hex()}")
        print(f"  certificates: {len(directory.certificates)}")
        for cert in directory.certificates:
            print(f"    serial={cert.serial} subject={id_as_int(cert.subject_id)} "
                  f"role={cert.subject_role} generation={cert.generation}")
        print(f"  revoked serials: {sorted(directory.revoked_serials) or '-'}")
    else:
        print(f"unrecognized magic {magic!r} at offset 0", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cwbind", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"cwbind {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario and emit its report")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", help="write the report here instead of stdout")
    p_run.set_defaults(handler=_cmd_run)

    p_ttp = sub.add_parser("ttp", help="manage an authority state file")
    ttp_sub = p_ttp.add_subparsers(dest="ttp_cmd", required=True)
    for name in ("init", "rotate"):
        p = ttp_sub.add_parser(name)
        p.add_argument("--state", required=True)
        p.add_argument("--seed", type=int)
        p.set_defaults(handler=_cmd_ttp)
    p_export = ttp_sub.add_parser("export")
    p_export.add_argument("--state", required=True)
    p_export.add_argument("--out", required=True)
    p_export.set_defaults(handler=_cmd_ttp)

    p_kdf = sub.add_parser("kdf", help="binding-derivation utilities")
    kdf_sub = p_kdf.add_subparsers(dest="kdf_cmd", required=True)
    p_strength = kdf_sub.add_parser("strength")
    p_strength.add_argument("--n", type=int, required=True)
    p_strength.add_argument("--max-len", type=int, dest="max_len", required=True)
    p_strength.set_defaults(handler=_cmd_kdf_strength)

    p_wire = sub.add_parser("wire", help="wire message utilities")
    wire_sub = p_wire.add_subparsers(dest="wire_cmd", required=True)
    p_decode = wire_sub.add_parser("decode")
    p_decode.add_argument("file")
    p_decode.set_defaults(handler=_cmd_wire_decode)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (CwbindError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
