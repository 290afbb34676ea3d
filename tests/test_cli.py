"""Command line: subcommands, exit codes, stable outputs."""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from cwbind.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "cwbind"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def test_kdf_strength_prints_value(capsys):
    assert main(["kdf", "strength", "--n", "128", "--max-len", "1048576"]) == 0
    assert capsys.readouterr().out.strip() == "128"


def test_kdf_strength_requires_args():
    for argv in ([], ["--n", "128"], ["--max-len", "1048576"]):
        with pytest.raises(SystemExit) as exc_info:
            main(["kdf", "strength", *argv])
        assert exc_info.value.code == 2


@pytest.mark.parametrize("n", ["0", "-5", "513", "1000"])
def test_kdf_strength_output_length_outside_the_digest_fails(capsys, n):
    # --n 1000 used to print 511 and --n -5 to print -5
    assert main(["kdf", "strength", "--n", n, "--max-len", "1048576"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_run_twice_identical_report_files(tmp_path):
    out1, out2 = tmp_path / "a.report", tmp_path / "b.report"
    scenario = str(SCENARIO_DIR / "redistribution.scn")
    assert main(["run", scenario, "--seed", "7", "--out", str(out1)]) == 0
    assert main(["run", scenario, "--seed", "7", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_run_seed_override_changes_seed_line(tmp_path):
    out = tmp_path / "r.report"
    assert main(["run", str(SCENARIO_DIR / "client-swap.scn"), "--seed", "99",
                 "--out", str(out)]) == 0
    assert "seed 99" in out.read_text()


def test_no_module_reads_the_environment():
    # every setting comes from the command line or the scenario file, so no
    # hidden seed or other knob can change a run from outside them
    names = {"environ", "environb", "getenv", "getenvb"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr in names:
                found.append((path.name, node.lineno))
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [(path.name, node.lineno) for alias in node.names if alias.name in names]
    assert found == []


def test_run_missing_scenario_fails(capsys):
    assert main(["run", "/nonexistent.scn"]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_invalid_scenario_fails(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("scenario x\nseed 1\n")  # no epochs
    assert main(["run", str(bad)]) == 1


def test_run_action_with_too_few_arguments_fails_cleanly(tmp_path, capsys):
    # used to escape as an IndexError traceback out of validation
    bad = tmp_path / "short.scn"
    bad.write_text("scenario x\nseed 1\nepochs 3\nca 0 bind\ndecoder 1 ca 0\nat 1 authorize 0\n")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_run_decoder_id_outside_the_id_space_fails_cleanly(tmp_path, capsys):
    # used to escape as a struct.error traceback out of the world build
    bad = tmp_path / "wide.scn"
    bad.write_text("scenario x\nseed 1\nepochs 3\nca 0 bind\ndecoder -1 ca 0\n")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("line", ["rotate-auth 0 every 0 count 1", "rotate-auth 0 every 2 count -1",
                                  "content-bytes 0"])
def test_run_rejects_degenerate_schedule_or_content(tmp_path, capsys, line):
    # every 0 escaped as a bare range() error; a negative count and empty
    # content ran, the latter scoring forged derivations K
    bad = tmp_path / "bad.scn"
    bad.write_text(f"scenario x\nseed 1\nepochs 3\nca 0 bind\ndecoder 1 ca 0\n{line}\n")
    assert main(["run", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["definitely-not-a-command"])
    assert exc_info.value.code == 2


def test_ttp_lifecycle(tmp_path, capsys):
    state = tmp_path / "authority.json"
    assert main(["ttp", "init", "--state", str(state), "--seed", "5"]) == 0
    first = json.loads(state.read_text())
    assert first["generation"] == 1
    assert main(["ttp", "rotate", "--state", str(state)]) == 0
    second = json.loads(state.read_text())
    assert second["generation"] == 2
    assert second["public_key"] != first["public_key"]
    directory = tmp_path / "directory.bin"
    assert main(["ttp", "export", "--state", str(state), "--out", str(directory)]) == 0
    assert main(["wire", "decode", str(directory)]) == 0
    assert "generation=2" in capsys.readouterr().out


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_ttp_seed_outside_u64_fails_cleanly(tmp_path, capsys, seed):
    # both used to escape as a bare struct.error traceback
    state = tmp_path / "authority.json"
    assert main(["ttp", "init", "--state", str(state), "--seed", seed]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not state.exists()
    assert main(["ttp", "init", "--state", str(state), "--seed", "5"]) == 0
    before = state.read_bytes()
    capsys.readouterr()
    assert main(["ttp", "rotate", "--state", str(state), "--seed", seed]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""
    assert state.read_bytes() == before


def test_ttp_state_with_mismatched_key_halves_refused(tmp_path, capsys):
    state = tmp_path / "authority.json"
    assert main(["ttp", "init", "--state", str(state), "--seed", "5"]) == 0
    data = json.loads(state.read_text())
    public_key = bytearray.fromhex(data["public_key"])
    public_key[0] ^= 0x01
    data["public_key"] = public_key.hex()
    state.write_text(json.dumps(data))
    directory = tmp_path / "directory.bin"
    assert main(["ttp", "export", "--state", str(state), "--out", str(directory)]) != 0
    assert not directory.exists()
    assert "does not match" in capsys.readouterr().err


STATE_FIELDS = ("secret_bits", "public_key", "private_key", "generation", "receivers",
                "senders", "certs", "revoked", "prior_pks", "next_serial")

# ``ttp init --seed 5`` as written while the suite still carried scheme ids
OLD_FORMAT_STATE = """{
  "certs": [],
  "config": {
    "hash_scheme": "sha512",
    "pke_scheme": "x25519-hybrid",
    "secret_bits": 128,
    "sig_scheme": "ed25519",
    "sym_scheme": "aesgcm"
  },
  "generation": 1,
  "next_serial": 1,
  "prior_pks": [],
  "private_key": "b6575785a7c63ac18c86bf2fc8a076570c133d0d52c18889b4767110a8921f83",
  "public_key": "46f52d32739c05c5e141b210ccda83f4a4c8ef15a2af40917fd95a04a440690e",
  "receivers": {},
  "revoked": [],
  "scheme": "ed25519",
  "senders": {}
}
"""


def test_ttp_directory_bytes_are_pinned(tmp_path):
    # the state file format may change; the authority it stores may not
    state, directory = tmp_path / "authority.json", tmp_path / "directory.bin"
    assert main(["ttp", "init", "--state", str(state), "--seed", "5"]) == 0
    assert main(["ttp", "rotate", "--state", str(state)]) == 0
    assert main(["ttp", "export", "--state", str(state), "--out", str(directory)]) == 0
    assert hashlib.sha256(directory.read_bytes()).hexdigest() == (
        "3df2027dda4742643091b06f85b1594726d5541f43a9912def1006bfab93335d")


def _edited_state(tmp_path, edit) -> Path:
    state = tmp_path / "authority.json"
    assert main(["ttp", "init", "--state", str(state), "--seed", "5"]) == 0
    data = json.loads(state.read_text())
    edit(data)
    state.write_text(json.dumps(data))
    return state


def _assert_refused(tmp_path, state: Path, capsys, field: str) -> None:
    """Both readers of the state file exit 1 with an error naming ``field``
    and write nothing."""
    before = state.read_bytes()
    directory = tmp_path / "directory.bin"
    capsys.readouterr()
    for command in (["ttp", "export", "--state", str(state), "--out", str(directory)],
                    ["ttp", "rotate", "--state", str(state)]):
        assert main(command) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and repr(field) in captured.err
        assert captured.out == ""
    assert not directory.exists()
    assert state.read_bytes() == before


@pytest.mark.parametrize("field", STATE_FIELDS)
def test_ttp_state_missing_field_refused(tmp_path, capsys, field):
    # a missing field used to escape as a bare KeyError
    state = _edited_state(tmp_path, lambda data: data.pop(field))
    _assert_refused(tmp_path, state, capsys, field)


@pytest.mark.parametrize("field, value", [
    ("secret_bits", "128"), ("secret_bits", True), ("secret_bits", 96), ("generation", 1.0),
    ("private_key", 5), ("public_key", "not hex"), ("receivers", []), ("senders", {"x": "00"}),
    ("certs", ["00"]), ("revoked", ["3"]), ("prior_pks", [[1]]), ("next_serial", None),
    # out of range for the directory's u32 fields: these escaped export as a bare struct.error
    ("generation", -1), ("prior_pks", [[2**32, "00"]]),
])
def test_ttp_state_malformed_field_refused(tmp_path, capsys, field, value):
    state = _edited_state(tmp_path, lambda data: data.update({field: value}))
    _assert_refused(tmp_path, state, capsys, field)


@pytest.mark.parametrize("text", ["[]", "5"])
def test_ttp_state_that_is_not_an_object_refused(tmp_path, capsys, text):
    # without its own check, reading a field of a list escapes as an AttributeError
    state = tmp_path / "authority.json"
    state.write_text(text)
    assert main(["ttp", "export", "--state", str(state), "--out", str(tmp_path / "d.bin")]) == 1
    assert capsys.readouterr().err == "error: ttp state is not a JSON object\n"


def test_ttp_state_in_the_old_format_refused(tmp_path, capsys):
    # it carries ``config`` and ``scheme`` and no ``secret_bits``; an unknown
    # ``config`` key used to escape as a bare TypeError
    state = tmp_path / "authority.json"
    state.write_text(OLD_FORMAT_STATE)
    _assert_refused(tmp_path, state, capsys, "secret_bits")


def test_wire_decode_truncated_names_offset(tmp_path, capsys):
    from cwbind.encoding import BROADCAST_ADDR
    from cwbind.wire import Ecm, Emm, EmmKind, encode_ecm, encode_emm

    ecm_file = tmp_path / "one.ecm"
    blob = encode_ecm(Ecm(1, 9, b"\x00" * 44))
    ecm_file.write_bytes(blob[: len(blob) - 3])
    assert main(["wire", "decode", str(ecm_file)]) == 1
    err = capsys.readouterr().err
    assert "offset" in err

    emm_file = tmp_path / "one.emm"
    emm_file.write_bytes(encode_emm(Emm(1, EmmKind.CRL_UPDATE, BROADCAST_ADDR, b"\x01\x02")))
    assert main(["wire", "decode", str(emm_file)]) == 0
    assert "CRL_UPDATE" in capsys.readouterr().out


def test_wire_decode_prints_a_valid_ecm(tmp_path, capsys):
    from cwbind.wire import Ecm, encode_ecm

    ecm_file = tmp_path / "one.ecm"
    ecm_file.write_bytes(encode_ecm(Ecm(1, 9, b"\xab" * 44)))
    assert main(["wire", "decode", str(ecm_file)]) == 0
    out = capsys.readouterr().out
    assert out == f"ECM ca-system=1 epoch=9\n  protected secret (44 bytes): {'ab' * 44}\n"


def test_wire_decode_unknown_magic(tmp_path, capsys):
    bogus = tmp_path / "bogus.bin"
    bogus.write_bytes(b"ZZ\x00\x00")
    assert main(["wire", "decode", str(bogus)]) == 1
