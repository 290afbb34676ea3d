"""Command line: ``cwbind run``, ``--version`` and the exit codes 0, 1 and 2."""

import ast
from pathlib import Path

import pytest

from cwbind import __version__
from cwbind.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "cwbind"
SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


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


@pytest.mark.parametrize("argv", [
    [], ["definitely-not-a-command"], ["run"],
    # full invocations of the ttp, kdf and wire commands, which cwbind no longer has
    ["ttp", "init", "--state", "f"], ["kdf", "strength", "--n", "128", "--max-len", "1048576"],
    ["wire", "decode", "f"],
], ids=["no-command", "unknown-command", "run-without-scenario", "ttp-init", "kdf-strength",
        "wire-decode"])
def test_usage_error_exits_2(argv):
    with pytest.raises(SystemExit) as exc_info:
        main(argv)
    assert exc_info.value.code == 2


def test_version_exits_0(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out == f"cwbind {__version__}\n"
