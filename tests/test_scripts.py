"""Experiment scripts: each one the README lists runs to completion."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ("bandwidth_report.py", "count_lines.py", "recovery_contrast.py", "strength_table.py")


@functools.cache  # both recovery tests read one run
def _run(script: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script)], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_exits_cleanly(script):
    done = _run(script)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def _sections(text: str) -> dict[str, dict[str, str]]:
    """``name:`` headers, each followed by indented ``field: value`` lines."""
    sections: dict[str, dict[str, str]] = {}
    current: dict[str, str] = {}
    for line in text.splitlines():
        if line and not line[0].isspace() and line.endswith(":"):
            current = sections.setdefault(line[:-1], {})
        elif ":" in line:
            field, value = line.split(":", 1)
            current[field.strip()] = value.strip()
    return sections


def test_recovery_contrast_reports_the_headline_claim():
    # the binding protocol recovers with no decoder replaced, the
    # certificate protocol replaces all 8, and no pirate probe gets through
    done = _run("recovery_contrast.py")
    assert done.returncode == 0, done.stderr
    sections = _sections(done.stdout)
    assert sections["recovery-bind"]["decoders replaced"] == "0"
    assert sections["recovery-cert"]["decoders replaced"] == "8"
    for name in ("recovery-bind", "recovery-cert"):
        assert sections[name]["pirate probes rejected"] == "39/39"


def test_count_lines_skips_blank_comment_and_docstring_lines(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Doc\nstring."""\n\n# comment\nx = """not a\ndocstring"""\n\n\n'
        'def f():\n    """Doc."""\n    return x  # trailing\n')
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "count_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{tmp_path.name}: 11 lines, 4 code lines\n"
