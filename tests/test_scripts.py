"""Experiment scripts: each one the README lists runs to completion, except
``check_mutants.py``, whose bare run is the whole mutation sweep; its
raise-site walker is tested here on a small module instead."""

import functools
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# not check_mutants.py: a bare run runs tier-1 once per raise site in the package
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


def test_count_lines_fails_a_package_over_its_limit(tmp_path):
    spec = importlib.util.spec_from_file_location("count_lines",
                                                  ROOT / "scripts" / "count_lines.py")
    count_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(count_lines)
    assert count_lines.LIMIT == 3604
    module = tmp_path / "m.py"
    for lines, status in [(count_lines.LIMIT + 1, 1), (count_lines.LIMIT, 0)]:
        module.write_text("x = 1\n" * lines)
        done = subprocess.run([sys.executable, str(ROOT / "scripts" / "count_lines.py"),
                               str(tmp_path)], capture_output=True, text=True, timeout=60)
        assert done.returncode == status, (lines, done.stderr)
        assert done.stdout == f"{tmp_path.name}: {lines} lines, {lines} code lines\n"
        assert ("exceed the limit of 3604" in done.stderr) == (status == 1)


def test_check_mutants_walks_each_package_error_raise(tmp_path):
    spec = importlib.util.spec_from_file_location("check_mutants",
                                                  ROOT / "scripts" / "check_mutants.py")
    check_mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check_mutants)
    names = check_mutants.error_names(
        "class CwbindError(Exception): pass\nclass WireError(CwbindError): pass\n"
        "class Short(WireError): pass\nclass Other(Exception): pass\n")
    assert names == {"CwbindError", "WireError", "Short"}
    source = ('def f(x):\n'
              '    if x: raise Short("short")  # guard\n'
              '    if x is None:\n'
              '        raise WireError(\n'
              '            f"no {x}")\n'
              '    raise Other("not ours")\n'
              'def g():\n'
              '    try:\n'
              '        f(1)\n'
              '    except Short:\n'
              '        raise\n'
              '    raise CwbindError\n')
    sites = check_mutants.raise_sites(source, names)
    assert [(site.lineno, check_mutants.message(site)) for site in sites] == [
        (2, "short"), (4, "f'no {x}'"), (12, "CwbindError")]
    first, second, _ = (check_mutants.without(source, site).splitlines() for site in sites)
    assert first[1] == "    if x: pass  # guard"
    assert second[3:5] == ["        pass", ""] and len(second) == len(source.splitlines())
