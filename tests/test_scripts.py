"""Experiment scripts: each one in ``scripts/`` runs to completion, except
``check_mutants.py``, whose bare run is the whole mutation sweep; its
raise-site walker is tested here on a small module instead. The protocol
comparison's claims are checked on its matrix, not on its printed table."""

import functools
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cwbind.sim import load_scenario

ROOT = Path(__file__).resolve().parent.parent
ALL_SCRIPTS = sorted(path.name for path in (ROOT / "scripts").glob("*.py"))
# not check_mutants.py: a bare run runs tier-1 once per raise site in the package
SCRIPTS = [name for name in ALL_SCRIPTS if name != "check_mutants.py"]


def _module(script: str):
    spec = importlib.util.spec_from_file_location(script, ROOT / "scripts" / f"{script}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script", SCRIPTS)
def test_script_exits_cleanly(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / script)], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()


def test_readme_lists_exactly_the_scripts():
    block = (ROOT / "README.md").read_text().split("## Experiment scripts", 1)[1].split("```")[1]
    assert sorted(re.findall(r"python scripts/(\S+)", block)) == ALL_SCRIPTS


@functools.cache  # every claim reads one run of each scenario
def _matrix() -> dict[str, dict[str, object]]:
    return _module("compare_protocols").matrix()


def test_binding_recovers_in_place_where_certificate_replaces_every_decoder():
    # the paper's headline: after a compromise of everything but the chips
    matrix = _matrix()
    population = len(load_scenario(ROOT / "scenarios" / "recovery-cert.scn").decoders)
    assert population > 0
    assert matrix["decoders replaced"] == {"cert": population, "bind": 0}
    assert matrix["recovery success"] == {"cert": True, "bind": True}
    assert matrix["authenticity violations"] == {"cert": 0, "bind": 0}
    for rejected, probes in matrix["pirate probes rejected"].values():
        assert rejected == probes > 0


def test_binding_costs_no_more_broadcast_bytes_than_certificate():
    matrix = _matrix()
    assert matrix["ecm"]["bind"] == matrix["ecm"]["cert"]
    assert matrix["emm-broadcast"]["bind"] <= matrix["emm-broadcast"]["cert"]


def test_count_lines_skips_blank_comment_and_docstring_lines(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Doc\nstring."""\n\n# comment\nx = """not a\ndocstring"""\n\n\n'
        'def f():\n    """Doc."""\n    return x  # trailing\n')
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "count_lines.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"{tmp_path.name}: 11 lines, 4 code lines\n"


def test_count_lines_fails_a_package_over_its_limit(tmp_path):
    count_lines = _module("count_lines")
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
    check_mutants = _module("check_mutants")
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
