#!/usr/bin/env python3
"""Check that tier-1 notices the loss of any protocol rejection in ``cwbind``.

Every ``raise`` of ``CwbindError`` or one of its subclasses in
``src/cwbind`` is a deliberate rejection. For each one in turn, the sweep
replaces that single statement with ``pass`` in a temporary copy of the
repository and runs the tier-1 tests there with ``-x``. A mutant that still
passes is a survivor: no test notices that the check is gone. Survivors are
printed as ``file:line message``, and the exit status is 1 if there is any.
The tree itself is never written.

    python scripts/check_mutants.py

It runs tier-1 once per raise site, so a sweep takes many minutes.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "cwbind"
TIER1 = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
_SKIP = shutil.ignore_patterns(".git", "bench", "perfbench", "__pycache__", ".hypothesis",
                               ".pytest_cache", "*.egg-info")


def error_names(source: str, base: str = "CwbindError") -> set[str]:
    """``base`` and every class of ``source`` derived from it, directly or not."""
    names = {base}
    for node in ast.parse(source).body:  # a class follows the classes it derives from
        if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id in names for b in node.bases):
            names.add(node.name)
    return names


def raise_sites(source: str, names: set[str]) -> list[ast.Raise]:
    """The ``raise`` statements of ``source`` that raise one of ``names``."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in names:
                sites.append(node)
    return sorted(sites, key=lambda node: node.lineno)


def message(site: ast.Raise) -> str:
    """The raised message as written, or the raised expression."""
    if isinstance(site.exc, ast.Call) and site.exc.args:
        arg = site.exc.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        return ast.unparse(arg)
    return ast.unparse(site.exc)


def without(source: str, site: ast.Raise) -> str:
    """``source`` with the statement ``site`` replaced by ``pass``; the lines
    it spanned after the first are left blank, so no other line moves."""
    lines = source.splitlines(keepends=True)
    first = lines[site.lineno - 1].encode()
    last = lines[site.end_lineno - 1].encode()
    mutated = (first[:site.col_offset] + b"pass" + last[site.end_col_offset:]).decode()
    blanks = ["\n"] * (site.end_lineno - site.lineno)
    return "".join(lines[:site.lineno - 1] + [mutated] + blanks + lines[site.end_lineno:])


def main() -> int:
    names = error_names((ROOT / PACKAGE / "errors.py").read_text())
    survivors = checked = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=_SKIP)
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        for path in sorted((copy / PACKAGE).glob("*.py")):
            source = path.read_text()
            for site in raise_sites(source, names):
                path.write_text(without(source, site))
                try:
                    done = subprocess.run(TIER1, cwd=copy, env=env, capture_output=True,
                                          timeout=1800)
                    killed = done.returncode != 0
                except subprocess.TimeoutExpired:  # a hang is a change of behaviour too
                    killed = True
                finally:
                    path.write_text(source)
                checked += 1
                if not killed:
                    survivors += 1
                    print(f"{PACKAGE / path.name}:{site.lineno} {message(site)}", flush=True)
    print(f"{checked} raise sites, {survivors} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
