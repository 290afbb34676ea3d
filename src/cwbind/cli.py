"""Command-line front end: run one scenario and emit its report.

Usage::

    cwbind run <scenario.scn> [--seed N] [--out FILE]

Exit codes: 0 success, 1 operational failure (unreadable or invalid
scenario, unwritable output), 2 usage error. ``--seed`` overrides the
scenario file's seed. Scripts and CI are the intended users; there is no
interactive mode.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .errors import CwbindError
from .sim import load_scenario, run_world


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="cwbind", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"cwbind {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario and emit its report")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--out", help="write the report here instead of stdout")
    args = parser.parse_args(argv)
    try:
        return _cmd_run(args)
    except (CwbindError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
