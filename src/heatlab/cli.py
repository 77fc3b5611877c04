"""Command-line entry point: `heatlab run <config.json> [--out DIR]
[--verbose]`.

`--out` overrides the config's `out` directory; `--verbose` echoes the run
log. Exit codes: 0 when every invoked invariant check passes, 1 when a check
fails, 2 on configuration or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, HeatLabError
from .experiments import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="Reproducible spectral-observability and null-control experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute one experiment config")
    runp.add_argument("config", help="path to the experiment JSON config")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--verbose", action="store_true", help="echo the run log")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: config is not valid JSON: {exc}", file=sys.stderr)
        return 2

    try:
        summary, checks, out = run(cfg, out_dir=args.out, verbose=args.verbose)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except HeatLabError as exc:
        print(f"error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 2

    failed = [name for name, ok in checks.items() if not ok]
    for name in failed:
        print(f"CHECK FAILED: {name}", file=sys.stderr)
    print(f"wrote {out}/summary.json")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
