"""Command line front-end.

Subcommands: bounds, simulate, verify (each take --config and --out) and
report (takes --in).  Exit codes: 0 success, 1 usage or config error,
2 inadmissible step size, 3 certificate failure.
"""

from __future__ import annotations

import argparse
import sys

from .bounds import InadmissibleError
from .harness import (EXIT_INADMISSIBLE, EXIT_USAGE, ConfigError, cmd_bounds,
                      cmd_report, cmd_simulate, cmd_verify, load_config)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabilab",
        description="Stability bounds and coupled-trajectory diagnostics "
                    "for (noisy) SGD")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("bounds", "simulate", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", required=True, help="output directory")
    rep = sub.add_parser("report")
    rep.add_argument("--in", dest="in_dir", required=True,
                     help="directory with bounds/simulate/verify outputs")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.in_dir)
        cfg = load_config(args.config)
        if args.command == "bounds":
            return cmd_bounds(cfg, args.out)
        if args.command == "simulate":
            return cmd_simulate(cfg, args.out)
        return cmd_verify(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InadmissibleError as exc:
        print(f"inadmissible configuration: {exc}", file=sys.stderr)
        return EXIT_INADMISSIBLE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
