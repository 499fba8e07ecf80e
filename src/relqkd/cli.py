"""Command-line entry point: analyze | simulate | distill | verify."""

from __future__ import annotations

import argparse
import functools
import sys

from . import harness
from .errors import RelqkdError


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {seed}")
    return seed


def _path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("the path must not be empty")
    return text


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use; each parse starts from a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="relqkd",
        description="Relativistic QKD tradeoff analysis, simulation, and distillation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, desc in (
        ("analyze", "tabulate the closed-form delay tradeoff over a sweep"),
        ("simulate", "Monte Carlo the tradeoff against the closed forms"),
        ("distill", "run one key-distillation session"),
    ):
        p = sub.add_parser(name, help=desc)
        p.add_argument("config", help="campaign file (key = value sections)")
        p.add_argument("--seed", type=_seed, default=None, help="override the master seed")
        p.add_argument("--out", type=_path, default=None, help="override the output path")
    v = sub.add_parser("verify", help="run the built-in self-check suite")
    v.add_argument("--out", type=_path, default=None,
                   help="also write the summary to this path")
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error, naming the option (exit 2),
        # or the help (exit 0).
        return exc.code
    try:
        if args.command == "verify":
            summary = harness.cmd_verify(out=args.out)
            sys.stdout.write(summary.to_text())
            return 0 if summary.all_passed else 1
        spec = harness.load_campaign(args.config, seed_override=args.seed,
                                     out_override=args.out)
        if spec.mode != args.command:
            raise RelqkdError(
                f"campaign file declares mode {spec.mode!r}, invoked as {args.command!r}"
            )
        if args.command == "distill":
            transcript, report = harness.cmd_distill(spec)
            if not spec.out:
                sys.stdout.writelines(piece.decode("ascii")
                                      for piece in transcript.text_pieces())
            sys.stdout.write(report.to_text())
        else:
            sweep = harness.cmd_analyze if args.command == "analyze" else harness.cmd_simulate
            rows = sweep(spec)
            if not spec.out:
                sys.stdout.write(harness.rows_to_csv(rows))
        return 0
    except RelqkdError as exc:
        print(f"relqkd: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"relqkd: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
