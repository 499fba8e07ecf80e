"""Command-line entry point: analyze | simulate | distill | verify; it writes every output."""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
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


def _write(*files) -> None:
    """Write each ``(path, pieces)`` pair's byte strings; a failure removes every file opened."""
    opened = []
    try:
        for path, pieces in files:
            with open(path, "wb") as fh:
                opened.append(path)
                fh.writelines(pieces)
    except BaseException:
        for path in opened:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def main(argv=None) -> int:
    """Run one command and write its outputs, files before stdout; return the exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the usage error, naming the option (exit 2),
        # or the help (exit 0).
        return exc.code
    try:
        if args.command == "verify":
            summary = harness.cmd_verify()
            text = summary.to_text()
            if args.out is not None:
                _write((args.out, (text.encode(),)))
            sys.stdout.write(text)
            return 0 if summary.all_passed else 1
        spec = harness.load_campaign(args.config, seed_override=args.seed)
        if spec.mode != args.command:
            raise RelqkdError(
                f"campaign file declares mode {spec.mode!r}, invoked as {args.command!r}")
        out = spec.out if args.out is None else args.out
        if args.command == "distill":
            transcript, report = harness.cmd_distill(spec)
            text = report.to_text()
            if out is None:
                sys.stdout.writelines(piece.decode("ascii")
                                      for piece in transcript.text_pieces())
            else:
                _write((out + ".transcript.txt", transcript.text_pieces()),
                       (out + ".report.txt", (text.encode(),)))
            sys.stdout.write(text)
        else:
            sweep = harness.cmd_analyze if args.command == "analyze" else harness.cmd_simulate
            text = harness.rows_to_csv(sweep(spec))
            if out is None:
                sys.stdout.write(text)
            else:
                _write((out, (text.encode(),)))
        return 0
    except RelqkdError as exc:
        print(f"relqkd: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"relqkd: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
