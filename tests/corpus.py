"""Two seeded corpora: campaign files run through ``relqkd.cli.main``, and boundary calls.

``files`` draws ``SIZE`` files from ``random.Random(SEED)``.  Each is its
mode's smallest valid file (``MINIMAL``) with 0 to 3 changes: a key of
``harness._KEYS`` set to a valid value or to one of ``INVALID``, a key
removed, or an unknown section or key added.  ``digests`` runs each file
as its mode's command, without and then with ``--seed 5``, and hashes the
call's exit code, stdout, stderr and the name and bytes of each file it
wrote; it runs in the directory of the file and names it relatively, so
no output names that directory.

``boundary_calls`` draws ``BOUNDARY_SIZE`` calls of the package's boundary,
call i from its own ``random.Random(f"{BOUNDARY_SEED}/{i}")``, so how many
draws one call makes moves no other call: ``make_plateau``, ``run_session`` of
a ``ProtocolConfig`` at N <= 16, ``build_report``, ``solve_parameters``,
and ``Transcript.from_text`` and ``SecurityReport.from_text`` of valid
texts with one character replaced, deleted or inserted.  Each draws one
valid value of every argument and, every other call, makes one argument
invalid.  A call's digest hashes its output text, or the type and message
of the ``RelqkdError`` it raises.

``verify_calls`` are the four ``relqkd verify`` command lines of
``VERIFY_OPTIONS``, hashed as the campaign calls are.

``tests/corpus.sha256`` pins one 16-hex-digit digest per call, the
campaign calls first, then the boundary and the verify calls;
``python tests/corpus.py`` prints the lines.
"""

import contextlib
import hashlib
import io
import math
import os
import random
import shlex
import sys
import tempfile
from unittest import mock

from relqkd import (
    EveStrategy,
    ProtocolConfig,
    RelqkdError,
    ResendPolicy,
    SecurityReport,
    Transcript,
    build_report,
    harness,
    make_plateau,
    run_session,
    solve_parameters,
)
from relqkd.cli import main

SEED, SIZE = 2026, 600
BOUNDARY_SEED, BOUNDARY_SIZE = 2027, 300
CAMPAIGN = "campaign.ini"
# The options of each verify call: none, a summary file, an empty path and an unknown option.
VERIFY_OPTIONS = ([], ["--out", "summary.txt"], ["--out", ""], ["--unknown"])

# A smallest valid file of each mode, by section.
MINIMAL = {
    "analyze": {"campaign": {"mode": "analyze", "seed": "1"},
                "sweep": {"ratios": "0.5", "chi_fractions": "0.1"}},
    "simulate": {"campaign": {"mode": "simulate", "seed": "1"},
                 "sweep": {"ratios": "0.5", "chi_fractions": "0.1"}},
    "distill": {"campaign": {"mode": "distill", "seed": "1"},
                "protocol": {"key_length": "8", "block_size": "3", "blocks_per_parity": "2",
                             "hash_rounds": "4", "disclose_fraction": "0.1"}},
}
# Two valid values of each key but mode, neither of them its default.
VALUES = {"seed": ("3", "4"), "trials": ("10", "11"), "out": ("run.csv", "other.csv"),
          "ratios": ("0.25", "0.75"), "chi_fractions": ("0.5", "0.25"),
          "state_extent": ("2.0", "3.0"), "channel_length": ("0.5", "0.25"),
          "tail_mass": ("0.0", "1e-3"), "ramp_fraction": ("0.05", "0.1"),
          "enabled": ("true", "false"), "delay": ("0.25", "0.5"), "resend": ("shifted", "none"),
          "key_length": ("16", "12"), "block_size": ("5", "1"), "blocks_per_parity": ("3", "1"),
          "hash_rounds": ("6", "2"), "disclose_fraction": ("0.2", "0.3"),
          "flip_probability": ("0.01", "0.02"), "loss_probability": ("0.01", "0.1"),
          "eps1": ("0.01", "0.1"), "eps2": ("0.01", "0.1")}
# Values that no key, or not every key, takes.
INVALID = ("", "x", "-1", "0", "1.5", "nan", "1e400", "verify")
# The arguments of the reports whose texts the boundary calls mutate.
REPORT_ARGS = ((16, 45, 1, 12, 0.5, 1e-3, 1e-3), (64, 10, 3, 8, 0.9, 1e-2, 0.1, 0.01, False),
               (8, 2, 1, 4, 0.25, 0.1, 0.1, None, True))


def _ini(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for name, keys in sections.items())


def _changed(rng: random.Random, sections: dict) -> None:
    """Apply one drawn change to ``sections`` in place."""
    section, key = rng.choice([(section, key) for section in harness._KEYS
                               for key in harness._KEYS[section]])
    kind = rng.choices(("valid", "invalid", "remove", "section", "key"), (4, 3, 2, 1, 1))[0]
    if kind == "valid":
        valid = harness.MODES if key == "mode" else VALUES[key]
        sections.setdefault(section, {})[key] = rng.choice(valid)
    elif kind == "invalid":
        sections.setdefault(section, {})[key] = rng.choice(INVALID)
    elif kind == "remove":
        present = [(name, k) for name, keys in sections.items() for k in keys]
        if present:
            name, k = rng.choice(present)
            del sections[name][k]
    elif kind == "section":
        sections.setdefault("extra", {})["key"] = "1"
    else:
        sections.setdefault(rng.choice(list(harness._KEYS)), {})["typo"] = "1"


def files() -> list[tuple[str, str]]:
    """The corpus: ``SIZE`` (mode, campaign text) pairs drawn from ``SEED``."""
    rng = random.Random(SEED)
    corpus = []
    for _ in range(SIZE):
        mode = rng.choice(harness.MODES)
        sections = {name: dict(keys) for name, keys in MINIMAL[mode].items()}
        for _ in range(rng.randint(0, 3)):
            _changed(rng, sections)
        corpus.append((mode, _ini(sections)))
    return corpus


def calls():
    """Each call's name, command line and campaign text, the unseeded call first."""
    for index, (mode, text) in enumerate(files()):
        for seed in ([], ["--seed", "5"]):
            yield " ".join([f"{index:04d}", mode, *seed]), [mode, CAMPAIGN, *seed], text


def verify_calls():
    """Each verify call's name and command line."""
    for index, options in enumerate(VERIFY_OPTIONS):
        yield f"verify {index:04d} {shlex.join(options)}".rstrip(), ["verify", *options]


def _run(argv, text: str | None = None) -> str:
    """The digest of one call in the working directory, whose written files it then removes.

    The call's campaign file holds ``text``; a call without one writes none.
    """
    if text is not None:
        with open(CAMPAIGN, "w") as fh:
            fh.write(text)
    # argparse wraps a usage error to the terminal's width, so the width is fixed.
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err, \
            mock.patch.dict(os.environ, COLUMNS="80"):
        code = main(argv)
    digest = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode())
    for name in sorted(os.listdir()):
        if name != CAMPAIGN:
            with open(name, "rb") as fh:
                digest.update(b"\0" + name.encode() + b"\0" + fh.read())
            os.remove(name)
    return digest.hexdigest()[:16]


def _args(rng: random.Random, valid: dict, invalid: dict) -> dict:
    """One valid value of each argument and, every other call, one argument made invalid."""
    args = {name: rng.choice(values) for name, values in valid.items()}
    if rng.random() < 0.5:
        name = rng.choice(list(invalid))
        args[name] = rng.choice(invalid[name])
    return args


def _mutated(rng: random.Random, text: str) -> tuple[str, str]:
    """``text`` with one character replaced, deleted or inserted, and how."""
    at = rng.randrange(len(text))
    kind = rng.choice(("replace", "delete", "insert"))
    char = rng.choice("01-.e=x \t\n")
    end = at if kind == "insert" else at + 1
    return text[:at] + ("" if kind == "delete" else char) + text[end:], f"{kind} {char!r} at {at}"


def boundary_calls():
    """Each boundary call's name, description and a function that returns its output text."""
    nan, inf = math.nan, math.inf
    ideal, tailed = make_plateau(1.0), make_plateau(1.0, 1e-3, 0.05)
    plateau = ({"plateau_length": (1.0, 0.7, 3.0, 2, 1e-300, 1e300),
                "tail_mass": (0.0, 1e-3, 0.01, 0.2), "ramp_fraction": (0.0, 0.01, 0.05, 0.49)},
               {"plateau_length": (0.0, -1.0, inf, nan, "1", None),
                "tail_mass": (1.0, -0.1, nan, "0"), "ramp_fraction": (0.5, -0.01, nan, 1e-320)})
    session = ({"key_length": (1, 2, 8, 16), "block_size": (1, 3, 5),
                "blocks_per_parity": (1, 2, 4), "hash_rounds": (1, 4, 8),
                "disclose_fraction": (0.05, 0.1, 0.3), "envelope": (ideal, tailed),
                "channel_length": (0.0, 0.25, 0.5, 0.9), "seed": (0, 1, 7, 2**40),
                "flip_probability": (0.0, 0.0, 0.02, 0.1),
                "loss_probability": (0.0, 0.0, 0.1, 0.5),
                "eve": (None, None, EveStrategy(0.0), EveStrategy(0.25, ResendPolicy.SHIFTED_COPY),
                        EveStrategy(0.1, ResendPolicy.NO_RESEND))},
               {"key_length": (0, -1, 2.0, "8"), "block_size": (0, 2, -3),
                "blocks_per_parity": (0, -1), "hash_rounds": (0, -1, None),
                "disclose_fraction": (0.0, 1.0, nan), "envelope": (None, "plateau"),
                "channel_length": (1.0, -0.1, nan, inf), "seed": (-1, 1.5, None),
                "flip_probability": (-0.1, 1.5, nan), "loss_probability": (1.0, -0.1, nan),
                "eve": ("eve", 0.25)})
    report = ({"n_key": (1, 16, 64, 1000), "blocks_per_parity": (1, 2, 10, 45, 200),
               "block_size": (1, 3, 5, 7), "hash_rounds": (1, 8, 12, 30),
               "ratio": (0.0, 0.25, 0.5, 0.9, 0.99), "eps1": (1e-3, 1e-2, 0.1),
               "eps2": (1e-3, 1e-2, 0.1), "p_err_estimate": (None, 0.0, 0.01, 0.2),
               "aborted": (None, False, True)},
              {"n_key": (0, -1, 1.5), "blocks_per_parity": (0, 10**7),
               "block_size": (2, 0, 10**7), "hash_rounds": (0, -2, 2**64),
               "ratio": (1.0, -0.1, nan, inf), "eps1": (0.0, 1.0, nan), "eps2": (0.0, 1.5),
               "p_err_estimate": (-0.1, 1.5, nan), "aborted": ("yes", 1)})
    solve = ({"eps1": (1e-6, 1e-3, 1e-2, 0.1), "eps2": (1e-6, 1e-3, 1e-2, 0.1),
              "n_key": (1, 16, 64, 256), "ratio": (0.0, 0.25, 0.5, 0.9)},
             {"eps1": (0.0, 1.0, nan, "0.1"), "eps2": (0.0, -1e-3),
              "n_key": (0, -4, 1.5), "ratio": (1.0, -0.5, nan, 0.99)})
    transcripts = [run_session(ProtocolConfig(*args)).to_text() for args in (
        (8, 3, 2, 4, 0.1, ideal, 0.5, 1),
        (16, 3, 4, 8, 0.1, tailed, 0.5, 2, 0.02, 0.1),
        (16, 5, 4, 8, 0.1, ideal, 0.5, 1, 0.0, 0.0, EveStrategy(0.25)))]
    reports = [build_report(*args).to_text() for args in REPORT_ARGS]

    def make_plateau_text(**args):
        envelope = make_plateau(**args)
        return f"{envelope!r} tail_mass={envelope.tail_mass!r}"

    def solve_text(**args):
        params, solved = solve_parameters(**args)
        return f"{params!r}\n{solved.to_text()}"

    calls = []

    def rng():
        """The generator of the next call, keyed by its index."""
        return random.Random(f"{BOUNDARY_SEED}/{len(calls)}")

    for label, count, call, (valid, invalid) in (
            ("make_plateau", 60, make_plateau_text, plateau),
            ("run_session", 60, lambda **args: run_session(ProtocolConfig(**args)).to_text(),
             session),
            ("build_report", 45, lambda **args: build_report(**args).to_text(), report),
            ("solve_parameters", 30, solve_text, solve)):
        for _ in range(count):
            args = _args(rng(), valid, invalid)
            calls.append((label, f"{label}(**{args!r})", lambda call=call, args=args: call(**args)))
    for label, count, parse, texts in (("Transcript.from_text", 60, Transcript, transcripts),
                                       ("SecurityReport.from_text", 45, SecurityReport, reports)):
        for _ in range(count):
            call_rng = rng()
            index = call_rng.randrange(len(texts))
            text, how = _mutated(call_rng, texts[index])
            calls.append((label, f"{label} of text {index} with {how}",
                          lambda parse=parse, text=text: parse.from_text(text).to_text()))
    for index, (label, description, call) in enumerate(calls):
        yield f"boundary {index:04d} {label}", description, call


def _outcome(call) -> str:
    """The digest of a boundary call's output text, or of its refusal's type and message."""
    try:
        text = "ok\0" + call()
    except RelqkdError as exc:
        text = f"{type(exc).__name__}\0{exc}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests(directory: str) -> list[str]:
    """Each call's pinned line, ``<digest> <name>``; the command lines run in ``directory``."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        lines = [f"{_run(argv, text)} {name}" for name, argv, text in calls()]
        lines += [f"{_outcome(call)} {name}" for name, _, call in boundary_calls()]
        return lines + [f"{_run(argv)} {name}" for name, argv in verify_calls()]
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.writelines(line + "\n" for line in digests(tmp))
