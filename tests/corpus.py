"""A seeded corpus of campaign files, each run through ``relqkd.cli.main``.

``files`` draws ``SIZE`` files from ``random.Random(SEED)``.  Each is its
mode's smallest valid file (``MINIMAL``) with 0 to 3 changes: a key of
``harness._SCHEMA`` set to a valid value or to one of ``INVALID``, a key
removed, or an unknown section or key added.  ``digests`` runs each file
as its mode's command, without and then with ``--seed 5``, and hashes the
call's exit code, stdout, stderr and the name and bytes of each file it
wrote; it runs in the directory of the file and names it relatively, so
no output names that directory.  ``tests/corpus.sha256`` pins one
16-hex-digit digest per call; ``python tests/corpus.py`` prints the lines.
"""

import contextlib
import hashlib
import io
import os
import random
import sys
import tempfile

from relqkd import harness
from relqkd.cli import main

SEED, SIZE = 2026, 600
CAMPAIGN = "campaign.ini"

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


def _ini(sections) -> str:
    return "".join(f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in keys.items())
                   for name, keys in sections.items())


def _changed(rng: random.Random, sections: dict) -> None:
    """Apply one drawn change to ``sections`` in place."""
    section, key = rng.choice([(section, key) for section in harness._SCHEMA
                               for key in harness._SCHEMA[section]])
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
        sections.setdefault(rng.choice(list(harness._SCHEMA)), {})["typo"] = "1"


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


def _run(argv, text: str) -> str:
    """The digest of one call in the working directory, whose written files it then removes."""
    with open(CAMPAIGN, "w") as fh:
        fh.write(text)
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    digest = hashlib.sha256(f"{code}\0{out.getvalue()}\0{err.getvalue()}".encode())
    for name in sorted(os.listdir()):
        if name != CAMPAIGN:
            with open(name, "rb") as fh:
                digest.update(b"\0" + name.encode() + b"\0" + fh.read())
            os.remove(name)
    return digest.hexdigest()[:16]


def digests(directory: str) -> list[str]:
    """Each call's pinned line, ``<digest> <name>``, run in the empty ``directory``."""
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        return [f"{_run(argv, text)} {name}" for name, argv, text in calls()]
    finally:
        os.chdir(cwd)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.writelines(line + "\n" for line in digests(tmp))
