"""Golden bytes: fixed-seed outputs pinned by their sha256.

Refactors must leave every CSV, transcript and report byte-identical for
a fixed seed.  A change that moves an RNG stream or a text format on
purpose re-pins the digests below and says so.  Each distill case also
pins a digest of the session itself, independent of any text format: its
round table, hash log and keys.  A change of format alone leaves those
digests as they are.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from relqkd.distill import Transcript
from relqkd.harness import cmd_analyze, cmd_distill, cmd_simulate, load_campaign

ANALYZE_INI = """
[campaign]
mode = analyze
seed = 1

[sweep]
ratios = 0, 0.25, 0.5, 0.9
chi_fractions = 0, 0.1, 0.25, 0.5
"""

SIMULATE_INI = """
[campaign]
mode = simulate
trials = 20000
seed = 2024

[sweep]
ratios = 0.5, 0.9
chi_fractions = 0, 0.25

[geometry]
state_extent = 1.0

[state]
tail_mass = 1e-3
ramp_fraction = 0.05
"""

DISTILL_INI = """
[campaign]
mode = distill
seed = {seed}

[geometry]
state_extent = 1.0
channel_length = 0.5

[protocol]
key_length = {key_length}
block_size = {block_size}
blocks_per_parity = {blocks_per_parity}
hash_rounds = 4
disclose_fraction = 0.1
flip_probability = {flip}
loss_probability = {loss}
{extra}
"""

SMALL = dict(key_length=8, block_size=3, blocks_per_parity=2, loss=0.0)

DISTILL_CASES = {
    "clean": dict(SMALL, seed=11, flip=0.0, extra=""),
    "noisy": dict(SMALL, seed=12, flip=0.05, extra=""),
    "eve": dict(SMALL, seed=13, flip=0.0,
                extra="[eve]\nenabled = true\ndelay = 0.25\nresend = truncated\n"),
    "tailed": dict(SMALL, seed=14, flip=0.0,
                   extra="[state]\ntail_mass = 1e-3\nramp_fraction = 0.05\n"),
    # The block shapes of the distill-large benchmark at a shorter key.
    "k1n55": dict(key_length=128, block_size=1, blocks_per_parity=55, loss=0.0,
                  seed=15, flip=0.0, extra=""),
    "k7n9": dict(key_length=128, block_size=7, blocks_per_parity=9, loss=0.1,
                 seed=16, flip=0.02, extra=""),
}

GOLDEN = {
    "analyze.csv":
        "25d8c9c4b896696cef841748d7e6d6a900c48ecc63fd6eda47780616bd25f2d0",
    "simulate.csv":
        "abdbeef746da16cdc46294f3dac52a4763e52232626456a1969a2b0b3d5f948c",
    "clean.session":
        "943b283666c25619e34be6660a3f183a2cb4cf8bd69e9dc3ea5db94fd4ea7fed",
    "clean.transcript.txt":
        "d921489173358ac78c3e3778f81fb303fa04bf1fa9afa1221b637c349716b6aa",
    "clean.report.txt":
        "e3a089bdf1945d2f4cee30875f2c2339c13506a642ceb53fa5a36492325bdf6d",
    "noisy.session":
        "f244accf4411945339a89c6fb31b84b8910bb04b63de2a25e13dbcf2089d5332",
    "noisy.transcript.txt":
        "5c38f7aad93138fd80ef51a4b1273bdf2772b360ab09b7bac030803331cc5d8e",
    "noisy.report.txt":
        "e3a089bdf1945d2f4cee30875f2c2339c13506a642ceb53fa5a36492325bdf6d",
    "eve.session":
        "db8b9ce0150d1d9a5240874ddbe09f32d80d3c412613f820ea80d190c142a663",
    "eve.transcript.txt":
        "6256e9aa80c2b01f226b2ca3dbab8bacfcaea6cc2abd797bb6ddb0c4f43b2108",
    "eve.report.txt":
        "58a8ef1104c637b2e9abd0267b7280ae62f2a6013239463f637682ab7f899c52",
    "tailed.session":
        "c354d29d599dec3be5fb97de4aa6efe7ad2fa8dee7af24825179a027ab97f59f",
    "tailed.transcript.txt":
        "e98e0aee0f9b246a95ce8a3ccda6ec447037218dde767089f534a29d0965f3a8",
    "tailed.report.txt":
        "e3a089bdf1945d2f4cee30875f2c2339c13506a642ceb53fa5a36492325bdf6d",
    "k1n55.session":
        "4b8310383b0b2d6cf180a09ad1c49eabef1d7456a860e025b098c501377e9b90",
    "k1n55.transcript.txt":
        "9b8c9955f7545740f131fca6efea75516914a9551c7a63f6a931d5c40cd668c4",
    "k1n55.report.txt":
        "ec69f8babcd159b89ea6f9813a1618ae3cb88a3d337fa497f9408a2bce22f325",
    "k7n9.session":
        "3c76154fce9330cd723cee7d5eab1fb479b175aff3ff0557f133c30a47b9e7cf",
    "k7n9.transcript.txt":
        "d7ac2fdce6c9c3925c906234f90a1b3d8b1e4714a99b2723ba9fae3396f870d9",
    "k7n9.report.txt":
        "f875f5356217ab8fdc714dc5eecf21f7ea80ea4e49227725a0fdab7369a34d49",
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def session_digest(transcript) -> str:
    """sha256 of the round table's bytes, the hash log's fields and both keys."""
    digest = hashlib.sha256(transcript.round_table.tobytes())
    digest.update(repr([dataclasses.astuple(h) for h in transcript.hash_log]).encode())
    for key in (transcript.key_a, transcript.key_b):
        digest.update(b"-" if key is None else key.tobytes())
    return digest.hexdigest()


def campaign(tmp_path, name, text, out):
    path = tmp_path / f"{name}.ini"
    path.write_text(text)
    return load_campaign(str(path), out_override=str(tmp_path / out))


def test_analyze_csv(tmp_path):
    cmd_analyze(campaign(tmp_path, "analyze", ANALYZE_INI, "analyze.csv"))
    assert sha256(tmp_path / "analyze.csv") == GOLDEN["analyze.csv"]


def test_simulate_csv(tmp_path):
    cmd_simulate(campaign(tmp_path, "simulate", SIMULATE_INI, "simulate.csv"))
    assert sha256(tmp_path / "simulate.csv") == GOLDEN["simulate.csv"]


@pytest.mark.parametrize("case", sorted(DISTILL_CASES))
def test_distill_transcript_and_report(tmp_path, case):
    transcript, _ = cmd_distill(
        campaign(tmp_path, case, DISTILL_INI.format(**DISTILL_CASES[case]), case))
    assert session_digest(transcript) == GOLDEN[case + ".session"]
    # A C-order copy of the column-major table derives the same session.
    assert transcript.round_table.flags.f_contiguous
    c_order = dataclasses.replace(
        transcript, round_table=np.ascontiguousarray(transcript.round_table))
    assert session_digest(c_order) == GOLDEN[case + ".session"]
    for suffix in (".transcript.txt", ".report.txt"):
        assert sha256(tmp_path / (case + suffix)) == GOLDEN[case + suffix], suffix
    text = (tmp_path / (case + ".transcript.txt")).read_text()
    assert Transcript.from_text(text) == transcript
